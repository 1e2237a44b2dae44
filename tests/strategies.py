"""Hypothesis strategies shared by several test modules.

They live apart from ``tests/util.py``, which the benchmark harness imports, so that
hypothesis is loaded by the tests alone.
"""
from hypothesis import strategies as st

from leakystage import ModelParams

#: Rate sets in the shock-sensitive regime, drawn like ``util.random_params``.
rate_sets = st.builds(
    lambda beta, gap_mu, gap_delta, rho: ModelParams(
        beta=beta, mu=beta + gap_mu, delta=beta + gap_mu + gap_delta, rho=rho
    ),
    st.floats(0.05, 1.5),
    st.floats(0.02, 1.5),
    st.floats(0.02, 2.0),
    st.floats(0.1, 3.0),
)
