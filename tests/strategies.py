"""Hypothesis strategies shared by several test modules.

They live apart from ``tests/util.py``, which the benchmark harness imports, so that
hypothesis is loaded by the tests alone.
"""
import math

from hypothesis import strategies as st

from leakystage import EPS_THR, ModelParams
from leakystage.model import _MAX, _RATE_MAX, _RATE_MIN

#: The bounds of the package's numeric domain, read from ``leakystage.model``: every rate
#: in [RATE_MIN, RATE_MAX], every other number in [0, MAX].
RATE_MIN, RATE_MAX, MAX = _RATE_MIN, _RATE_MAX, _MAX

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


def _log_uniform(low: float, high: float):
    """Floats log-uniform in [low, high], the bounds included."""
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: min(max(math.exp(x), low), high))


def _or_corners(low: float, high: float, *corners: float):
    return st.sampled_from(corners) | _log_uniform(low, high)


@st.composite
def _corner_rate_sets(draw):
    """Rate sets at the domain's corners: each rate at a bound, one ulp above the rate
    below it, or log-uniform between, ``mu`` one ulp above ``beta`` in about half.

    Sets whose two rounded differences tie, ``mu - beta == delta - beta``, are left out:
    their ``delta_c`` is 1, which ``derive`` rejects (``tests/test_model.py`` checks it),
    so no closed form is reached for them."""
    below_top = math.nextafter(math.nextafter(RATE_MAX, 0.0), 0.0)
    beta = draw(_or_corners(RATE_MIN, below_top, RATE_MIN, below_top))
    above = math.nextafter(beta, math.inf)
    mu = draw(_or_corners(above, math.nextafter(RATE_MAX, 0.0), above))
    above = math.nextafter(mu, math.inf)
    delta = draw(_or_corners(above, RATE_MAX, above, RATE_MAX))
    rho = draw(_or_corners(RATE_MIN, RATE_MAX, RATE_MIN, RATE_MAX))
    return ModelParams(beta=beta, mu=mu, delta=delta, rho=rho)


corner_rate_sets = _corner_rate_sets().filter(lambda p: p.mu - p.beta < p.delta - p.beta)

#: Tolerances at the domain's corners: 0, the default, and the bound.
corner_tolerances = st.sampled_from([0.0, EPS_THR, MAX])
