"""Statistics utilities against closed forms, published table values, and a
reference implementation where available."""

import math
import warnings

import numpy as np
import pytest

from delayopt.core import ContractError
from delayopt.metrics import (
    SearchError,
    eta_max_search,
    improvement_pct,
    p_value_display,
    regularized_incomplete_beta,
    student_t_two_sided,
    welch_t,
)

try:
    import scipy.stats as sps
    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False


# -- welch test -----------------------------------------------------------------------


def test_welch_identical_lists():
    res = welch_t([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
    assert res.t_stat == 0.0
    assert res.p_value == 1.0


def test_welch_separated_samples():
    res = welch_t([0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.001, 0.999, 1.0005, 0.9995])
    assert res.p_value < 1e-4


def test_welch_reference_values():
    # frozen reference computed with scipy.stats.ttest_ind(equal_var=False)
    a = [579.0, 581.0, 575.0, 590.0, 570.0]
    b = [628.0, 630.0, 622.0, 635.0, 625.0]
    res = welch_t(a, b)
    assert res.t_stat == pytest.approx(-12.25, rel=1e-10)
    assert res.dof == pytest.approx(6.955576688, rel=1e-9)
    assert res.p_value == pytest.approx(5.8242232e-06, rel=1e-6)
    assert res.p_value < 0.001
    if HAVE_SCIPY:
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert res.t_stat == pytest.approx(ref.statistic, rel=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_welch_symmetry():
    a = [1.0, 2.0, 3.5, 2.2]
    b = [0.3, 0.9, 1.4]
    r1, r2 = welch_t(a, b), welch_t(b, a)
    assert r1.t_stat == pytest.approx(-r2.t_stat)
    assert r1.p_value == pytest.approx(r2.p_value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_welch_non_finite_sample_gives_nan_not_p_zero(bad, side):
    # a NaN t used to become p = 0, which compare.csv printed as <1e-12;
    # the warnings filter turns numpy's inf - inf warning into a failure
    a, b = [1.0, bad, 2.0], [1.0, 1.5, 2.0]
    if side == "b":
        a, b = b, a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = welch_t(a, b)
    assert math.isnan(res.t_stat) and math.isnan(res.dof) and math.isnan(res.p_value)
    assert p_value_display(res.p_value) == "nan"


@pytest.mark.parametrize("a, b, t", [([3.0, 3.0], [2.0, 2.0, 2.0], math.inf),
                                     ([2.0, 2.0], [3.0, 3.0, 3.0], -math.inf)])
def test_welch_constant_samples_keep_infinite_t_and_p_zero(a, b, t):
    res = welch_t(a, b)
    assert res.t_stat == t and res.p_value == 0.0 and res.dof == 3.0


def test_welch_requires_two_samples():
    with pytest.raises(ContractError):
        welch_t([1.0], [1.0, 2.0])


def test_t_distribution_against_published_table():
    # two-sided critical values: P(|T_ν| > t) = alpha
    assert student_t_two_sided(12.706, 1) == pytest.approx(0.05, rel=1e-3)
    assert student_t_two_sided(2.776, 4) == pytest.approx(0.05, rel=1e-3)
    assert student_t_two_sided(2.228, 10) == pytest.approx(0.05, rel=1e-3)
    assert student_t_two_sided(2.845, 20) == pytest.approx(0.01, rel=1e-2)
    assert student_t_two_sided(1.0, 1) == pytest.approx(0.5, rel=1e-6)


@pytest.mark.skipif(not HAVE_SCIPY, reason="reference library unavailable")
def test_incomplete_beta_against_reference():
    import scipy.special as sc
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = float(rng.uniform(0.2, 30))
        b = float(rng.uniform(0.2, 30))
        x = float(rng.uniform(0.001, 0.999))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(sc.betainc(a, b, x), rel=1e-9, abs=1e-12)


def test_p_value_display_floor():
    assert p_value_display(1e-15) == "<1e-12"
    assert p_value_display(0.5) == "0.5"


# -- improvement percentage --------------------------------------------------------------


def test_improvement_pct_values():
    assert improvement_pct(568.0, 628.0) == pytest.approx(9.5541, abs=1e-3)
    assert improvement_pct(579.0, 579.0) == 0.0
    with pytest.raises(ContractError):
        improvement_pct(1.0, 0.0)


# -- stability search ---------------------------------------------------------------------


def scalar_recurrence_stable(eta, d, T, coupling=1.0, theta0=1.0, guard=1e6):
    """Direct simulation of theta' = theta - eta * coupling^2 * theta_{t-d}."""
    hist = [theta0] * (d + 1)
    for _ in range(T):
        nxt = hist[-1] - eta * coupling**2 * hist[-1 - d]
        hist.append(nxt)
        if abs(nxt) > guard or not math.isfinite(nxt):
            return False
    return True


def test_eta_max_synchronous_boundary():
    # closed form: stable iff eta < 2 for unit coupling with d = 0
    eta = eta_max_search(lambda e: scalar_recurrence_stable(e, 0, 20_000), 0.5, 4.0, 0.001)
    assert eta == pytest.approx(2.0, abs=1.5e-3)


def test_eta_max_delayed_boundary_within_known_range():
    eta = eta_max_search(lambda e: scalar_recurrence_stable(e, 5, 20_000), 0.01, 2.0, 0.001)
    assert 0.1 <= eta <= 2.0  # above the sufficient bound 1/(2 d), below synchronous


def test_eta_max_monotone_in_delay():
    vals = []
    for d in (0, 2, 5, 10):
        vals.append(eta_max_search(lambda e, d=d: scalar_recurrence_stable(e, d, 5000), 0.005, 4.0, 0.005))
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_eta_max_stable_under_horizon_doubling():
    e1 = eta_max_search(lambda e: scalar_recurrence_stable(e, 0, 20_000), 0.5, 4.0, 0.001)
    e2 = eta_max_search(lambda e: scalar_recurrence_stable(e, 0, 40_000), 0.5, 4.0, 0.001)
    assert abs(e1 - e2) <= 0.001 + 1e-12


def test_eta_max_search_errors():
    with pytest.raises(SearchError, match="degenerate"):
        eta_max_search(lambda e: True, 1.0, 1.0, 0.1)
    with pytest.raises(SearchError, match="already unstable"):
        eta_max_search(lambda e: False, 0.1, 1.0, 0.1)
    with pytest.raises(SearchError, match="stable"):
        eta_max_search(lambda e: True, 0.1, 1.0, 0.1)
