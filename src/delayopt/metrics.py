"""Reported statistics: Welch tests, improvement percentages, stability
boundary search, and per-run summaries.

The t-distribution tail is computed from a continued-fraction regularized
incomplete beta so runs have no statistics dependency; the implementation is
validated in the test suite against published t-table values and an external
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from delayopt.core import ContractError

P_VALUE_FLOOR = 1e-12


@dataclass
class WelchResult:
    mean_a: float
    mean_b: float
    sd_a: float
    sd_b: float
    t_stat: float
    dof: float
    p_value: float


def welch_t(samples_a: Sequence[float], samples_b: Sequence[float]) -> WelchResult:
    """Welch's unequal-variance t statistic with a two-sided p-value.

    A NaN or infinite sample gives NaN for t, the degrees of freedom and p.
    Two constant samples give t = 0 and p = 1 when their means agree, else
    t = +-inf and p = 0."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ContractError("Welch test needs at least 2 samples per group")
    # an infinite sample makes the variance inf - inf; its NaN is reported
    with np.errstate(invalid="ignore"):
        ma, mb = float(a.mean()), float(b.mean())
        va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    na, nb = a.size, b.size
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # no test: a NaN t would otherwise read as p = 0
        return WelchResult(ma, mb, math.sqrt(va), math.sqrt(vb), math.nan, math.nan, math.nan)
    se_sq = va / na + vb / nb
    if se_sq == 0.0:
        # degenerate: both samples constant
        t = 0.0 if ma == mb else math.inf * math.copysign(1.0, ma - mb)
        p = 1.0 if ma == mb else 0.0
        return WelchResult(ma, mb, math.sqrt(va), math.sqrt(vb), t, float(na + nb - 2), p)
    t = (ma - mb) / math.sqrt(se_sq)
    dof = se_sq**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = student_t_two_sided(t, dof)
    return WelchResult(ma, mb, math.sqrt(va), math.sqrt(vb), t, dof, p)


def student_t_two_sided(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|) via the regularized incomplete beta function."""
    if not math.isfinite(t):
        return 0.0
    x = dof / (dof + t * t)
    return min(1.0, regularized_incomplete_beta(dof / 2.0, 0.5, x))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by continued fraction (symmetric form for convergence)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 1e-15) -> float:
    # modified Lentz continued-fraction evaluation
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    return h


def p_value_display(p: float) -> str:
    """Floor tiny p-values for reporting."""
    if p < P_VALUE_FLOOR:
        return "<1e-12"
    return f"{p:.9g}"


def improvement_pct(regret_treatment: float, regret_control: float) -> float:
    """Percent regret reduction of the treatment relative to the control."""
    if regret_control <= 0:
        raise ContractError("improvement percentage needs a positive control regret")
    return 100.0 * (regret_control - regret_treatment) / regret_control


class SearchError(RuntimeError):
    """The stability search preconditions failed."""


def eta_max_search(
    is_stable: Callable[[float], bool],
    lo: float,
    hi: float,
    resolution: float,
) -> float:
    """Largest stable step size in [lo, hi] to within ``resolution``.

    ``is_stable`` must be deterministic. The bracket is verified first: the
    lower bound must be stable and the upper bound unstable, otherwise the
    search has nothing to bisect.
    """
    if resolution <= 0:
        raise ContractError("resolution must be positive")
    if not (lo < hi):
        raise SearchError(f"degenerate search interval [{lo}, {hi}]")
    if not is_stable(lo):
        raise SearchError(f"lower bound eta={lo} is already unstable; nothing to search")
    if is_stable(hi):
        raise SearchError(f"upper bound eta={hi} is stable; raise the bracket")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))
