"""Edgewise and nodewise inference primitives.

Implements the variance-stabilizing Fisher transform, z-tests against
grand statistics, the balanced repeated-measures decomposition (fixed
condition effects plus a per-subject random intercept, estimable in
closed form), and Benjamini-Hochberg step-up FDR control.

Tail probabilities are computed here, without scipy.special, whose
import (about 0.25 s) would cost each statistics process more than its
tests do.  The normal tail is ``math.erfc`` applied elementwise.  The F
tail is the regularized incomplete beta by its continued fraction
(modified Lentz; Press et al., Numerical Recipes, 3rd ed., section 6.4),
vectorized over the family.  Against mpmath it agrees to about 1e-13
relative at the paper's (3, 57) degrees of freedom, and to within 4e-12
from (1, 1) to (9, 891), for every p down to 1e-300.  Most of that error
is the rounding of ``math.lgamma`` at large degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Relative tolerance against the total sum of squares, below which a
# variance stratum is treated as exactly zero (degenerate).
_SS_REL_TOL = 1e-12

# Tables whose squared deviations repeated_measures_fit holds at once.
_TABLES_PER_BLOCK = 256

_erfc = np.frompyfunc(math.erfc, 1, 1)

# The continued fraction stops once a step changes the value by at most
# one unit in the last place; _CF_TINY stands in for a zero denominator.
_CF_EPS = np.finfo(float).eps
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000


def fisher_z(r):
    """Fisher z-transformation z = arctanh(r) = 0.5 * ln((1+r)/(1-r)).

    Accepts scalars or arrays; every entry must satisfy |r| < 1.
    """
    arr = np.asarray(r, dtype=float)
    mask = ~(np.abs(arr) < 1)
    if np.any(mask):
        bad = float(arr.ravel()[np.flatnonzero(mask.ravel())[0]])
        raise ValidationError(f"fisher_z requires |r| < 1, got {bad!r}")
    out = np.arctanh(arr)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def fisher_z_inverse(z):
    """Inverse Fisher transform r = tanh(z)."""
    out = np.tanh(np.asarray(z, dtype=float))
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class FdrDecision:
    """Which hypotheses of a family a test rejects.

    ``rejected`` is a read-only boolean mask in the original hypothesis
    order; ``n_rejected`` counts it.  For ``bh_fdr`` that count is the
    step-up rank.
    """

    rejected: np.ndarray
    n_rejected: int = field(init=False)

    def __post_init__(self):
        mask = np.array(self.rejected, dtype=bool, copy=True)
        mask.setflags(write=False)
        object.__setattr__(self, "rejected", mask)
        object.__setattr__(self, "n_rejected", int(mask.sum()))


class FitFamily(NamedTuple):
    """repeated_measures_fit's result for a family of H hypotheses, in hypothesis order."""

    fixed_effects: np.ndarray  # (H, J) condition means
    subject_intercepts: np.ndarray  # (H, n) subject means minus the grand mean
    residual_variance: np.ndarray
    f_statistic: np.ndarray
    p_value: np.ndarray
    trend_sign: np.ndarray  # int, -1 / 0 / +1
    degenerate: np.ndarray  # bool: zero residual stratum, reported as F = inf, p = 0


def grand_mean_z_test(values, grand_mean: float, grand_sd: float):
    """Two-sided z-tests of column means against pooled grand statistics.

    ``values`` is an (n, H) array with one column per hypothesis and
    n >= 2 rows.  Column h gets statistic = (mean(values[:, h]) -
    grand_mean) / (grand_sd / sqrt(n)), with the p-value from the standard
    normal.  Returns (statistic, p_value, effect_sign) arrays of length H.
    Each column's mean is a pairwise sum over a contiguous row, so a
    one-column call gives the same bits as the column does in its family.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValidationError(
            f"grand_mean_z_test needs an (n, H) array with n >= 2, got shape {x.shape}")
    if not grand_sd > 0:
        raise ValidationError(f"grand_sd must be positive, got {grand_sd!r}")
    x = np.ascontiguousarray(x.T)
    delta = x.mean(axis=1) - grand_mean
    statistic = delta / (grand_sd / math.sqrt(x.shape[1]))
    p_value = np.minimum(_erfc(np.abs(statistic) / math.sqrt(2.0)).astype(float), 1.0)
    return statistic, p_value, np.sign(delta).astype(int)


def repeated_measures_fit(values) -> FitFamily:
    """Fit the balanced subjects x conditions decomposition to every table of a family.

    ``values`` has shape (n, J, H): table h is values[:, :, h], with rows
    = subjects (n >= 2) and columns = conditions in gradient order
    (J >= 2), every cell finite.  Variance splits into subject, condition
    and residual strata; the condition F-test has dof (J-1, (n-1)(J-1)).
    The trend sign is the sign of the equally spaced linear contrast over
    the condition means.

    The tables are read in an (H, n, J) layout so that every sum runs in
    the order a single table's would: the grand mean and the total sum of
    squares are pairwise sums over each table's contiguous n * J values,
    and condition and subject means accumulate sequentially.  A one-table
    call therefore gives the same bits as the batched one.  ``values`` is
    copied into that layout unless it is already an (n, J, H) view of a
    C-ordered (H, n, J) array, which is then read in place; either way it
    is never written to.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 3:
        raise ValidationError(
            f"repeated_measures_fit needs an (n, J, H) array, got shape {arr.shape}")
    n, j, h = arr.shape
    if n < 2 or j < 2:
        raise ValidationError(f"need n >= 2 subjects and J >= 2 conditions, got {n} x {j}")
    if not np.isfinite(arr).all():
        raise ValidationError("unsupported design: table has missing or non-finite cells")
    x = np.ascontiguousarray(np.moveaxis(arr, -1, 0))
    grand = x.reshape(h, n * j).mean(axis=1)
    cond_means = x.mean(axis=1)
    intercepts = x.mean(axis=2)
    intercepts -= grand[:, None]  # subject means minus the grand mean

    # squared deviations, formed a block of tables at a time
    ss_total = np.empty(h)
    for lo in range(0, h, _TABLES_PER_BLOCK):
        block = slice(lo, lo + _TABLES_PER_BLOCK)
        dev = x[block] - grand[block, None, None]
        dev *= dev
        ss_total[block] = dev.reshape(len(dev), n * j).sum(axis=1)
    ss_cond = n * ((cond_means - grand[:, None]) ** 2).sum(axis=1)
    ss_subj = j * (intercepts ** 2).sum(axis=1)
    ss_resid = np.maximum(ss_total - ss_cond - ss_subj, 0.0)

    df_cond = j - 1
    df_resid = (n - 1) * (j - 1)
    ms_resid = ss_resid / df_resid

    terms = (np.arange(1, j + 1) - (j + 1) / 2.0) * cond_means
    contrast = terms.sum(axis=1)
    slack = _SS_REL_TOL * np.abs(terms).sum(axis=1)
    trend = np.where(contrast > slack, 1, np.where(contrast < -slack, -1, 0))

    tol = _SS_REL_TOL * ss_total
    flat = ss_cond <= tol
    degenerate = ~flat & (ss_resid <= tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_stat = (ss_cond / df_cond) / ms_resid
        p_value = _f_tail(df_cond, df_resid, f_stat)
    trend[flat] = 0
    return FitFamily(
        fixed_effects=cond_means,
        subject_intercepts=intercepts,
        residual_variance=ms_resid,
        f_statistic=np.where(flat, 0.0, np.where(degenerate, np.inf, f_stat)),
        p_value=np.where(flat, 1.0, np.where(degenerate, 0.0, p_value)),
        trend_sign=trend,
        degenerate=degenerate,
    )


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b), by modified Lentz, for every x
    at once.  It converges fast for x < (a + 1) / (a + b + 2).  Each value
    leaves the loop as soon as it has converged, so it does not depend on
    the other entries of ``x``."""
    def nonzero(v):
        return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)

    out = np.empty_like(x)
    todo = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    for m in range(1, _CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / nonzero(1.0 + even * d)
        c = nonzero(1.0 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / nonzero(1.0 + odd * d)
        c = nonzero(1.0 + odd / c)
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= _CF_EPS
        out[todo[done]] = h[done]
        keep = ~done
        todo, x, c, d, h = todo[keep], x[keep], c[keep], d[keep], h[keep]
        if todo.size == 0:
            break
    out[todo] = h
    return out


def _f_tail(d1: int, d2: int, f_stat) -> np.ndarray:
    """P(F > f) for an F(d1, d2) variable, elementwise over ``f_stat``.

    The tail is the regularized incomplete beta I_x(d2/2, d1/2) at
    x = d2 / (d2 + d1 f), with y = 1 - x formed as d1 f / (d2 + d1 f) so
    that it keeps full precision when x is near 1.  Past the fraction's
    fast region it uses the symmetry I_x(a, b) = 1 - I_y(b, a).  F = 0
    gives 1 and F = inf gives 0; a negative or NaN F gives NaN.
    """
    f = np.asarray(f_stat, dtype=float)
    p = np.where(f == 0.0, 1.0, np.where(f == np.inf, 0.0, np.nan))
    inside = np.isfinite(f) & (f > 0.0)
    fi = f[inside]
    a, b = d2 / 2.0, d1 / 2.0
    x = d2 / (d2 + d1 * fi)
    y = d1 * fi / (d2 + d1 * fi)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log(y) - log_beta)
    lower = x < (a + 1.0) / (a + b + 2.0)
    tail = np.empty_like(fi)
    tail[lower] = front[lower] * _beta_continued_fraction(a, b, x[lower]) / a
    upper = ~lower
    tail[upper] = 1.0 - front[upper] * _beta_continued_fraction(b, a, y[upper]) / b
    p[inside] = tail
    return p


def _validated_pvalues(p_values) -> np.ndarray:
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValidationError("p_values must be one-dimensional")
    if p.size and (np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p))):
        raise ValidationError("p_values must all lie in [0, 1]")
    return p


def bh_fdr(p_values, base_rate: float) -> FdrDecision:
    """Benjamini-Hochberg step-up procedure.

    Finds the largest rank i with p_(i) <= (i/m) * base_rate and rejects
    the hypotheses carrying the i smallest p-values.  Tied p-values
    straddling the cut never split: a maximal rank always absorbs them.
    """
    if not 0.0 < base_rate < 1.0:
        raise ValidationError(f"base_rate must lie in (0, 1), got {base_rate!r}")
    p = _validated_pvalues(p_values)
    m = p.size
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    passing = p[order] <= ranks * base_rate / m
    k = int(ranks[passing].max(initial=0))
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k]] = True
    return FdrDecision(rejected)


def uncorrected(p_values, alpha: float) -> FdrDecision:
    """Uncorrected per-hypothesis thresholding (p < alpha), as a decision mask."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    p = _validated_pvalues(p_values)
    return FdrDecision(p < alpha)
