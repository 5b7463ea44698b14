"""Edgewise and nodewise inference primitives.

Implements the variance-stabilizing Fisher transform, z-tests against
grand statistics, the balanced repeated-measures decomposition (fixed
condition effects plus a per-subject random intercept, estimable in
closed form), and Benjamini-Hochberg step-up FDR control.

Tail probabilities come from scipy.special (erf / regularized
incomplete-beta routines, accurate well past 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .errors import ValidationError

# Relative tolerance against the total sum of squares, below which a
# variance stratum is treated as exactly zero (degenerate).
_SS_REL_TOL = 1e-12


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
class TestResult:
    """Outcome of a single univariate test."""

    statistic: float
    p_value: float
    effect_sign: int
    dof: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p_value {self.p_value!r} outside [0, 1]")
        if self.effect_sign not in (-1, 0, 1):
            raise ValidationError(f"effect_sign must be -1, 0, or +1, got {self.effect_sign!r}")


@dataclass(frozen=True)
class EdgeModelFit:
    """Closed-form fit of the balanced repeated-measures model for one edge.

    fixed_effects are the per-condition means; subject_intercepts are
    subject means relative to the grand mean; the F-test compares the
    condition stratum to the residual stratum with dof
    (J-1, (n-1)(J-1)).  ``degenerate`` flags a zero residual stratum
    (infinite F, reported as p = 0).
    """

    fixed_effects: np.ndarray
    subject_intercepts: np.ndarray
    residual_variance: float
    f_statistic: float
    p_value: float
    trend_sign: int
    dof: tuple[float, float]
    degenerate: bool = False


@dataclass(frozen=True)
class FdrDecision:
    """Step-up FDR decision over a family of hypotheses.

    ``rejected`` is a boolean mask in the original hypothesis order;
    ``threshold_index`` is the step-up rank (number of rejections).
    """

    rejected: np.ndarray
    threshold_index: int
    base_rate: float

    def __post_init__(self):
        mask = np.array(self.rejected, dtype=bool, copy=True)
        mask.setflags(write=False)
        object.__setattr__(self, "rejected", mask)

    @property
    def n_rejected(self) -> int:
        return self.threshold_index


class FitFamily(NamedTuple):
    """Repeated-measures fits for a family of H hypotheses, in hypothesis order."""

    fixed_effects: np.ndarray  # (H, J) condition means
    subject_intercepts: np.ndarray  # (H, n) subject means minus the grand mean
    residual_variance: np.ndarray
    f_statistic: np.ndarray
    p_value: np.ndarray
    trend_sign: np.ndarray  # int, -1 / 0 / +1
    degenerate: np.ndarray  # bool: zero residual stratum, reported as F = inf, p = 0


def grand_mean_z_family(values, grand_mean: float, grand_sd: float):
    """grand_mean_z_test for every column of an (n, H) array at once.

    Returns (statistic, p_value, effect_sign) arrays of length H.  Each
    column's mean is a pairwise sum over a contiguous row, as for a
    single sample, so the results match one-column calls bit for bit.
    """
    x = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    delta = x.mean(axis=1) - grand_mean
    statistic = delta / (grand_sd / math.sqrt(x.shape[1]))
    p_value = np.minimum(sp.erfc(np.abs(statistic) / math.sqrt(2.0)), 1.0)
    return statistic, p_value, np.sign(delta).astype(int)


def grand_mean_z_test(edge_values, grand_mean: float, grand_sd: float) -> TestResult:
    """Two-sided z-test of a sample mean against pooled grand statistics.

    statistic = (mean(edge_values) - grand_mean) / (grand_sd / sqrt(n)),
    with the p-value from the standard normal.
    """
    values = np.asarray(edge_values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValidationError("grand_mean_z_test needs a 1-d sample of size >= 2")
    if not grand_sd > 0:
        raise ValidationError(f"grand_sd must be positive, got {grand_sd!r}")
    statistic, p_value, sign = grand_mean_z_family(values[:, None], grand_mean, grand_sd)
    return TestResult(
        statistic=float(statistic[0]),
        p_value=float(p_value[0]),
        effect_sign=int(sign[0]),
        dof=(math.inf, math.inf),
    )


def repeated_measures_family(values) -> FitFamily:
    """repeated_measures_fit for every n x J table values[:, :, h] of an (n, J, H) array.

    The tables are copied once into an (H, n, J) layout so that every sum
    runs in the order a single table's would: the grand mean and the total
    sum of squares are pairwise sums over each table's contiguous n * J
    values, and condition and subject means accumulate sequentially.  A
    one-table call therefore gives the same bits as the batched one.
    """
    x = np.moveaxis(np.asarray(values, dtype=float), -1, 0).copy()
    h, n, j = x.shape
    grand = x.reshape(h, n * j).mean(axis=1)
    cond_means = x.mean(axis=1)
    subj_means = x.mean(axis=2)

    # the only family-sized temporary: squared deviations, formed in place
    x -= grand[:, None, None]
    x *= x
    ss_total = x.reshape(h, n * j).sum(axis=1)
    del x
    ss_cond = n * ((cond_means - grand[:, None]) ** 2).sum(axis=1)
    ss_subj = j * ((subj_means - grand[:, None]) ** 2).sum(axis=1)
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
        p_value = sp.fdtrc(df_cond, df_resid, f_stat)
    trend[flat] = 0
    return FitFamily(
        fixed_effects=cond_means,
        subject_intercepts=subj_means - grand[:, None],
        residual_variance=ms_resid,
        f_statistic=np.where(flat, 0.0, np.where(degenerate, np.inf, f_stat)),
        p_value=np.where(flat, 1.0, np.where(degenerate, 0.0, p_value)),
        trend_sign=trend,
        degenerate=degenerate,
    )


def repeated_measures_fit(values) -> EdgeModelFit:
    """Fit the balanced subjects x conditions decomposition for one response.

    ``values`` is a complete n x J table (rows = subjects, columns =
    conditions in gradient order).  Variance splits into subject,
    condition, and residual strata; the condition F-test has dof
    (J-1, (n-1)(J-1)).  The trend sign is the sign of the equally
    spaced linear contrast over the condition means.
    """
    table = np.asarray(values, dtype=float)
    if table.ndim != 2:
        raise ValidationError("repeated_measures_fit needs an n x J table")
    n, j = table.shape
    if n < 2 or j < 2:
        raise ValidationError(f"need n >= 2 subjects and J >= 2 conditions, got {n} x {j}")
    if not np.all(np.isfinite(table)):
        raise ValidationError("unsupported design: table has missing or non-finite cells")
    fit = repeated_measures_family(table[:, :, None])
    return EdgeModelFit(
        fixed_effects=fit.fixed_effects[0],
        subject_intercepts=fit.subject_intercepts[0],
        residual_variance=float(fit.residual_variance[0]),
        f_statistic=float(fit.f_statistic[0]),
        p_value=float(fit.p_value[0]),
        trend_sign=int(fit.trend_sign[0]),
        dof=(float(j - 1), float((n - 1) * (j - 1))),
        degenerate=bool(fit.degenerate[0]),
    )


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
    if m == 0:
        return FdrDecision(np.zeros(0, dtype=bool), 0, base_rate)
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    passing = p[order] <= ranks * base_rate / m
    if not passing.any():
        return FdrDecision(np.zeros(m, dtype=bool), 0, base_rate)
    k = int(np.max(ranks[passing]))
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k]] = True
    return FdrDecision(rejected, k, base_rate)


def uncorrected(p_values, alpha: float) -> FdrDecision:
    """Uncorrected per-hypothesis thresholding (p < alpha), as a decision mask."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    p = _validated_pvalues(p_values)
    rejected = p < alpha
    return FdrDecision(rejected, int(rejected.sum()), alpha)
