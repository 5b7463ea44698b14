"""Mass-univariate summary networks over populations of correlation matrices.

Inference always runs on the Fisher-transformed correlations themselves,
never on averaged thresholded graphs (binarization and averaging do not
commute).  Three pipelines are provided:

* mean SPN - per-condition z-tests of each edge against the pooled grand
  mean and grand standard deviation; an edge enters the network when it
  survives correction with a positive effect sign.
* differential SPN+/- - per-edge repeated-measures F-tests over the full
  subjects x conditions table; surviving edges are routed by the sign of
  the linear trend over the condition gradient.
* node differential SPN+/- - the same model applied to per-node signal
  intensities, flagging vertices instead of edges.

Hypotheses are ordered by the upper-triangle edge list (i < j,
lexicographic); the FDR decision mask in each result follows that order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateStatisticsWarning, ValidationError
from .graphs import BinaryGraph, validate_symmetric_hollow
from .stats import (
    FdrDecision,
    bh_fdr,
    fisher_z,
    grand_mean_z_family,
    repeated_measures_family,
    uncorrected,
)

CORRECTIONS = ("fdr", "none")


def edge_pairs(n_nodes: int) -> list[tuple[int, int]]:
    """Canonical hypothesis order: upper-triangle (i, j), i < j, lexicographic."""
    return [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]


def _checked_correlation_matrix(matrix: np.ndarray, source) -> np.ndarray:
    """The input rule for one correlation matrix; returns it symmetrized.

    Every entry must be finite and every off-diagonal one inside the open
    range (-1, 1), where the Fisher transform is finite; the matrix must
    then be symmetric within SYMMETRY_TOL and hollow.  A DataError names
    ``source`` and the first cell that breaks the rule.
    """
    inside = np.abs(matrix) < 1
    np.fill_diagonal(inside, np.isfinite(np.diagonal(matrix)))
    bad = np.argwhere(~inside)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        rule = "is not finite" if i == j else "outside the open correlation range (-1, 1)"
        raise DataError(f"{source}: entry ({i},{j}) = {float(matrix[i, j])!r} {rule}")
    try:
        return validate_symmetric_hollow(matrix, str(source))
    except ValidationError as exc:
        raise DataError(str(exc)) from exc


def _check_signals(vector: np.ndarray, source, node_labels) -> None:
    """The input rule for one signal vector: a DataError names ``source``
    and the first node whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(vector))
    if bad.size:
        v = int(bad[0])
        raise DataError(
            f"{source}: node {v} ({node_labels[v]}) has non-finite signal value "
            f"{float(vector[v])!r}"
        )


@dataclass(frozen=True, eq=False)
class StudyDataset:
    """Balanced n x J array of per-subject, per-condition correlation matrices.

    ``correlations`` has shape (n, J, N_V, N_V); every cell must pass the
    correlation-matrix rule (finite, off-diagonal entries in the open
    range (-1, 1), symmetric within 1e-9, hollow) and is stored
    symmetrized.  ``condition_labels`` are ordered by the experimental
    gradient.  ``node_coords`` is optional pass-through metadata.
    """

    correlations: np.ndarray
    node_labels: tuple[str, ...]
    condition_labels: tuple[str, ...]
    subject_ids: tuple[str, ...]
    node_coords: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.correlations, dtype=float)
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise ValidationError(
                f"correlations must have shape (n, J, N_V, N_V), got {arr.shape}"
            )
        n, j, n_v, _ = arr.shape
        labels = tuple(str(x) for x in self.node_labels)
        conditions = tuple(str(x) for x in self.condition_labels)
        subjects = tuple(str(x) for x in self.subject_ids)
        if len(labels) != n_v:
            raise ValidationError(f"{len(labels)} node labels for {n_v} nodes")
        if len(conditions) != j:
            raise ValidationError(f"{len(conditions)} condition labels for {j} conditions")
        if len(subjects) != n:
            raise ValidationError(f"{len(subjects)} subject ids for {n} subjects")
        cleaned = np.empty_like(arr)
        for si, subject in enumerate(subjects):
            for ci, condition in enumerate(conditions):
                cleaned[si, ci] = _checked_correlation_matrix(
                    arr[si, ci], f"correlations[subject {subject!r}, condition {condition!r}]"
                )
        cleaned.setflags(write=False)
        coords = self.node_coords
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.shape != (n_v, 3):
                raise ValidationError(f"node_coords must have shape ({n_v}, 3)")
            coords.setflags(write=False)
        object.__setattr__(self, "correlations", cleaned)
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "condition_labels", conditions)
        object.__setattr__(self, "subject_ids", subjects)
        object.__setattr__(self, "node_coords", coords)

    @property
    def n_subjects(self) -> int:
        return self.correlations.shape[0]

    @property
    def n_conditions(self) -> int:
        return self.correlations.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.correlations.shape[2]

    def edge_values(self) -> np.ndarray:
        """Upper-triangle entries as an (n, J, N_E) array in edge_pairs order."""
        iu = np.triu_indices(self.n_nodes, k=1)
        return self.correlations[:, :, iu[0], iu[1]]


@dataclass(frozen=True, eq=False)
class NodeSignalDataset:
    """Balanced n x J array of per-node time-averaged intensity signals, all finite."""

    signals: np.ndarray
    node_labels: tuple[str, ...]
    condition_labels: tuple[str, ...]
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.signals, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(f"signals must have shape (n, J, N_V), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        labels = tuple(str(x) for x in self.node_labels)
        conditions = tuple(str(x) for x in self.condition_labels)
        subjects = tuple(str(x) for x in self.subject_ids)
        n, j, n_v = arr.shape
        if len(labels) != n_v or len(conditions) != j or len(subjects) != n:
            raise ValidationError("label counts do not match the signal array shape")
        for si, subject in enumerate(subjects):
            for ci, condition in enumerate(conditions):
                _check_signals(
                    arr[si, ci], f"signals[subject {subject!r}, condition {condition!r}]", labels
                )
        object.__setattr__(self, "signals", arr)
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "condition_labels", conditions)
        object.__setattr__(self, "subject_ids", subjects)


@dataclass(frozen=True, eq=False)
class SpnResult:
    """A summary network with the per-hypothesis statistics behind it.

    ``statistic``, ``p_value`` and ``sign`` hold every tested hypothesis,
    significant or not, in edge_pairs (or node-index) order: the z
    statistic and effect sign for a mean SPN, the F statistic and linear
    trend sign for differential ones.  ``correction`` is the decision mask
    in the same order, so the network is re-derivable.
    """

    network: BinaryGraph
    correction: FdrDecision
    kind: str
    statistic: np.ndarray
    p_value: np.ndarray
    sign: np.ndarray
    flagged_nodes: tuple[int, ...] = ()
    diagnostics: tuple = ()


def _correct(p_values, base_rate: float, correction: str) -> FdrDecision:
    if correction == "fdr":
        return bh_fdr(p_values, base_rate)
    if correction == "none":
        return uncorrected(p_values, base_rate)
    raise ValidationError(f"correction must be one of {CORRECTIONS}, got {correction!r}")


def _edge_network(data: StudyDataset, mask: np.ndarray) -> BinaryGraph:
    """The graph whose edges are the masked hypotheses (edge_pairs order)."""
    rows, cols = np.triu_indices(data.n_nodes, k=1)
    adjacency = np.zeros((data.n_nodes, data.n_nodes), dtype=np.uint8)
    adjacency[rows[mask], cols[mask]] = 1
    adjacency[cols[mask], rows[mask]] = 1
    return BinaryGraph(data.node_labels, adjacency, data.node_coords)


def _warn_zero_residual(degenerate: np.ndarray, name) -> None:
    """Warn that zero-residual fits were reported as p = 0, naming the first."""
    hits = np.flatnonzero(degenerate)
    if hits.size:
        warnings.warn(
            f"{hits.size} fit(s) have zero residual variance and are reported as p = 0 "
            f"(infinite F); first: {name(int(hits[0]))}",
            DegenerateStatisticsWarning,
            stacklevel=3,
        )


def mean_spn(
    data: StudyDataset, condition: int, base_rate: float = 0.05, correction: str = "fdr"
) -> SpnResult:
    """Summary network of 'average connections' for one condition.

    Fisher-transforms every correlation, pools the grand mean and grand
    SD (unbiased) over all edges, subjects, and conditions, z-tests each
    edge's values for the chosen condition against those grand
    statistics, corrects, and keeps edges that are both significant and
    above the grand mean.

    A zero grand SD (fully constant dataset) degenerates every statistic
    to zero; a DegenerateStatisticsWarning is emitted and the network is
    empty.
    """
    if data.n_subjects < 2:
        raise ValidationError("mean SPN needs at least 2 subjects")
    if not 0 <= condition < data.n_conditions:
        raise ValidationError(
            f"condition index {condition} out of range 0..{data.n_conditions - 1}"
        )
    z = fisher_z(data.edge_values())
    grand_mean = float(z.mean())
    grand_sd = float(z.std(ddof=1))

    # a constant dataset leaves only rounding noise (~1e-17) in the SD
    if grand_sd <= 1e-12 * max(1.0, abs(grand_mean)):
        warnings.warn(
            "grand SD is zero (constant dataset); mean SPN is empty",
            DegenerateStatisticsWarning,
            stacklevel=2,
        )
        n_e = z.shape[2]
        statistic, p_value, sign = np.zeros(n_e), np.ones(n_e), np.zeros(n_e, dtype=int)
    else:
        statistic, p_value, sign = grand_mean_z_family(z[:, condition], grand_mean, grand_sd)

    decision = _correct(p_value, base_rate, correction)
    return SpnResult(
        network=_edge_network(data, decision.rejected & (sign > 0)),
        correction=decision,
        kind="mean",
        statistic=statistic,
        p_value=p_value,
        sign=sign,
    )


def differential_spn(
    data: StudyDataset, base_rate: float = 0.05, correction: str = "fdr"
) -> tuple[SpnResult, SpnResult]:
    """Upweighted and downweighted summary networks over the condition gradient.

    Fits the repeated-measures model per edge on the full n x J table of
    Fisher-z values, corrects the edge family once, and routes each
    surviving edge by the sign of its linear trend: positive to SPN+,
    negative to SPN-.  Significant edges with an exactly zero trend are
    listed in ``diagnostics`` of both results instead of either network.
    Fits with a zero residual (reported as p = 0) raise a
    DegenerateStatisticsWarning.
    """
    if data.n_subjects < 2 or data.n_conditions < 2:
        raise ValidationError("differential SPN needs n >= 2 subjects and J >= 2 conditions")
    rows, cols = np.triu_indices(data.n_nodes, k=1)
    fits = repeated_measures_family(fisher_z(data.edge_values()))
    _warn_zero_residual(fits.degenerate, lambda e: f"edge ({rows[e]}, {cols[e]})")
    decision = _correct(fits.p_value, base_rate, correction)

    rejected, trend = decision.rejected, fits.trend_sign
    zero = rejected & (trend == 0)
    shared = dict(
        correction=decision,
        statistic=fits.f_statistic,
        p_value=fits.p_value,
        sign=trend,
        diagnostics=tuple(zip(rows[zero].tolist(), cols[zero].tolist())),
    )
    plus = SpnResult(
        network=_edge_network(data, rejected & (trend > 0)), kind="differential_plus", **shared
    )
    minus = SpnResult(
        network=_edge_network(data, rejected & (trend < 0)), kind="differential_minus", **shared
    )
    return plus, minus


def node_differential_spn(
    data: NodeSignalDataset, base_rate: float = 0.05, correction: str = "fdr"
) -> tuple[SpnResult, SpnResult]:
    """Upweighted and downweighted vertex sets over the condition gradient.

    Applies the same repeated-measures model per vertex to the raw
    intensity signals.  The returned networks carry no edges; flagged
    vertices are in ``flagged_nodes``.  Fits with a zero residual raise a
    DegenerateStatisticsWarning.
    """
    n, j, n_v = data.signals.shape
    if n < 2 or j < 2:
        raise ValidationError("node differential SPN needs n >= 2 and J >= 2")
    fits = repeated_measures_family(data.signals)
    _warn_zero_residual(fits.degenerate, lambda v: f"node {v} ({data.node_labels[v]})")
    decision = _correct(fits.p_value, base_rate, correction)

    rejected, trend = decision.rejected, fits.trend_sign
    empty = BinaryGraph(data.node_labels, np.zeros((n_v, n_v), dtype=np.uint8))
    shared = dict(
        network=empty, correction=decision, statistic=fits.f_statistic,
        p_value=fits.p_value, sign=trend,
    )
    plus = SpnResult(
        kind="node_differential_plus",
        flagged_nodes=tuple(np.flatnonzero(rejected & (trend > 0)).tolist()),
        **shared,
    )
    minus = SpnResult(
        kind="node_differential_minus",
        flagged_nodes=tuple(np.flatnonzero(rejected & (trend < 0)).tolist()),
        **shared,
    )
    return plus, minus
