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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateStatisticsWarning, ValidationError
from .graphs import (BinaryGraph, _edge_graph, _node_metadata, _refuse_carriage_returns,
                     validate_symmetric_hollow)
from .stats import (
    FdrDecision,
    bh_fdr,
    grand_mean_z_test,
    repeated_measures_fit,
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


def _check_signals(vector: np.ndarray, source, node_labels) -> np.ndarray:
    """The input rule for one signal vector; returns it.  A DataError names
    ``source`` and the first node whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(vector))
    if bad.size:
        v = int(bad[0])
        raise DataError(
            f"{source}: node {v} ({node_labels[v]}) has non-finite signal value "
            f"{float(vector[v])!r}"
        )
    return vector


def _checked_cells(out: np.ndarray, cell, rule) -> np.ndarray:
    """Fill ``out``, of shape (n, J, ...), subject-major, with
    ``rule(value, source)`` for ``value, source = cell(si, ci)`` at [si, ci];
    return it read-only.

    The first DataError is raised once every cell has been fetched, and no
    rule runs after it: a loader whose ``cell`` reads a file reports a file
    it cannot read or size before any cell that breaks the rule.
    """
    fault = None
    for si, ci in np.ndindex(*out.shape[:2]):
        value, source = cell(si, ci)
        if fault is None:
            try:
                out[si, ci] = rule(value, source)
            except DataError as exc:
                fault = exc
    if fault is not None:
        raise fault
    out.setflags(write=False)
    return out


@functools.cache
def _flat_pairs(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices, in a raveled N_V x N_V matrix, of the upper-triangle
    entries in edge_pairs order and of their mirror images, read-only."""
    rows, cols = np.triu_indices(n_nodes, k=1)
    flat = rows * n_nodes + cols, cols * n_nodes + rows
    for index in flat:
        index.setflags(write=False)
    return flat


def _upper_triangle(rule, n_nodes: int):
    """``rule(matrix, source)`` cut to the upper triangle of the matrix it returns."""
    upper, _ = _flat_pairs(n_nodes)
    return lambda matrix, source: rule(matrix, source).ravel().take(upper)


def _symmetric(values: np.ndarray, n_nodes: int) -> np.ndarray:
    """The symmetric hollow N_V x N_V matrices whose upper triangles, in
    edge_pairs order, lie along the last axis of ``values``."""
    upper, lower = _flat_pairs(n_nodes)
    out = np.zeros((*values.shape[:-1], n_nodes * n_nodes))
    out[..., upper] = values
    out[..., lower] = values
    return out.reshape(*values.shape[:-1], n_nodes, n_nodes)


def _design_labels(condition_labels, subject_ids, j: int, n: int):
    """Condition labels and subject ids as string tuples, checked to number J
    and n and to hold no carriage return."""
    conditions = tuple(str(x) for x in condition_labels)
    subjects = tuple(str(x) for x in subject_ids)
    if len(conditions) != j:
        raise ValidationError(f"{len(conditions)} condition labels for {j} conditions")
    if len(subjects) != n:
        raise ValidationError(f"{len(subjects)} subject ids for {n} subjects")
    _refuse_carriage_returns(conditions, "condition label")
    _refuse_carriage_returns(subjects, "subject id")
    return conditions, subjects


@dataclass(frozen=True, eq=False, init=False)
class StudyDataset:
    """Balanced n x J array of per-subject, per-condition correlation matrices.

    Built from ``correlations`` of shape (n, J, N_V, N_V); every cell must
    pass the correlation-matrix rule (finite, off-diagonal entries in the
    open range (-1, 1), symmetric within 1e-9, hollow).  The rule leaves
    each cell exactly symmetric and hollow, so the dataset holds only its
    upper triangle: ``edge_values``, a read-only (n, J, N_E) array in
    edge_pairs order, from which ``correlations()`` rebuilds every cell
    bit for bit.  ``condition_labels`` are ordered by the experimental
    gradient.  ``node_coords`` is optional pass-through metadata.
    """

    edge_values: np.ndarray
    node_labels: tuple[str, ...]
    condition_labels: tuple[str, ...]
    subject_ids: tuple[str, ...]
    node_coords: np.ndarray | None = None

    def __init__(self, correlations, node_labels, condition_labels, subject_ids,
                 node_coords=None):
        arr = np.asarray(correlations, dtype=float)  # checked cell by cell, never copied whole
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise ValidationError(
                f"correlations must have shape (n, J, N_V, N_V), got {arr.shape}"
            )
        n, j, n_v, _ = arr.shape
        self._hold_labels(node_labels, condition_labels, subject_ids, node_coords, n, j, n_v)
        subjects, conditions = self.subject_ids, self.condition_labels
        edge_values = _checked_cells(
            np.empty((n, j, n_v * (n_v - 1) // 2)),
            lambda si, ci: (arr[si, ci], f"correlations[subject {subjects[si]!r}, "
                                         f"condition {conditions[ci]!r}]"),
            _upper_triangle(_checked_correlation_matrix, n_v),
        )
        object.__setattr__(self, "edge_values", edge_values)

    @classmethod
    def _from_checked(cls, edge_values, node_labels, condition_labels, subject_ids,
                      node_coords=None) -> StudyDataset:
        """The dataset holding ``edge_values``, a read-only (n, J, N_E) array of
        upper triangles that have passed the cell rule (see load_dataset)."""
        data = cls.__new__(cls)
        n, j, _ = edge_values.shape
        data._hold_labels(node_labels, condition_labels, subject_ids, node_coords, n, j,
                          len(node_labels))
        object.__setattr__(data, "edge_values", edge_values)
        return data

    def _hold_labels(self, node_labels, condition_labels, subject_ids, node_coords,
                     n: int, j: int, n_v: int) -> None:
        labels, coords = _node_metadata(node_labels, node_coords, n_v, "dataset")
        conditions, subjects = _design_labels(condition_labels, subject_ids, j, n)
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "condition_labels", conditions)
        object.__setattr__(self, "subject_ids", subjects)
        object.__setattr__(self, "node_coords", coords)

    @property
    def n_subjects(self) -> int:
        return self.edge_values.shape[0]

    @property
    def n_conditions(self) -> int:
        return self.edge_values.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.node_labels)

    def correlations(self) -> np.ndarray:
        """Every cell as its full checked matrix, in a new (n, J, N_V, N_V) array.

        This is n J N_V^2 floats, about twice what the dataset holds; the
        pipelines never build it, and rebuild one matrix at a time where a
        step needs a graph.
        """
        return _symmetric(self.edge_values, self.n_nodes)


@dataclass(frozen=True, eq=False, init=False)
class NodeSignalDataset:
    """Balanced n x J array of per-node time-averaged intensity signals, all finite."""

    signals: np.ndarray
    node_labels: tuple[str, ...]
    condition_labels: tuple[str, ...]
    subject_ids: tuple[str, ...]

    def __init__(self, signals, node_labels, condition_labels, subject_ids):
        arr = np.asarray(signals, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(f"signals must have shape (n, J, N_V), got {arr.shape}")
        self._hold_labels(node_labels, condition_labels, subject_ids, *arr.shape)
        labels, subjects, conditions = self.node_labels, self.subject_ids, self.condition_labels
        signals = _checked_cells(
            np.empty(arr.shape),
            lambda si, ci: (arr[si, ci], f"signals[subject {subjects[si]!r}, "
                                         f"condition {conditions[ci]!r}]"),
            lambda cell, source: _check_signals(cell, source, labels),
        )
        object.__setattr__(self, "signals", signals)

    @classmethod
    def _from_checked(cls, signals, node_labels, condition_labels,
                      subject_ids) -> NodeSignalDataset:
        """The dataset holding ``signals``, a read-only (n, J, N_V) array of
        vectors that have passed the signal rule (see load_node_signals)."""
        data = cls.__new__(cls)
        data._hold_labels(node_labels, condition_labels, subject_ids, *signals.shape)
        object.__setattr__(data, "signals", signals)
        return data

    def _hold_labels(self, node_labels, condition_labels, subject_ids, n: int, j: int,
                     n_v: int) -> None:
        labels, _ = _node_metadata(node_labels, None, n_v, "dataset")
        conditions, subjects = _design_labels(condition_labels, subject_ids, j, n)
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
    return _edge_graph(data.node_labels, rows[mask], cols[mask], data.node_coords)


def _warn_zero_residual(degenerate: np.ndarray, name) -> None:
    """Warn that zero-residual fits were reported as p = 0, naming the first."""
    hits = np.flatnonzero(degenerate)
    if hits.size:
        warnings.warn(
            f"{hits.size} fit(s) have zero residual variance and are reported as p = 0 "
            f"(infinite F); first: {name(int(hits[0]))}",
            DegenerateStatisticsWarning,
            stacklevel=4,  # past _trend_family and the public SPN function
        )


def _trend_family(values, name, base_rate: float, correction: str):
    """Fit every table of ``values``, warn of zero residuals, correct once, and
    return the SpnResult fields an SPN+/SPN- pair shares with the masks of the
    significant hypotheses whose linear trend is up, down and zero."""
    fits = repeated_measures_fit(values)
    _warn_zero_residual(fits.degenerate, name)
    decision = _correct(fits.p_value, base_rate, correction)
    rejected, trend = decision.rejected, fits.trend_sign
    shared = dict(correction=decision, statistic=fits.f_statistic, p_value=fits.p_value,
                  sign=trend)
    return shared, rejected & (trend > 0), rejected & (trend < 0), rejected & (trend == 0)


def _fisher_z_tables(data: StudyDataset) -> np.ndarray:
    """Fisher z of every edge value: an (n, J, N_E) view of a new C-ordered
    (N_E, n, J) array, the step's one full-size copy.

    Each edge's n x J table is contiguous.  repeated_measures_fit reads the
    tables in place, and a sum over the whole array runs table by table,
    the order the mean SPN's grand statistics have always been summed in.
    """
    z = np.moveaxis(data.edge_values, -1, 0).copy()
    np.arctanh(z, out=z)
    return np.moveaxis(z, 0, -1)


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
    if data.n_nodes < 2:
        raise ValidationError(f"mean SPN needs at least 2 nodes, got {data.n_nodes}")
    if not 0 <= condition < data.n_conditions:
        raise ValidationError(
            f"condition index {condition} out of range 0..{data.n_conditions - 1}"
        )
    z = _fisher_z_tables(data)
    tested = z[:, condition].copy(order="K")  # (N_E, n) in memory, as the z-test reads it
    grand_mean = float(z.mean())
    # z.std(ddof=1) by numpy's own steps, with the squared deviations formed in z
    z -= grand_mean
    z *= z
    grand_sd = math.sqrt(float(z.sum()) / (z.size - 1))
    del z

    # a constant dataset leaves only rounding noise (~1e-17) in the SD
    if grand_sd <= 1e-12 * max(1.0, abs(grand_mean)):
        warnings.warn(
            "grand SD is zero (constant dataset); mean SPN is empty",
            DegenerateStatisticsWarning,
            stacklevel=2,
        )
        n_e = tested.shape[1]
        statistic, p_value, sign = np.zeros(n_e), np.ones(n_e), np.zeros(n_e, dtype=int)
    else:
        statistic, p_value, sign = grand_mean_z_test(tested, grand_mean, grand_sd)

    decision = _correct(p_value, base_rate, correction)
    return SpnResult(
        network=_edge_network(data, decision.rejected & (sign > 0)),
        correction=decision,
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
    shared, up, down, zero = _trend_family(
        _fisher_z_tables(data), lambda e: f"edge ({rows[e]}, {cols[e]})", base_rate, correction
    )
    shared["diagnostics"] = tuple(zip(rows[zero].tolist(), cols[zero].tolist()))
    return (
        SpnResult(network=_edge_network(data, up), **shared),
        SpnResult(network=_edge_network(data, down), **shared),
    )


def node_differential_spn(
    data: NodeSignalDataset, base_rate: float = 0.05, correction: str = "fdr"
) -> tuple[SpnResult, SpnResult]:
    """Upweighted and downweighted vertex sets over the condition gradient.

    Applies the same repeated-measures model per vertex to the raw
    intensity signals.  The returned networks carry no edges; flagged
    vertices are in ``flagged_nodes``.  Fits with a zero residual raise a
    DegenerateStatisticsWarning.
    """
    n, j = data.signals.shape[:2]
    if n < 2 or j < 2:
        raise ValidationError("node differential SPN needs n >= 2 and J >= 2")
    shared, up, down, _ = _trend_family(
        data.signals, lambda v: f"node {v} ({data.node_labels[v]})", base_rate, correction
    )
    empty = _edge_graph(data.node_labels, [], [])
    return (
        SpnResult(network=empty, flagged_nodes=tuple(np.flatnonzero(up).tolist()), **shared),
        SpnResult(network=empty, flagged_nodes=tuple(np.flatnonzero(down).tolist()), **shared),
    )
