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

Hypotheses are ordered by the upper triangle, (i, j) with i < j in
lexicographic order, as np.triu_indices(N_V, k=1) gives them; the FDR
decision mask in each result follows that order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateStatisticsWarning, ValidationError
from .graphs import (BinaryGraph, _edge_graph, _flat_pairs, _node_metadata,
                     _refuse_carriage_returns, _set_fields, _symmetric, _upper_pairs,
                     validate_symmetric_hollow)
from .stats import (
    _TABLES_PER_BLOCK,
    FdrDecision,
    _correct,
    grand_mean_z_test,
    repeated_measures_fit,
)


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
    upper triangle: ``edge_values``, a read-only (n, J, N_E) array in the
    upper-triangle order of np.triu_indices(N_V, k=1), from which
    ``correlations()`` rebuilds every cell bit for bit.
    ``condition_labels`` are ordered by the experimental gradient.
    ``node_coords`` is optional pass-through metadata.

    The constructor and load_dataset share one check-and-fill path,
    ``_fill``: they differ only in where a cell comes from and how a
    fault names it, ``correlations[subject ..., condition ...]`` or the
    cell's file.
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
        self._fill(arr.shape[:3], lambda si, ci: (
            arr[si, ci], f"correlations[subject {self.subject_ids[si]!r}, "
                         f"condition {self.condition_labels[ci]!r}]"),
            node_labels, condition_labels, subject_ids, node_coords)

    def _fill(self, shape, cell, node_labels, condition_labels, subject_ids,
              node_coords) -> None:
        """The one check-and-fill path, of __init__ and of load_dataset: check
        the labels against ``shape`` (n, J, N_V), then hold the upper triangle
        of each cell ``cell(si, ci) = (matrix, source)`` that passes the
        correlation-matrix rule (see _checked_cells)."""
        n, j, n_v = shape
        labels, coords = _node_metadata(node_labels, node_coords, n_v, "dataset")
        conditions, subjects = _design_labels(condition_labels, subject_ids, j, n)
        _set_fields(self, node_labels=labels, condition_labels=conditions,
                    subject_ids=subjects, node_coords=coords)
        upper, _ = _flat_pairs(n_v)
        _set_fields(self, edge_values=_checked_cells(
            np.empty((n, j, upper.size)), cell,
            lambda matrix, source: _checked_correlation_matrix(matrix, source).ravel().take(upper)))

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
    """Balanced n x J array of per-node time-averaged intensity signals, all finite.

    The constructor and load_node_signals share one check-and-fill path,
    ``_fill``, as StudyDataset's do.
    """

    signals: np.ndarray
    node_labels: tuple[str, ...]
    condition_labels: tuple[str, ...]
    subject_ids: tuple[str, ...]

    def __init__(self, signals, node_labels, condition_labels, subject_ids):
        arr = np.asarray(signals, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(f"signals must have shape (n, J, N_V), got {arr.shape}")
        self._fill(arr.shape, lambda si, ci: (
            arr[si, ci], f"signals[subject {self.subject_ids[si]!r}, "
                         f"condition {self.condition_labels[ci]!r}]"),
            node_labels, condition_labels, subject_ids)

    def _fill(self, shape, cell, node_labels, condition_labels, subject_ids) -> None:
        """The one check-and-fill path, of __init__ and of load_node_signals:
        check the labels against ``shape`` (n, J, N_V), then hold each vector
        ``cell(si, ci) = (vector, source)`` that passes the signal rule (see
        _checked_cells)."""
        n, j, n_v = shape
        labels, _ = _node_metadata(node_labels, None, n_v, "dataset")
        conditions, subjects = _design_labels(condition_labels, subject_ids, j, n)
        _set_fields(self, node_labels=labels, condition_labels=conditions, subject_ids=subjects)
        _set_fields(self, signals=_checked_cells(
            np.empty(shape), cell, lambda vector, source: _check_signals(vector, source, labels)))


@dataclass(frozen=True, eq=False)
class SpnResult:
    """A summary network with the per-hypothesis statistics behind it.

    ``statistic``, ``p_value`` and ``sign`` hold every tested hypothesis,
    significant or not, in the upper-triangle order of
    np.triu_indices(N_V, k=1) (or in node-index order): the z
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


def _edge_network(data: StudyDataset, mask: np.ndarray) -> BinaryGraph:
    """The graph whose edges are the masked hypotheses, in the upper-triangle
    order of np.triu_indices(N_V, k=1)."""
    rows, cols = _upper_pairs(data.n_nodes)
    return _edge_graph(data.node_labels, rows[mask], cols[mask], data.node_coords)


def _warn_zero_residual(degenerate: np.ndarray, f_statistic: np.ndarray, name) -> None:
    """Warn of the zero-residual fits reported as p = 0 and of those, flat
    too, reported as p = 1, naming the first of each."""
    for hits, what in (
        (degenerate & (f_statistic > 0), "zero residual variance and are reported as p = 0 "
                                         "(infinite F)"),
        (degenerate & (f_statistic == 0), "zero residual and zero condition variance "
                                          "(F = 0/0) and are reported as F = 0, p = 1"),
    ):
        hits = np.flatnonzero(hits)
        if hits.size:
            warnings.warn(
                f"{hits.size} fit(s) have {what}; first: {name(int(hits[0]))}",
                DegenerateStatisticsWarning,
                stacklevel=4,  # past _trend_family and the public SPN function
            )


def _trend_family(blocks, name, base_rate: float, correction: str):
    """Fit every table of each (n, J, B) block of ``blocks`` in turn, warn of
    zero residuals, correct the whole family once, and return the SpnResult
    fields an SPN+/SPN- pair shares with the masks of the significant
    hypotheses whose linear trend is up, down and zero.

    Only the F statistic, p-value, trend sign and degeneracy of each table
    outlive its block; ``map`` drops each block as soon as it is fitted.
    """
    f_statistic, p_value, trend, degenerate = map(
        np.concatenate, zip(*map(repeated_measures_fit, blocks)))
    _warn_zero_residual(degenerate, f_statistic, name)
    decision = _correct(p_value, base_rate, correction)
    rejected = decision.rejected
    shared = dict(correction=decision, statistic=f_statistic, p_value=p_value, sign=trend)
    return shared, rejected & (trend > 0), rejected & (trend < 0), rejected & (trend == 0)


def _fisher_z_tables(edge_values: np.ndarray) -> np.ndarray:
    """Fisher z of ``edge_values``, an (..., N_E') slice of a dataset's edge
    values: an (..., N_E') view of a new C-ordered (N_E', ...) array.

    Each edge's values are contiguous.  repeated_measures_fit reads an
    (n, J, B) block's tables in place, grand_mean_z_test an (n, N_E)
    condition's columns, and a sum over a whole (n, J, N_E) copy runs
    table by table, the order the mean SPN's grand statistics have always
    been summed in.  The transform is elementwise, so a slice gets the
    bits it has inside the whole family.
    """
    z = np.moveaxis(edge_values, -1, 0).copy()
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

    The grand statistics are summed over one Fisher-z copy of the whole
    study, which is freed before the tested condition's (N_E, n) table is
    transformed from the dataset, so the two never coexist.
    """
    if data.n_subjects < 2:
        raise ValidationError("mean SPN needs at least 2 subjects")
    if data.n_nodes < 2:
        raise ValidationError(f"mean SPN needs at least 2 nodes, got {data.n_nodes}")
    if not 0 <= condition < data.n_conditions:
        raise ValidationError(
            f"condition index {condition} out of range 0..{data.n_conditions - 1}"
        )
    z = _fisher_z_tables(data.edge_values)
    grand_mean = float(z.mean())
    # z.std(ddof=1) by numpy's own steps, with the squared deviations formed in z
    z -= grand_mean
    z *= z
    grand_sd = math.sqrt(float(z.sum()) / (z.size - 1))
    del z
    tested = _fisher_z_tables(data.edge_values[:, condition])

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
    Fits with a zero residual (reported as p = 0, or as p = 1 when the
    condition means are equal too) raise a DegenerateStatisticsWarning.

    The family is transformed and fitted _TABLES_PER_BLOCK edges at a
    time, so the step holds one block of Fisher z, never the whole
    family; each table's fit does not depend on the others, so the
    results are those of one whole-family fit, bit for bit.
    """
    if data.n_subjects < 2 or data.n_conditions < 2:
        raise ValidationError("differential SPN needs n >= 2 subjects and J >= 2 conditions")
    rows, cols = _upper_pairs(data.n_nodes)
    # one empty block when N_V = 1
    blocks = (_fisher_z_tables(data.edge_values[..., lo:lo + _TABLES_PER_BLOCK])
              for lo in range(0, max(rows.size, 1), _TABLES_PER_BLOCK))
    shared, up, down, zero = _trend_family(
        blocks, lambda e: f"edge ({rows[e]}, {cols[e]})", base_rate, correction
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
        [data.signals], lambda v: f"node {v} ({data.node_labels[v]})", base_rate, correction
    )
    empty = _edge_graph(data.node_labels, [], [])
    return (
        SpnResult(network=empty, flagged_nodes=tuple(np.flatnonzero(up).tolist()), **shared),
        SpnResult(network=empty, flagged_nodes=tuple(np.flatnonzero(down).tolist()), **shared),
    )
