"""Density thresholding and density-integrated topology metrics.

A weighted graph is reduced to a family of unweighted graphs by keeping
exactly the k strongest edges for each density level k; a binary-graph
metric evaluated along a distribution over k and averaged gives its
density-integrated version.  Because the per-k edge selection depends
only on weight *ranks*, the integrated value is invariant under any
strictly monotone rescaling of the weights - the property
``verify_monotone_invariance`` checks for a given map.

Ties between equal weights are broken by the lexicographic (i, j) node
pair, so selections are deterministic and nested in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import (
    BinaryGraph,
    WeightedGraph,
    _check_integer,
    _edge_graph,
    _efficiency_from_distances,
    _freeze,
    _insert_edge,
    _set_fields,
    _upper_pairs,
    global_efficiency,
    local_efficiency,
    max_edge_count,
)
from .modularity import greedy_modularity

_PROFILE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """A metric evaluated along a grid of density levels, and its expectation.

    ``densities`` are edge counts k, ``values`` the metric at each k and
    ``weights`` the probability mass p(k): nonnegative, summing to 1.  The
    arrays are frozen copies of those given.  ``integrated``, the
    expectation dot(values, weights), is derived from them, so it cannot
    disagree with them.
    """

    densities: tuple[int, ...]
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        densities = tuple(int(k) for k in self.densities)
        values = np.array(self.values, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if not (len(densities) == values.size == weights.size):
            raise ValidationError("densities, values, and weights must have equal length")
        # written so that a NaN mass fails: every comparison with NaN is false
        if not abs(weights.sum() - 1.0) <= _PROFILE_TOL:
            raise ValidationError(f"probability masses sum to {float(weights.sum())!r}, not 1")
        if not np.all(weights >= 0):
            raise ValidationError("probability masses must be nonnegative")
        _set_fields(self, densities=densities, values=_freeze(values), weights=_freeze(weights))

    @property
    def integrated(self) -> float:
        return float(self.values @ self.weights)


def ranked_edges(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The positive edges (i, j), i < j, as two int arrays ``(rows, cols)``,
    strongest first; ties by lexicographic (i, j)."""
    i, j = _upper_pairs(g.n_nodes)
    w = g.weights[i, j]
    keep = np.flatnonzero(w > 0)
    # the pairs come in (i, j) order, which a stable sort keeps among ties
    order = keep[np.argsort(-w[keep], kind="stable")]
    return i[order], j[order]


def density_threshold(g: WeightedGraph, k: int) -> BinaryGraph:
    """Unweighted graph of exactly the k largest-weight edges."""
    rows, cols = ranked_edges(g)
    (k,) = _validated_grid(g, [k], rows.size)
    return _edge_graph(g.node_labels, rows[:k], cols[:k], g.node_coords)


def _validated_grid(g: WeightedGraph, grid, n_positive: int) -> list[int]:
    if grid is None:
        grid = range(1, n_positive + 1)
    limit = max_edge_count(g.n_nodes)
    ks = []
    for k in grid:  # checked as it is added, so a long range is refused before it is held
        _check_integer(k, "density level k")
        if k < 0 or k > limit:
            raise ValidationError(f"density level k={k} outside 0..{limit}")
        if k > n_positive:
            raise ValidationError(
                f"k={k} exceeds the {n_positive} positive-weight edges; "
                "zero-weight pairs cannot be selected"
            )
        ks.append(int(k))
    if not ks:
        raise ValidationError("density grid is empty")
    return ks


def _efficiency_levels(rows: np.ndarray, cols: np.ndarray, n: int,
                       levels: list[int]) -> dict[int, float]:
    # Global efficiency of each ranked-edge prefix at the ascending
    # ``levels``, from hop counts updated edge by edge.  Once a level has
    # diameter at most two, every later one does too, and each off-diagonal
    # inverse distance is 1 (the 2k ordered pairs joined by an edge) or 1/2.
    # Every partial sum of those is a multiple of 1/2, exact in any order,
    # so the closed form is the sum _efficiency_from_distances would take,
    # bit for bit, and the hop counts are no longer needed.
    pairs = n * (n - 1)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    by_k: dict[int, float] = {}
    filled = 0
    diameter_two = False
    for k in levels:
        if not diameter_two:
            for i, j in zip(rows[filled:k].tolist(), cols[filled:k].tolist()):
                _insert_edge(dist, i, j)
            filled = k
            diameter_two = bool(dist.max() <= 2.0)
        if diameter_two:
            by_k[k] = (2 * k + (pairs - 2 * k) * 0.5) / pairs
        else:
            by_k[k] = _efficiency_from_distances(dist)
    return by_k


def _profile_values(
    g: WeightedGraph, rows: np.ndarray, cols: np.ndarray, ks: Sequence[int],
    metric: Callable[[BinaryGraph], float],
) -> np.ndarray:
    # Each distinct k is evaluated once.  Global efficiency (the module
    # name, looked up per call, so a wrapper put in its place and in
    # METRICS keeps this path) has its own kernel; any other metric gets
    # the graph of the first k ranked edges.  A 1-node graph takes the
    # generic path, where global_efficiency itself refuses it.
    levels = sorted(set(ks))
    if metric is global_efficiency and g.n_nodes > 1:
        by_k = _efficiency_levels(rows, cols, g.n_nodes, levels)
    else:
        by_k = {}
        for k in levels:
            graph = _edge_graph(g.node_labels, rows[:k], cols[:k], g.node_coords)
            try:
                by_k[k] = float(metric(graph))
            except ValidationError as exc:
                raise ValidationError(f"density level k={k}: {exc}") from exc
    return np.array([by_k[k] for k in ks], dtype=float)


def density_integrated_metric(
    g: WeightedGraph,
    metric: Callable[[BinaryGraph], float],
    grid: Sequence[int] | None = None,
    mass: Sequence[float] | None = None,
) -> DensityProfile:
    """Evaluate ``metric`` along density levels and integrate over p(k).

    The default grid is every realizable density k = 1 .. (number of
    positive edges) with uniform mass; a custom grid may include k = 0
    and a custom mass must be nonnegative and sum to 1 (DensityProfile
    checks it).
    """
    rows, cols = ranked_edges(g)
    ks = _validated_grid(g, grid, rows.size)
    if mass is None:
        weights = np.full(len(ks), 1.0 / len(ks))
    else:
        weights = np.asarray(mass, dtype=float)
        if weights.size != len(ks):
            raise ValidationError("mass must have one entry per grid density")
    return DensityProfile(tuple(ks), _profile_values(g, rows, cols, ks, metric), weights)


def verify_monotone_invariance(g: WeightedGraph, h: Callable[[float], float]) -> bool:
    """Check that rescaling weights by h selects the same edge set at every
    density level; True, or a ValidationError naming where h fails.

    The one condition is that h be strictly monotone on ``g``'s distinct
    positive weights, and it suffices: equal weights get equal images, so
    ties stay ties; distinct weights keep their order (reversed for a
    decreasing h, whose selection order is read in reverse); and both
    orders break ties by the same (i, j) pair.  Every density-integrated
    metric is a function of these selections alone, so there is no metric
    argument.  The error names the first neighbouring pair of weights
    whose images break the order; a NaN image breaks it too.
    """
    weights = g.weights[_upper_pairs(g.n_nodes)]
    distinct = np.unique(weights[weights > 0])
    if not distinct.size:
        raise ValidationError("graph has no positive weights")
    diffs = np.diff(np.array([h(float(w)) for w in distinct], dtype=float))
    direction = -1.0 if diffs.size and diffs[0] < 0 else 1.0
    broken = np.flatnonzero(~(direction * diffs > 0))
    if broken.size:
        bad = int(broken[0])
        raise ValidationError(
            "h is not strictly monotone on the graph's weights: "
            f"h({float(distinct[bad])!r}) and h({float(distinct[bad + 1])!r}) break the order"
        )
    return True


METRICS: dict[str, Callable[[BinaryGraph], float]] = {
    "global_efficiency": global_efficiency,
    "local_efficiency": local_efficiency,
    "modularity_count": lambda g: float(greedy_modularity(g).module_count),
    "modularity_q": lambda g: greedy_modularity(g).q,
}


def metric_by_name(name: str) -> Callable[[BinaryGraph], float]:
    try:
        return METRICS[name]
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r}; choose from {sorted(METRICS)}"
        ) from None
