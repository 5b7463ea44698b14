"""Density thresholding and density-integrated topology metrics.

A weighted graph is reduced to a family of unweighted graphs by keeping
exactly the k strongest edges for each density level k; a binary-graph
metric evaluated along a distribution over k and averaged gives its
density-integrated version.  Because the per-k edge selection depends
only on weight *ranks*, the integrated value is invariant under any
strictly monotone rescaling of the weights - the property
``verify_monotone_invariance`` checks edge-set-wise.

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
    _binary_unchecked,
    _efficiency_from_distances,
    _insert_edge,
    global_efficiency,
    local_efficiency,
    max_edge_count,
)
from .modularity import greedy_modularity

_PROFILE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """A metric evaluated along a grid of density levels plus its expectation.

    ``densities`` are edge counts k, ``values`` the metric at each k,
    ``weights`` the probability mass p(k) (sums to 1), and ``integrated``
    the dot product of values and weights.
    """

    densities: tuple[int, ...]
    values: np.ndarray
    weights: np.ndarray
    integrated: float

    def __post_init__(self):
        densities = tuple(int(k) for k in self.densities)
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not (len(densities) == values.size == weights.size):
            raise ValidationError("densities, values, and weights must have equal length")
        if np.any(weights < 0):
            raise ValidationError("probability masses must be nonnegative")
        if abs(weights.sum() - 1.0) > _PROFILE_TOL:
            raise ValidationError(f"probability masses sum to {float(weights.sum())!r}, not 1")
        if abs(float(values @ weights) - self.integrated) > _PROFILE_TOL:
            raise ValidationError("integrated value does not match dot(values, weights)")
        values.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "integrated", float(self.integrated))


def ranked_edges(g: WeightedGraph) -> list[tuple[int, int, float]]:
    """Positive edges sorted strongest first; ties by lexicographic (i, j)."""
    return sorted(g.positive_edges(), key=lambda e: (-e[2], e[0], e[1]))


def _graph_from_prefix(g: WeightedGraph, order, k: int) -> BinaryGraph:
    adjacency = np.zeros((g.n_nodes, g.n_nodes), dtype=np.uint8)
    for i, j, _ in order[:k]:
        adjacency[i, j] = adjacency[j, i] = 1
    return BinaryGraph(g.node_labels, adjacency, g.node_coords)


def density_threshold(g: WeightedGraph, k: int) -> BinaryGraph:
    """Unweighted graph of exactly the k largest-weight edges."""
    order = ranked_edges(g)
    (k,) = _validated_grid(g, [k], len(order))
    return _graph_from_prefix(g, order, k)


def _validated_grid(g: WeightedGraph, grid, n_positive: int) -> list[int]:
    if grid is None:
        grid = range(1, n_positive + 1)
    ks = list(grid)
    if not ks:
        raise ValidationError("density grid is empty")
    limit = max_edge_count(g.n_nodes)
    for k in ks:
        if not isinstance(k, (int, np.integer)):
            raise ValidationError(f"density level k must be an integer, got {k!r}")
        if k < 0 or k > limit:
            raise ValidationError(f"density level k={k} outside 0..{limit}")
        if k > n_positive:
            raise ValidationError(
                f"k={k} exceeds the {n_positive} positive-weight edges; "
                "zero-weight pairs cannot be selected"
            )
    return [int(k) for k in ks]


def _profile_values(
    g: WeightedGraph, order, ks: Sequence[int], metric: Callable[[BinaryGraph], float]
) -> np.ndarray:
    # One incremental walk over the ranked edges, evaluating each distinct k
    # once.  Global efficiency (the module name, looked up per call) reads
    # hop counts updated edge by edge; any other metric gets a frozen
    # adjacency snapshot per level.  A 1-node graph takes the generic path,
    # where global_efficiency itself refuses it.
    n = g.n_nodes
    incremental = metric is global_efficiency and n > 1
    if incremental:
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        diameter_two = False
    else:
        adjacency = np.zeros((n, n), dtype=np.uint8)
    by_k: dict[int, float] = {}
    filled = 0
    for k in sorted(set(ks)):
        for i, j, _ in order[filled:k]:
            if incremental:
                diameter_two = _insert_edge(dist, i, j, diameter_two)
            else:
                adjacency[i, j] = adjacency[j, i] = 1
        filled = k
        if incremental:
            by_k[k] = _efficiency_from_distances(dist)
        else:
            by_k[k] = float(metric(_binary_unchecked(g.node_labels, adjacency.copy())))
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
    and a custom mass must sum to 1.
    """
    order = ranked_edges(g)
    ks = _validated_grid(g, grid, len(order))
    if mass is None:
        weights = np.full(len(ks), 1.0 / len(ks))
    else:
        weights = np.asarray(mass, dtype=float)
        if weights.size != len(ks):
            raise ValidationError("mass must have one entry per grid density")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _PROFILE_TOL:
            raise ValidationError("mass must be nonnegative and sum to 1")
    values = _profile_values(g, order, ks, metric)
    integrated = float(values @ weights)
    return DensityProfile(tuple(ks), values, weights, integrated)


def _monotone_direction(weights: np.ndarray, h: Callable[[float], float]) -> int:
    """+1 if h is strictly increasing on the given weights, -1 if decreasing."""
    distinct = np.unique(weights)
    if distinct.size == 1:
        return 1
    hv = np.array([h(float(w)) for w in distinct], dtype=float)
    diffs = np.diff(hv)
    if np.all(diffs > 0):
        return 1
    if np.all(diffs < 0):
        return -1
    bad = int(np.flatnonzero(diffs <= 0 if diffs[0] > 0 else diffs >= 0)[0])
    raise ValidationError(
        "h is not strictly monotone on the graph's weights: "
        f"h({float(distinct[bad])!r}) and h({float(distinct[bad + 1])!r}) break the order"
    )


def verify_monotone_invariance(g: WeightedGraph, h: Callable[[float], float]) -> bool:
    """Check that rescaling weights by a strictly monotone h selects the
    same edge set at every density level.

    A decreasing h reverses the ranks, so its selection order is read in
    reverse.  Every density-integrated metric is a function of these
    selections alone, so equal selections give equal values for any
    metric; there is no metric argument.
    """
    base_order = ranked_edges(g)
    if not base_order:
        raise ValidationError("graph has no positive weights")
    direction = _monotone_direction(np.array([e[2] for e in base_order]), h)
    trans_order = sorted(base_order, key=lambda e: (-direction * h(e[2]), e[0], e[1]))
    return trans_order == base_order


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
