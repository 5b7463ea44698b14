"""Graph value types, thresholding, shortest paths, and efficiency/density metrics.

All graphs are undirected, simple, and immutable after construction.
Association matrices are validated for symmetry within ``SYMMETRY_TOL``
(then symmetrized by averaging) and their diagonals are forced to zero.
Unreachable node pairs carry an infinite distance and contribute zero to
efficiency sums, so every metric here is defined for disconnected graphs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

SYMMETRY_TOL = 1e-9
UNREACHABLE = np.inf


def max_edge_count(n_nodes: int) -> int:
    """Number of edges in the complete graph on ``n_nodes`` vertices."""
    return n_nodes * (n_nodes - 1) // 2


@functools.cache
def _upper_pairs(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows, cols), i < j, of np.triu_indices(N_V, k=1), read-only: the one
    edge order of the SPN hypotheses, a dataset's edge values and the density ranking."""
    return tuple(map(_freeze, np.triu_indices(n_nodes, k=1)))


@functools.cache
def _flat_pairs(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices, in a raveled N_V x N_V matrix, of the _upper_pairs
    entries and of their mirror images, read-only."""
    rows, cols = _upper_pairs(n_nodes)
    return _freeze(rows * n_nodes + cols), _freeze(cols * n_nodes + rows)


def _symmetric(values: np.ndarray, n_nodes: int) -> np.ndarray:
    """The symmetric hollow N_V x N_V matrices whose upper triangles, in
    _upper_pairs order, lie along the last axis of ``values``."""
    upper, lower = _flat_pairs(n_nodes)
    out = np.zeros((*values.shape[:-1], n_nodes * n_nodes))
    out[..., upper] = values
    out[..., lower] = values
    return out.reshape(*values.shape[:-1], n_nodes, n_nodes)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(value, name: str) -> None:
    """Refuse anything but a Python or numpy integer, naming it ``name``."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"n{i}" for i in range(n))


def _as_square_matrix(matrix, context: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{context}: expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError(f"{context}: matrix must have at least one node")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{context}: matrix entries must be finite")
    return m


def validate_symmetric_hollow(matrix, context: str = "matrix") -> np.ndarray:
    """Validate symmetry (within SYMMETRY_TOL) and a zero diagonal.

    Returns a new array symmetrized by averaging, diagonal forced to
    exactly zero.  Raises ValidationError when the asymmetry or the
    diagonal exceeds the tolerance.
    """
    m = _as_square_matrix(matrix, context)
    asym = np.abs(m - m.T)
    if asym.size and asym.max() > SYMMETRY_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValidationError(
            f"{context}: not symmetric at ({i},{j}): {float(m[i, j])!r} vs {float(m[j, i])!r}"
        )
    diag = np.abs(np.diagonal(m))
    if diag.size and diag.max() > SYMMETRY_TOL:
        i = int(np.argmax(diag))
        raise ValidationError(f"{context}: diagonal entry ({i},{i}) = {float(m[i, i])!r} is not zero")
    out = (m + m.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _set_fields(obj, **fields):
    """``obj`` with ``fields`` set past its frozen dataclass's guard, unchecked;
    ``_set_fields(object.__new__(cls), ...)`` builds a graph from checked data."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _refuse_carriage_returns(labels: tuple[str, ...], what: str) -> None:
    """Refuse a label holding a carriage return.  The CSV writer ends lines
    in a bare line feed and so leaves a lone carriage return unquoted,
    where a CSV reader would split the row."""
    for label in labels:
        if "\r" in label:
            raise ValidationError(f"{what} {label!r} holds a carriage return")


def _node_labels(node_labels, n: int, what: str) -> tuple[str, ...]:
    """The labels as a tuple of n distinct strings (``what`` names the
    n-node object in the error).  A string is refused, not split into
    characters; a repeated label is named with both of its nodes, and a
    label holding a carriage return is named."""
    if isinstance(node_labels, str):
        raise ValidationError(f"node labels must be a list of labels, not the string {node_labels!r}")
    labels = tuple(str(x) for x in node_labels)
    if len(labels) != n:
        raise ValidationError(f"{len(labels)} node labels for a {n}-node {what}")
    _refuse_carriage_returns(labels, "node label")
    if len(set(labels)) != n:
        v = next(v for v, label in enumerate(labels) if label in labels[:v])
        u = labels.index(labels[v])
        raise ValidationError(f"node label {labels[v]!r} is repeated at nodes {u} and {v}")
    return labels


def _node_coords(node_coords, labels: tuple[str, ...]) -> np.ndarray | None:
    """The coordinates as a frozen (n, 3) float copy, or None; a node whose
    coordinates are not all finite is named in the error.  The copy leaves
    the caller's array writable and unshared."""
    n = len(labels)
    if node_coords is None:
        return None
    try:
        coords = np.array(node_coords, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"node_coords must have shape ({n}, 3), got ragged or non-numeric rows"
        ) from exc
    if coords.shape != (n, 3):
        raise ValidationError(f"node_coords must have shape ({n}, 3), got {coords.shape}")
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        v = int(bad[0])
        raise ValidationError(
            f"node {v} ({labels[v]}) has non-finite coordinates {coords[v].tolist()}")
    return _freeze(coords)


def _node_metadata(node_labels, node_coords, n: int, what: str):
    """The node rule of every value type that carries node labels: the
    checked labels and coordinates (see _node_labels and _node_coords)."""
    labels = _node_labels(node_labels, n, what)
    return labels, _node_coords(node_coords, labels)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric nonnegative-weight graph; one-to-one with an association matrix.

    ``weights[i, j]`` is the connection strength between nodes i and j; a
    zero entry means no edge.  ``node_coords`` is optional pass-through
    metadata (one 3-vector per node, e.g. stereotaxic millimeters) used
    only by exporters.
    """

    node_labels: tuple[str, ...]
    weights: np.ndarray
    node_coords: np.ndarray | None = None

    def __post_init__(self):
        w = validate_symmetric_hollow(self.weights, "weights")
        if w.min() < 0:
            i, j = np.unravel_index(np.argmin(w), w.shape)
            raise ValidationError(
                f"weights: negative entry {float(w[i, j])!r} at ({i},{j}); "
                "build signed association matrices with negatives='abs' (--abs)"
            )
        labels, coords = _node_metadata(
            self.node_labels, self.node_coords, w.shape[0], "weight matrix")
        _set_fields(self, node_labels=labels, weights=_freeze(w), node_coords=coords)

    @classmethod
    def from_matrix(cls, weights, node_labels=None, node_coords=None) -> "WeightedGraph":
        w = np.asarray(weights, dtype=float)
        labels = _default_labels(w.shape[0]) if node_labels is None else node_labels
        return cls(labels, w, node_coords)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class BinaryGraph:
    """Unweighted undirected graph from thresholding; adjacency is 0/1, hollow.

    ``node_coords`` is the same pass-through layout metadata as on
    WeightedGraph, so thresholded and inferred networks keep it.
    """

    node_labels: tuple[str, ...]
    adjacency: np.ndarray
    node_coords: np.ndarray | None = None
    edge_count: int = field(init=False)

    def __post_init__(self):
        a = _as_square_matrix(self.adjacency, "adjacency")
        if not np.array_equal(a, a.T):
            raise ValidationError("adjacency: not symmetric")
        if np.any(np.diagonal(a) != 0):
            raise ValidationError("adjacency: diagonal must be zero")
        if not np.isin(a, (0, 1)).all():
            raise ValidationError("adjacency: entries must be 0 or 1")
        labels, coords = _node_metadata(
            self.node_labels, self.node_coords, a.shape[0], "adjacency matrix")
        _set_fields(self, node_labels=labels, adjacency=_freeze(a.astype(np.uint8)),
                    node_coords=coords, edge_count=int(a.sum()) // 2)

    @classmethod
    def from_adjacency(cls, adjacency, node_labels=None, node_coords=None) -> "BinaryGraph":
        a = np.asarray(adjacency)
        labels = _default_labels(a.shape[0]) if node_labels is None else node_labels
        return cls(labels, a, node_coords)

    @classmethod
    def from_edges(cls, n_nodes: int, edges, node_labels=None) -> "BinaryGraph":
        """The graph of the node index pairs (i, j) in ``edges``, read once."""
        if not (_is_integer(n_nodes) and n_nodes >= 1):
            raise ValidationError(f"n_nodes must be a positive integer, got {n_nodes!r}")
        pairs = list(edges)
        for pair in pairs:
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
                    and all(_is_integer(v) and 0 <= v < n_nodes for v in pair)):
                raise ValidationError(f"edge {pair!r} is not a pair of node indices in 0..{n_nodes - 1}")
            if pair[0] == pair[1]:
                raise ValidationError(f"self-loop ({pair[0]},{pair[0]}) is not allowed")
        labels = _default_labels(n_nodes) if node_labels is None else node_labels
        rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        return _edge_graph(_node_labels(labels, n_nodes, "adjacency matrix"), rows, cols)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def _edge_graph(node_labels, rows, cols, node_coords=None) -> BinaryGraph:
    """The graph on ``node_labels`` whose edges are the pairs (rows[e], cols[e]).

    Nothing is checked again: the labels are a tuple and the coordinates
    None or a frozen (n, 3) array that have passed the node rule, and every
    pair joins two distinct nodes in range.  A pair given twice is one edge.
    """
    adjacency = np.zeros((len(node_labels),) * 2, dtype=np.uint8)
    adjacency[rows, cols] = 1
    adjacency[cols, rows] = 1
    return _set_fields(object.__new__(BinaryGraph), node_labels=node_labels,
                       adjacency=_freeze(adjacency), node_coords=node_coords,
                       edge_count=int(np.count_nonzero(adjacency)) // 2)


def threshold(matrix, tau: float) -> BinaryGraph:
    """Binarize a symmetric hollow association matrix at cut-off ``tau``.

    An edge (i, j) is kept iff matrix[i, j] > tau (strict), so tau = 0
    drops zero entries of a nonnegative matrix.
    """
    if np.isnan(tau):  # every comparison with NaN is false, so no edge would be kept
        raise ValidationError(f"threshold tau must be a number, got {tau!r}")
    if isinstance(matrix, WeightedGraph):
        m, labels, coords = matrix.weights, matrix.node_labels, matrix.node_coords
    else:
        m = validate_symmetric_hollow(matrix, "threshold input")
        labels, coords = _default_labels(m.shape[0]), None
    rows, cols = np.nonzero(np.triu(m > tau, 1))
    return _edge_graph(labels, rows, cols, coords)


def _hop_distances(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts by simultaneous frontier expansion.

    Each step counts, for every pair (i, j), the neighbours of j that i
    already reaches.  That count is at most n, so ``np.min_scalar_type(n)``
    holds it exactly for every n, where a fixed uint8 would wrap to 0 at
    256 such neighbours.  ``np.einsum`` runs the product in numpy's own
    loops, with no BLAS and so no extra threads.
    """
    n = adjacency.shape[0]
    count = np.min_scalar_type(n)
    adj = adjacency.astype(count)
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    reach = (adj > 0) | np.eye(n, dtype=bool)
    hops = 1
    while True:
        grown = (np.einsum("ik,kj->ij", reach.astype(count), adj) > 0) | reach
        fresh = grown & ~reach
        if not fresh.any():
            return dist
        hops += 1
        dist[fresh] = hops
        reach = grown


def _insert_edge(dist: np.ndarray, u: int, v: int) -> None:
    """Update all-pairs hop counts in place for a newly inserted edge (u, v).

    A new edge can only shorten a path by being on it, in one direction or
    the other (the edge-insertion update of Ausiello, Italiano,
    Marchetti-Spaccamela and Nanni, J. Algorithms 1991).  The path
    x .. u - v .. y beats ``dist[x, y]`` only if it beats the paths through
    v and through u, that is only for rows X = {x : d(x,u) + 1 < d(x,v)}
    against columns Y = {y : d(v,y) + 1 < d(u,y)}.  X and Y are disjoint,
    so ``min(dist[X, Y], (d[X,u] + 1) + d[v,Y])`` and its mirror at [Y, X]
    are all that changes; with X as a column and Y as a row of indices,
    ``dist[y, x]`` is that mirror.  Exact because hop counts are integers
    held in floats; comparisons, unlike a difference, stay quiet when both
    sides are infinite.
    """
    du, dv = dist[u], dist[v]
    x = (du + 1.0 < dv).nonzero()[0][:, None]
    y = (dv + 1.0 < du).nonzero()[0]
    shorter = np.minimum(dist[x, y], (du[x] + 1.0) + dv[y])
    dist[x, y] = shorter
    dist[y, x] = shorter


def shortest_paths_unweighted(g: BinaryGraph) -> np.ndarray:
    """All-pairs hop counts as a read-only (n, n) float array; unreachable
    pairs hold ``UNREACHABLE``.  Disconnected graphs are allowed."""
    return _freeze(_hop_distances(g.adjacency))


def shortest_paths_weighted(g: WeightedGraph) -> np.ndarray:
    """All-pairs weighted shortest path lengths, where traversing an edge
    costs 1/w, as a read-only (n, n) float array; unreachable pairs hold
    ``UNREACHABLE``.

    Stronger connections are shorter; zero-weight pairs carry no edge, and
    so does a weight so small that 1/w overflows to infinity.

    Dijkstra from every source at once: each round, every source settles
    its nearest unsettled node u and relaxes ``dist[s, u] + lengths[u]``.
    Entry [s, t] is therefore the least, over paths from s to t, of the
    path's lengths summed left to right from s.  Floating-point addition
    is monotone and every length is positive, so that least sum does not
    depend on the order nodes are settled in or on how ties break, and it
    is bit for bit what scipy's Dijkstra gives.  Summing the same path
    from t groups the additions differently, so [s, t] and [t, s] can
    differ in the last bit: no symmetric shortcut (one triangle mirrored)
    and no Floyd–Warshall, which groups by intermediate node, may replace
    this kernel without changing the bytes of ``weighted_efficiency``.
    """
    w = g.weights
    n = w.shape[0]
    lengths = np.full_like(w, np.inf)
    with np.errstate(over="ignore"):
        np.divide(1.0, w, out=lengths, where=w > 0)
    rows = np.arange(n)
    # round one settles each source and relaxes its own edges; the node a
    # source settles last can shorten no path, so n - 2 rounds remain
    dist = lengths.copy()
    np.fill_diagonal(dist, 0.0)
    settled = np.zeros_like(w)
    np.fill_diagonal(settled, np.inf)
    for _ in range(n - 2):
        u = np.argmin(dist + settled, axis=1)
        settled[rows, u] = np.inf
        np.minimum(dist, dist[rows, u][:, None] + lengths[u], out=dist)
    return _freeze(dist)


def _efficiency_from_distances(dist: np.ndarray) -> float:
    """Mean inverse distance over ordered pairs; unreachable pairs add 0.

    Dropping the first entry of the flattened matrix leaves rows of n + 1
    entries, each ending on a diagonal entry: cutting that column leaves
    the off-diagonal entries in row-major order, so the pairwise sum adds
    the same numbers in the same order as a boolean off-diagonal mask.
    """
    n = dist.shape[0]
    d = dist.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].ravel()
    with np.errstate(divide="ignore"):
        inv = 1.0 / d
    inv[d <= 0] = 0.0
    return float(inv.sum() / (n * (n - 1)))


def global_efficiency(g: BinaryGraph) -> float:
    """Mean inverse shortest-path length over ordered node pairs.

    Equals 1 for the complete graph and 0 for the edgeless graph;
    unreachable pairs contribute 0.
    """
    if g.n_nodes < 2:
        raise ValidationError("global_efficiency needs at least 2 nodes")
    return _efficiency_from_distances(_hop_distances(g.adjacency))


def local_efficiency(g: BinaryGraph) -> float:
    """Mean over nodes of the global efficiency of each open neighborhood.

    Nodes with fewer than two neighbors contribute 0.
    """
    if g.n_nodes < 2:
        raise ValidationError("local_efficiency needs at least 2 nodes")
    total = 0.0
    for v in range(g.n_nodes):
        nbrs = np.flatnonzero(g.adjacency[v])
        if nbrs.size >= 2:
            total += _efficiency_from_distances(_hop_distances(g.adjacency[np.ix_(nbrs, nbrs)]))
    return total / g.n_nodes


def weighted_efficiency(g: WeightedGraph) -> float:
    """Mean inverse weighted shortest-path length over ordered node pairs."""
    if g.n_nodes < 2:
        raise ValidationError("weighted_efficiency needs at least 2 nodes")
    return _efficiency_from_distances(shortest_paths_weighted(g))


def weighted_density(g: WeightedGraph) -> float:
    """Mean edge weight over ordered node pairs (the weighted cost)."""
    if g.n_nodes < 2:
        raise ValidationError("weighted_density needs at least 2 nodes")
    n = g.n_nodes
    return float(g.weights.sum() / (n * (n - 1)))


def spread_condition_holds(g: WeightedGraph) -> bool:
    """True iff the smallest positive weight is at least half the largest.

    Under this condition no two-hop detour can beat a direct edge, and
    weighted efficiency collapses to weighted density.
    """
    pos = g.weights[g.weights > 0]
    if pos.size == 0:
        raise ValidationError("spread condition is undefined without positive weights")
    return bool(pos.min() >= 0.5 * pos.max())
