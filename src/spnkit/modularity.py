"""Greedy modularity detection and the randomness/density simulation harness.

The community detector is the agglomerative Q-maximizer: start from
singletons and repeatedly merge the community pair with the largest
modularity gain while any gain is positive.  Ties are broken by the
smallest (row, column) community pair, so runs are deterministic.

Generators produce ring lattices (edges added in rounds of increasing
neighbor offset) and uniform random simple graphs; ``rewire`` moves one
existing edge to one absent slot per step, keeping the edge count fixed.
Sweeps derive one child seed per (grid point, replicate) by hashing
(master_seed, grid_index, replicate), so rows are order-independent and
bit-reproducible.
"""

from __future__ import annotations

from csv import writer as csv_writer
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import BinaryGraph, max_edge_count

_Q_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Partition:
    """A node partition with its module count and Newman modularity Q."""

    assignment: tuple[int, ...]
    module_count: int
    q: float

    def __post_init__(self):
        ids = set(self.assignment)
        if ids != set(range(self.module_count)):
            raise ValidationError("module ids must be contiguous from 0")
        if not -1.0 - _Q_TOL <= self.q <= 1.0 + _Q_TOL:
            raise ValidationError(f"modularity q={self.q!r} outside [-1, 1]")


@dataclass(frozen=True)
class SweepRow:
    parameter: int
    replicates: int
    mean_modules: float
    sd_modules: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows of (parameter, replicates, mean module count, sd) for one sweep."""

    rows: tuple[SweepRow, ...]
    seed: int
    topology: str

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv_writer(fh)
            out.writerow(["parameter", "replicates", "mean_modules", "sd_modules"])
            for row in self.rows:
                out.writerow(
                    [row.parameter, row.replicates, repr(row.mean_modules), repr(row.sd_modules)]
                )


def modularity_q(g: BinaryGraph, assignment) -> float:
    """Newman modularity of a given node partition."""
    m = g.edge_count
    if m == 0:
        raise ValidationError("modularity is undefined for an edgeless graph")
    labels = np.asarray(assignment)
    a = g.adjacency.astype(float)
    degrees = a.sum(axis=1)
    q = 0.0
    for module in np.unique(labels):
        members = labels == module
        l_c = a[np.ix_(members, members)].sum() / 2.0
        d_c = degrees[members].sum()
        q += l_c / m - (d_c / (2.0 * m)) ** 2
    return float(q)


def greedy_modularity(g: BinaryGraph) -> Partition:
    """Agglomerative modularity maximization from singleton communities.

    Merges the pair with the largest positive gain until no merge
    improves Q, then returns the partition at the maximum Q reached.
    """
    m = g.edge_count
    if m == 0:
        raise ValidationError("greedy modularity needs at least one edge")
    n = g.n_nodes
    adjacency = g.adjacency.astype(float)

    # e[i, j]: fraction of edge ends between communities i and j; a[i]: degree share.
    e = adjacency / (2.0 * m)
    a = adjacency.sum(axis=1) / (2.0 * m)
    alive = np.ones(n, dtype=bool)
    community = np.arange(n)

    # gain[i, j] (i < j, both alive): Q change of merging j into i; every
    # other entry is -inf.  A merge of j into i changes only e's and a's row
    # and column i, so only row and column i are recomputed, each entry by
    # the same expression a full rebuild would use.
    gain = 2.0 * (e - np.outer(a, a))
    gain[np.tril_indices(n)] = -np.inf

    for _ in range(n - 1):  # each merge leaves one community fewer
        flat = int(np.argmax(gain))
        i, j = divmod(flat, n)
        if not gain[i, j] > 0.0:
            break
        e[i, :] += e[j, :]
        e[:, i] += e[:, j]
        e[j, :] = 0.0
        e[:, j] = 0.0
        a[i] += a[j]
        a[j] = 0.0
        alive[j] = False
        community[community == j] = i
        gain[j, :] = -np.inf
        gain[:, j] = -np.inf
        gain[i, i + 1:] = np.where(alive[i + 1:], 2.0 * (e[i, i + 1:] - a[i] * a[i + 1:]), -np.inf)
        gain[:i, i] = np.where(alive[:i], 2.0 * (e[:i, i] - a[:i] * a[i]), -np.inf)

    q = float(np.sum(np.diag(e)[alive] - a[alive] ** 2))
    representatives = np.unique(community)
    remap = {int(rep): idx for idx, rep in enumerate(representatives)}
    assignment = tuple(remap[int(c)] for c in community)
    return Partition(assignment, len(representatives), q)


def _check_generator_args(n_v: int, n_e: int) -> int:
    if n_v < 3:
        raise ValidationError(f"need at least 3 nodes, got {n_v}")
    limit = max_edge_count(n_v)
    if not 0 <= n_e <= limit:
        raise ValidationError(f"n_e={n_e} infeasible for {n_v} nodes (max {limit})")
    return limit


def ring_lattice(n_v: int, n_e: int) -> BinaryGraph:
    """Deterministic regular ring lattice with exactly ``n_e`` edges.

    Edges are added in rounds of increasing neighbor offset (all
    offset-1 edges, then offset-2, ...); a final partial round is added
    in node-index order, breaking regularity by at most one round.
    """
    _check_generator_args(n_v, n_e)
    edges: list[tuple[int, int]] = []
    offset = 1
    while len(edges) < n_e:
        if 2 * offset == n_v:
            ring = [(i, i + offset) for i in range(n_v // 2)]
        else:
            ring = [tuple(sorted((i, (i + offset) % n_v))) for i in range(n_v)]
        take = min(n_e - len(edges), len(ring))
        edges.extend(ring[:take])
        offset += 1
    return BinaryGraph.from_edges(n_v, edges)


def random_graph(n_v: int, n_e: int, seed: int) -> BinaryGraph:
    """Uniform simple graph: ``n_e`` distinct node pairs sampled without replacement."""
    limit = _check_generator_args(n_v, n_e)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(limit, size=n_e, replace=False)
    rows, cols = np.triu_indices(n_v, k=1)
    adjacency = np.zeros((n_v, n_v), dtype=np.uint8)
    adjacency[rows[chosen], cols[chosen]] = 1
    adjacency |= adjacency.T
    return BinaryGraph.from_adjacency(adjacency)


def rewire(g: BinaryGraph, steps: int, seed: int) -> BinaryGraph:
    """Move ``steps`` edges, one at a time, to uniformly chosen absent slots.

    Every step deletes a uniform existing edge and adds a uniform
    currently-absent pair, so the edge count is invariant and the graph
    stays simple.  ``steps == 0`` returns the input graph.
    """
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if steps == 0:
        return g
    n = g.n_nodes
    limit = max_edge_count(n)
    m = g.edge_count
    if m == 0 or m == limit:
        raise ValidationError("no legal rewiring move on an empty or complete graph")
    rows, cols = np.triu_indices(n, k=1)
    slot_of = g.adjacency[rows, cols].astype(bool)
    edges = list(np.flatnonzero(slot_of))
    edge_set = set(edges)
    rng = np.random.default_rng(seed)
    dense = m > 0.9 * limit
    for _ in range(steps):
        pos = int(rng.integers(len(edges)))
        if dense:
            absent = [t for t in range(limit) if t not in edge_set]
            new = absent[int(rng.integers(len(absent)))]
        else:
            while True:
                new = int(rng.integers(limit))
                if new not in edge_set:
                    break
        edge_set.remove(edges[pos])
        edge_set.add(new)
        edges[pos] = new
    adjacency = np.zeros((n, n), dtype=np.uint8)
    idx = np.fromiter(edge_set, dtype=int)
    adjacency[rows[idx], cols[idx]] = 1
    adjacency |= adjacency.T
    return BinaryGraph(g.node_labels, adjacency)


def _child_seed(master: int, grid_index: int, replicate: int) -> int:
    return int(np.random.SeedSequence((master, grid_index, replicate)).generate_state(1)[0])


def _row(parameter: int, counts) -> SweepRow:
    values = np.asarray(counts, dtype=float)
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return SweepRow(int(parameter), int(values.size), float(values.mean()), sd)


def randomness_sweep(
    n_v: int, n_e: int, rewiring_grid, replicates: int, seed: int
) -> SweepResult:
    """Module counts of rewired ring lattices as randomness increases.

    For each rewiring count in the grid, ``replicates`` independently
    seeded rewirings of the same base lattice are clustered.
    """
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    rewiring_grid = list(rewiring_grid)
    if not rewiring_grid:
        raise ValidationError("rewiring grid is empty")
    base = ring_lattice(n_v, n_e)
    rows = []
    for gi, steps in enumerate(rewiring_grid):
        counts = []
        for r in range(replicates):
            rewired = rewire(base, int(steps), _child_seed(seed, gi, r))
            counts.append(greedy_modularity(rewired).module_count)
        rows.append(_row(int(steps), counts))
    return SweepResult(tuple(rows), seed, "lattice")


def edges_sweep(
    n_v: int, edge_grid, topology: str, replicates: int, seed: int
) -> SweepResult:
    """Module counts as a function of edge count, for lattice or random graphs.

    Lattice generation is deterministic, so its rows collapse to a
    single evaluation (recorded replicates = 1, sd = 0).
    """
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    if topology not in ("lattice", "random"):
        raise ValidationError(f"topology must be 'lattice' or 'random', got {topology!r}")
    edge_grid = list(edge_grid)
    if not edge_grid:
        raise ValidationError("edge grid is empty")
    rows = []
    for gi, n_e in enumerate(edge_grid):
        if topology == "lattice":
            counts = [greedy_modularity(ring_lattice(n_v, int(n_e))).module_count]
        else:
            counts = [
                greedy_modularity(random_graph(n_v, int(n_e), _child_seed(seed, gi, r))).module_count
                for r in range(replicates)
            ]
        rows.append(_row(int(n_e), counts))
    return SweepResult(tuple(rows), seed, topology)
