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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import (BinaryGraph, _check_integer, _default_labels, _edge_graph, _upper_pairs,
                     max_edge_count)

TOPOLOGIES = ("lattice", "random")


@dataclass(frozen=True, eq=False)
class Partition:
    """A node partition with its module count and Newman modularity Q."""

    assignment: tuple[int, ...]
    module_count: int
    q: float


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid value: its replicates' mean module count and sd."""

    parameter: int
    replicates: int
    mean_modules: float
    sd_modules: float


def modularity_q(g: BinaryGraph, assignment) -> float:
    """Newman modularity of a given node partition."""
    m = g.edge_count
    if m == 0:
        raise ValidationError("modularity is undefined for an edgeless graph")
    labels = np.asarray(assignment)
    if labels.shape != (g.n_nodes,):
        raise ValidationError(
            f"assignment has {labels.size} entries for a graph of {g.n_nodes} nodes")
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

    # e[i, j]: fraction of edge ends between communities i and j; a[i]: degree
    # share, +inf once i is merged away.  e stays exactly symmetric.  Entries
    # in the rows and columns of merged-away communities go stale; they flow
    # only into other such entries, and a = inf keeps them out of every gain.
    e = g.adjacency / (2.0 * m)
    a = g.adjacency.sum(axis=1) / (2.0 * m)
    members = [[v] for v in range(n)]

    # gain[i, j]: Q change of merging communities i and j; symmetric, -inf on
    # the diagonal and on dead rows and columns.  a[i] * a[k] == a[k] * a[i],
    # so each live gain is one float whichever triangle holds it, and the
    # first flat argmax is the smallest (row, column) pair of the best gain.
    gain = 2.0 * (e - np.outer(a, a))
    np.fill_diagonal(gain, -np.inf)

    for _ in range(n - 1):  # each merge leaves one community fewer
        i, j = divmod(int(gain.argmax()), n)  # i < j
        if not gain[i, j] > 0.0:
            break
        e_i = e[i]  # views: the in-place updates below write e and gain
        e_i += e[j]
        e_i[i] += e_i[j]  # e_ii becomes (e_ii + e_ji) + (e_ij + e_jj)
        e[:, i] = e_i
        a[i] += a[j]
        a[j] = np.inf  # a merging i has edges, so a[i] * inf is inf, never inf * 0
        members[i] += members[j]
        members[j] = None
        gain_i = gain[i]  # 2.0 * (e_i - a[i] * a), one vector for row and column i
        np.multiply(a, a[i], out=gain_i)
        np.subtract(e_i, gain_i, out=gain_i)
        gain_i *= 2.0
        gain_i[i] = -np.inf
        gain[:, i] = gain_i
        gain[j] = -np.inf
        gain[:, j] = -np.inf

    live = [c for c in range(n) if members[c] is not None]
    q = float(np.sum(np.diag(e)[live] - a[live] ** 2))
    assignment = [0] * n
    for module, c in enumerate(live):
        for v in members[c]:
            assignment[v] = module
    return Partition(tuple(assignment), len(live), q)


def _check_generator_args(n_v: int, n_e: int) -> int:
    _check_integer(n_v, "n_v")
    _check_integer(n_e, "n_e")
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
    in node-index order, breaking regularity by at most one round.  Slot
    s joins node s mod n_v to the node s // n_v + 1 places on; an even
    ring's offset-n_v/2 round repeats itself only after the last edge slot.
    """
    _check_generator_args(n_v, n_e)
    slots = np.arange(n_e)
    nodes = slots % n_v
    return _edge_graph(_default_labels(n_v), nodes, (nodes + slots // n_v + 1) % n_v)


def random_graph(n_v: int, n_e: int, seed: int) -> BinaryGraph:
    """Uniform simple graph: ``n_e`` distinct node pairs sampled without replacement."""
    _check_seed(seed)
    limit = _check_generator_args(n_v, n_e)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(limit, size=n_e, replace=False)
    rows, cols = _upper_pairs(n_v)
    return _edge_graph(_default_labels(n_v), rows[chosen], cols[chosen])


def _uint32_stream(rng: np.random.Generator, chunk: int):
    """The generator's uint32 draws as Python ints, taken ``chunk`` at a time."""
    while True:
        yield from rng.integers(0, 1 << 32, size=chunk, dtype=np.uint32).tolist()


def _bounded(next_u32, bound: int) -> int:
    """The integer ``rng.integers(bound)`` gives, for 1 <= bound <= 2**32.

    numpy draws such a bound from the generator's uint32 stream by
    Lemire's multiply-and-reject rule (and draws nothing for bound 1);
    fed the same uint32 values, this returns the same integers.
    ``tests/test_modularity.py`` holds it to ``rng.integers``, so a numpy
    release that changes the rule fails there.
    """
    if bound == 1:
        return 0
    threshold = (1 << 32) % bound
    while True:
        product = next_u32() * bound
        if product & 0xFFFFFFFF >= threshold:
            return product >> 32


def rewire(g: BinaryGraph, steps: int, seed: int) -> BinaryGraph:
    """Move ``steps`` edges, one at a time, to uniformly chosen absent slots.

    Every step deletes a uniform existing edge and adds a uniform
    currently-absent pair, drawn by rejection over all node pairs at every
    density, so the edge count is invariant and the graph stays simple.
    ``steps == 0`` returns the input graph.  The draws are those of one
    scalar ``rng.integers`` call each, taken from batched uint32 draws of
    ``default_rng(seed)``.
    """
    _check_seed(seed)
    _check_integer(steps, "steps")
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if steps == 0:
        return g
    n = g.n_nodes
    limit = max_edge_count(n)
    m = g.edge_count
    if m == 0 or m == limit:
        raise ValidationError("no legal rewiring move on an empty or complete graph")
    if limit > 1 << 32:
        raise ValidationError(f"rewire draws at most 2**32 node pairs, got {limit}")
    rows, cols = _upper_pairs(n)
    edges = np.flatnonzero(g.adjacency[rows, cols]).tolist()
    edge_set = set(edges)
    draw = _uint32_stream(np.random.default_rng(seed), 2 * steps + 64).__next__
    for _ in range(steps):
        pos = _bounded(draw, m)
        while True:
            new = _bounded(draw, limit)
            if new not in edge_set:
                break
        edge_set.remove(edges[pos])
        edge_set.add(new)
        edges[pos] = new
    idx = np.fromiter(edge_set, dtype=int)
    return _edge_graph(g.node_labels, rows[idx], cols[idx], g.node_coords)


def _child_seed(master: int, grid_index: int, replicate: int) -> int:
    return int(np.random.SeedSequence((master, grid_index, replicate)).generate_state(1)[0])


def _check_seed(seed: int) -> None:
    _check_integer(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


def _row(parameter: int, counts) -> SweepRow:
    values = np.asarray(counts, dtype=float)
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return SweepRow(int(parameter), int(values.size), float(values.mean()), sd)


def _check_sweep(replicates: int, seed: int) -> None:
    _check_seed(seed)
    _check_integer(replicates, "replicates")
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")


def _sweep(grid, replicates: int, what: str, graph) -> tuple[SweepRow, ...]:
    """One row per grid value: module counts of ``graph(grid_index, value, replicate)``
    for each of ``replicates`` replicates, clustered by greedy modularity."""
    grid = list(grid)
    if not grid:
        raise ValidationError(f"{what} grid is empty")
    for value in grid:
        _check_integer(value, f"{what} grid value")
    return tuple(
        _row(value, [greedy_modularity(graph(gi, value, r)).module_count
                     for r in range(replicates)])
        for gi, value in enumerate(grid)
    )


def randomness_sweep(
    n_v: int, n_e: int, rewiring_grid, replicates: int, seed: int
) -> tuple[SweepRow, ...]:
    """Module counts of rewired ring lattices as randomness increases.

    For each rewiring count in the grid, ``replicates`` independently
    seeded rewirings of the same base lattice are clustered, giving one row
    per grid value in grid order (``spnkit.io.write_sweep`` writes them).
    """
    _check_sweep(replicates, seed)
    base = ring_lattice(n_v, n_e)
    return _sweep(rewiring_grid, replicates, "rewiring",
                  lambda gi, steps, r: rewire(base, steps, _child_seed(seed, gi, r)))


def edges_sweep(
    n_v: int, edge_grid, topology: str, replicates: int, seed: int
) -> tuple[SweepRow, ...]:
    """Module counts as a function of edge count, for lattice or random graphs.

    Rows as in ``randomness_sweep``.  Lattice generation is deterministic,
    so its rows collapse to a single evaluation (recorded replicates = 1, sd = 0).
    """
    _check_sweep(replicates, seed)
    if topology not in TOPOLOGIES:
        raise ValidationError(f"topology must be 'lattice' or 'random', got {topology!r}")
    if topology == "lattice":
        return _sweep(edge_grid, 1, "edge", lambda gi, n_e, r: ring_lattice(n_v, n_e))
    return _sweep(edge_grid, replicates, "edge",
                  lambda gi, n_e, r: random_graph(n_v, n_e, _child_seed(seed, gi, r)))
