"""Independent brute-force oracles that pin expected values for the suite.

The oracles call nothing of spnkit's own algorithms: distances come from
exhaustive simple-path search and breadth-first search, modularity from
explicit Python loops and full set-partition enumeration, tail
probabilities from math.erfc and mpmath's incomplete beta.  Where spnkit
keeps a fast path, the plain version it replaced lives here as its slow
reference: greedy modularity with a full gain rebuild per merge and with
the upper-triangle row and column update, hop counts by frontier
products in uint8 (exact only below 256 nodes), the hop-count update
over the whole matrix per inserted edge, the efficiency sum over a
boolean off-diagonal mask, the density ranking of positive edges by one
plain sort, local efficiency through one validated
``BinaryGraph`` and one public ``global_efficiency`` call per
neighbourhood, and ``rewire`` with one scalar ``rng.integers`` call per
draw.  ``ring_lattice_by_rounds`` is the round-by-round loop that the
slot arithmetic of ``ring_lattice`` replaced, and
``scipy_shortest_paths_weighted`` the scipy Dijkstra call that the numpy
all-source Dijkstra of ``shortest_paths_weighted`` replaced.  The last
group keeps the paths a study took while it held every full (n, J, N_V,
N_V) cell: each cell as ``validate_symmetric_hollow`` returns it, the
upper-triangle gather, ``fisher_z`` and ``z.std`` on full-size copies,
``repeated_measures_fit`` through its own copy (and the differential SPN
routed from that one whole-family fit), and condition means over full
matrices.  These references call spnkit's public functions, as do
the local efficiency and ``rewire`` references.
"""

import math
from collections import deque

import numpy as np
from mpmath import betainc, mp, mpf
from scipy.sparse.csgraph import shortest_path

import spnkit as sk
from spnkit.graphs import validate_symmetric_hollow

mp.dps = 30


def brute_force_distances(lengths: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by recursive search over simple paths.

    ``lengths`` holds edge traversal lengths with np.inf for absent
    edges.  A branch is cut only once its running length already matches
    the best known arrival at the node being entered, which discards no
    potentially shorter path (lengths are nonnegative).
    """
    n = lengths.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    neighborhoods = [np.flatnonzero(np.isfinite(lengths[v])) for v in range(n)]

    for source in range(n):
        on_path = [False] * n
        on_path[source] = True

        def walk(vertex: int, acc: float) -> None:
            for nxt in neighborhoods[vertex]:
                if on_path[nxt]:
                    continue
                length = acc + lengths[vertex, nxt]
                if length >= dist[source, nxt]:
                    continue
                dist[source, nxt] = length
                on_path[nxt] = True
                walk(int(nxt), length)
                on_path[nxt] = False

        walk(source, 0.0)
    return dist


def bfs_hop_distances(adjacency) -> np.ndarray:
    """All-pairs hop counts by one breadth-first search per source;
    unreachable pairs hold inf."""
    a = np.asarray(adjacency)
    n = a.shape[0]
    neighbours = [np.flatnonzero(a[v]).tolist() for v in range(n)]
    dist = np.full((n, n), np.inf)
    for source in range(n):
        hops = [-1] * n
        hops[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if hops[w] < 0:
                    hops[w] = hops[v] + 1
                    queue.append(w)
        reached = [v for v in range(n) if hops[v] >= 0]
        dist[source, reached] = [hops[v] for v in reached]
    return dist


def hop_distances_uint8(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts by frontier expansion with a ``uint8 @ uint8``
    product.  A count of 256 common neighbours wraps to 0, so this is exact
    only for graphs of at most 255 nodes."""
    n = adjacency.shape[0]
    adj = adjacency.astype(np.uint8)
    dist = np.where(adj > 0, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    reach = (adj > 0) | np.eye(n, dtype=bool)
    hops = 1
    while True:
        grown = ((reach.astype(np.uint8) @ adj) > 0) | reach
        fresh = grown & ~reach
        if not fresh.any():
            return dist
        hops += 1
        dist[fresh] = hops
        reach = grown


def hop_lengths(adjacency: np.ndarray) -> np.ndarray:
    lengths = np.where(np.asarray(adjacency) > 0, 1.0, np.inf)
    np.fill_diagonal(lengths, np.inf)
    return lengths


def reciprocal_lengths(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    lengths = np.full(w.shape, np.inf)
    pos = w > 0
    lengths[pos] = 1.0 / w[pos]
    np.fill_diagonal(lengths, np.inf)
    return lengths


def scipy_shortest_paths_weighted(w: np.ndarray) -> np.ndarray:
    """All-pairs weighted distances, edge length 1/w, by scipy's Dijkstra."""
    lengths = np.zeros_like(w)
    pos = w > 0
    lengths[pos] = 1.0 / w[pos]
    return shortest_path(lengths, method="D", directed=False, unweighted=False)


def efficiency_from_oracle(dist: np.ndarray) -> float:
    n = dist.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and math.isfinite(dist[i, j]) and dist[i, j] > 0:
                total += 1.0 / dist[i, j]
    return total / (n * (n - 1))


def efficiency_masked(dist: np.ndarray) -> float:
    """Mean inverse distance over ordered pairs, the off-diagonal entries
    taken by a boolean mask; unreachable pairs add 0."""
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    d = dist[off]
    inv = np.zeros_like(d)
    reachable = np.isfinite(d) & (d > 0)
    inv[reachable] = 1.0 / d[reachable]
    return float(inv.sum() / (n * (n - 1)))


def insert_edge_full(dist: np.ndarray, u: int, v: int) -> None:
    """The edge-insertion update of all-pairs hop counts over the whole
    matrix: ``dist = min(dist, dist[:, u] + 1 + dist[v, :], its transpose)``."""
    through = dist[:, u, None] + 1.0 + dist[None, v, :]
    np.minimum(dist, through, out=dist)
    np.minimum(dist, through.T, out=dist)


def ranked_positive_edges(weights: np.ndarray) -> list[tuple[int, int, float]]:
    """The positive-weight edges (i, j, w), i < j, of a symmetric weight
    matrix, strongest first and ties in lexicographic (i, j) order: the
    density ranking by one plain sort."""
    n = len(weights)
    edges = [(i, j, float(weights[i, j])) for i in range(n) for j in range(i + 1, n)
             if weights[i, j] > 0]
    return sorted(edges, key=lambda e: (-e[2], e[0], e[1]))


def adjacency_of(n: int, edges) -> np.ndarray:
    """The n x n 0/1 adjacency of the (i, j) or (i, j, w) ``edges``, set one
    edge at a time."""
    adjacency = np.zeros((n, n), dtype=np.uint8)
    for i, j, *_ in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    return adjacency


def efficiency_profile_full_update(order, n: int, ks) -> list[float]:
    """Global efficiency after each prefix ``order[:k]`` of (i, j, w)
    edges, by the whole-matrix update per edge and the masked sum at
    every level."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    by_k = {}
    filled = 0
    for k in sorted(set(ks)):
        for i, j, _ in order[filled:k]:
            insert_edge_full(dist, i, j)
        filled = k
        by_k[k] = efficiency_masked(dist)
    return [by_k[k] for k in ks]


def normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def f_tail_p(f_stat: float, d1: int, d2: int) -> float:
    """P(F > f) via the regularized incomplete beta at 30 digits.  x is
    formed at that precision too: rounded to a float, an x near 1 would
    lose most of the digits of 1 - x, on which p then depends."""
    x = d2 / (d2 + d1 * mpf(float(f_stat)))
    return float(betainc(d2 / 2, d1 / 2, 0, x, regularized=True))


def bh_stepup(p_values, alpha: float):
    """Literal step-up rule: largest rank i with p_(i) <= i*alpha/m."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    k = 0
    for rank, idx in enumerate(order, start=1):
        if p_values[idx] <= rank * alpha / m:
            k = rank
    rejected = [False] * m
    for idx in order[:k]:
        rejected[idx] = True
    return rejected, k


def rm_anova_f(table) -> float:
    """Repeated-measures F by explicit per-cell residual deviations.

    Uses column-major accumulation and computes the residual stratum
    directly (not by subtraction), unlike the library implementation.
    """
    t = np.asarray(table, dtype=float)
    n, j = t.shape
    total, count = 0.0, 0
    for col in range(j):
        for row in range(n):
            total += t[row, col]
            count += 1
    grand = total / count
    col_means = [sum(t[row, col] for row in range(n)) / n for col in range(j)]
    row_means = [sum(t[row, col] for col in range(j)) / j for row in range(n)]
    ss_cond = sum(n * (cm - grand) ** 2 for cm in col_means)
    ss_resid = 0.0
    for col in range(j):
        for row in range(n):
            dev = t[row, col] - col_means[col] - row_means[row] + grand
            ss_resid += dev * dev
    return (ss_cond / (j - 1)) / (ss_resid / ((n - 1) * (j - 1)))


def set_partitions(items: list):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def newman_q(adjacency, assignment) -> float:
    """Modularity of a partition by plain loops over module members."""
    a = np.asarray(adjacency)
    n = a.shape[0]
    m = int(a.sum()) // 2
    degrees = [int(a[v].sum()) for v in range(n)]
    q = 0.0
    for module in set(assignment):
        members = [v for v in range(n) if assignment[v] == module]
        internal = sum(int(a[u, v]) for u in members for v in members) / 2.0
        degree_sum = sum(degrees[v] for v in members)
        q += internal / m - (degree_sum / (2.0 * m)) ** 2
    return q


def exhaustive_max_q(adjacency) -> float:
    n = np.asarray(adjacency).shape[0]
    best = -math.inf
    for blocks in set_partitions(list(range(n))):
        assignment = [0] * n
        for module, block in enumerate(blocks):
            for v in block:
                assignment[v] = module
        best = max(best, newman_q(adjacency, assignment))
    return best


def greedy_modularity_full_rebuild(adjacency):
    """Greedy modularity rebuilding the whole gain matrix on every merge.

    Returns (assignment, module_count, q) under the same merge rule and
    smallest-(row, column) tie-break as spnkit's incremental version.
    """
    adjacency = np.asarray(adjacency).astype(float)
    n = adjacency.shape[0]
    m = int(adjacency.sum()) // 2
    e = adjacency / (2.0 * m)
    a = adjacency.sum(axis=1) / (2.0 * m)
    alive = np.ones(n, dtype=bool)
    community = np.arange(n)
    lower = np.tril_indices(n)

    while int(alive.sum()) > 1:
        gain = 2.0 * (e - np.outer(a, a))
        gain[~alive, :] = -np.inf
        gain[:, ~alive] = -np.inf
        gain[lower] = -np.inf
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

    q = float(np.sum(np.diag(e)[alive] - a[alive] ** 2))
    representatives = np.unique(community)
    remap = {int(rep): idx for idx, rep in enumerate(representatives)}
    return tuple(remap[int(c)] for c in community), len(representatives), q


def greedy_modularity_upper_triangle(adjacency):
    """Greedy modularity on the upper triangle of the gain matrix,
    recomputing only the merged row and column after each merge.

    This is the incremental loop spnkit ran before its gain matrix became
    symmetric; it zeroes the merged-away row and column of ``e`` and finds
    communities by scanning the label vector.  Returns (assignment,
    module_count, q) like ``greedy_modularity_full_rebuild``.
    """
    adjacency = np.asarray(adjacency).astype(float)
    n = adjacency.shape[0]
    m = int(adjacency.sum()) // 2
    e = adjacency / (2.0 * m)
    a = adjacency.sum(axis=1) / (2.0 * m)
    alive = np.ones(n, dtype=bool)
    community = np.arange(n)
    gain = 2.0 * (e - np.outer(a, a))
    gain[np.tril_indices(n)] = -np.inf

    for _ in range(n - 1):
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
    return tuple(remap[int(c)] for c in community), len(representatives), q


def local_efficiency_per_neighbourhood(g):
    """Local efficiency as one validated BinaryGraph per open neighbourhood,
    each sent through ``global_efficiency``; nodes with fewer than two
    neighbours contribute 0."""
    total = 0.0
    for v in range(g.n_nodes):
        nbrs = np.flatnonzero(g.adjacency[v])
        if nbrs.size < 2:
            continue
        sub = g.adjacency[np.ix_(nbrs, nbrs)]
        labels = tuple(g.node_labels[i] for i in nbrs)
        total += sk.global_efficiency(sk.BinaryGraph(labels, sub))
    return total / g.n_nodes


def rewire_per_draw(g, steps: int, seed: int):
    """``rewire`` with one scalar ``rng.integers`` call per draw.

    spnkit's ``rewire`` maps a batched uint32 stream to bounded integers
    itself; this loop leaves that to numpy, so the two agree only while
    numpy's bounded-integer rule is the one spnkit copies.
    """
    if steps < 0:
        raise sk.ValidationError("steps must be nonnegative")
    if steps == 0:
        return g
    n = g.n_nodes
    limit = sk.max_edge_count(n)
    m = g.edge_count
    if m == 0 or m == limit:
        raise sk.ValidationError("no legal rewiring move on an empty or complete graph")
    rows, cols = np.triu_indices(n, k=1)
    slot_of = g.adjacency[rows, cols].astype(bool)
    edges = list(np.flatnonzero(slot_of))
    edge_set = set(edges)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        pos = int(rng.integers(len(edges)))
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
    return sk.BinaryGraph(g.node_labels, adjacency)


def ring_lattice_by_rounds(n_v: int, n_e: int) -> list[tuple[int, int]]:
    """The first ``n_e`` edges (i, j), i < j, of a ring lattice laid down
    round by round: every offset-1 pair in node-index order, then every
    offset-2 pair, ...; the offset-n_v/2 round of an even ring has n_v/2
    pairs."""
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
    return edges


def checked_stack(correlations) -> np.ndarray:
    """The (n, J, N_V, N_V) stack a dataset used to hold: every cell as
    ``validate_symmetric_hollow`` returns it."""
    stack = np.array(correlations, dtype=float)
    for si, ci in np.ndindex(*stack.shape[:2]):
        stack[si, ci] = validate_symmetric_hollow(stack[si, ci])
    return stack


def gathered_edge_values(stack: np.ndarray) -> np.ndarray:
    """The upper triangles gathered out of the full stack, as ``edge_values()``
    did; numpy lays the result out as (N_E, n, J) in memory."""
    rows, cols = np.triu_indices(stack.shape[2], k=1)
    return stack[:, :, rows, cols]


def mean_spn_statistics_full_stack(stack: np.ndarray, condition: int):
    """(statistic, p_value, sign) of the mean SPN through the gathered copy,
    ``fisher_z`` and ``z.std``, each on a full-size array."""
    z = sk.fisher_z(gathered_edge_values(stack))
    return sk.grand_mean_z_test(z[:, condition], float(z.mean()), float(z.std(ddof=1)))


def differential_fit_full_stack(stack: np.ndarray):
    """The differential SPN's fit through the gathered copy, ``fisher_z`` and
    ``repeated_measures_fit``'s copy of a C-ordered (n, J, H) array."""
    z = sk.fisher_z(gathered_edge_values(stack))
    return sk.repeated_measures_fit(np.ascontiguousarray(z))


def differential_spn_whole_family(stack: np.ndarray, base_rate: float = 0.05):
    """The differential SPN as one whole-family fit of the full stack:
    (fit, SPN+ adjacency, SPN- adjacency, zero-trend pairs), each pair's
    route decided by ``bh_fdr`` over the whole family."""
    fit = differential_fit_full_stack(stack)
    rejected = sk.bh_fdr(fit.p_value, base_rate).rejected
    rows, cols = np.triu_indices(stack.shape[2], k=1)

    def adjacency(mask):
        a = np.zeros(stack.shape[2:], dtype=np.uint8)
        a[rows[mask], cols[mask]] = a[cols[mask], rows[mask]] = 1
        return a

    zero = rejected & (fit.trend_sign == 0)
    return (fit, adjacency(rejected & (fit.trend_sign > 0)),
            adjacency(rejected & (fit.trend_sign < 0)),
            tuple(zip(rows[zero].tolist(), cols[zero].tolist())))


def condition_mean_matrix_full_stack(stack: np.ndarray, condition: int) -> np.ndarray:
    """One condition's Fisher-domain mean of full matrices, back-transformed."""
    return sk.fisher_z_inverse(sk.fisher_z(stack[:, condition]).mean(axis=0))
