"""Independent checks of spnkit's outputs.

Everything here is recomputed from the generated input files with
numpy, scipy and the standard library; no spnkit code is imported.
Each check returns a list of error strings, empty when the output is
correct.  Tolerances:

* statistics (z, F) and p-values: 1e-9 relative;
* weighted density: 1e-12 relative; weighted efficiency (Floyd-Warshall
  sums paths in another order than Dijkstra): 1e-9 relative;
* hop-count efficiencies and density-profile values: 1e-12 absolute;
* FDR decisions, routing, edge sets and counts: exact.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special
from scipy.sparse import block_diag
from scipy.sparse.csgraph import shortest_path
from scipy.stats import spearmanr

STAT_RTOL = 1e-9
DENSITY_RTOL = 1e-12
WEIGHTED_EFF_RTOL = 1e-9
HOP_ATOL = 1e-12
PROFILE_SAMPLE = 10
MAX_ERRORS = 5


def rel_close(a, b, rtol: float):
    """Relative agreement, all the way down to underflow (p-values, sums)."""
    return (a == b) | (np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)))


def mixed_close(a, b, rtol: float):
    """Relative agreement, with magnitudes below 1 treated as 1 (statistics near 0)."""
    return np.abs(a - b) <= rtol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def bh_stepup(p_values, base_rate: float) -> list[bool]:
    """Benjamini-Hochberg as a literal step-up loop over the sorted p-values."""
    m = len(p_values)
    order = sorted(range(m), key=lambda e: (p_values[e], e))
    cut = 0
    for rank in range(m, 0, -1):
        if p_values[order[rank - 1]] <= rank * base_rate / m:
            cut = rank
            break
    rejected = [False] * m
    for e in order[:cut]:
        rejected[e] = True
    return rejected


def _first(errors: list[str], mask: np.ndarray, what: str, where) -> None:
    bad = np.flatnonzero(~mask)
    for b in bad[:MAX_ERRORS]:
        errors.append(f"{what} mismatch at {where(int(b))}")


def rm_f_test(table: np.ndarray):
    """Repeated-measures F over the last two axes (subjects, conditions).

    The residual stratum is summed directly from the interaction
    residuals; p comes from the regularized incomplete beta function.
    Returns (F, p, linear contrast) with the leading axes kept.
    """
    n, j = table.shape[-2:]
    grand = table.mean(axis=(-2, -1), keepdims=True)
    cond = table.mean(axis=-2, keepdims=True)
    subj = table.mean(axis=-1, keepdims=True)
    resid = table - subj - cond + grand
    ss_resid = (resid**2).sum(axis=(-2, -1))
    ss_cond = n * ((cond - grand) ** 2).sum(axis=(-2, -1))
    df1, df2 = j - 1, (n - 1) * (j - 1)
    f = (ss_cond / df1) / (ss_resid / df2)
    p = special.betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))
    coef = np.arange(1, j + 1) - (j + 1) / 2.0
    contrast = (cond[..., 0, :] * coef).sum(axis=-1)
    return f, p, contrast


def hop_efficiency(adjacency: np.ndarray) -> float:
    """Global efficiency from unit-weight BFS distances."""
    n = adjacency.shape[0]
    if n < 2:
        return 0.0
    d = shortest_path(adjacency.astype(float), method="D", directed=False, unweighted=True)
    off = ~np.eye(n, dtype=bool)
    d = d[off]
    return float(np.where(np.isfinite(d), 1.0 / d, 0.0).sum() / (n * (n - 1)))


def local_hop_efficiency(adjacency: np.ndarray) -> float:
    """Mean over nodes of the BFS efficiency of each open neighbourhood.

    All neighbourhoods go through one BFS call as the blocks of a
    block-diagonal graph; pairs in different blocks are unreachable and
    add nothing to the per-block sums.
    """
    n = adjacency.shape[0]
    blocks = []
    for v in range(n):
        nbrs = np.flatnonzero(adjacency[v])
        if nbrs.size >= 2:
            blocks.append(adjacency[np.ix_(nbrs, nbrs)])
    if not blocks:
        return 0.0
    graph = block_diag(blocks, format="csr").astype(float)
    graph.eliminate_zeros()
    d = shortest_path(graph, method="D", directed=True, unweighted=True)
    inv = np.zeros_like(d)
    reachable = np.isfinite(d) & (d > 0)
    inv[reachable] = 1.0 / d[reachable]
    sizes = np.array([b.shape[0] for b in blocks])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    per_block = np.add.reduceat(inv.sum(axis=1), starts) / (sizes * (sizes - 1))
    return float(per_block.sum() / n)


def floyd_warshall_efficiency(weights: np.ndarray) -> float:
    n = weights.shape[0]
    d = np.full((n, n), np.inf)
    pos = weights > 0
    d[pos] = 1.0 / weights[pos]
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    off = ~np.eye(n, dtype=bool)
    d = d[off]
    return float(np.where(np.isfinite(d), 1.0 / d, 0.0).sum() / (n * (n - 1)))


def newman_q_and_max_gain(adjacency: np.ndarray, assignment) -> tuple[float, float]:
    """Modularity of a partition and the largest gain of merging two of its modules."""
    a = adjacency.astype(float)
    labels = np.asarray(assignment)
    k = int(labels.max()) + 1
    member = np.zeros((a.shape[0], k))
    member[np.arange(a.shape[0]), labels] = 1.0
    two_m = a.sum()
    e = member.T @ a @ member / two_m
    share = e.sum(axis=1)
    q = float(np.trace(e) - (share**2).sum())
    gain = 2.0 * (e - np.outer(share, share))
    gain[np.tril_indices(k)] = -np.inf
    return q, float(gain.max()) if k > 1 else -np.inf


def graph_adjacency(path: Path) -> np.ndarray:
    payload = json.loads(path.read_text())
    return np.asarray(payload["adjacency"], dtype=int)


class Reference:
    """The study recomputed from its files, independently of spnkit."""

    def __init__(self, manifest_path: Path, rising_edge, falling_edge, rising_nodes, seed: int):
        raw = json.loads(manifest_path.read_text())
        root = manifest_path.parent
        self.subjects = raw["subjects"]
        self.conditions = raw["conditions"]
        self.labels = raw["nodes"]["labels"]
        self.base_rate = raw["options"]["base_rate"]
        def cells(key: str) -> np.ndarray:
            return np.array([[np.loadtxt(root / raw[key][s][c], delimiter=",") for c in self.conditions]
                             for s in self.subjects])

        self.r = cells("files")
        self.signals = cells("signal_files")
        self.n, self.j, self.n_v = self.r.shape[:3]
        self.iu = np.triu_indices(self.n_v, k=1)
        self.z_edges = np.arctanh(self.r[:, :, self.iu[0], self.iu[1]])
        self.rising_edge = tuple(rising_edge)
        self.falling_edge = tuple(falling_edge)
        self.rising_nodes = tuple(rising_nodes)
        self.seed = seed
        self._diff = None

    def edge_name(self, e: int) -> str:
        return f"edge ({self.iu[0][e]},{self.iu[1][e]})"

    def _edge_rows(self, rows, errors) -> bool:
        got = [(int(r["i"]), int(r["j"])) for r in rows]
        if got != list(zip(self.iu[0].tolist(), self.iu[1].tolist())):
            errors.append("hypotheses are not the upper-triangle edges in lexicographic order")
            return False
        return True

    def _bh_decisions(self, rows, got_p: np.ndarray, errors, what: str, where) -> np.ndarray:
        """The step-up decisions on the reported p-values, compared with the reported column."""
        rejected = np.array(bh_stepup(got_p.tolist(), self.base_rate))
        _first(errors, np.array([r["rejected"] == "1" for r in rows]) == rejected, what, where)
        return rejected

    def _network_matches(self, path: Path, included: np.ndarray, errors, what: str) -> None:
        adjacency = graph_adjacency(path)
        expected = np.zeros((self.n_v, self.n_v), dtype=int)
        expected[self.iu[0][included], self.iu[1][included]] = 1
        expected += expected.T
        if adjacency.shape != expected.shape or not np.array_equal(adjacency, expected):
            diff = np.argwhere(adjacency != expected) if adjacency.shape == expected.shape else []
            pairs = [tuple(int(v) for v in x) for x in diff[:3]]
            errors.append(f"{what}: {path.name} edge set differs from the recomputed SPN at {pairs}")

    # -- mean SPN -------------------------------------------------------

    def check_mean_spn(self, condition: int, graph_path: Path, stats_path: Path) -> list[str]:
        errors: list[str] = []
        rows = read_rows(stats_path)
        if not self._edge_rows(rows, errors):
            return errors
        z = self.z_edges
        grand_mean = z.sum() / z.size
        grand_sd = math.sqrt(((z - grand_mean) ** 2).sum() / (z.size - 1))
        delta = z[:, condition, :].sum(axis=0) / self.n - grand_mean
        stat = delta / (grand_sd / math.sqrt(self.n))
        p = np.array([math.erfc(abs(s) / math.sqrt(2.0)) for s in stat])
        got_stat = np.array([float(r["statistic"]) for r in rows])
        got_p = np.array([float(r["p_value"]) for r in rows])
        _first(errors, mixed_close(got_stat, stat, STAT_RTOL), "mean SPN statistic", self.edge_name)
        _first(errors, rel_close(got_p, p, STAT_RTOL), "mean SPN p-value", self.edge_name)
        sign = np.array([int(r["effect_sign"]) for r in rows])
        _first(errors, sign == np.sign(delta).astype(int), "mean SPN effect sign", self.edge_name)
        rejected = self._bh_decisions(rows, got_p, errors, "BH-FDR decision", self.edge_name)
        included = rejected & (delta > 0)
        got_included = np.array([r["included"] == "1" for r in rows])
        _first(errors, got_included == included, "mean SPN inclusion", self.edge_name)
        self._network_matches(graph_path, included, errors, "mean SPN")
        if not included.any():
            errors.append(f"mean SPN for condition {self.conditions[condition]} is empty")
        return errors

    # -- differential SPN -----------------------------------------------

    def differential(self):
        if self._diff is None:
            self._diff = rm_f_test(np.moveaxis(self.z_edges, -1, 0))
        return self._diff

    def check_differential(self, plus_path: Path, minus_path: Path, stats_path: Path) -> list[str]:
        errors: list[str] = []
        rows = read_rows(stats_path)
        if not self._edge_rows(rows, errors):
            return errors
        f, p, contrast = self.differential()
        got_f = np.array([float(r["f_statistic"]) for r in rows])
        got_p = np.array([float(r["p_value"]) for r in rows])
        _first(errors, mixed_close(got_f, f, STAT_RTOL), "repeated-measures F", self.edge_name)
        _first(errors, rel_close(got_p, p, STAT_RTOL), "repeated-measures p-value", self.edge_name)
        trend = np.array([int(r["trend_sign"]) for r in rows])
        _first(errors, trend == np.sign(contrast).astype(int), "trend sign", self.edge_name)
        rejected = self._bh_decisions(rows, got_p, errors, "BH-FDR decision", self.edge_name)
        routed = np.where(rejected & (contrast > 0), "plus", np.where(rejected & (contrast < 0), "minus", "none"))
        got_routed = np.array([r["routed"] for r in rows])
        _first(errors, got_routed == routed, "differential routing", self.edge_name)
        self._network_matches(plus_path, routed == "plus", errors, "SPN+")
        self._network_matches(minus_path, routed == "minus", errors, "SPN-")
        pairs = list(zip(self.iu[0].tolist(), self.iu[1].tolist()))
        if got_routed[pairs.index(self.rising_edge)] != "plus":
            errors.append(f"planted rising edge {self.rising_edge} is not in SPN+")
        if got_routed[pairs.index(self.falling_edge)] != "minus":
            errors.append(f"planted falling edge {self.falling_edge} is not in SPN-")
        return errors

    # -- node-level differential SPN ------------------------------------

    def check_node_differential(self, stats_path: Path, json_path: Path) -> list[str]:
        errors: list[str] = []
        rows = read_rows(stats_path)
        if [int(r["node"]) for r in rows] != list(range(self.n_v)):
            return ["node hypotheses are not in node-index order"]
        f, p, contrast = rm_f_test(np.moveaxis(self.signals, -1, 0))
        got_f = np.array([float(r["f_statistic"]) for r in rows])
        got_p = np.array([float(r["p_value"]) for r in rows])
        where = lambda v: f"node {v}"  # noqa: E731
        _first(errors, mixed_close(got_f, f, STAT_RTOL), "node F", where)
        _first(errors, rel_close(got_p, p, STAT_RTOL), "node p-value", where)
        rejected = self._bh_decisions(rows, got_p, errors, "node BH-FDR decision", where)
        routed = np.where(rejected & (contrast > 0), "up", np.where(rejected & (contrast < 0), "down", "none"))
        _first(errors, np.array([r["routed"] for r in rows]) == routed, "node routing", where)
        payload = json.loads(json_path.read_text())
        if payload.get("upweighted") != [self.labels[v] for v in np.flatnonzero(routed == "up")]:
            errors.append("node_differential.json upweighted list differs from the recomputation")
        if payload.get("downweighted") != [self.labels[v] for v in np.flatnonzero(routed == "down")]:
            errors.append("node_differential.json downweighted list differs from the recomputation")
        missing = [v for v in self.rising_nodes if routed[v] != "up"]
        if missing:
            errors.append(f"planted rising nodes {missing} are not flagged as upweighted")
        return errors

    # -- weighted metrics -----------------------------------------------

    def _cell(self, subject: str, condition: str) -> np.ndarray:
        return self.r[self.subjects.index(subject), self.conditions.index(condition)]

    def _cells_in_order(self, rows, errors) -> bool:
        expected = [(s, c) for s in self.subjects for c in self.conditions]
        if [(r["subject"], r["condition"]) for r in rows] != expected:
            errors.append("rows are not one per (subject, condition) cell in manifest order")
            return False
        return True

    def check_weighted_density(self, path: Path) -> list[str]:
        errors: list[str] = []
        rows = read_rows(path)
        if not self._cells_in_order(rows, errors):
            return errors
        denom = self.n_v * (self.n_v - 1)
        for row in rows:
            w = np.abs(self._cell(row["subject"], row["condition"]))
            expected = 2.0 * math.fsum(w[self.iu]) / denom
            if not rel_close(float(row["weighted_density"]), expected, DENSITY_RTOL):
                errors.append(f"weighted density of {row['subject']}/{row['condition']}: "
                              f"{row['weighted_density']} vs {expected!r}")
        return errors[:MAX_ERRORS]

    def check_metrics(self, path: Path, tau: float) -> list[str]:
        errors: list[str] = []
        rows = read_rows(path)
        if not self._cells_in_order(rows, errors):
            return errors
        denom = self.n_v * (self.n_v - 1)
        for row in rows:
            cell = f"{row['subject']}/{row['condition']}"
            r = self._cell(row["subject"], row["condition"])
            w = np.abs(r)
            if not rel_close(float(row["weighted_density"]), 2.0 * math.fsum(w[self.iu]) / denom, DENSITY_RTOL):
                errors.append(f"weighted density of {cell}")
            if not rel_close(float(row["weighted_efficiency"]), floyd_warshall_efficiency(w), WEIGHTED_EFF_RTOL):
                errors.append(f"weighted efficiency of {cell}")
            positive = w[w > 0]
            spread = positive.min() >= 0.5 * positive.max()
            if row["spread_condition_holds"] != str(int(spread)):
                errors.append(f"spread condition of {cell}")
            # the tau threshold is applied to the signed correlations
            binary = (r > tau).astype(np.uint8)
            np.fill_diagonal(binary, 0)
            if int(row["n_edges_tau"]) != int(binary[self.iu].sum()):
                errors.append(f"edge count at tau for {cell}")
            if abs(float(row["global_efficiency_tau"]) - hop_efficiency(binary)) > HOP_ATOL:
                errors.append(f"global efficiency at tau for {cell}")
            if abs(float(row["local_efficiency_tau"]) - local_hop_efficiency(binary)) > HOP_ATOL:
                errors.append(f"local efficiency at tau for {cell}")
            if len(errors) >= MAX_ERRORS:
                break
        return errors

    # -- density profiles -----------------------------------------------

    def ranked_pairs(self, condition: int) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle pairs of the Fisher-mean |r| matrix, strongest first.

        Ties are broken by the lexicographic (i, j) pair.
        """
        mean_r = np.abs(np.tanh(np.arctanh(self.r[:, condition]).mean(axis=0)))
        w = mean_r[self.iu]
        keep = w > 0
        rows, cols, w = self.iu[0][keep], self.iu[1][keep], w[keep]
        order = np.lexsort((cols, rows, -w))
        return rows[order], cols[order]

    def check_profile(self, profiles_path: Path, integrated_path: Path, metric: str, grid) -> list[str]:
        errors: list[str] = []
        rows = read_rows(profiles_path)
        summary = {r["condition"]: r for r in read_rows(integrated_path)}
        grid = list(grid)
        rng = np.random.default_rng(self.seed)
        for ci, condition in enumerate(self.conditions):
            mine = [r for r in rows if r["condition"] == condition]
            ks = [int(r["k"]) for r in mine]
            if ks != grid:
                errors.append(f"{condition}: profile levels differ from the grid")
                continue
            mass = np.array([float(r["p_mass"]) for r in mine])
            values = np.array([float(r["value"]) for r in mine])
            if not np.all(mass == 1.0 / len(grid)):
                errors.append(f"{condition}: probability mass is not uniform over the grid")
            got = summary.get(condition)
            if got is None or got["metric"] != metric:
                errors.append(f"{condition}: no integrated {metric} row")
            elif abs(float(got["integrated"]) - math.fsum(mass * values)) > HOP_ATOL:
                errors.append(f"{condition}: integrated value is not the mass-weighted mean of the profile")
            if metric == "global_efficiency":
                if np.any(np.diff(values) < -HOP_ATOL):
                    errors.append(f"{condition}: global-efficiency profile decreases in k")
                rows_r, cols_r = self.ranked_pairs(ci)
                drawn = rng.choice(len(grid), size=min(PROFILE_SAMPLE, len(grid)), replace=False)
                sample = {0, len(grid) - 1} | set(drawn.tolist())
                for idx in sorted(sample):
                    k = grid[idx]
                    adjacency = np.zeros((self.n_v, self.n_v), dtype=np.uint8)
                    adjacency[rows_r[:k], cols_r[:k]] = 1
                    adjacency |= adjacency.T
                    expected = hop_efficiency(adjacency)
                    if abs(values[idx] - expected) > HOP_ATOL:
                        errors.append(f"{condition}: global efficiency at k={k} is {float(values[idx])!r}, "
                                      f"recomputed {expected!r}")
            elif metric == "modularity_q":
                if np.any(values < -0.5) or np.any(values >= 1.0):
                    errors.append(f"{condition}: modularity outside [-1/2, 1)")
        return errors[:MAX_ERRORS]


# -- sweeps -------------------------------------------------------------


def check_sweep(path: Path, grid, replicates: int, n_v: int, topology: str) -> list[str]:
    """Sweep rows against the grid and the properties Fig 4 rests on.

    Module counts are integers, so each mean times the replicate count,
    and the sum of squared counts recovered from mean and sd, must be
    whole numbers.  Rewiring means rise with rewiring (Spearman > 0.8);
    random-graph means fall strictly with edge count.  Ring lattices are
    deterministic and plateau, so no trend is required of them.
    """
    errors: list[str] = []
    rows = read_rows(path)
    params = [int(r["parameter"]) for r in rows]
    if params != list(grid):
        return [f"{path.name}: parameters {params} differ from the grid {list(grid)}"]
    reps = replicates if topology != "lattice" else 1
    means = [float(r["mean_modules"]) for r in rows]
    sds = [float(r["sd_modules"]) for r in rows]
    for row, mean, sd in zip(rows, means, sds):
        where = f"{path.name} parameter {row['parameter']}"
        if int(row["replicates"]) != reps:
            errors.append(f"{where}: {row['replicates']} replicates, expected {reps}")
        if not sd >= 0 or not 1 <= mean <= n_v:
            errors.append(f"{where}: mean {mean!r} or sd {sd!r} out of range")
        total = mean * reps
        if abs(total - round(total)) > 1e-9 * reps:
            errors.append(f"{where}: mean {mean!r} is not an average of {reps} whole counts")
        squares = sd**2 * (reps - 1) + reps * mean**2
        if abs(squares - round(squares)) > 1e-6 * max(1.0, squares):
            errors.append(f"{where}: sd {sd!r} is inconsistent with whole counts")
    if topology == "rewire" and not spearmanr(params, means).statistic > 0.8:
        errors.append(f"{path.name}: module counts do not rise with rewiring (Spearman <= 0.8)")
    if topology == "random" and not np.all(np.diff(means) < 0):
        errors.append(f"{path.name}: random-graph module counts do not fall strictly with edges")
    return errors[:MAX_ERRORS]
