"""Acceptance suite: one test per acceptance criterion, run at full scale.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
in the captured output).  Criterion 4's lattice branch is known-red: the
deterministic ring lattice plateaus at 3 modules from 600 edges upward,
so its mean module count cannot be strictly decreasing over the pinned
grid.  The assertion is kept faithful rather than weakened.
"""

import time

import numpy as np
from scipy.stats import spearmanr

import spnkit as sk

import oracles
from conftest import record_acceptance
from datasets import noise_dataset, planted_mean_dataset, planted_trend_dataset

MASTER_SEED = 42


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else "")
    print(line)
    record_acceptance(line)


def random_complete_weights(rng, n, low, high):
    w = rng.uniform(low, high, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def random_weighted_graph(rng, n, density=0.7, ties=False):
    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = rng.uniform(0.05, 1.0, len(iu[0]))
    if ties:
        vals = np.round(vals, 2)
    vals *= rng.random(len(iu[0])) < density
    w[iu] = vals
    return sk.WeightedGraph.from_matrix(w + w.T)


class TestCriterion1MonotoneInvariance:
    def test_density_integrated_efficiency_invariant_under_monotone_maps(self):
        start = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 1)))
        maps = [lambda w: 2.0 * w, lambda w: w**3, np.exp, lambda w: -w]
        checked = 0
        for trial in range(200):
            n = int(rng.integers(5, 31))
            g = random_weighted_graph(rng, n, ties=bool(trial % 3 == 0))
            if not g.weights.any():
                g = random_weighted_graph(rng, n, density=1.0)
            for h in maps:
                # selected edge sets compared at every k; values are compared below
                assert sk.verify_monotone_invariance(g, h)
            # API-level check for a positivity-preserving map
            doubled = sk.WeightedGraph.from_matrix(2.0 * g.weights)
            a = sk.density_integrated_metric(g, sk.global_efficiency)
            b = sk.density_integrated_metric(doubled, sk.global_efficiency)
            assert abs(a.integrated - b.integrated) <= 1e-12
            checked += 1
        elapsed = time.perf_counter() - start
        ok = checked == 200 and elapsed < 60.0
        report("1 (monotone invariance)", ok, f"200 graphs x 4 maps, {elapsed:.1f}s")
        assert checked == 200
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"


class TestCriterion2SpreadCondition:
    def test_spread_condition_collapses_weighted_efficiency_to_density(self):
        start = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 2)))
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(5, 21))
            w_max = float(rng.uniform(0.5, 2.5))
            g = sk.WeightedGraph.from_matrix(
                random_complete_weights(rng, n, 0.5 * w_max, w_max)
            )
            assert sk.spread_condition_holds(g)
            gap = abs(sk.weighted_efficiency(g) - sk.weighted_density(g))
            worst = max(worst, gap)
            assert gap <= 1e-12
        violations = 0
        for _ in range(50):
            n = int(rng.integers(4, 13))
            w_max = float(rng.uniform(0.5, 2.5))
            w = random_complete_weights(rng, n, 0.9 * w_max, w_max)
            w[0, 1] = w[1, 0] = 0.25 * w_max  # weak edge with a two-hop shortcut
            g = sk.WeightedGraph.from_matrix(w)
            assert not sk.spread_condition_holds(g)
            if abs(sk.weighted_efficiency(g) - sk.weighted_density(g)) > 1e-9:
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 50 and elapsed < 60.0
        report(
            "2 (spread condition)",
            ok,
            f"200 equalities (max gap {worst:.1e}), {violations}/50 violations, {elapsed:.1f}s",
        )
        assert violations == 50
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"


class TestCriterion3RewiringTrend:
    def test_module_count_increases_with_rewiring(self):
        start = time.perf_counter()
        grid = list(range(0, 501, 50))
        sweep = sk.randomness_sweep(112, 600, grid, replicates=100, seed=MASTER_SEED)
        means = [row.mean_modules for row in sweep]
        rho = float(spearmanr(grid, means).statistic)
        elapsed = time.perf_counter() - start
        ok = rho > 0.8 and elapsed < 600.0
        report("3 (Fig 4A rewiring trend)", ok, f"spearman rho {rho:.3f}, {elapsed:.0f}s")
        assert rho > 0.8, f"spearman rho {rho:.3f} not above 0.8 (means {means})"
        assert elapsed < 600.0


class TestCriterion4EdgeTrend:
    def test_module_count_decreases_with_edges(self):
        start = time.perf_counter()
        grid = [100, 600, 1100, 1600, 2100]
        random_sweep = sk.edges_sweep(112, grid, "random", replicates=100, seed=MASTER_SEED)
        lattice_sweep = sk.edges_sweep(112, grid, "lattice", replicates=100, seed=MASTER_SEED)
        random_means = [row.mean_modules for row in random_sweep]
        lattice_means = [row.mean_modules for row in lattice_sweep]
        elapsed = time.perf_counter() - start
        random_ok = all(a > b for a, b in zip(random_means, random_means[1:]))
        lattice_ok = all(a > b for a, b in zip(lattice_means, lattice_means[1:]))
        report(
            "4 (Fig 4B edge trend)",
            random_ok and lattice_ok,
            f"random {random_means} {'strictly decreasing' if random_ok else 'NOT strict'}; "
            f"lattice {lattice_means} {'strictly decreasing' if lattice_ok else 'NOT strict'}; "
            f"{elapsed:.0f}s",
        )
        assert random_ok, f"random means {random_means} not strictly decreasing"
        # Known-red: the deterministic lattice holds at 3 modules from 600
        # edges on, so strict decrease is unattainable on this grid.
        assert lattice_ok, f"lattice means {lattice_means} not strictly decreasing"
        assert elapsed < 600.0


class TestCriterion5OracleEquivalence:
    def test_efficiencies_match_exhaustive_path_oracles(self):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 5)))
        for _ in range(100):
            n = int(rng.integers(4, 11))
            g = random_weighted_graph(rng, n, density=0.4)
            binary = sk.threshold(g.weights, 0.0)
            hop_ref = oracles.efficiency_from_oracle(
                oracles.brute_force_distances(oracles.hop_lengths(binary.adjacency))
            )
            assert abs(sk.global_efficiency(binary) - hop_ref) <= 1e-12
            weighted_ref = oracles.efficiency_from_oracle(
                oracles.brute_force_distances(oracles.reciprocal_lengths(g.weights))
            )
            assert abs(sk.weighted_efficiency(g) - weighted_ref) <= 1e-12
        report("5a (efficiency oracles)", True, "100 graphs, both metrics, 1e-12")

    def test_greedy_q_matches_recomputation_and_respects_exhaustive_bound(self):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 55)))
        done = 0
        while done < 25:
            n = int(rng.integers(4, 9))
            a = np.zeros((n, n), dtype=int)
            iu = np.triu_indices(n, k=1)
            a[iu] = rng.random(len(iu[0])) < 0.5
            g = sk.BinaryGraph.from_adjacency(a + a.T)
            if g.edge_count == 0:
                continue
            part = sk.greedy_modularity(g)
            assert abs(part.q - oracles.newman_q(g.adjacency, part.assignment)) <= 1e-12
            assert part.q <= oracles.exhaustive_max_q(g.adjacency) + 1e-12
            done += 1
        report("5b (modularity oracles)", True, "25 graphs with N_V <= 8")


class TestCriterion6InferenceCorrectness:
    def test_bh_fdr_matches_stepup_oracle_exactly(self):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 6)))
        for _ in range(1000):
            m = int(rng.integers(1, 51))
            p = rng.random(m)
            if rng.random() < 0.3:
                p = np.round(p, 2)  # force ties
            alpha = float(rng.uniform(0.01, 0.2))
            expected, k = oracles.bh_stepup(p.tolist(), alpha)
            decision = sk.bh_fdr(p, alpha)
            assert decision.rejected.tolist() == expected
            assert decision.n_rejected == k
        report("6a (BH-FDR oracle)", True, "1000 random p-vectors, exact")

    def test_repeated_measures_f_matches_sums_of_squares_oracle(self):
        rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 66)))
        for _ in range(100):
            n = int(rng.integers(3, 12))
            j = int(rng.integers(2, 7))
            table = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=(n, j))
            fit = sk.repeated_measures_fit(table[:, :, None])
            assert abs(fit.f_statistic[0] - oracles.rm_anova_f(table)) <= 1e-10
        report("6b (repeated-measures oracle)", True, "100 balanced tables, 1e-10")

    def test_plant_and_recover_routes_every_effect_correctly(self):
        rows, cols = np.triu_indices(12, k=1)
        misrouted = 0
        missed = 0
        for run in range(100):
            rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED + 1, run)))
            planted = int(rng.integers(rows.size))
            data = planted_mean_dataset(rng, planted, effect=1.0, n=20, j=4)
            result = sk.mean_spn(data, condition=int(rng.integers(4)), base_rate=0.05)
            if not result.network.adjacency[rows[planted], cols[planted]]:
                missed += 1
            if result.sign[planted] != 1:
                misrouted += 1

            rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED + 2, run)))
            up, down = rng.choice(rows.size, size=2, replace=False)
            data = planted_trend_dataset(rng, int(up), int(down), effect=1.0, n=20, j=4)
            plus, minus = sk.differential_spn(data, base_rate=0.05)
            plus_edges = plus.network.adjacency[rows, cols]
            minus_edges = minus.network.adjacency[rows, cols]
            if not (plus_edges[up] and minus_edges[down]):
                missed += 1
            if minus_edges[up] or plus_edges[down]:
                misrouted += 1
        ok = misrouted == 0 and missed == 0
        report("6c (plant and recover)", ok, f"{misrouted} misrouted, {missed} missed in 100 runs")
        assert misrouted == 0
        assert missed == 0

    def test_pure_noise_yields_empty_spns_in_at_least_95_of_100_runs(self):
        mean_empty = 0
        diff_empty = 0
        for run in range(100):
            rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, run)))
            data = noise_dataset(rng, n=20, j=4, n_v=12, sigma=0.2)
            mean_result = sk.mean_spn(data, condition=0, base_rate=0.05)
            plus, minus = sk.differential_spn(data, base_rate=0.05)
            mean_empty += mean_result.network.edge_count == 0
            diff_empty += plus.network.edge_count == 0 and minus.network.edge_count == 0
        ok = mean_empty >= 95 and diff_empty >= 95
        report(
            "6d (pure-noise emptiness)",
            ok,
            f"mean SPN empty {mean_empty}/100, differential empty {diff_empty}/100",
        )
        assert mean_empty >= 95
        assert diff_empty >= 95


class TestCriterion7QuasilinearityWitness:
    def test_mean_then_threshold_diverges_from_combining_thresholded_graphs(self):
        r1 = np.array([[0.0, 0.9], [0.9, 0.0]])
        r2 = np.array([[0.0, 0.1], [0.1, 0.0]])
        tau = 0.4
        mean_first = sk.threshold((r1 + r2) / 2.0, tau)
        t1, t2 = sk.threshold(r1, tau), sk.threshold(r2, tau)
        vote_sum = t1.adjacency.astype(int) + t2.adjacency.astype(int)
        majority = (vote_sum > 1).astype(int)
        ok = (
            mean_first.adjacency[0, 1] == 1
            and majority[0, 1] == 0
            and not np.array_equal(mean_first.adjacency, majority)
        )
        report("7 (quasilinearity witness)", ok, "entries 0.9/0.1 vs tau=0.4")
        assert ok
