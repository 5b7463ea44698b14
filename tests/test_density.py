"""Density thresholding, integrated metrics, and monotone invariance."""

import numpy as np
import pytest

import spnkit as sk
from spnkit.errors import ValidationError

import oracles


def triangle():
    m = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 1.0], [0.8, 1.0, 0.0]])
    return sk.WeightedGraph.from_matrix(m)


def random_weighted(rng, n, density=0.6):
    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < density
    w[iu] = rng.uniform(0.05, 1.0, len(iu[0])) * mask
    return sk.WeightedGraph.from_matrix(w + w.T)


class TestDensityThreshold:
    def test_zero_density_is_empty(self):
        assert sk.density_threshold(triangle(), 0).edge_count == 0

    def test_takes_the_k_strongest(self):
        g = triangle()
        picked = sk.density_threshold(g, 2).edges()
        # sort-and-take oracle over (weight, pair)
        ranked = sorted(g.positive_edges(), key=lambda e: (-e[2], e[0], e[1]))
        assert set(picked) == {(i, j) for i, j, _ in ranked[:2]}
        assert set(picked) == {(1, 2), (0, 2)}  # weights 1.0 and 0.8

    def test_full_density_equals_zero_threshold(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_weighted(rng, 7)
            k = len(g.positive_edges())
            full = sk.density_threshold(g, k)
            assert full.edges() == sk.threshold(g.weights, 0.0).edges()

    def test_rejects_out_of_range_and_zero_weight_selection(self):
        g = triangle()
        with pytest.raises(ValidationError):
            sk.density_threshold(g, -1)
        with pytest.raises(ValidationError):
            sk.density_threshold(g, 4)  # exceeds N(N-1)/2
        sparse = sk.WeightedGraph.from_matrix(
            np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        with pytest.raises(ValidationError):
            sk.density_threshold(sparse, 2)  # only one positive weight

    def test_nested_in_k(self):
        rng = np.random.default_rng(1)
        g = random_weighted(rng, 8)
        previous = set()
        for k in range(len(g.positive_edges()) + 1):
            current = set(sk.density_threshold(g, k).edges())
            assert previous <= current
            previous = current

    def test_deterministic_under_ties(self):
        m = np.full((4, 4), 0.5)
        np.fill_diagonal(m, 0.0)
        g = sk.WeightedGraph.from_matrix(m)
        first = sk.density_threshold(g, 3).edges()
        again = sk.density_threshold(g, 3).edges()
        assert first == again == [(0, 1), (0, 2), (0, 3)]  # lexicographic tie rule


class TestDensityIntegratedMetric:
    def test_deterministic_profile_with_equal_weights(self):
        m = np.full((4, 4), 0.5)
        np.fill_diagonal(m, 0.0)
        g = sk.WeightedGraph.from_matrix(m)
        a = sk.density_integrated_metric(g, sk.global_efficiency)
        b = sk.density_integrated_metric(g, sk.global_efficiency)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.integrated == b.integrated

    def test_proportional_matrices_share_the_profile(self):
        rng = np.random.default_rng(7)
        g = random_weighted(rng, 6)
        scaled = sk.WeightedGraph.from_matrix(3.7 * g.weights)
        a = sk.density_integrated_metric(g, sk.global_efficiency)
        b = sk.density_integrated_metric(scaled, sk.global_efficiency)
        assert a.densities == b.densities
        np.testing.assert_array_equal(a.values, b.values)
        assert a.integrated == b.integrated

    def test_matches_explicit_loop_oracle(self):
        rng = np.random.default_rng(5)
        g = random_weighted(rng, 5, density=0.9)
        profile = sk.density_integrated_metric(g, sk.global_efficiency)
        # independent re-evaluation: own ranking, own efficiency, own average
        ranked = sorted(g.positive_edges(), key=lambda e: (-e[2], e[0], e[1]))
        values = []
        for k in range(1, len(ranked) + 1):
            adjacency = np.zeros((5, 5))
            for i, j, _ in ranked[:k]:
                adjacency[i, j] = adjacency[j, i] = 1
            lengths = oracles.hop_lengths(adjacency)
            values.append(oracles.efficiency_from_oracle(oracles.brute_force_distances(lengths)))
        np.testing.assert_allclose(profile.values, values, atol=1e-12)
        assert profile.integrated == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_uniform_mass_and_integrated_consistency(self):
        g = triangle()
        profile = sk.density_integrated_metric(g, sk.global_efficiency)
        np.testing.assert_allclose(profile.weights, 1.0 / 3.0)
        assert profile.integrated == pytest.approx(float(profile.values @ profile.weights))

    def test_custom_mass(self):
        g = triangle()
        profile = sk.density_integrated_metric(
            g, sk.global_efficiency, grid=[1, 3], mass=[0.25, 0.75]
        )
        assert profile.densities == (1, 3)
        with pytest.raises(ValidationError):
            sk.density_integrated_metric(g, sk.global_efficiency, grid=[1, 3], mass=[0.5, 0.6])

    def test_explicit_zero_density_allowed(self):
        g = triangle()
        profile = sk.density_integrated_metric(g, sk.global_efficiency, grid=[0, 1])
        assert profile.values[0] == 0.0

    def test_empty_grid_is_an_error(self):
        g = triangle()
        with pytest.raises(ValidationError):
            sk.density_integrated_metric(g, sk.global_efficiency, grid=[])

    def test_binary_density_profile_is_linear_in_k(self):
        rng = np.random.default_rng(9)
        g = random_weighted(rng, 7, density=0.8)
        n_pairs = sk.max_edge_count(7)
        metric = lambda bg: bg.edge_count / n_pairs
        profile = sk.density_integrated_metric(g, metric)
        ks = np.array(profile.densities, dtype=float)
        np.testing.assert_allclose(profile.values, ks / n_pairs, atol=1e-15)

    def test_modularity_metrics_available(self):
        g = triangle()
        count = sk.density_integrated_metric(g, sk.metric_by_name("modularity_count"))
        assert count.values[-1] >= 1.0


def reference_global_efficiency(bg):
    # a fresh callable is not ``global_efficiency`` itself, so the profile
    # takes the per-graph path: one all-pairs hop count per level
    return sk.global_efficiency(bg)


def assert_same_profile(g, grid=None):
    fast = sk.density_integrated_metric(g, sk.global_efficiency, grid=grid)
    slow = sk.density_integrated_metric(g, reference_global_efficiency, grid=grid)
    assert fast.densities == slow.densities
    assert np.array_equal(fast.values, slow.values)
    assert [repr(v) for v in fast.values] == [repr(v) for v in slow.values]
    assert repr(fast.integrated) == repr(slow.integrated)
    return fast


class TestIncrementalGlobalEfficiency:
    """The edge-insertion kernel against the per-graph reference, bit for bit."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_random_graphs(self, ties):
        rng = np.random.default_rng(21 + ties)
        for n in range(2, 41):
            g = random_weighted(rng, n, density=0.7)
            if ties:  # few distinct weights: the (i, j) tie rule orders most edges
                g = sk.WeightedGraph.from_matrix(np.ceil(g.weights * 3) / 3)
            if g.positive_edges():
                assert_same_profile(g)

    def test_grids_on_disconnected_prefixes(self):
        rng = np.random.default_rng(23)
        g = random_weighted(rng, 30, density=0.5)
        # a prefix of fewer than n - 1 edges cannot connect n nodes
        prefix = sk.density_threshold(g, 28)
        assert sk.shortest_paths_unweighted(prefix).dist.max() == np.inf
        assert_same_profile(g, grid=range(1, 29))
        assert_same_profile(g, grid=[3, 28, 200])

    def test_zero_unsorted_and_repeated_levels(self):
        rng = np.random.default_rng(24)
        g = random_weighted(rng, 20, density=0.6)
        m = len(g.positive_edges())
        assert_same_profile(g, grid=[0, 1, 2])
        assert_same_profile(g, grid=[m, 7, 0, 30, 3])
        profile = assert_same_profile(g, grid=[5, 5, 40, 5, 0, 40])
        assert profile.values[0] == profile.values[1] == profile.values[3]
        assert profile.values[4] == 0.0

    def test_full_grid_crosses_diameter_two(self):
        rng = np.random.default_rng(25)
        n = 24
        g = random_weighted(rng, n, density=1.0)
        m = len(g.positive_edges())
        assert m == sk.max_edge_count(n)
        diameters = [
            sk.shortest_paths_unweighted(sk.density_threshold(g, k)).dist.max()
            for k in range(1, m + 1)
        ]
        # the walk sees diameter > 2 (or disconnection) first, then <= 2
        assert diameters[0] > 2 and diameters[-1] == 1
        assert any(d == 2 for d in diameters)
        profile = assert_same_profile(g)
        assert profile.values[-1] == 1.0

    def test_one_node_graph_refused_on_both_paths(self):
        g = sk.WeightedGraph.from_matrix(np.zeros((1, 1)))
        for metric in (sk.global_efficiency, reference_global_efficiency):
            with pytest.raises(ValidationError):
                sk.density_integrated_metric(g, metric, grid=[0])


class TestMonotoneInvariance:
    def test_scaling_cubing_exponential(self):
        rng = np.random.default_rng(11)
        g = random_weighted(rng, 8)
        assert sk.verify_monotone_invariance(g, lambda w: 2.0 * w)
        assert sk.verify_monotone_invariance(g, lambda w: w**3)
        assert sk.verify_monotone_invariance(g, np.exp)

    def test_decreasing_map_reverses_selection(self):
        rng = np.random.default_rng(12)
        g = random_weighted(rng, 8)
        assert sk.verify_monotone_invariance(g, lambda w: -w)
        assert sk.verify_monotone_invariance(g, lambda w: 1.0 / w)

    def test_non_monotone_map_detected(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 0.2
        m[1, 2] = m[2, 1] = 0.6  # weights straddle the parabola vertex at 0.5
        m[2, 3] = m[3, 2] = 0.8
        g = sk.WeightedGraph.from_matrix(m)
        with pytest.raises(ValidationError):
            sk.verify_monotone_invariance(g, lambda w: (w - 0.5) ** 2)
        # a pair mapping to exactly equal images is caught as well
        pair = np.zeros((3, 3))
        pair[0, 1] = pair[1, 0] = 0.25
        pair[1, 2] = pair[2, 1] = 0.75
        with pytest.raises(ValidationError):
            sk.verify_monotone_invariance(sk.WeightedGraph.from_matrix(pair), lambda w: (w - 0.5) ** 2)

    def test_rank_preservation_edge_set_wise(self):
        # stronger than value equality: identical selections at every k
        rng = np.random.default_rng(13)
        g = random_weighted(rng, 7)
        h = lambda w: w**3
        transformed = sk.WeightedGraph.from_matrix(h(g.weights))
        for k in range(len(g.positive_edges()) + 1):
            assert sk.density_threshold(g, k).edges() == sk.density_threshold(transformed, k).edges()


class TestDensityProfileType:
    def test_validates_mass_sum(self):
        with pytest.raises(ValidationError):
            sk.DensityProfile((1, 2), np.array([0.1, 0.2]), np.array([0.5, 0.4]), 0.13)

    def test_validates_integrated(self):
        with pytest.raises(ValidationError):
            sk.DensityProfile((1, 2), np.array([0.1, 0.2]), np.array([0.5, 0.5]), 0.5)
