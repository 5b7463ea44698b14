"""Density thresholding, integrated metrics, and monotone invariance."""

import functools
import math

import numpy as np
import pytest

import spnkit as sk
from spnkit import density as density_mod
from spnkit.errors import ValidationError
from spnkit.graphs import _hop_distances, _insert_edge

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

    def test_non_integer_levels_refused_on_both_paths(self):
        g = triangle()
        for k in (1.5, 2.0, "2"):
            with pytest.raises(ValidationError, match="must be an integer"):
                sk.density_threshold(g, k)
        for grid in ([1.5, 2.9], [1, 2.0], np.array([1.0, 2.0])):
            with pytest.raises(ValidationError, match="must be an integer"):
                sk.density_integrated_metric(g, sk.global_efficiency, grid=grid)

    def test_boolean_levels_refused_on_both_paths(self):
        g = triangle()
        with pytest.raises(ValidationError) as err:
            sk.density_threshold(g, True)
        assert str(err.value) == "density level k must be an integer, got True"
        with pytest.raises(ValidationError) as err:
            sk.density_integrated_metric(g, sk.global_efficiency, grid=[True, 2])
        assert str(err.value) == "density level k must be an integer, got True"

    def test_numpy_integer_levels_accepted(self):
        g = triangle()
        assert sk.density_threshold(g, np.int64(2)).edges() == [(0, 2), (1, 2)]
        profile = sk.density_integrated_metric(g, sk.global_efficiency, grid=np.arange(1, 4))
        assert profile.densities == (1, 2, 3)
        assert all(type(k) is int for k in profile.densities)

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

    @pytest.mark.parametrize("ties", [False, True])
    def test_ranked_edges_follow_the_sort_key(self, ties):
        rng = np.random.default_rng(41 + ties)
        for n in list(range(2, 41)) + [112]:
            g = random_weighted(rng, n, density=0.7)
            if ties:  # three distinct weights: the (i, j) rule orders most edges
                g = sk.WeightedGraph.from_matrix(np.ceil(g.weights * 3) / 3)
            expected = sorted(g.positive_edges(), key=lambda e: (-e[2], e[0], e[1]))
            rows, cols = density_mod.ranked_edges(g)
            assert list(zip(rows.tolist(), cols.tolist())) == [(i, j) for i, j, _ in expected]
            assert rows.dtype.kind == cols.dtype.kind == "i"
            m = len(expected)
            for k in sorted({0, min(1, m), m // 3, m // 2, m}):
                assert sk.density_threshold(g, k).edges() == sorted(
                    (i, j) for i, j, _ in expected[:k])


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

    def test_nan_mass_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.density_integrated_metric(triangle(), sk.global_efficiency, grid=[1, 2],
                                         mass=[math.nan, math.nan])
        assert str(err.value) == "probability masses sum to nan, not 1"

    def test_mass_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.density_integrated_metric(triangle(), sk.global_efficiency, grid=[1, 3], mass=[1.0])
        assert str(err.value) == "mass must have one entry per grid density"

    def test_unknown_metric_name_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.metric_by_name("diameter")
        assert str(err.value) == ("unknown metric 'diameter'; choose from ['global_efficiency', "
                                  "'local_efficiency', 'modularity_count', 'modularity_q']")

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

    @pytest.mark.parametrize("ties", [False, True])
    def test_generic_path_sees_the_density_threshold_graphs(self, ties):
        # any metric but global efficiency is handed each level's graph;
        # it must be the graph density_threshold gives for that k
        rng = np.random.default_rng(30 + ties)
        for n in (2, 5, 12, 30):
            g = random_weighted(rng, n, density=0.7)
            if ties:
                g = sk.WeightedGraph.from_matrix(np.ceil(g.weights * 3) / 3)
            m = len(g.positive_edges())
            seen = []

            def recording(bg):
                seen.append(bg.edges())
                return 0.0

            grid = list(range(m + 1))
            sk.density_integrated_metric(g, recording, grid=grid)
            assert seen == [sk.density_threshold(g, k).edges() for k in grid]

    @pytest.mark.parametrize("name", ["modularity_count", "modularity_q"])
    def test_metric_refusal_names_the_level(self, name):
        with pytest.raises(ValidationError) as err:
            sk.density_integrated_metric(triangle(), sk.metric_by_name(name), grid=[0, 1])
        assert str(err.value) == "density level k=0: greedy modularity needs at least one edge"


def reference_global_efficiency(bg):
    # a fresh callable is not ``global_efficiency`` itself, so the profile
    # takes the per-graph path: one all-pairs hop count per level, summed
    # over the masked off-diagonal entries
    if bg.n_nodes < 2:
        raise ValidationError("global_efficiency needs at least 2 nodes")
    return oracles.efficiency_masked(_hop_distances(bg.adjacency))


def assert_same_profile(g, grid=None):
    fast = sk.density_integrated_metric(g, sk.global_efficiency, grid=grid)
    slow = sk.density_integrated_metric(g, reference_global_efficiency, grid=grid)
    assert fast.densities == slow.densities
    assert np.array_equal(fast.values, slow.values)
    assert [repr(v) for v in fast.values] == [repr(v) for v in slow.values]
    assert repr(fast.integrated) == repr(slow.integrated)
    ranked = sorted(g.positive_edges(), key=lambda e: (-e[2], e[0], e[1]))
    walk = oracles.efficiency_profile_full_update(ranked, g.n_nodes, fast.densities)
    assert [repr(v) for v in fast.values.tolist()] == [repr(v) for v in walk]
    return fast


def hop_diameter(g, k):
    return sk.shortest_paths_unweighted(sk.density_threshold(g, k)).max()


class TestIncrementalGlobalEfficiency:
    """The edge-insertion kernel against the per-graph reference and the
    whole-matrix walk, bit for bit."""

    def test_restricted_insert_matches_whole_matrix_update(self):
        rng = np.random.default_rng(20)
        for n in list(range(2, 41)) + [112]:
            pairs = np.transpose(np.triu_indices(n, k=1))
            pairs = pairs[rng.permutation(len(pairs))][: 4 * n]
            fast = np.full((n, n), np.inf)
            np.fill_diagonal(fast, 0.0)
            slow = fast.copy()
            for u, v in pairs.tolist():
                _insert_edge(fast, u, v)
                oracles.insert_edge_full(slow, u, v)
                assert np.array_equal(fast, slow)

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
        assert sk.shortest_paths_unweighted(prefix).max() == np.inf
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
            sk.shortest_paths_unweighted(sk.density_threshold(g, k)).max()
            for k in range(1, m + 1)
        ]
        # the walk sees diameter > 2 (or disconnection) first, then <= 2
        assert diameters[0] > 2 and diameters[-1] == 1
        assert any(d == 2 for d in diameters)
        profile = assert_same_profile(g)
        assert profile.values[-1] == 1.0

    def test_sparse_grid_crosses_diameter_two_between_levels(self):
        rng = np.random.default_rng(26)
        g = random_weighted(rng, 30, density=0.6)
        assert hop_diameter(g, 28) > 2 and hop_diameter(g, 200) <= 2
        assert_same_profile(g, grid=[3, 28, 200])
        assert_same_profile(g, grid=[200, 28, 3, 200])
        m = len(g.positive_edges())
        assert_same_profile(g, grid=[28, m])

    @pytest.mark.parametrize("ties", [False, True])
    def test_sampled_levels_at_paper_size(self, ties):
        rng = np.random.default_rng(27 + ties)
        n = 112
        g = random_weighted(rng, n, density=1.0)
        if ties:
            g = sk.WeightedGraph.from_matrix(np.ceil(g.weights * 3) / 3)
        m = len(g.positive_edges())
        grid = sorted(set(range(0, m + 1, 97)) | {1, n - 1, m - 1, m})
        assert any(hop_diameter(g, k) > 2 for k in grid)
        assert any(hop_diameter(g, k) == 2 for k in grid)
        assert_same_profile(g, grid=grid)

    def test_counting_wrapper_keeps_the_incremental_path(self, monkeypatch):
        # as the benchmark tracer does: one wrapper in place of the module
        # name and the metric table entry
        rng = np.random.default_rng(28)
        g = random_weighted(rng, 30, density=0.6)
        untraced = sk.density_integrated_metric(g, sk.metric_by_name("global_efficiency"))
        calls = []

        @functools.wraps(density_mod.global_efficiency)
        def counting(bg, _original=density_mod.global_efficiency):
            calls.append(bg)
            return _original(bg)

        monkeypatch.setattr(density_mod, "global_efficiency", counting)
        monkeypatch.setitem(density_mod.METRICS, "global_efficiency", counting)
        traced = sk.density_integrated_metric(g, sk.metric_by_name("global_efficiency"))
        assert calls == []
        assert [repr(v) for v in traced.values] == [repr(v) for v in untraced.values]
        assert repr(traced.integrated) == repr(untraced.integrated)

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

    def test_nan_image_is_a_validation_error_naming_the_pair(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 0.2
        m[1, 2] = m[2, 1] = 0.6
        m[2, 3] = m[3, 2] = 0.8
        g = sk.WeightedGraph.from_matrix(m)
        with pytest.raises(ValidationError, match=r"h\(0\.2\) and h\(0\.6\) break the order"):
            sk.verify_monotone_invariance(g, lambda w: math.nan if w > 0.5 else w)

    def test_graph_without_positive_weights_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.verify_monotone_invariance(sk.WeightedGraph.from_matrix(np.zeros((3, 3))), np.exp)
        assert str(err.value) == "graph has no positive weights"

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
            sk.DensityProfile((1, 2), np.array([0.1, 0.2]), np.array([0.5, 0.4]))

    @pytest.mark.parametrize("values,weights,message", [
        ([0.1], [0.5, 0.5], "densities, values, and weights must have equal length"),
        ([0.1, 0.2], [-0.5, 1.5], "probability masses must be nonnegative"),
        ([0.1, 0.2], [math.nan, math.nan], "probability masses sum to nan, not 1"),
    ], ids=["lengths", "negative-mass", "nan-mass"])
    def test_refusals_name_the_rule(self, values, weights, message):
        with pytest.raises(ValidationError) as err:
            sk.DensityProfile((1, 2), np.array(values), np.array(weights))
        assert str(err.value) == message

    def test_callers_arrays_stay_writable_and_unshared(self):
        mass = np.array([0.25, 0.75])
        profile = sk.density_integrated_metric(triangle(), sk.global_efficiency, grid=[1, 3],
                                               mass=mass)
        values, weights = np.array([0.1, 0.2]), np.array([0.5, 0.5])
        direct = sk.DensityProfile((1, 2), values, weights)
        for given, kept in ((mass, profile.weights), (values, direct.values),
                            (weights, direct.weights)):
            assert given.flags.writeable
            assert not np.shares_memory(given, kept)
            assert not kept.flags.writeable
            np.testing.assert_array_equal(given, kept)
