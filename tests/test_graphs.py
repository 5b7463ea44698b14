"""Graph types, thresholding, shortest paths, and efficiency metrics."""

import math

import numpy as np
import pytest

import spnkit as sk
from spnkit.errors import ValidationError
from spnkit.graphs import _efficiency_from_distances

import oracles


def random_weighted(rng, n, density=0.5, low=0.1, high=1.0):
    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < density
    vals = rng.uniform(low, high, len(iu[0])) * mask
    w[iu] = vals
    return sk.WeightedGraph.from_matrix(w + w.T)


def random_binary(rng, n, density=0.4):
    a = np.zeros((n, n), dtype=int)
    iu = np.triu_indices(n, k=1)
    a[iu] = rng.random(len(iu[0])) < density
    return sk.BinaryGraph.from_adjacency(a + a.T)


def complete_binary(n):
    return sk.BinaryGraph.from_adjacency(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


class TestThreshold:
    def test_keeps_entries_above_tau(self):
        m = np.array([[0.0, 0.9, 0.2], [0.9, 0.0, 0.5], [0.2, 0.5, 0.0]])
        g = sk.threshold(m, 0.4)
        # elementwise comparison oracle
        expected = [(i, j) for i in range(3) for j in range(i + 1, 3) if m[i, j] > 0.4]
        assert g.edges() == expected == [(0, 1), (1, 2)]
        assert g.edge_count == 2

    def test_infinite_tau_gives_empty_graph(self):
        m = np.array([[0.0, 0.9], [0.9, 0.0]])
        assert sk.threshold(m, math.inf).edge_count == 0

    def test_constant_matrix_below_tau_gives_complete_graph(self):
        n = 5
        m = np.full((n, n), 0.7)
        np.fill_diagonal(m, 0.0)
        g = sk.threshold(m, 0.4)
        assert g.edge_count == n * (n - 1) // 2

    def test_strict_inequality_at_tau(self):
        m = np.array([[0.0, 0.4], [0.4, 0.0]])
        assert sk.threshold(m, 0.4).edge_count == 0

    def test_rejects_asymmetric_input(self):
        m = np.array([[0.0, 0.9], [0.1, 0.0]])
        with pytest.raises(ValidationError):
            sk.threshold(m, 0.4)

    def test_rejects_nonhollow_input(self):
        m = np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(ValidationError):
            sk.threshold(m, 0.4)

    def test_symmetry_tolerance_then_averaged(self):
        m = np.array([[0.0, 0.5 + 4e-10], [0.5, 0.0]])
        g = sk.threshold(m, 0.4)
        assert g.edge_count == 1
        with pytest.raises(ValidationError):
            sk.threshold(np.array([[0.0, 0.5 + 1e-8], [0.5, 0.0]]), 0.4)


    def test_weighted_graph_input_keeps_labels_and_coords(self):
        coords = np.arange(9.0).reshape(3, 3)
        w = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.8], [0.2, 0.8, 0.0]])
        g = sk.threshold(sk.WeightedGraph(("x", "y", "z"), w, coords), 0.3)
        assert g.node_labels == ("x", "y", "z")
        np.testing.assert_array_equal(g.node_coords, coords)
        assert g.edges() == [(0, 1), (1, 2)]


class TestQuasilinearityWitness:
    def test_mean_then_threshold_differs_from_majority_of_thresholded(self):
        r1 = np.array([[0.0, 0.9], [0.9, 0.0]])
        r2 = np.array([[0.0, 0.1], [0.1, 0.0]])
        tau = 0.4
        mean_first = sk.threshold((r1 + r2) / 2.0, tau)
        votes = sk.threshold(r1, tau).adjacency.astype(int) + sk.threshold(r2, tau).adjacency.astype(int)
        majority = (votes > 1).astype(int)  # strict majority of 2 graphs
        assert mean_first.adjacency[0, 1] == 1
        assert majority[0, 1] == 0
        assert not np.array_equal(mean_first.adjacency, majority)


class TestShortestPathsUnweighted:
    def test_one_node_graphs_have_zero_distance(self):
        unweighted = sk.shortest_paths_unweighted(sk.BinaryGraph.from_adjacency(np.zeros((1, 1))))
        weighted = sk.shortest_paths_weighted(sk.WeightedGraph.from_matrix(np.zeros((1, 1))))
        for d in (unweighted, weighted):
            np.testing.assert_array_equal(d, [[0.0]])

    def test_path_graph(self):
        g = sk.BinaryGraph.from_edges(3, [(0, 1), (1, 2)])
        d = sk.shortest_paths_unweighted(g)
        assert d[0, 2] == 2

    def test_empty_graph_all_unreachable(self):
        g = sk.BinaryGraph.from_adjacency(np.zeros((3, 3)))
        d = sk.shortest_paths_unweighted(g)
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isinf(d[off]))

    def test_matches_simple_path_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(4, 13))
            g = random_binary(rng, n, density=0.35)
            mine = sk.shortest_paths_unweighted(g)
            ref = oracles.brute_force_distances(oracles.hop_lengths(g.adjacency))
            np.testing.assert_array_equal(mine, ref)

    def test_distance_matrix_invariants(self):
        rng = np.random.default_rng(7)
        g = random_binary(rng, 10, density=0.3)
        d = sk.shortest_paths_unweighted(g)
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        for j in range(10):  # triangle inequality, unreachable-safe
            assert np.all(d <= d[:, j, None] + d[None, j, :] + 1e-12)
        weighted = sk.shortest_paths_weighted(random_weighted(rng, 10, density=0.3))
        for dist in (d, weighted):
            assert dist.dtype == float
            assert not dist.flags.writeable


class TestShortestPathsWeighted:
    def test_uniform_triangle_distances_are_reciprocal(self):
        w = 0.8
        m = np.full((3, 3), w)
        np.fill_diagonal(m, 0.0)
        d = sk.shortest_paths_weighted(sk.WeightedGraph.from_matrix(m))
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(d[off], 1.0 / w)

    def test_single_edge_reciprocal(self):
        g = sk.WeightedGraph.from_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert sk.shortest_paths_weighted(g)[0, 1] == 2.0

    def test_matches_simple_path_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(4, 11))
            g = random_weighted(rng, n, density=0.5)
            mine = sk.shortest_paths_weighted(g)
            ref = oracles.brute_force_distances(oracles.reciprocal_lengths(g.weights))
            np.testing.assert_allclose(mine, ref, atol=1e-12)


class TestGlobalEfficiency:
    def test_complete_graph_is_one(self):
        for n in (2, 4, 7):
            assert sk.global_efficiency(complete_binary(n)) == 1.0

    def test_empty_graph_is_zero(self):
        assert sk.global_efficiency(sk.BinaryGraph.from_adjacency(np.zeros((4, 4)))) == 0.0

    def test_path_on_three_nodes(self):
        # oracle: four ordered pairs at distance 1, two at distance 2
        expected = (4 * 1.0 + 2 * 0.5) / 6.0
        g = sk.BinaryGraph.from_edges(3, [(0, 1), (1, 2)])
        np.testing.assert_allclose(sk.global_efficiency(g), expected)
        assert expected == pytest.approx(5.0 / 6.0)

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = random_binary(rng, n, density=float(rng.random()))
            e = sk.global_efficiency(g)
            assert 0.0 <= e <= 1.0
            assert (e == 1.0) == (g.edge_count == n * (n - 1) // 2)
            assert (e == 0.0) == (g.edge_count == 0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            sk.global_efficiency(sk.BinaryGraph.from_adjacency(np.zeros((1, 1))))


class TestEfficiencySum:
    """The one-pass sum shared by global, local and weighted efficiency
    against the boolean-mask sum, bit for bit."""

    SIZES = list(range(2, 41)) + [112]

    @staticmethod
    def assert_same_sum(dist):
        assert repr(_efficiency_from_distances(dist)) == repr(oracles.efficiency_masked(dist))

    @pytest.mark.parametrize("density", [0.1, 0.4, 0.9])
    def test_hop_matrices(self, density):
        rng = np.random.default_rng(int(density * 10))
        for n in self.SIZES:
            self.assert_same_sum(sk.shortest_paths_unweighted(random_binary(rng, n, density)))

    @pytest.mark.parametrize("density", [0.2, 0.6, 1.0])
    def test_weighted_matrices(self, density):
        rng = np.random.default_rng(int(density * 10) + 50)
        for n in self.SIZES:
            g = random_weighted(rng, n, density=density, low=0.05)
            self.assert_same_sum(sk.shortest_paths_weighted(g))

    def test_disconnected_matrices(self):
        rng = np.random.default_rng(60)
        for n in self.SIZES:
            # no edge joins the nodes before ``cut`` to those after it
            cut = int(rng.integers(1, n))
            w = random_weighted(rng, n, density=0.5).weights.copy()
            w[:cut, cut:] = w[cut:, :cut] = 0.0
            weighted = sk.shortest_paths_weighted(sk.WeightedGraph.from_matrix(w))
            hops = sk.shortest_paths_unweighted(sk.threshold(w, 0.0))
            for dist in (weighted, hops):
                assert np.isinf(dist[0, n - 1])
                self.assert_same_sum(dist)
            self.assert_same_sum(sk.shortest_paths_unweighted(
                sk.BinaryGraph.from_adjacency(np.zeros((n, n)))))


class TestLocalEfficiency:
    def test_complete_graph_is_one(self):
        assert sk.local_efficiency(complete_binary(5)) == 1.0

    def test_star_graph_is_zero(self):
        # leaves have one neighbor; the hub's neighborhood has no edges
        g = sk.BinaryGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert sk.local_efficiency(g) == 0.0

    def test_two_triangles_sharing_structure(self):
        g = sk.BinaryGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert sk.local_efficiency(g) == 1.0


def assert_local_matches_reference(g):
    assert repr(sk.local_efficiency(g)) == repr(oracles.local_efficiency_per_neighbourhood(g))


class TestLocalEfficiencyMatchesReference:
    """The direct neighbourhood kernel against one validated graph per neighbourhood."""

    @pytest.mark.parametrize("density", [0.15, 0.4, 0.8])
    def test_random_graphs(self, density):
        rng = np.random.default_rng(int(density * 100))
        for n in range(2, 41):
            assert_local_matches_reference(random_binary(rng, n, density))

    def test_isolated_nodes(self):
        rng = np.random.default_rng(31)
        for n in (6, 15, 30):
            a = random_binary(rng, n, 0.5).adjacency.copy()
            isolated = rng.choice(n, size=n // 3, replace=False)
            a[isolated, :] = 0
            a[:, isolated] = 0
            g = sk.BinaryGraph.from_adjacency(a)
            assert g.degrees()[isolated].sum() == 0
            assert_local_matches_reference(g)
        assert_local_matches_reference(sk.BinaryGraph.from_adjacency(np.zeros((5, 5))))

    def test_disconnected_neighbourhoods(self):
        # node 0 joins two triangles and a pendant path: its neighbourhood
        # {1, 2, 3, 4, 5} splits into the pairs {1, 2}, {3, 4} and {5}
        edges = [(0, v) for v in range(1, 6)] + [(1, 2), (3, 4), (5, 6), (6, 7)]
        g = sk.BinaryGraph.from_edges(8, edges)
        assert 0.0 < sk.local_efficiency(g) < 1.0
        assert_local_matches_reference(g)
        rng = np.random.default_rng(32)
        for _ in range(20):
            # sparse blocks joined only through one hub
            n = int(rng.integers(8, 30))
            a = random_binary(rng, n, 0.1).adjacency.copy()
            a[0, 1:] = a[1:, 0] = 1
            assert_local_matches_reference(sk.BinaryGraph.from_adjacency(a))

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 40])
    def test_complete_graphs_and_stars(self, n):
        complete = complete_binary(n)
        star = sk.BinaryGraph.from_edges(n, [(0, v) for v in range(1, n)])
        assert_local_matches_reference(complete)
        assert_local_matches_reference(star)
        # on two nodes the complete graph is a star
        assert sk.local_efficiency(complete) == (1.0 if n > 2 else 0.0)
        assert sk.local_efficiency(star) == 0.0

    def test_density_profile_matches_reference_at_every_level(self):
        # the density loop hands local_efficiency unvalidated graphs
        rng = np.random.default_rng(33)
        g = random_weighted(rng, 18, density=0.6)
        profile = sk.density_integrated_metric(g, sk.local_efficiency)
        assert profile.densities == tuple(range(1, len(g.positive_edges()) + 1))
        for k, value in zip(profile.densities, profile.values):
            reference = oracles.local_efficiency_per_neighbourhood(sk.density_threshold(g, k))
            assert repr(float(value)) == repr(reference)


class TestWeightedEfficiency:
    def test_triangle_under_spread_condition_equals_mean_weight(self):
        m = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 1.0], [0.8, 1.0, 0.0]])
        g = sk.WeightedGraph.from_matrix(m)
        np.testing.assert_allclose(sk.weighted_efficiency(g), 0.8, atol=1e-12)

    def test_uniform_complete_graph_equals_weight(self):
        w = 0.37
        m = np.full((5, 5), w)
        np.fill_diagonal(m, 0.0)
        g = sk.WeightedGraph.from_matrix(m)
        np.testing.assert_allclose(sk.weighted_efficiency(g), w, atol=1e-12)

    def test_star_on_three_nodes(self):
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        g = sk.WeightedGraph.from_matrix(m)
        np.testing.assert_allclose(sk.weighted_efficiency(g), 5.0 / 6.0)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            g = random_weighted(rng, n, density=0.5)
            ref = oracles.efficiency_from_oracle(
                oracles.brute_force_distances(oracles.reciprocal_lengths(g.weights))
            )
            np.testing.assert_allclose(sk.weighted_efficiency(g), ref, atol=1e-12)


class TestWeightedDensity:
    def test_triangle_mean_weight(self):
        m = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 1.0], [0.8, 1.0, 0.0]])
        np.testing.assert_allclose(sk.weighted_density(sk.WeightedGraph.from_matrix(m)), 0.8)

    def test_zero_weights(self):
        assert sk.weighted_density(sk.WeightedGraph.from_matrix(np.zeros((4, 4)))) == 0.0

    def test_uniform_complete(self):
        m = np.full((6, 6), 0.25)
        np.fill_diagonal(m, 0.0)
        np.testing.assert_allclose(sk.weighted_density(sk.WeightedGraph.from_matrix(m)), 0.25)


class TestSpreadCondition:
    def test_examples(self):
        tri = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 1.0], [0.8, 1.0, 0.0]])
        assert sk.spread_condition_holds(sk.WeightedGraph.from_matrix(tri)) is True
        two = np.zeros((3, 3))
        two[0, 1] = two[1, 0] = 0.3
        two[1, 2] = two[2, 1] = 1.0
        assert sk.spread_condition_holds(sk.WeightedGraph.from_matrix(two)) is False
        single = np.zeros((2, 2))
        single[0, 1] = single[1, 0] = 0.7
        assert sk.spread_condition_holds(sk.WeightedGraph.from_matrix(single)) is True

    def test_no_positive_weights_is_an_error(self):
        with pytest.raises(ValidationError):
            sk.spread_condition_holds(sk.WeightedGraph.from_matrix(np.zeros((3, 3))))

    def test_spread_implies_efficiency_equals_density_on_complete_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            w_max = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.5 * w_max, w_max, (n, n))
            m = (m + m.T) / 2.0
            np.fill_diagonal(m, 0.0)
            g = sk.WeightedGraph.from_matrix(m)
            assert sk.spread_condition_holds(g)
            assert abs(sk.weighted_efficiency(g) - sk.weighted_density(g)) <= 1e-12


class TestPermutationInvariance:
    def test_metrics_unchanged_by_relabeling(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            g = random_weighted(rng, n, density=0.6)
            b = sk.threshold(g.weights, 0.3)
            p = rng.permutation(n)
            gp = sk.WeightedGraph.from_matrix(g.weights[np.ix_(p, p)])
            bp = sk.BinaryGraph.from_adjacency(b.adjacency[np.ix_(p, p)])
            np.testing.assert_allclose(sk.weighted_density(g), sk.weighted_density(gp), atol=1e-15)
            np.testing.assert_allclose(
                sk.weighted_efficiency(g), sk.weighted_efficiency(gp), atol=1e-12
            )
            np.testing.assert_allclose(
                sk.global_efficiency(b), sk.global_efficiency(bp), atol=1e-12
            )
            np.testing.assert_allclose(
                sk.local_efficiency(b), sk.local_efficiency(bp), atol=1e-12
            )


class TestGraphValidation:
    def test_weighted_rejects_negative(self):
        m = np.array([[0.0, -0.2], [-0.2, 0.0]])
        with pytest.raises(ValidationError):
            sk.WeightedGraph.from_matrix(m)

    def test_negative_weight_message_prints_a_plain_float(self):
        m = np.array([[0.0, -0.2], [-0.2, 0.0]])
        with pytest.raises(ValidationError, match=r"weights: negative entry -0\.2 at \(0,1\)"):
            sk.WeightedGraph.from_matrix(m)

    def test_binary_rejects_noninteger_entries(self):
        with pytest.raises(ValidationError):
            sk.BinaryGraph.from_adjacency(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_edge_count_matches_adjacency(self):
        rng = np.random.default_rng(2)
        g = random_binary(rng, 8, 0.5)
        assert g.edge_count == int(g.adjacency.sum()) // 2

    def test_graphs_are_immutable(self):
        g = complete_binary(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError):
            sk.BinaryGraph(("a",), np.zeros((2, 2)))

    @pytest.mark.parametrize("build,message", [
        (lambda: sk.WeightedGraph(("a",), np.zeros((2, 2))),
         "1 node labels for a 2-node weight matrix"),
        (lambda: sk.WeightedGraph(("a", "b"), np.zeros((2, 2)), np.zeros((2, 2))),
         "node_coords must have shape (2, 3), got (2, 2)"),
        (lambda: sk.BinaryGraph(("a", "b"), np.zeros((2, 2)), np.zeros(6)),
         "node_coords must have shape (2, 3), got (6,)"),
        (lambda: sk.BinaryGraph(("a", "b"), np.zeros((2, 2)), [[1, 2, 3], [4, 5]]),
         "node_coords must have shape (2, 3), got ragged or non-numeric rows"),
        (lambda: sk.WeightedGraph(("a", "b"), np.zeros((2, 2)), [[1, 2, 3], [4, 5, "x"]]),
         "node_coords must have shape (2, 3), got ragged or non-numeric rows"),
        (lambda: sk.WeightedGraph("ab", np.zeros((2, 2))),
         "node labels must be a list of labels, not the string 'ab'"),
        (lambda: sk.BinaryGraph(("a", "a", "b"), np.zeros((3, 3))),
         "node label 'a' is repeated at nodes 0 and 1"),
        (lambda: sk.WeightedGraph.from_matrix(np.zeros((3, 3)), ["x", 1, "1"]),
         "node label '1' is repeated at nodes 1 and 2"),
        (lambda: sk.BinaryGraph(("a", "b\rc"), np.zeros((2, 2))),
         "node label 'b\\rc' holds a carriage return"),
    ], ids=["weighted-labels", "weighted-coords", "binary-coords", "binary-ragged-coords",
            "weighted-non-numeric-coords", "weighted-string-labels", "binary-repeated-label",
            "weighted-repeated-after-str", "binary-carriage-return"])
    def test_node_metadata_errors(self, build, message):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("build,message", [
        (lambda: sk.WeightedGraph.from_matrix(np.zeros((2, 3))),
         "weights: expected a square matrix, got shape (2, 3)"),
        (lambda: sk.WeightedGraph.from_matrix(np.zeros((0, 0))),
         "weights: matrix must have at least one node"),
        (lambda: sk.WeightedGraph.from_matrix([[0.0, np.inf], [np.inf, 0.0]]),
         "weights: matrix entries must be finite"),
        (lambda: sk.BinaryGraph.from_adjacency([[0, 1], [0, 0]]), "adjacency: not symmetric"),
        (lambda: sk.BinaryGraph.from_adjacency([[1, 0], [0, 0]]),
         "adjacency: diagonal must be zero"),
        (lambda: sk.BinaryGraph.from_edges(3, [(0, 1), (2, 2)]), "self-loop (2,2) is not allowed"),
        (lambda: sk.local_efficiency(sk.BinaryGraph.from_adjacency(np.zeros((1, 1)))),
         "local_efficiency needs at least 2 nodes"),
        (lambda: sk.weighted_efficiency(sk.WeightedGraph.from_matrix(np.zeros((1, 1)))),
         "weighted_efficiency needs at least 2 nodes"),
        (lambda: sk.weighted_density(sk.WeightedGraph.from_matrix(np.zeros((1, 1)))),
         "weighted_density needs at least 2 nodes"),
    ], ids=["non-square", "empty", "non-finite", "asymmetric-adjacency", "adjacency-diagonal",
            "self-loop", "one-node-local-efficiency", "one-node-weighted-efficiency",
            "one-node-weighted-density"])
    def test_matrix_and_metric_refusals(self, build, message):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [None, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls", [sk.WeightedGraph, sk.BinaryGraph])
    def test_non_finite_coordinates_name_the_node(self, cls, value):
        with pytest.raises(ValidationError) as err:
            cls(("a", "b"), np.zeros((2, 2)), [[1.0, 2.0, 3.0], [4.0, 5.0, value]])
        shown = repr(math.nan if value is None else value)
        assert str(err.value) == f"node 1 (b) has non-finite coordinates [4.0, 5.0, {shown}]"

    @pytest.mark.parametrize("build", [
        lambda c: sk.WeightedGraph.from_matrix(np.zeros((3, 3)), node_coords=c),
        lambda c: sk.BinaryGraph.from_adjacency(np.zeros((3, 3)), node_coords=c),
        lambda c: sk.threshold(sk.WeightedGraph.from_matrix(np.zeros((3, 3)), node_coords=c), 0.5),
    ], ids=["weighted", "binary", "threshold"])
    def test_node_coords_are_a_frozen_copy(self, build):
        coords = np.arange(9.0).reshape(3, 3)
        g = build(coords)
        assert coords.flags.writeable
        assert not np.shares_memory(coords, g.node_coords)
        assert not g.node_coords.flags.writeable
        np.testing.assert_array_equal(g.node_coords, coords)
