"""Graphs spnkit builds from checked data skip their constructors' checks.

A graph made from node pairs has labels, coordinates and pairs that have
passed the node and pair rules already; a weighted graph made from a
dataset has its labels and a matrix rebuilt from checked upper triangles.
So the fast builds set the fields directly.  The checked constructors stay
the reference: they must accept every such graph and rebuild it field by
field.
"""

import numpy as np
import pytest

import spnkit as sk
from spnkit import density as density_mod
from spnkit import io as spnio
from spnkit.modularity import TOPOLOGIES

from datasets import (dataset_from_z, planted_mean_dataset, planted_trend_dataset,
                      signal_dataset)


def assert_as_checked(g):
    """``g`` is what the checked constructor builds from its own fields."""
    ref = sk.BinaryGraph(g.node_labels, g.adjacency, g.node_coords)
    assert g.adjacency.dtype == np.uint8 and not g.adjacency.flags.writeable
    assert np.array_equal(g.adjacency, ref.adjacency)
    assert type(g.edge_count) is int and g.edge_count == ref.edge_count
    assert type(g.node_labels) is tuple and g.node_labels == ref.node_labels
    if ref.node_coords is None:
        assert g.node_coords is None
    else:
        assert not g.node_coords.flags.writeable
        assert np.array_equal(g.node_coords, ref.node_coords)


def with_coords(data, rng):
    return sk.StudyDataset(data.correlations(), data.node_labels, data.condition_labels,
                           data.subject_ids, rng.normal(size=(data.n_nodes, 3)))


def weighted(rng, n, coords=True):
    w = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    return sk.WeightedGraph.from_matrix(
        w + w.T, node_coords=rng.normal(size=(n, 3)) if coords else None)


class TestBuiltGraphsMatchTheCheckedConstructor:
    @pytest.mark.parametrize("coords", [False, True])
    def test_mean_spn_networks(self, coords):
        rng = np.random.default_rng(3)
        data = planted_mean_dataset(rng, edge_index=5, n=8, j=3, n_v=7)
        data = with_coords(data, rng) if coords else data
        for condition in range(data.n_conditions):
            network = sk.mean_spn(data, condition).network
            assert network.edge_count > 0
            assert_as_checked(network)

    @pytest.mark.parametrize("coords", [False, True])
    def test_differential_spn_networks(self, coords):
        rng = np.random.default_rng(4)
        data = planted_trend_dataset(rng, 2, 9, effect=2.0, n=10, j=3, n_v=7)
        data = with_coords(data, rng) if coords else data
        plus, minus = sk.differential_spn(data)
        assert plus.network.edge_count > 0 and minus.network.edge_count > 0
        assert_as_checked(plus.network)
        assert_as_checked(minus.network)

    def test_node_differential_spn_empty_graph(self):
        rng = np.random.default_rng(5)
        for result in sk.node_differential_spn(signal_dataset(rng.normal(size=(6, 3, 5)))):
            assert result.network.edge_count == 0
            assert_as_checked(result.network)

    @pytest.mark.parametrize("coords", [False, True])
    def test_density_threshold_levels(self, coords):
        g = weighted(np.random.default_rng(6), 9, coords)
        n_positive = int(np.count_nonzero(g.weights)) // 2
        for k in range(1, n_positive + 1):
            level = sk.density_threshold(g, k)
            assert level.edge_count == k
            assert_as_checked(level)

    def test_density_profile_levels(self):
        g = weighted(np.random.default_rng(7), 8)
        seen = []

        def metric(level):
            assert_as_checked(level)
            seen.append(level.edge_count)
            return 0.0

        sk.density_integrated_metric(g, metric)
        assert seen and seen == list(range(1, len(seen) + 1))

    @pytest.mark.parametrize("n_v", [6, 7])
    def test_ring_lattice_up_to_its_last_slot(self, n_v):
        for n_e in range(sk.max_edge_count(n_v) + 1):
            lattice = sk.ring_lattice(n_v, n_e)
            assert lattice.edge_count == n_e
            assert_as_checked(lattice)

    def test_random_graph_and_rewire(self):
        for seed in range(5):
            g = sk.random_graph(10, 12, seed)
            assert g.edge_count == 12
            assert_as_checked(g)
        coords = np.random.default_rng(8).normal(size=(10, 3))
        g = sk.BinaryGraph(tuple("abcdefghij"), g.adjacency, coords)
        for steps in (1, 5, 40):
            rewired = sk.rewire(g, steps, seed=steps)
            assert rewired.edge_count == g.edge_count
            assert_as_checked(rewired)

    @pytest.mark.parametrize("tau", [-np.inf, 0.0, 0.4, 0.95])
    def test_threshold_of_a_weighted_graph_and_of_a_matrix(self, tau):
        g = weighted(np.random.default_rng(9), 8)
        of_graph, of_matrix = sk.threshold(g, tau), sk.threshold(g.weights, tau)
        assert_as_checked(of_graph)
        assert_as_checked(of_matrix)
        assert np.array_equal(of_graph.adjacency, of_matrix.adjacency)

    def test_from_edges_counts_a_repeated_pair_once(self):
        g = sk.BinaryGraph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
        assert g.edge_count == 2
        assert_as_checked(g)


def test_no_built_graph_runs_the_checked_constructor(monkeypatch, tmp_path):
    calls = []
    checked = sk.BinaryGraph.__post_init__
    monkeypatch.setattr(sk.BinaryGraph, "__post_init__",
                        lambda self: calls.append(self) or checked(self))
    sk.randomness_sweep(16, 32, [0, 4, 16], 2, seed=1)
    for topology in TOPOLOGIES:
        sk.edges_sweep(16, [8, 32], topology, 2, seed=1)
    rng = np.random.default_rng(10)
    data = with_coords(planted_trend_dataset(rng, 2, 9, effect=2.0, n=6, j=3, n_v=7), rng)
    sk.report_pipeline(data, tmp_path, negatives="abs", density_grid=[3, 6, 9])
    assert calls == []
    sk.BinaryGraph.from_adjacency(np.zeros((3, 3)))  # the counter sees a checked build
    assert len(calls) == 1


def assert_weighted_as_checked(g):
    """``g`` is what WeightedGraph(...) builds from its own fields, bit for bit."""
    ref = sk.WeightedGraph(g.node_labels, g.weights)
    assert g.weights.dtype == np.float64 and not g.weights.flags.writeable
    assert g.weights.tobytes() == ref.weights.tobytes()
    assert type(g.node_labels) is tuple and g.node_labels == ref.node_labels
    assert g.node_coords is None and ref.node_coords is None


def nonnegative_dataset(rng, n=4, j=3, n_v=7):
    """A study whose correlations are all >= 0, with a zero and a negative-zero edge."""
    z = np.abs(rng.normal(0.0, 0.4, size=(n, j, n_v * (n_v - 1) // 2)))
    z[..., 0], z[..., 1] = 0.0, -0.0
    return dataset_from_z(z)


def signed_dataset(rng, n=4, j=3, n_v=7):
    return planted_trend_dataset(rng, 2, 9, effect=2.0, n=n, j=j, n_v=n_v)


class TestDatasetGraphsMatchTheCheckedConstructor:
    @pytest.mark.parametrize("negatives, make", [("abs", signed_dataset),
                                                 ("abs", nonnegative_dataset),
                                                 ("error", nonnegative_dataset)])
    def test_cell_graphs(self, negatives, make):
        data = make(np.random.default_rng(11))
        cells = list(spnio._cell_graphs(data, negatives))
        assert len(cells) == data.n_subjects * data.n_conditions
        full = data.correlations()
        for si, ci in np.ndindex(data.n_subjects, data.n_conditions):
            subject, condition, matrix, g = cells[si * data.n_conditions + ci]
            assert (subject, condition) == (data.subject_ids[si], data.condition_labels[ci])
            assert matrix.tobytes() == full[si, ci].tobytes()
            assert_weighted_as_checked(g)
            ref = sk.association_graph(matrix, data.node_labels, negatives=negatives)
            assert g.weights.tobytes() == ref.weights.tobytes()

    @pytest.mark.parametrize("negatives, make", [("abs", signed_dataset),
                                                 ("error", nonnegative_dataset)])
    def test_condition_mean_graphs(self, monkeypatch, tmp_path, negatives, make):
        data = make(np.random.default_rng(12))
        seen = []
        profile = density_mod.density_integrated_metric
        monkeypatch.setattr(density_mod, "density_integrated_metric",
                            lambda g, *args, **kwargs: seen.append(g) or profile(g, *args, **kwargs))
        spnio.step_density_profiles(data, tmp_path, "", negatives, "global_efficiency", [3, 6])
        assert len(seen) == data.n_conditions
        for ci, g in enumerate(seen):
            assert_weighted_as_checked(g)
            ref = sk.association_graph(spnio.condition_mean_matrix(data, ci), data.node_labels,
                                       negatives=negatives)
            assert g.weights.tobytes() == ref.weights.tobytes()


def test_no_dataset_graph_runs_the_checked_constructor(monkeypatch, tmp_path):
    calls = []
    checked = sk.WeightedGraph.__post_init__
    monkeypatch.setattr(sk.WeightedGraph, "__post_init__",
                        lambda self: calls.append(self) or checked(self))
    data = signed_dataset(np.random.default_rng(13))
    sk.report_pipeline(data, tmp_path / "report", negatives="abs", density_grid=[3, 6, 9])
    rows, _ = spnio.step_metrics(data, tmp_path, "", "abs", 0.3)
    assert len(rows) == data.n_subjects * data.n_conditions
    assert calls == []
    sk.association_graph(np.zeros((3, 3)))  # the counter sees a checked build
    assert len(calls) == 1
