"""Greedy modularity, graph generators, rewiring, and simulation sweeps."""

import collections
from types import SimpleNamespace

import numpy as np
import pytest

import spnkit as sk
from spnkit import io as spnio
from spnkit import modularity
from spnkit.errors import ValidationError

import oracles

FIG4_EDGE_GRID = (100, 600, 1100, 1600, 2100)


def complete(n):
    return sk.BinaryGraph.from_adjacency(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


def disjoint_cliques(count, size):
    n = count * size
    a = np.zeros((n, n), dtype=int)
    for c in range(count):
        lo = c * size
        a[lo : lo + size, lo : lo + size] = 1
    np.fill_diagonal(a, 0)
    return sk.BinaryGraph.from_adjacency(a)


def random_binary(rng, n, density=0.4):
    a = np.zeros((n, n), dtype=int)
    iu = np.triu_indices(n, k=1)
    a[iu] = rng.random(len(iu[0])) < density
    g = sk.BinaryGraph.from_adjacency(a + a.T)
    return g


class TestGreedyModularity:
    def test_two_disjoint_triangles(self):
        g = disjoint_cliques(2, 3)
        part = sk.greedy_modularity(g)
        assert part.module_count == 2
        assert part.q == pytest.approx(0.5, abs=1e-12)
        # exhaustive search over all partitions of 6 nodes confirms the optimum
        assert oracles.exhaustive_max_q(g.adjacency) == pytest.approx(0.5, abs=1e-12)

    def test_complete_graph_collapses_to_one_module(self):
        part = sk.greedy_modularity(complete(4))
        assert part.module_count == 1
        assert part.q == pytest.approx(0.0, abs=1e-12)
        # every split scores below the trivial partition
        assert oracles.exhaustive_max_q(complete(4).adjacency) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("count,size", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_disjoint_equal_cliques(self, count, size):
        g = disjoint_cliques(count, size)
        part = sk.greedy_modularity(g)
        assert part.module_count == count
        if count * size <= 8:
            assert part.q == pytest.approx(oracles.exhaustive_max_q(g.adjacency), abs=1e-12)

    def test_reported_q_matches_independent_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_binary(rng, n, density=0.5)
            if g.edge_count == 0:
                continue
            part = sk.greedy_modularity(g)
            assert part.q == pytest.approx(
                oracles.newman_q(g.adjacency, part.assignment), abs=1e-12
            )
            assert part.q == pytest.approx(
                sk.modularity_q(g, part.assignment), abs=1e-12
            )

    def test_greedy_is_a_lower_bound_for_the_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 12:
            n = int(rng.integers(4, 9))
            g = random_binary(rng, n, density=0.5)
            if g.edge_count == 0:
                continue
            part = sk.greedy_modularity(g)
            assert part.q <= oracles.exhaustive_max_q(g.adjacency) + 1e-12
            done += 1

    def test_cliques_are_never_split(self):
        for count, size in [(2, 3), (3, 4), (2, 5)]:
            g = disjoint_cliques(count, size)
            part = sk.greedy_modularity(g)
            for c in range(count):
                members = {part.assignment[v] for v in range(c * size, (c + 1) * size)}
                assert len(members) == 1

    def test_edgeless_graph_is_an_error(self):
        with pytest.raises(ValidationError):
            sk.greedy_modularity(sk.BinaryGraph.from_adjacency(np.zeros((3, 3))))

    def test_modularity_q_of_an_edgeless_graph_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.modularity_q(sk.BinaryGraph.from_adjacency(np.zeros((3, 3))), [0, 1, 2])
        assert str(err.value) == "modularity is undefined for an edgeless graph"

    @pytest.mark.parametrize("assignment", [[0, 0, 1], [0, 0, 1, 1, 2]], ids=["short", "long"])
    def test_modularity_q_refuses_an_assignment_of_the_wrong_length(self, assignment):
        with pytest.raises(ValidationError) as err:
            sk.modularity_q(disjoint_cliques(2, 2), assignment)
        assert str(err.value) == f"assignment has {len(assignment)} entries for a graph of 4 nodes"

    def test_partition_ids_contiguous(self):
        g = disjoint_cliques(3, 3)
        part = sk.greedy_modularity(g)
        assert sorted(set(part.assignment)) == list(range(part.module_count))


def assert_matches_references(g):
    part = sk.greedy_modularity(g)
    for reference in (oracles.greedy_modularity_full_rebuild,
                      oracles.greedy_modularity_upper_triangle):
        assignment, module_count, q = reference(g.adjacency)
        assert part.assignment == assignment, reference.__name__
        assert part.module_count == module_count, reference.__name__
        assert repr(part.q) == repr(q), reference.__name__


def complete_bipartite(size):
    a = np.zeros((2 * size, 2 * size), dtype=int)
    a[:size, size:] = 1
    return sk.BinaryGraph.from_adjacency(a + a.T)


class TestIncrementalGainsMatchFullRebuild:
    """The symmetric gain update gives the partition and Q of both references
    bit for bit: the full rebuild and the upper-triangle row-and-column update."""

    @pytest.mark.parametrize("n_v,n_e", [(12, 12), (12, 30), (13, 39), (40, 80), (112, 112),
                                         (112, 600), (112, 1100), (112, 2100)])
    def test_ring_lattices(self, n_v, n_e):
        # regular lattices tie many gains, which exercises the tie-break
        assert_matches_references(sk.ring_lattice(n_v, n_e))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rewired_lattices(self, seed):
        base = sk.ring_lattice(112, 600)
        for steps in (1, 20, 100, 500):
            assert_matches_references(sk.rewire(base, steps, seed))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random_graphs(self, seed):
        for n_e in (100, 600, 1600, 4000):
            assert_matches_references(sk.random_graph(112, n_e, seed))

    @pytest.mark.parametrize("count,size", [(2, 3), (3, 4), (5, 6), (8, 14)])
    def test_disjoint_cliques(self, count, size):
        assert_matches_references(disjoint_cliques(count, size))

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_complete_graph(self, n):
        assert_matches_references(complete(n))

    def test_isolated_nodes_are_never_merged(self):
        # two triangles beside four isolated nodes, and a sparse random graph
        a = np.zeros((10, 10), dtype=int)
        a[:6, :6] = disjoint_cliques(2, 3).adjacency
        graphs = [sk.BinaryGraph.from_adjacency(a), sk.random_graph(112, 40, seed=6)]
        for g in graphs:
            assert_matches_references(g)
            part = sk.greedy_modularity(g)
            sizes = collections.Counter(part.assignment)
            isolated = np.flatnonzero(g.adjacency.sum(axis=1) == 0)
            assert isolated.size > 0
            assert all(sizes[part.assignment[v]] == 1 for v in isolated)

    @pytest.mark.parametrize("topology", ["rewired", "random", "lattice"])
    def test_fig4_sample(self, topology):
        # replicate 0 of every Fig 4 grid value, seeded as the sweeps seed it
        if topology == "rewired":
            base = sk.ring_lattice(112, 600)
            graphs = [sk.rewire(base, steps, modularity._child_seed(42, gi, 0))
                      for gi, steps in enumerate(range(0, 501, 50))]
        elif topology == "random":
            graphs = [sk.random_graph(112, n_e, modularity._child_seed(42, gi, 0))
                      for gi, n_e in enumerate(FIG4_EDGE_GRID)]
        else:
            graphs = [sk.ring_lattice(112, n_e) for n_e in FIG4_EDGE_GRID]
        for g in graphs:
            assert_matches_references(g)

    @pytest.mark.parametrize("make", [lambda: complete(112), lambda: complete_bipartite(56),
                                      lambda: sk.ring_lattice(112, 112)],
                             ids=["K112", "K56,56", "C112"])
    def test_tie_heavy_graphs(self, make):
        # every first-merge gain ties, so the tie-break decides the whole run
        assert_matches_references(make())


class TestNoFloatingPointFaults:
    """Dead communities carry an infinite degree share; no merge may form inf * 0 or inf - inf."""

    @pytest.mark.parametrize("make", [
        lambda: sk.BinaryGraph.from_edges(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        lambda: sk.BinaryGraph.from_edges(5, [(1, 3)]),
        lambda: complete(12),
    ], ids=["isolated-nodes", "single-edge", "complete"])
    def test_greedy_raises_nothing(self, make):
        g = make()
        with np.errstate(all="raise"):
            part = sk.greedy_modularity(g)
        assert repr(part.q) == repr(oracles.greedy_modularity_full_rebuild(g.adjacency)[2])


class TestRingLattice:
    def test_cycle_graph(self):
        g = sk.ring_lattice(6, 6)
        assert np.array_equal(
            g.adjacency, oracles.adjacency_of(6, [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]))
        assert np.all(g.adjacency.sum(axis=1) == 2)

    def test_complete_when_saturated(self):
        n = 7
        g = sk.ring_lattice(n, n * (n - 1) // 2)
        assert g.edge_count == n * (n - 1) // 2

    def test_fig4_scale_lattice_round_arithmetic(self):
        # 2100 = 112 * 18 + 84: eighteen full offset rounds plus a partial
        # round of 84 offset-19 edges laid down in node-index order.
        g = sk.ring_lattice(112, 2100)
        assert g.edge_count == 2100
        spread = collections.Counter(g.adjacency.sum(axis=1).tolist())
        assert spread == {36: 9, 37: 38, 38: 65}
        assert max(spread) - min(spread) == 2

    def test_infeasible_edge_count(self):
        with pytest.raises(ValidationError):
            sk.ring_lattice(5, 11)
        with pytest.raises(ValidationError):
            sk.ring_lattice(2, 1)

    @pytest.mark.parametrize("n_v", range(3, 41))
    def test_every_edge_count_matches_the_round_by_round_loop(self, n_v):
        for n_e in range(sk.max_edge_count(n_v) + 1):
            g = sk.ring_lattice(n_v, n_e)
            expected = oracles.adjacency_of(n_v, oracles.ring_lattice_by_rounds(n_v, n_e))
            assert g.edge_count == n_e and np.array_equal(g.adjacency, expected), n_e

    @pytest.mark.parametrize("n_e", [*FIG4_EDGE_GRID, 6215, 6216])
    def test_fig4_sizes_match_the_round_by_round_loop(self, n_e):
        g = sk.ring_lattice(112, n_e)
        assert g.edge_count == n_e
        assert np.array_equal(
            g.adjacency, oracles.adjacency_of(112, oracles.ring_lattice_by_rounds(112, n_e)))


class TestRandomGraph:
    def test_saturated_is_complete_for_any_seed(self):
        n = 6
        for seed in (0, 1, 99):
            g = sk.random_graph(n, n * (n - 1) // 2, seed)
            assert g.edge_count == n * (n - 1) // 2

    def test_seed_determinism(self):
        a = sk.random_graph(30, 100, seed=5)
        b = sk.random_graph(30, 100, seed=5)
        assert np.array_equal(a.adjacency, b.adjacency)
        c = sk.random_graph(30, 100, seed=6)
        assert not np.array_equal(a.adjacency, c.adjacency)

    def test_structure_at_fig4_scale(self):
        g = sk.random_graph(112, 600, seed=3)
        assert g.edge_count == 600
        assert np.all(np.diag(g.adjacency) == 0)
        assert np.array_equal(g.adjacency, g.adjacency.T)


class TestRewire:
    def test_zero_steps_identity(self):
        g = sk.ring_lattice(6, 6)
        assert sk.rewire(g, 0, seed=1) is g

    def test_edge_count_invariant(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(5, 15))
            max_e = n * (n - 1) // 2
            m = int(rng.integers(1, max_e))
            g = sk.random_graph(n, m, seed=trial)
            if g.edge_count in (0, max_e):
                continue
            steps = int(rng.integers(1, 30))
            rewired = sk.rewire(g, steps, seed=trial)
            assert rewired.edge_count == g.edge_count
            assert np.all(np.diag(rewired.adjacency) == 0)
            assert np.array_equal(rewired.adjacency, rewired.adjacency.T)

    def test_single_step_moves_exactly_one_edge(self):
        g = sk.ring_lattice(6, 6)
        rewired = sk.rewire(g, 1, seed=4)
        moved = np.triu(g.adjacency ^ rewired.adjacency, 1)
        assert np.count_nonzero(moved) == 2  # one slot vacated, one filled

    def test_labels_and_coordinates_are_kept(self):
        lattice = sk.ring_lattice(4, 3)
        coords = np.arange(12.0).reshape(4, 3)
        g = sk.BinaryGraph(("a", "b", "c", "d"), lattice.adjacency, coords)
        rewired = sk.rewire(g, 1, seed=0)
        assert rewired.node_labels == g.node_labels
        np.testing.assert_array_equal(rewired.node_coords, coords)

    def test_no_legal_move_is_an_error(self):
        with pytest.raises(ValidationError):
            sk.rewire(complete(4), 1, seed=0)
        with pytest.raises(ValidationError):
            sk.rewire(sk.BinaryGraph.from_adjacency(np.zeros((4, 4))), 1, seed=0)

    def test_negative_steps_are_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.rewire(sk.ring_lattice(6, 6), -1, seed=0)
        assert str(err.value) == "steps must be nonnegative"

    def test_deterministic_per_seed(self):
        g = sk.ring_lattice(20, 40)
        a = sk.rewire(g, 25, seed=9)
        b = sk.rewire(g, 25, seed=9)
        assert np.array_equal(a.adjacency, b.adjacency)


@pytest.mark.parametrize("generate", [
    lambda: sk.random_graph(10, 12, -1),
    lambda: sk.rewire(sk.ring_lattice(10, 12), 3, -1),
    lambda: sk.rewire(sk.ring_lattice(10, 12), 0, -1),
], ids=["random_graph", "rewire", "rewire-zero-steps"])
def test_negative_seed_is_refused(generate):
    with pytest.raises(ValidationError) as err:
        generate()
    assert str(err.value) == "seed must be nonnegative, got -1"


@pytest.mark.parametrize("generate,message", [
    (lambda: sk.ring_lattice(10, True), "n_e must be an integer, got True"),
    (lambda: sk.ring_lattice(10, 5.0), "n_e must be an integer, got 5.0"),
    (lambda: sk.ring_lattice(10.0, 5), "n_v must be an integer, got 10.0"),
    (lambda: sk.ring_lattice(True, 0), "n_v must be an integer, got True"),
    (lambda: sk.random_graph(10, 5.0, 1), "n_e must be an integer, got 5.0"),
    (lambda: sk.random_graph(10.0, 5, 1), "n_v must be an integer, got 10.0"),
    (lambda: sk.ring_lattice(5, 11), "n_e=11 infeasible for 5 nodes (max 10)"),
    (lambda: sk.random_graph(2, 1, 0), "need at least 3 nodes, got 2"),
    (lambda: sk.rewire(sk.ring_lattice(10, 12), True, 0), "steps must be an integer, got True"),
    (lambda: sk.rewire(sk.ring_lattice(10, 12), 2.5, 0), "steps must be an integer, got 2.5"),
    (lambda: sk.random_graph(10, 12, 2.5), "seed must be an integer, got 2.5"),
    (lambda: sk.random_graph(10, 12, True), "seed must be an integer, got True"),
    (lambda: sk.rewire(sk.ring_lattice(10, 12), 3, 1.0), "seed must be an integer, got 1.0"),
], ids=["lattice-bool-edges", "lattice-float-edges", "lattice-float-nodes", "lattice-bool-nodes",
        "random-float-edges", "random-float-nodes", "too-many-edges", "too-few-nodes",
        "rewire-bool-steps", "rewire-float-steps", "random-float-seed", "random-bool-seed",
        "rewire-float-seed"])
def test_generator_sizes_are_refused(generate, message):
    with pytest.raises(ValidationError) as err:
        generate()
    assert str(err.value) == message


class TestRewireMatchesPerDrawReference:
    """rewire draws from batched uint32 values with numpy's bounded-integer rule
    copied in; these tests fail if a numpy release changes that rule."""

    @staticmethod
    def assert_same_as_reference(g, steps, seed):
        fast = sk.rewire(g, steps, seed)
        slow = oracles.rewire_per_draw(g, steps, seed)
        assert np.array_equal(fast.adjacency, slow.adjacency), (steps, seed)

    @pytest.mark.parametrize("n_v,n_e", [
        (112, 600),  # the Fig 4 randomness-sweep base lattice
        (12, 1),  # one edge: the edge draw has bound 1 and takes no value
        (10, 38),  # sparse branch with many rejected slot draws, so the stream refills
    ])
    def test_sparse_branch(self, n_v, n_e):
        base = sk.ring_lattice(n_v, n_e)
        for seed in range(60):
            for steps in (1, 50, 500):
                self.assert_same_as_reference(base, steps, seed)

    @pytest.mark.parametrize("n_v,n_e", [
        (10, 42),  # m > 0.9 * limit (45)
        (10, 44),  # one absent slot: most slot draws are rejected
    ])
    def test_near_complete_graphs(self, n_v, n_e):
        base = sk.ring_lattice(n_v, n_e)
        for seed in range(100):
            for steps in (1, 7, 60):
                self.assert_same_as_reference(base, steps, seed)

    def test_one_absent_slot_at_paper_size(self):
        # 112 nodes, m = limit - 1: each step rejects about 6,215 slot draws
        base = sk.ring_lattice(112, sk.max_edge_count(112) - 1)
        for seed in range(3):
            for steps in (1, 4):
                self.assert_same_as_reference(base, steps, seed)

    def test_rewired_random_graphs(self):
        for seed in range(40):
            g = sk.random_graph(30, 100 + 3 * seed, seed)
            self.assert_same_as_reference(g, 200, seed)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_bounded_draws_match_rng_integers(self, chunk):
        hard = [2**31 + 1, 3 * 2**30, 2**32, 2**32 - 1, 1, 2, 3, 600, 6216]
        picker = np.random.default_rng(11)
        bounds = hard * 40 + [int(b) for b in picker.integers(1, 2**32, size=400, endpoint=True)]
        picker.shuffle(bounds)
        for seed in range(5):
            draw = modularity._uint32_stream(np.random.default_rng(seed), chunk).__next__
            reference = np.random.default_rng(seed)
            got = [modularity._bounded(draw, b) for b in bounds]
            assert got == [int(reference.integers(b)) for b in bounds]

    def test_more_than_2_to_the_32_slots_is_refused(self):
        huge = SimpleNamespace(n_nodes=92683, edge_count=1)  # 92683 * 92682 / 2 > 2**32
        with pytest.raises(ValidationError, match=r"at most 2\*\*32 node pairs"):
            sk.rewire(huge, 1, seed=0)


class TestSweeps:
    def test_zero_rewirings_row_is_deterministic(self):
        sweep = sk.randomness_sweep(6, 6, [0], replicates=5, seed=1)
        row = sweep[0]
        assert row.sd_modules == 0.0
        assert row.replicates == 5

    def test_same_master_seed_reproduces_the_sweep(self):
        a = sk.randomness_sweep(20, 40, [0, 10, 20], replicates=4, seed=11)
        b = sk.randomness_sweep(20, 40, [0, 10, 20], replicates=4, seed=11)
        assert a == b

    def test_edges_sweep_parameters_match_grid(self):
        grid = [10, 20, 30]
        sweep = sk.edges_sweep(12, grid, "random", replicates=3, seed=2)
        assert [row.parameter for row in sweep] == grid

    def test_lattice_rows_collapse_to_single_replicate(self):
        sweep = sk.edges_sweep(12, [10, 20], "lattice", replicates=7, seed=0)
        for row in sweep:
            assert row.replicates == 1
            assert row.sd_modules == 0.0

    @pytest.mark.parametrize("run,calls", [
        (lambda: sk.randomness_sweep(20, 40, [0, 10, 20], replicates=4, seed=1), 3 * 4),
        (lambda: sk.edges_sweep(20, [30, 60], "random", replicates=5, seed=1), 2 * 5),
        (lambda: sk.edges_sweep(20, [30, 60], "lattice", replicates=5, seed=1), 2 * 1),
    ], ids=["rewire", "random", "lattice"])
    def test_one_greedy_call_per_grid_value_and_replicate(self, monkeypatch, run, calls):
        # the benchmark's tracer checks each partition at this call, so no
        # sweep may batch graphs past it
        seen = []
        greedy = modularity.greedy_modularity

        def counting(g):
            seen.append(g)
            return greedy(g)

        monkeypatch.setattr(modularity, "greedy_modularity", counting)
        sweep = run()
        assert len(seen) == calls == sum(row.replicates for row in sweep)

    def test_empty_grids_are_refused(self):
        with pytest.raises(ValidationError, match="rewiring grid is empty"):
            sk.randomness_sweep(12, 18, [], replicates=2, seed=0)
        for topology in ("lattice", "random"):
            with pytest.raises(ValidationError, match="edge grid is empty"):
                sk.edges_sweep(12, [], topology, replicates=2, seed=0)

    @pytest.mark.parametrize("run,message", [
        (lambda: sk.randomness_sweep(12, 18, [0], replicates=0, seed=0), "replicates must be >= 1"),
        (lambda: sk.edges_sweep(12, [10], "ring", replicates=2, seed=0),
         "topology must be 'lattice' or 'random', got 'ring'"),
        (lambda: sk.randomness_sweep(12, 18, [0.5], 2, 0),
         "rewiring grid value must be an integer, got 0.5"),
        (lambda: sk.edges_sweep(12, [20.7], "random", 2, 0),
         "edge grid value must be an integer, got 20.7"),
        (lambda: sk.edges_sweep(12, [10, True], "lattice", 2, 0),
         "edge grid value must be an integer, got True"),
        (lambda: sk.randomness_sweep(12, 18, [0], True, 0), "replicates must be an integer, got True"),
        (lambda: sk.randomness_sweep(12, 18, [0], 2.5, 0), "replicates must be an integer, got 2.5"),
        (lambda: sk.edges_sweep(12, [10], "lattice", 2.5, 0),
         "replicates must be an integer, got 2.5"),
        (lambda: sk.randomness_sweep(12, 18, [0], 2, 2.5), "seed must be an integer, got 2.5"),
        (lambda: sk.edges_sweep(12, [10], "random", 2, True), "seed must be an integer, got True"),
    ], ids=["no-replicates", "unknown-topology", "float-rewiring", "float-edges", "bool-edges",
            "bool-replicates", "float-replicates", "lattice-float-replicates", "float-sweep-seed",
            "bool-sweep-seed"])
    def test_bad_arguments_are_refused(self, run, message):
        with pytest.raises(ValidationError) as err:
            run()
        assert str(err.value) == message

    def test_csv_serialization(self, tmp_path):
        sweep = sk.edges_sweep(10, [5, 10], "random", replicates=2, seed=3)
        target = tmp_path / "sweep.csv"
        spnio.write_sweep(target, sweep)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "parameter,replicates,mean_modules,sd_modules"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "5"
