"""Mean, differential, and node-level SPN pipelines."""

import numpy as np
import pytest

import spnkit as sk
from spnkit.errors import DataError, DegenerateStatisticsWarning, ValidationError

from datasets import (
    dataset_from_z,
    noise_dataset,
    planted_mean_dataset,
    planted_trend_dataset,
    signal_dataset,
    stack_from_z,
)

# how the SPNs warn of tables with equal condition means and no residual
FLAT = "zero residual and zero condition variance (F = 0/0) and are reported as F = 0, p = 1"


def rederived_adjacency(result: sk.SpnResult, sign_rule) -> np.ndarray:
    """The network that the decision mask and the signs of ``result`` give,
    hypothesis h being edge h of np.triu_indices(N_V, k=1)."""
    n = result.network.n_nodes
    rows, cols = np.triu_indices(n, k=1)
    kept = result.correction.rejected & sign_rule(result.sign)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    adjacency[rows[kept], cols[kept]] = adjacency[cols[kept], rows[kept]] = 1
    return adjacency


class TestStudyDatasetValidation:
    def test_rejects_out_of_range(self):
        corr = np.zeros((2, 2, 3, 3))
        corr[0, 0, 0, 1] = corr[0, 0, 1, 0] = 1.5
        with pytest.raises(ValidationError):
            sk.StudyDataset(corr, ("a", "b", "c"), ("c0", "c1"), ("s0", "s1"))

    def test_rejects_unit_correlation_naming_subject_condition_and_cell(self):
        corr = np.zeros((3, 2, 3, 3))
        corr[:, :, 0, 1] = corr[:, :, 1, 0] = 0.4
        labels, conditions, subjects = ("a", "b", "c"), ("rest", "task"), ("s0", "s1", "s7")
        for r in (1.0, -1.0):
            corr[2, 1, 0, 2] = corr[2, 1, 2, 0] = r
            with pytest.raises(ValidationError) as err:
                sk.StudyDataset(corr, labels, conditions, subjects)
            message = str(err.value)
            assert "'s7'" in message and "'task'" in message and "(0,2)" in message
            assert "(-1, 1)" in message
        corr[2, 1, 0, 2] = corr[2, 1, 2, 0] = -0.999
        data = sk.StudyDataset(corr, labels, conditions, subjects)
        sk.mean_spn(data, condition=1)  # the accepted dataset has finite Fisher z

    def test_rejects_missing_cells(self):
        corr = np.zeros((2, 2, 3, 3))
        corr[1, 1, 0, 1] = corr[1, 1, 1, 0] = np.nan
        with pytest.raises(ValidationError):
            sk.StudyDataset(corr, ("a", "b", "c"), ("c0", "c1"), ("s0", "s1"))

    def test_rejects_nonhollow_cell(self):
        corr = np.zeros((1, 1, 2, 2))
        corr[0, 0] = np.eye(2)
        with pytest.raises(ValidationError):
            sk.StudyDataset(corr, ("a", "b"), ("c0",), ("s0",))

    def test_cells_are_stored_symmetrized_in_a_frozen_copy(self):
        corr = np.zeros((1, 1, 3, 3))
        corr[0, 0, 0, 1], corr[0, 0, 1, 0] = 0.3, 0.3 + 1e-12
        corr[0, 0, 2, 2] = 1e-12
        data = sk.StudyDataset(corr, ("a", "b", "c"), ("c0",), ("s0",))
        stored = data.correlations()[0, 0]
        np.testing.assert_array_equal(stored, stored.T)
        assert stored[2, 2] == 0.0
        assert corr[0, 0, 1, 0] == 0.3 + 1e-12 and corr[0, 0, 2, 2] == 1e-12
        assert not data.edge_values.flags.writeable


    @pytest.mark.parametrize("cell,values,message", [
        ((0, 2), (np.nan, np.nan), "entry (0,2) = nan outside the open correlation range (-1, 1)"),
        ((1, 1), (np.nan, np.nan), "entry (1,1) = nan is not finite"),
        ((0, 2), (0.9, 0.2), "not symmetric at (0,2): 0.9 vs 0.2"),
    ])
    def test_bad_cell_names_subject_condition_and_cell(self, cell, values, message):
        corr = np.zeros((2, 2, 3, 3))
        (a, b), (upper, lower) = cell, values
        corr[1, 1, a, b], corr[1, 1, b, a] = upper, lower
        with pytest.raises(DataError) as err:
            sk.StudyDataset(corr, ("a", "b", "c"), ("rest", "task"), ("s0", "s7"))
        assert str(err.value) == f"correlations[subject 's7', condition 'task']: {message}"

    @pytest.mark.parametrize("build,message", [
        (lambda: sk.StudyDataset(np.zeros((2, 2, 4, 4)), ("a", "b", "c"), ("c0", "c1"),
                                 ("s0", "s1")),
         "3 node labels for a 4-node dataset"),
        (lambda: sk.StudyDataset(np.zeros((2, 2, 3, 3)), ("a", "b", "c"), ("c0", "c1"),
                                 ("s0", "s1"), np.zeros((3, 2))),
         "node_coords must have shape (3, 3), got (3, 2)"),
        (lambda: sk.NodeSignalDataset(np.ones((2, 2, 4)), ("a", "b", "c"), ("c0", "c1"),
                                      ("s0", "s1")),
         "3 node labels for a 4-node dataset"),
        (lambda: sk.NodeSignalDataset(np.ones((2, 2, 3)), ("a", "b", "c"), ("c0", "c1", "c2"),
                                      ("s0", "s1")),
         "3 condition labels for 2 conditions"),
        (lambda: sk.StudyDataset(np.zeros((2, 3, 3)), ("a", "b", "c"), ("c0", "c1"), ("s0", "s1")),
         "correlations must have shape (n, J, N_V, N_V), got (2, 3, 3)"),
        (lambda: sk.NodeSignalDataset(np.ones((2, 3)), ("a", "b", "c"), ("c0",), ("s0", "s1")),
         "signals must have shape (n, J, N_V), got (2, 3)"),
        (lambda: sk.StudyDataset(np.zeros((2, 2, 3, 3)), ("a", "b", "c"), ("c0", "c1"), ("s0",)),
         "1 subject ids for 2 subjects"),
        (lambda: sk.StudyDataset(np.zeros((1, 1, 3, 3)), ("a", "b", "a"), ("c0",), ("s0",)),
         "node label 'a' is repeated at nodes 0 and 2"),
        (lambda: sk.StudyDataset(np.zeros((1, 1, 3, 3)), ("a", "b\r", "c"), ("c0",), ("s0",)),
         "node label 'b\\r' holds a carriage return"),
        (lambda: sk.StudyDataset(np.zeros((1, 2, 3, 3)), ("a", "b", "c"), ("c0", "c\r1"), ("s0",)),
         "condition label 'c\\r1' holds a carriage return"),
        (lambda: sk.NodeSignalDataset(np.ones((2, 1, 3)), ("a", "b", "c"), ("c0",), ("s0", "\rs1")),
         "subject id '\\rs1' holds a carriage return"),
    ], ids=["study-labels", "study-coords", "signal-labels", "signal-conditions", "study-ndim",
            "signal-ndim", "study-subjects", "study-repeated-label", "study-label-cr",
            "study-condition-cr", "signal-subject-cr"])
    def test_label_and_coords_errors(self, build, message):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message

    def test_node_coords_are_a_frozen_copy(self):
        coords = np.arange(9.0).reshape(3, 3)
        data = sk.StudyDataset(np.zeros((1, 1, 3, 3)), ("a", "b", "c"), ("c0",), ("s0",), coords)
        assert coords.flags.writeable
        assert not np.shares_memory(coords, data.node_coords)
        assert not data.node_coords.flags.writeable
        np.testing.assert_array_equal(data.node_coords, coords)

    def test_non_finite_signal_names_subject_condition_and_node(self):
        values = np.ones((2, 2, 3))
        values[1, 0, 2] = np.inf
        with pytest.raises(DataError) as err:
            signal_dataset(values)
        assert str(err.value) == (
            "signals[subject 's1', condition 'c0']: node 2 (n2) has non-finite signal value inf"
        )


class TestMeanSpn:
    def test_condition_pinned_at_grand_mean_yields_empty_spn(self):
        # condition 0 sits exactly at the grand mean; condition 1 varies
        # symmetrically around it, leaving the grand mean unchanged.
        zc = 0.3
        n, n_e = 4, 3
        z = np.full((n, 2, n_e), zc)
        z[:2, 1, :] += 0.2
        z[2:, 1, :] -= 0.2
        result = sk.mean_spn(dataset_from_z(z), condition=0, base_rate=0.05)
        assert result.network.edge_count == 0
        # statistics vanish up to the tanh/arctanh storage round trip
        assert all(abs(t) < 1e-10 for t in result.statistic)

    def test_planted_edge_recovered_exactly(self):
        rng = np.random.default_rng(42)
        planted = 17
        data = planted_mean_dataset(rng, planted, effect=1.0)
        result = sk.mean_spn(data, condition=1, base_rate=0.05)
        rows, cols = np.triu_indices(data.n_nodes, k=1)
        assert result.network.edge_count == 1
        assert result.network.adjacency[rows[planted], cols[planted]] == 1

    def test_vanishing_base_rate_empties_the_spn(self):
        rng = np.random.default_rng(0)
        data = planted_mean_dataset(rng, 3, effect=1.0, n=6, n_v=6)
        result = sk.mean_spn(data, condition=0, base_rate=1e-300)
        assert result.network.edge_count == 0

    def test_negative_effects_are_excluded(self):
        rng = np.random.default_rng(5)
        n_e = 10 * 9 // 2
        z = rng.normal(0.0, 0.1, size=(10, 2, n_e))
        z[:, :, 7] -= 2.0  # strongly sub-mean edge
        result = sk.mean_spn(dataset_from_z(z), condition=0, base_rate=0.05)
        rows, cols = np.triu_indices(10, k=1)
        assert result.sign[7] == -1
        assert result.network.adjacency[rows[7], cols[7]] == 0

    def test_constant_dataset_degenerates_with_warning(self):
        z = np.full((3, 2, 6), 0.25)
        with pytest.warns(DegenerateStatisticsWarning):
            result = sk.mean_spn(dataset_from_z(z), condition=0)
        assert result.network.edge_count == 0
        assert all(p == 1.0 for p in result.p_value)

    def test_monotone_in_base_rate(self):
        rng = np.random.default_rng(11)
        data = noise_dataset(rng, n=8, j=2, n_v=8, sigma=0.3)
        loose = sk.mean_spn(data, 0, base_rate=0.2).network.adjacency
        tight = sk.mean_spn(data, 0, base_rate=0.02).network.adjacency
        assert np.all(loose[tight.astype(bool)] == 1)

    def test_network_rederivable_from_statistics(self):
        rng = np.random.default_rng(13)
        data = planted_mean_dataset(rng, 5, effect=0.8, n=10, n_v=8)
        result = sk.mean_spn(data, condition=0)
        derived = rederived_adjacency(result, lambda s: s > 0)
        assert np.array_equal(derived, result.network.adjacency)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        data = planted_mean_dataset(rng, 4, effect=1.0, n=8, n_v=7)
        perm = rng.permutation(7)
        permuted = sk.StudyDataset(
            data.correlations()[:, :, perm][:, :, :, perm],
            tuple(data.node_labels[i] for i in perm),
            data.condition_labels,
            data.subject_ids,
        )
        base = sk.mean_spn(data, 0).network.adjacency
        shuffled = sk.mean_spn(permuted, 0).network.adjacency
        inverse = np.argsort(perm)
        assert np.array_equal(shuffled[np.ix_(inverse, inverse)], base)

    def test_uncorrected_mode(self):
        rng = np.random.default_rng(3)
        data = noise_dataset(rng, n=6, j=2, n_v=6, sigma=0.25)
        result = sk.mean_spn(data, 0, base_rate=0.01, correction="none")
        assert np.array_equal(result.correction.rejected, result.p_value < 0.01)

    def test_condition_index_validated(self):
        rng = np.random.default_rng(1)
        data = noise_dataset(rng, n=3, j=2, n_v=4)
        with pytest.raises(ValidationError):
            sk.mean_spn(data, 5)


class TestPipelineRefusals:
    @pytest.mark.parametrize("run,message", [
        (lambda: sk.mean_spn(noise_dataset(np.random.default_rng(0), n=3, j=2, n_v=4), 0,
                             correction="bonferroni"),
         "correction must be one of ('fdr', 'none'), got 'bonferroni'"),
        (lambda: sk.mean_spn(noise_dataset(np.random.default_rng(0), n=1, j=2, n_v=4), 0),
         "mean SPN needs at least 2 subjects"),
        (lambda: sk.differential_spn(noise_dataset(np.random.default_rng(0), n=3, j=1, n_v=4)),
         "differential SPN needs n >= 2 subjects and J >= 2 conditions"),
        (lambda: sk.node_differential_spn(signal_dataset(np.ones((3, 1, 4)))),
         "node differential SPN needs n >= 2 and J >= 2"),
    ], ids=["mean-correction", "mean-one-subject", "differential-one-condition",
            "node-differential-one-condition"])
    def test_refusals_name_the_rule(self, run, message):
        with pytest.raises(ValidationError) as err:
            run()
        assert str(err.value) == message


class TestDifferentialSpn:
    def test_identical_conditions_give_empty_pair(self):
        rng = np.random.default_rng(2)
        column = rng.normal(0.0, 0.3, size=(5, 1, 10 * 9 // 2))
        z = np.repeat(column, 3, axis=1)
        # each subject's row is constant too, so every table has no residual
        with pytest.warns(DegenerateStatisticsWarning) as record:
            plus, minus = sk.differential_spn(dataset_from_z(z))
        assert [str(w.message) for w in record] == [
            f"45 fit(s) have {FLAT}; first: edge (0, 1)"]
        assert plus.network.edge_count == 0
        assert minus.network.edge_count == 0

    def test_declining_edge_lands_in_minus_only(self):
        rng = np.random.default_rng(4)
        data = planted_trend_dataset(rng, edge_up=2, edge_down=30)
        plus, minus = sk.differential_spn(data)
        upper = np.triu_indices(data.n_nodes, k=1)
        plus_edges, minus_edges = plus.network.adjacency[upper], minus.network.adjacency[upper]
        assert minus_edges[30] and not plus_edges[30]
        assert plus_edges[2] and not minus_edges[2]

    def test_reversing_conditions_swaps_memberships(self):
        rng = np.random.default_rng(6)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=8, n=10, n_v=8)
        reversed_data = sk.StudyDataset(
            data.correlations()[:, ::-1],
            data.node_labels,
            tuple(reversed(data.condition_labels)),
            data.subject_ids,
        )
        plus, minus = sk.differential_spn(data)
        rplus, rminus = sk.differential_spn(reversed_data)
        assert np.array_equal(plus.network.adjacency, rminus.network.adjacency)
        assert np.array_equal(minus.network.adjacency, rplus.network.adjacency)

    def test_zero_trend_effect_goes_to_diagnostics(self):
        # symmetric profile over four conditions: strong effect, zero contrast
        z = np.zeros((4, 4, 3))
        z[:, :, 0] = [0.0, 1.0, 1.0, 0.0]
        with pytest.warns(DegenerateStatisticsWarning) as record:
            plus, minus = sk.differential_spn(dataset_from_z(z))
        assert [str(w.message) for w in record] == [
            "1 fit(s) have zero residual variance and are reported as p = 0 (infinite F); "
            "first: edge (0, 1)",
            f"2 fit(s) have {FLAT}; first: edge (0, 2)",  # the all-zero edges
        ]
        assert (0, 1) in plus.diagnostics
        assert plus.network.adjacency[0, 1] == minus.network.adjacency[0, 1] == 0

    def test_networks_rederivable(self):
        rng = np.random.default_rng(8)
        data = planted_trend_dataset(rng, edge_up=0, edge_down=12, n=12, n_v=8)
        plus, minus = sk.differential_spn(data)
        assert np.array_equal(rederived_adjacency(plus, lambda s: s > 0), plus.network.adjacency)
        assert np.array_equal(rederived_adjacency(minus, lambda s: s < 0), minus.network.adjacency)

    def test_a_one_node_study_tests_nothing(self):
        data = sk.StudyDataset(np.zeros((3, 2, 1, 1)), ["a"], ["c0", "c1"], ["s0", "s1", "s2"])
        plus, minus = sk.differential_spn(data)
        assert plus.statistic.size == plus.p_value.size == plus.sign.size == 0
        assert plus.diagnostics == () and minus.network.edge_count == 0

    def test_shared_fdr_family(self):
        rng = np.random.default_rng(9)
        data = planted_trend_dataset(rng, edge_up=0, edge_down=5, n=8, n_v=6)
        plus, minus = sk.differential_spn(data)
        assert plus.correction is minus.correction


class TestNodeDifferentialSpn:
    def test_constant_signals_flag_nothing(self):
        signals = np.ones((4, 3, 5))
        with pytest.warns(DegenerateStatisticsWarning) as record:
            plus, minus = sk.node_differential_spn(signal_dataset(signals))
        assert [str(w.message) for w in record] == [f"5 fit(s) have {FLAT}; first: node 0 (n0)"]
        assert plus.flagged_nodes == ()
        assert minus.flagged_nodes == ()

    def test_planted_increasing_vertex_flagged_up_only(self):
        rng = np.random.default_rng(10)
        signals = rng.normal(0.0, 0.1, size=(10, 4, 6))
        signals[:, :, 2] += np.linspace(0.0, 1.0, 4)
        plus, minus = sk.node_differential_spn(signal_dataset(signals))
        assert 2 in plus.flagged_nodes
        assert 2 not in minus.flagged_nodes
        assert plus.network.edge_count == 0

    def test_sign_flip_swaps_directions(self):
        rng = np.random.default_rng(12)
        signals = rng.normal(0.0, 0.1, size=(8, 3, 4))
        signals[:, :, 1] += np.linspace(0.0, 1.0, 3)
        up, down = sk.node_differential_spn(signal_dataset(signals))
        fup, fdown = sk.node_differential_spn(signal_dataset(-signals))
        assert up.flagged_nodes == fdown.flagged_nodes
        assert down.flagged_nodes == fup.flagged_nodes


class TestConstantTables:
    """A table that holds one value in every cell, at the paper's 20 x 4 x
    112 shape, is reported as F = 0 and p = 1 (F = 0/0) and warned of,
    whatever the value: rounding in its means must not pass for an effect."""

    VALUES = np.arctanh([0.0, 0.1, 0.2, 0.3, 0.45, 0.6])

    def assert_flat(self, result, held):
        assert result.statistic[held].tolist() == [0.0] * len(held)
        assert result.p_value[held].tolist() == [1.0] * len(held)
        assert result.sign[held].tolist() == [0] * len(held)
        assert not result.correction.rejected[held].any()

    def test_edge_pipeline(self):
        rng = np.random.default_rng(15)
        stack = stack_from_z(rng.normal(0.0, 0.2, size=(20, 4, 6216)))
        rows, cols = np.triu_indices(112, k=1)
        held = [0, 1500, 3000, 4500, 6000, 6215]  # in several blocks of the fit
        for e, r in zip(held, np.tanh(self.VALUES)):
            stack[:, :, rows[e], cols[e]] = stack[:, :, cols[e], rows[e]] = r
        data = sk.StudyDataset(stack, [f"n{v}" for v in range(112)],
                               ["c0", "c1", "c2", "c3"], [f"s{i}" for i in range(20)])
        with pytest.warns(DegenerateStatisticsWarning) as record:
            plus, minus = sk.differential_spn(data)
        assert [str(w.message) for w in record] == [f"6 fit(s) have {FLAT}; first: edge (0, 1)"]
        self.assert_flat(plus, held)
        assert not plus.network.adjacency[rows[held], cols[held]].any()
        assert not minus.network.adjacency[rows[held], cols[held]].any()

    def test_node_pipeline(self):
        rng = np.random.default_rng(16)
        signals = rng.normal(0.0, 0.2, size=(20, 4, 112))
        held = [3, 20, 40, 60, 80, 111]
        signals[:, :, held] = self.VALUES
        with pytest.warns(DegenerateStatisticsWarning) as record:
            plus, minus = sk.node_differential_spn(signal_dataset(signals))
        assert [str(w.message) for w in record] == [f"6 fit(s) have {FLAT}; first: node 3 (n3)"]
        self.assert_flat(plus, held)
        assert not set(held) & set(plus.flagged_nodes + minus.flagged_nodes)


class TestZeroResidualWarningNamesTheCaller:
    """The zero-residual warning points at the line that called the SPN
    function, not at spnkit's own helpers."""

    def test_differential_spn(self):
        z = np.zeros((4, 4, 3))
        z[:, :, 0] = [0.0, 1.0, 1.0, 0.0]
        with pytest.warns(DegenerateStatisticsWarning, match="zero residual") as record:
            sk.differential_spn(dataset_from_z(z))
        assert {w.filename for w in record} == {__file__}

    def test_node_differential_spn(self):
        rng = np.random.default_rng(14)
        signals = rng.normal(0.0, 0.1, size=(4, 3, 5))
        signals[:, :, 3] = [0.0, 1.0, 2.0]  # the same profile for every subject
        with pytest.warns(DegenerateStatisticsWarning, match=r"node 3 \(n3\)") as record:
            sk.node_differential_spn(signal_dataset(signals))
        assert {w.filename for w in record} == {__file__}


class TestThresholdAveragingDisagreement:
    """Binarizing and combining do not commute; inference bypasses both."""

    def test_witness_dataset_separates_the_procedures(self):
        # edge (0,1): one strong and one weak observation averaging to 0.5
        z = sk.fisher_z(np.array([[0.9, 0.2, 0.1], [0.1, 0.2, 0.3]]))
        data = dataset_from_z(z[:, None, :])
        tau = 0.4
        mean_matrix = data.correlations().mean(axis=(0, 1))
        mean_then_threshold = sk.threshold(mean_matrix, tau)
        votes = np.zeros((3, 3))
        for i in range(2):
            votes += sk.threshold(data.correlations()[i, 0], tau).adjacency
        majority = sk.BinaryGraph.from_adjacency((votes > 1).astype(int))
        assert mean_then_threshold.adjacency[0, 1] == 1
        assert majority.adjacency[0, 1] == 0
        assert not np.array_equal(mean_then_threshold.adjacency, majority.adjacency)
        # the SPN is built from per-edge statistics, not either graph above
        result = sk.mean_spn(data, 0)
        derived = rederived_adjacency(result, lambda s: s > 0)
        assert np.array_equal(derived, result.network.adjacency)
