"""Manifest loading, standardization, exporters, report bundle, and the CLI."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import spnkit as sk
from spnkit import cli as cli_mod
from spnkit import io as spnio
from spnkit.cli import main as cli_main
from spnkit.errors import DataError, IncompleteDesignError, SchemaError, ValidationError

from datasets import planted_trend_dataset


def write_matrix(path, m):
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")


def hollow(n, value):
    m = np.full((n, n), float(value))
    np.fill_diagonal(m, 0.0)
    return m


def build_manifest(tmp_path, corr, labels, conditions, subjects,
                   coords=None, signals=None, options=None):
    """Write matrix CSVs plus a schema-1 manifest; returns the manifest path."""
    files = {}
    for si, s in enumerate(subjects):
        files[s] = {}
        for ci, c in enumerate(conditions):
            name = f"{s}_{c}.csv"
            write_matrix(tmp_path / name, corr[si][ci])
            files[s][c] = name
    payload = {
        "schema": 1,
        "subjects": list(subjects),
        "conditions": list(conditions),
        "nodes": {"labels": list(labels), "coords": coords},
        "files": files,
    }
    if signals is not None:
        signal_files = {}
        for si, s in enumerate(subjects):
            signal_files[s] = {}
            for ci, c in enumerate(conditions):
                name = f"{s}_{c}_signal.csv"
                (tmp_path / name).write_text(
                    ",".join(repr(float(x)) for x in signals[si][ci]) + "\n"
                )
                signal_files[s][c] = name
        payload["signal_files"] = signal_files
    if options is not None:
        payload["options"] = options
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload, indent=2))
    return path


@pytest.fixture
def small_manifest(tmp_path):
    corr = [
        [hollow(3, 0.2), hollow(3, 0.4)],
        [hollow(3, 0.3), hollow(3, 0.5)],
    ]
    return build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"], ["s1", "s2"])


def run_cli(args):
    # isolate the CLI's global warning-filter mutations from other tests
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sk.DegenerateStatisticsWarning)
        return cli_main(args)


class TestLoadDataset:
    def test_structural(self, small_manifest):
        data = sk.load_dataset(small_manifest)
        assert data.n_subjects == 2
        assert data.n_conditions == 2
        assert data.n_nodes == 3
        assert data.node_labels == ("A", "B", "C")

    def test_missing_cell_names_the_cell(self, tmp_path):
        corr = [[hollow(3, 0.2), hollow(3, 0.4)], [hollow(3, 0.3), hollow(3, 0.5)]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"], ["s1", "s2"])
        payload = json.loads(path.read_text())
        del payload["files"]["s2"]["task"]
        path.write_text(json.dumps(payload))
        with pytest.raises(IncompleteDesignError, match="s2.*task"):
            sk.load_dataset(path)

    def test_out_of_range_entry_names_file_and_indices(self, tmp_path):
        bad = hollow(3, 0.2)
        bad[0, 1] = bad[1, 0] = 1.5
        corr = [[bad]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest"], ["s1"])
        with pytest.raises(DataError, match=r"s1_rest\.csv.*\(0,1\)"):
            sk.load_dataset(path)

    def test_unit_correlation_names_file_and_cell(self, tmp_path):
        bad = hollow(3, 0.2)
        bad[1, 2] = bad[2, 1] = -1.0
        path = build_manifest(tmp_path, [[bad]], ["A", "B", "C"], ["rest"], ["s1"])
        with pytest.raises(DataError, match=r"s1_rest\.csv: entry \(1,2\) = -1\.0 outside"):
            sk.load_dataset(path)

    def test_asymmetric_matrix_message_prints_plain_floats(self, tmp_path):
        bad = hollow(3, 0.2)
        bad[0, 1] = 0.9
        path = build_manifest(tmp_path, [[bad]], ["A", "B", "C"], ["rest"], ["s1"])
        with pytest.raises(DataError) as err:
            sk.load_dataset(path)
        assert str(err.value) == f"{tmp_path / 's1_rest.csv'}: not symmetric at (0,1): 0.9 vs 0.2"

    def test_asymmetric_matrix_rejected(self, tmp_path):
        bad = hollow(3, 0.2)
        bad[0, 1] = 0.9
        corr = [[bad]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest"], ["s1"])
        with pytest.raises(DataError, match="not symmetric"):
            sk.load_dataset(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        corr = [[hollow(4, 0.2)]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest"], ["s1"])
        with pytest.raises(SchemaError, match="expected a 3x3"):
            sk.load_dataset(path)

    def test_missing_file_is_an_io_error(self, tmp_path):
        corr = [[hollow(3, 0.2)]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest"], ["s1"])
        (tmp_path / "s1_rest.csv").unlink()
        with pytest.raises(OSError):
            sk.load_dataset(path)

    def test_label_order_is_authoritative(self, tmp_path):
        corr = [[hollow(3, 0.2)]]
        path = build_manifest(tmp_path, corr, ["zeta", "alpha", "mid"], ["rest"], ["s1"])
        data = sk.load_dataset(path)
        assert data.node_labels == ("zeta", "alpha", "mid")

    def test_node_signals(self, tmp_path):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        path = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                              ["s1", "s2"], signals=signals)
        sig = sk.load_node_signals(path)
        assert sig.signals.shape == (2, 2, 3)
        np.testing.assert_allclose(sig.signals[1, 0], [1.1, 2.1, 3.1])


class TestInputErrorsNameTheirSource:
    def test_ragged_matrix_row_names_file_line_and_counts(self, tmp_path, capsys):
        manifest = build_manifest(tmp_path, [[hollow(3, 0.2)]], ["A", "B", "C"],
                                  ["rest"], ["s1"])
        (tmp_path / "s1_rest.csv").write_text("0.0,0.2,0.2\n0.2,0.0\n0.2,0.2,0.0\n")
        with pytest.raises(DataError, match=r"s1_rest\.csv: line 2 holds 2 values, expected 3"):
            sk.load_dataset(manifest)
        out = tmp_path / "out"
        assert run_cli(["metrics", "--manifest", str(manifest), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "s1_rest.csv: line 2 holds 2 values, expected 3 (as on line 1)" in err
        assert "usecols" not in err
        assert not out.exists()

    def test_ragged_row_after_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header comment\n\n0.0,0.2\n\n0.2,0.0,0.1\n")
        with pytest.raises(DataError, match=r"line 5 holds 3 values, expected 2 \(as on line 3\)"):
            spnio.load_matrix_csv(path)

    def test_undecodable_matrix_is_a_data_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.0,\xff\n0.2,0.0\n")
        with pytest.raises(DataError, match=r"m\.csv: cannot parse matrix"):
            spnio.load_matrix_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_signal_names_file_and_node(self, tmp_path, capsys, value):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        (tmp_path / "s2_task_signal.csv").write_text(f"1.6,{value},3.6\n")
        out = tmp_path / "out"
        code = run_cli(["spn", "node-diff", "--manifest", str(manifest), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"s2_task_signal.csv: node 1 (B) has non-finite signal value {float(value)!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [[1, 2.5], [1.0, 2.0], ["3"], "1:10", [True]])
    def test_non_integer_manifest_density_grid_is_refused(self, tmp_path, capsys, grid):
        manifest = build_manifest(tmp_path, [[hollow(3, 0.2)]], ["A", "B", "C"],
                                  ["rest"], ["s1"], options={"density_grid": grid})
        with pytest.raises(SchemaError, match=r"manifest\.json: options\.density_grid"):
            sk.parse_manifest(manifest)
        code = run_cli(["density-profile", "--manifest", str(manifest),
                        "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "options.density_grid must be a list of integers" in capsys.readouterr().err


def refused(capsys, args, out) -> str:
    """Run the CLI, expect exit 2 and no --out-dir left behind; return stderr."""
    assert run_cli([*args, "--out-dir", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


def edit_manifest(path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


class TestSignedInputRefusal:
    @pytest.fixture
    def signed_manifest(self, tmp_path):
        """Every 'task' cell holds r = -0.3 at (0,2); every 'rest' cell is positive."""
        task = hollow(3, 0.2)
        task[0, 2] = task[2, 0] = -0.3
        corr = [[hollow(3, 0.2), task], [hollow(3, 0.3), task]]
        return build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"], ["s1", "s2"])

    @pytest.mark.parametrize("command", [["metrics", "--tau", "0.1"], ["report"]])
    def test_cell_refusal_names_subject_condition_cell_and_flag(self, signed_manifest, tmp_path,
                                                                 capsys, command):
        err = refused(capsys, [*command, "--manifest", str(signed_manifest)], tmp_path / "out")
        assert ("association matrix of subject 's1', condition 'task' has negative entry "
                "-0.3 at (0,2); rerun with --abs") in err

    def test_condition_mean_refusal_names_the_condition(self, signed_manifest, tmp_path, capsys):
        err = refused(capsys, ["density-profile", "--manifest", str(signed_manifest)],
                      tmp_path / "out")
        assert "condition-mean association matrix of condition 'task' has negative entry" in err
        assert "at (0,2); rerun with --abs" in err
        assert "np.float64" not in err

    def test_library_refusal_names_the_keyword(self):
        m = np.array([[0.0, -0.5], [-0.5, 0.0]])
        with pytest.raises(DataError, match=r"negative entry -0\.5 at \(0,1\).*negatives='abs'"):
            sk.association_graph(m)


class TestManifestErrors:
    @pytest.mark.parametrize("change,message", [
        (lambda p: p.pop("files"), "missing manifest key 'files'"),
        (lambda p: p.update(subjects=["s1", "s1"]), "duplicate subject or condition ids"),
        (lambda p: p["nodes"].pop("labels"), "nodes must carry a 'labels' list"),
        (lambda p: p["nodes"].update(coords=[[1, 2, 3]]), "nodes.coords must be 3 3-vectors"),
        (lambda p: p["nodes"].update(coords=[[1, 2, 3], [4, 5], [6, 7, 8]]),
         "nodes.coords must be 3 3-vectors"),
        (lambda p: p["files"].update(s9={"rest": "s1_rest.csv"}), "files names unknown subject 's9'"),
        (lambda p: p["files"]["s1"].update(nap="s1_rest.csv"), "files names unknown condition 'nap'"),
        (lambda p: p.update(subjects="s1"), "subjects must be a list, got a string"),
        (lambda p: p.update(conditions={"rest": 0}), "conditions must be a list, got an object"),
        (lambda p: p.update(nodes=["A", "B", "C"]), "nodes must be an object, got a list"),
        (lambda p: p["nodes"].update(labels="ABC"), "nodes.labels must be a list, got a string"),
        (lambda p: p.update(files=[]), "files must be an object, got a list"),
        (lambda p: p["files"].update(s1="s1_rest.csv"), "files['s1'] must be an object, got a string"),
        (lambda p: p["files"]["s1"].update(rest=None),
         "files['s1']['rest'] must be a string, got null"),
        (lambda p: p.update(signal_files={"s1": ["a.csv"]}),
         "signal_files['s1'] must be an object, got a list"),
        (lambda p: p.update(options=[]), "options must be an object, got a list"),
        (lambda p: p.update(options={"standardize": "false"}),
         "options.standardize must be a boolean, got a string"),
        (lambda p: p.update(options={"base_rate": "0.01"}),
         "options.base_rate must be a number, got a string"),
    ])
    def test_refused_with_manifest_and_key(self, small_manifest, tmp_path, capsys, change,
                                           message):
        edit_manifest(small_manifest, change)
        with pytest.raises(SchemaError):
            sk.parse_manifest(small_manifest)
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert f"{small_manifest}: {message}" in err

    @pytest.mark.parametrize("text,message", [
        ("[]", "the manifest must be an object, got a list"),
        ("{\"schema\": 1,", "not valid JSON"),
    ])
    def test_unreadable_top_level(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        err = refused(capsys, ["metrics", "--manifest", str(manifest)], tmp_path / "out")
        assert f"{manifest}: {message}" in err


class TestInputErrorBranches:
    @pytest.mark.parametrize("args", [
        ["density-profile", "--manifest", "MANIFEST", "--grid"],
        ["simulate", "rewire", "--n-v", "10", "--n-e", "15", "--replicates", "2", "--grid"],
    ])
    @pytest.mark.parametrize("grid,message", [
        ("1:2:3:4", "bad grid syntax '1:2:3:4'"),
        ("10:5", "bad grid range '10:5'"),
    ])
    def test_bad_grid(self, small_manifest, tmp_path, capsys, args, grid, message):
        args = [str(small_manifest) if a == "MANIFEST" else a for a in args]
        assert message in refused(capsys, [*args, grid], tmp_path / "out")

    @pytest.mark.parametrize("condition,message", [
        ("nap", "unknown condition 'nap'; choose from ['rest', 'task'] or an index"),
        ("2", "condition index 2 out of range 0..1"),
    ])
    def test_bad_condition(self, small_manifest, tmp_path, capsys, condition, message):
        err = refused(capsys, ["spn", "mean", "--manifest", str(small_manifest),
                               "--condition", condition], tmp_path / "out")
        assert message in err

    @pytest.mark.parametrize("text,message", [
        ("1.6,3.6\n", "expected 3 signal values, got 2"),
        ("1.6,abc,3.6\n", "cannot parse signal vector"),
    ])
    def test_bad_signal_file(self, tmp_path, capsys, text, message):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        (tmp_path / "s2_task_signal.csv").write_text(text)
        err = refused(capsys, ["spn", "node-diff", "--manifest", str(manifest)], tmp_path / "out")
        assert f"{tmp_path / 's2_task_signal.csv'}: {message}" in err

    def test_non_square_matrix(self, small_manifest, tmp_path, capsys):
        (tmp_path / "s2_rest.csv").write_text("0.0,0.3,0.3\n0.3,0.0,0.3\n")
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert f"{tmp_path / 's2_rest.csv'}: expected a square matrix, got shape (2, 3)" in err


class TestStandardizeWeights:
    def test_order_preserved_and_max_maps_to_one(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.2
        m[0, 2] = m[2, 0] = 0.6
        m[1, 2] = m[2, 1] = 1.0
        g = sk.standardize_weights(sk.WeightedGraph.from_matrix(m))
        w = g.weights
        assert w[1, 2] == 1.0
        assert 0.0 < w[0, 1] < w[0, 2] < w[1, 2]
        # monotonicity oracle: sort orders agree
        before = np.argsort(m[np.triu_indices(3, 1)])
        after = np.argsort(w[np.triu_indices(3, 1)])
        assert np.array_equal(before, after)

    def test_proportional_matrices_standardize_identically(self):
        rng = np.random.default_rng(1)
        w = np.zeros((5, 5))
        iu = np.triu_indices(5, 1)
        w[iu] = rng.uniform(0.1, 1.0, len(iu[0]))
        w = w + w.T
        a = sk.standardize_weights(sk.WeightedGraph.from_matrix(w)).weights
        b = sk.standardize_weights(sk.WeightedGraph.from_matrix(2.5 * w)).weights
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_per_density_selections_unchanged(self):
        rng = np.random.default_rng(2)
        w = np.zeros((6, 6))
        iu = np.triu_indices(6, 1)
        vals = rng.uniform(0.1, 1.0, len(iu[0]))
        vals[rng.random(len(vals)) < 0.3] = 0.0
        w[iu] = vals
        g = sk.WeightedGraph.from_matrix(w + w.T)
        s = sk.standardize_weights(g)
        for k in range(len(g.positive_edges()) + 1):
            assert sk.density_threshold(g, k).edges() == sk.density_threshold(s, k).edges()

    def test_all_equal_positive_weights_rejected(self):
        with pytest.raises(ValidationError):
            sk.standardize_weights(sk.WeightedGraph.from_matrix(hollow(4, 0.5)))


class TestExporters:
    def test_dot_structure(self, tmp_path):
        g = sk.threshold(hollow(3, 0.9), 0.5)
        path = sk.export_graph(g, "dot", tmp_path / "tri.dot")
        text = path.read_text()
        assert text.count(" -- ") == 3
        assert text.count(";") == 6  # 3 node statements + 3 edge statements

    def test_dot_embeds_coordinates(self, tmp_path):
        coords = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        g = sk.WeightedGraph(("a", "b"), np.array([[0.0, 0.8], [0.8, 0.0]]), coords)
        text = sk.export_graph(g, "dot", tmp_path / "g.dot").read_text()
        assert 'pos="1.0,2.0,3.0!"' in text
        assert "[weight=0.8]" in text

    def test_json_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        w = np.zeros((4, 4))
        iu = np.triu_indices(4, 1)
        w[iu] = rng.uniform(0.0, 1.0, len(iu[0]))
        g = sk.WeightedGraph.from_matrix(w + w.T)
        first = sk.export_graph(g, "json", tmp_path / "a.json")
        reloaded = sk.graph_from_json(first)
        second = sk.export_graph(reloaded, "json", tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_json_round_trip_binary(self, tmp_path):
        g = sk.threshold(hollow(4, 0.9), 0.5)
        path = sk.export_graph(g, "json", tmp_path / "g.json")
        back = sk.graph_from_json(path)
        assert isinstance(back, sk.BinaryGraph)
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_spn_networks_keep_coordinates_for_layout(self, tmp_path):
        corr = [
            [hollow(3, 0.2), hollow(3, 0.4)],
            [hollow(3, 0.3), hollow(3, 0.5)],
        ]
        coords = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], coords=coords)
        data = sk.load_dataset(manifest)
        result = sk.mean_spn(data, 0)
        assert result.network.node_coords is not None
        text = sk.export_graph(result.network, "dot", tmp_path / "spn.dot").read_text()
        assert 'pos="4.0,5.0,6.0!"' in text
        # coordinates survive the JSON round trip byte-identically
        first = sk.export_graph(result.network, "json", tmp_path / "a.json")
        second = sk.export_graph(sk.graph_from_json(first), "json", tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_rethreshold_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        a = (rng.random((5, 5)) < 0.4).astype(int)
        a = np.triu(a, 1)
        g = sk.BinaryGraph.from_adjacency(a + a.T)
        path = sk.export_graph(g, "csv", tmp_path / "g.csv")
        matrix = np.loadtxt(path, delimiter=",")
        assert sk.threshold(matrix, 0.5).edges() == g.edges()


class TestReportPipeline:
    def test_constant_dataset_yields_constant_table_and_empty_spns(self, tmp_path):
        corr = np.stack([np.stack([hollow(4, 0.3)] * 2)] * 3)
        data = sk.StudyDataset(corr, ("a", "b", "c", "d"), ("c0", "c1"), ("s0", "s1", "s2"))
        with pytest.warns(sk.DegenerateStatisticsWarning, match="grand SD is zero"):
            bundle = sk.report_pipeline(data, tmp_path / "out")
        densities = {row[2] for row in bundle.density_table}
        assert len(densities) == 1
        for result in bundle.mean_spns.values():
            assert result.network.edge_count == 0
        plus, minus = bundle.differential
        assert plus.network.edge_count == 0
        assert minus.network.edge_count == 0
        assert any("grand SD is zero" in note for note in bundle.warnings)

    def test_planted_dataset_lands_in_the_right_sections(self, tmp_path):
        rng = np.random.default_rng(42)
        data = planted_trend_dataset(rng, edge_up=5, edge_down=20, n=16, n_v=10)
        bundle = sk.report_pipeline(data, tmp_path / "out", negatives="abs")
        pairs = sk.edge_pairs(10)
        plus, minus = bundle.differential
        assert pairs[5] in plus.network.edges()
        assert pairs[20] in minus.network.edges()

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=4, n=8, n_v=6)
        a = sk.report_pipeline(data, tmp_path / "a", negatives="abs")
        b = sk.report_pipeline(data, tmp_path / "b", negatives="abs")
        for pa, pb in zip(a.paths, b.paths):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_writes_no_run_log(self, tmp_path):
        rng = np.random.default_rng(8)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=4, n=8, n_v=6)
        out = tmp_path / "out"
        bundle = sk.report_pipeline(data, out, negatives="abs")
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in bundle.paths)
        assert not (out / "run_log.txt").exists()


class TestCli:
    def test_spn_mean(self, small_manifest, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["spn", "mean", "--manifest", str(small_manifest),
                        "--condition", "task", "--out-dir", str(out)])
        assert code == 0
        assert (out / "mean_spn_task.json").exists()
        assert (out / "mean_spn_task_stats.csv").exists()
        assert (out / "run_log.txt").exists()

    def test_spn_mean_accepts_condition_index(self, small_manifest, tmp_path):
        code = run_cli(["spn", "mean", "--manifest", str(small_manifest),
                        "--condition", "0", "--out-dir", str(tmp_path / "o")])
        assert code == 0

    def test_spn_diff(self, small_manifest, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["spn", "diff", "--manifest", str(small_manifest),
                        "--out-dir", str(out), "--format", "dot"])
        assert code == 0
        assert (out / "differential_spn_plus.dot").exists()
        assert (out / "differential_spn_minus.dot").exists()
        assert (out / "differential_stats.csv").exists()

    def test_spn_node_diff(self, tmp_path):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        out = tmp_path / "out"
        code = run_cli(["spn", "node-diff", "--manifest", str(manifest), "--out-dir", str(out)])
        assert code == 0
        assert (out / "node_differential_stats.csv").exists()
        assert (out / "node_differential.json").exists()

    def test_node_diff_without_signals_is_a_validation_error(self, small_manifest, tmp_path):
        code = run_cli(["spn", "node-diff", "--manifest", str(small_manifest),
                        "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_metrics(self, small_manifest, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["metrics", "--manifest", str(small_manifest),
                        "--tau", "0.25", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("subject,condition,weighted_density")
        assert len(lines) == 5

    def test_density_profile(self, tmp_path):
        corr = [
            [hollow(3, 0.2), hollow(3, 0.4)],
            [hollow(3, 0.4), hollow(3, 0.6)],
        ]
        # distinct per-edge weights so the mean matrix is not degenerate
        for block in corr:
            for m in block:
                m[0, 1] = m[1, 0] = m[0, 1] + 0.1
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"], ["s1", "s2"])
        out = tmp_path / "out"
        code = run_cli(["density-profile", "--manifest", str(manifest),
                        "--metric", "global_efficiency", "--out-dir", str(out)])
        assert code == 0
        assert (out / "density_profiles.csv").exists()
        assert (out / "density_integrated.csv").exists()

    def test_simulate_rewire_and_determinism(self, tmp_path):
        args = ["simulate", "rewire", "--n-v", "12", "--n-e", "18",
                "--grid", "0,5,10", "--replicates", "3", "--seed", "9"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", str(out_a)]) == 0
        assert run_cli(args + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "rewire_sweep.csv").read_bytes() == (out_b / "rewire_sweep.csv").read_bytes()

    def test_simulate_edges(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["simulate", "edges", "--n-v", "10", "--edge-grid", "5,15,30",
                        "--topology", "random", "--replicates", "2",
                        "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        assert (out / "edges_sweep_random.csv").exists()

    @pytest.mark.parametrize("flag,args", [
        ("--grid", ["simulate", "rewire", "--n-v", "10", "--n-e", "15", "--replicates", "2"]),
        ("--edge-grid", ["simulate", "edges", "--n-v", "10", "--topology", "random",
                         "--replicates", "2"]),
        ("--grid", ["density-profile"]),
    ])
    @pytest.mark.parametrize("grid", ["0:x:50", "0,abc", "1.5"])
    def test_non_integer_grid_is_a_validation_error(self, small_manifest, tmp_path, capsys,
                                                    flag, args, grid):
        if args == ["density-profile"]:
            args = args + ["--manifest", str(small_manifest)]
        out = tmp_path / "out"
        assert run_cli([*args, flag, grid, "--out-dir", str(out)]) == 2
        assert f"grid {grid!r} holds a non-integer entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "rewire", "--n-e", "15", "--grid", ""],
        ["simulate", "edges", "--topology", "random", "--edge-grid", ""],
        ["simulate", "edges", "--topology", "lattice", "--edge-grid", ""],
    ])
    def test_empty_sweep_grid_is_refused(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli([*args, "--n-v", "10", "--replicates", "2", "--out-dir", str(out)]) == 2
        assert "grid is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_density_grid_means_the_default(self, small_manifest, tmp_path):
        m = ["density-profile", "--manifest", str(small_manifest)]
        assert run_cli([*m, "--grid", "", "--out-dir", str(tmp_path / "a")]) == 0
        assert run_cli([*m, "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("density_profiles.csv", "density_integrated.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_report(self, small_manifest, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["report", "--manifest", str(small_manifest), "--out-dir", str(out)])
        assert code == 0
        assert (out / "01_weighted_density.csv").exists()
        assert (out / "03_differential_stats.csv").exists()
        assert (out / "run_log.txt").exists()

    def test_exit_code_2_on_schema_error(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"schema": 99}))
        code = run_cli(["spn", "diff", "--manifest", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_exit_code_3_on_missing_file(self, tmp_path):
        corr = [[hollow(3, 0.2)], [[0.0]]]
        corr = [[hollow(3, 0.2)]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest"], ["s1"])
        (tmp_path / "s1_rest.csv").unlink()
        code = run_cli(["metrics", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
        assert code == 3

    def test_exit_code_4_on_degenerate_statistics_under_strict(self, tmp_path):
        corr = [[hollow(3, 0.3)], [hollow(3, 0.3)]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["only"], ["s1", "s2"])
        code = run_cli(["spn", "mean", "--manifest", str(manifest), "--condition", "only",
                        "--out-dir", str(tmp_path / "o"), "--strict"])
        assert code == 4
        # without --strict the same run degrades to a warning and succeeds
        code = run_cli(["spn", "mean", "--manifest", str(manifest), "--condition", "only",
                        "--out-dir", str(tmp_path / "o2")])
        assert code == 0


@pytest.fixture
def trend_manifest(tmp_path):
    """Six subjects x three conditions on 6 nodes, with a rising and a falling edge."""
    rng = np.random.default_rng(3)
    data = planted_trend_dataset(rng, edge_up=2, edge_down=9, n=6, j=3, n_v=6)
    return build_manifest(tmp_path, data.correlations, data.node_labels,
                          data.condition_labels, data.subject_ids)


class TestOnePipeline:
    def test_subcommands_write_the_report_step_bytes(self, trend_manifest, tmp_path):
        m = ["--manifest", str(trend_manifest), "--abs"]
        report = tmp_path / "report"
        assert run_cli(["report", *m, "--format", "dot", "--grid", "1:15:2",
                        "--out-dir", str(report)]) == 0
        steps = tmp_path / "steps"
        for condition in ("c0", "c1", "c2"):
            assert run_cli(["spn", "mean", *m, "--condition", condition, "--format", "dot",
                            "--out-dir", str(steps)]) == 0
        assert run_cli(["spn", "diff", *m, "--format", "dot", "--out-dir", str(steps)]) == 0
        assert run_cli(["density-profile", *m, "--grid", "1:15:2",
                        "--out-dir", str(steps)]) == 0
        compared = 0
        for path in sorted(report.iterdir()):
            if path.name[:3] in ("02_", "03_", "04_"):
                assert path.read_bytes() == (steps / path.name[3:]).read_bytes(), path.name
                compared += 1
        assert compared == 3 * 2 + 3 + 2

    def test_run_log_keeps_the_grid_spec_and_reruns_identically(self, trend_manifest, tmp_path):
        args = ["density-profile", "--manifest", str(trend_manifest), "--abs",
                "--metric", "modularity_q", "--grid", "1:15"]
        assert run_cli(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out-dir", str(tmp_path / "b")]) == 0
        log = (tmp_path / "a" / "run_log.txt").read_text()
        assert log == (tmp_path / "b" / "run_log.txt").read_text()
        lines = log.splitlines()
        assert lines[0] == "density-profile"
        assert '"grid": "1:15"' in lines[1]
        assert lines[2].startswith(f"versions: spnkit {sk.__version__}, numpy ")
        assert lines[3:] == ["wrote: density_integrated.csv", "wrote: density_profiles.csv"]

    def test_failed_report_leaves_no_output(self, small_manifest, tmp_path):
        # 3 nodes have 3 positive edges, so density level 5 fails in step 4
        out = tmp_path / "runs" / "out"
        code = run_cli(["report", "--manifest", str(small_manifest), "--grid", "1:5",
                        "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()
        assert list((tmp_path / "runs").iterdir()) == []

    def test_failed_run_leaves_an_existing_out_dir_as_it_was(self, small_manifest, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        code = run_cli(["report", "--manifest", str(small_manifest), "--grid", "1:5",
                        "--out-dir", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept\n"

    def test_staging_stays_inside_the_default_out_dir(self, small_manifest, tmp_path,
                                                       monkeypatch):
        # only --out-dir has to be writable: nothing is created beside it
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        staged_in = []
        mkdtemp = cli_mod.tempfile.mkdtemp

        def spy(*args, dir=None, **kwargs):
            staged_in.append(Path(dir).resolve())
            return mkdtemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(cli_mod.tempfile, "mkdtemp", spy)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run_cli(["spn", "diff", "--manifest", str(small_manifest)]) == 0
        assert staged_in == [work.resolve()]
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert sorted(p.name for p in work.iterdir()) == [
            "differential_spn_minus.json", "differential_spn_plus.json",
            "differential_stats.csv", "run_log.txt"]

    def test_manifest_options_are_used_and_logged(self, tmp_path):
        rng = np.random.default_rng(3)
        data = planted_trend_dataset(rng, edge_up=2, edge_down=9, n=6, j=3, n_v=6)
        options = {"standardize": True, "density_grid": [1, 3, 5], "seed": 42}
        with_options = build_manifest(tmp_path, data.correlations, data.node_labels,
                                      data.condition_labels, data.subject_ids, options=options)
        plain = tmp_path / "plain.json"
        payload = json.loads(with_options.read_text())
        del payload["options"]
        plain.write_text(json.dumps(payload))
        for command in (["density-profile"], ["report"]):
            a, b = tmp_path / f"{command[0]}-a", tmp_path / f"{command[0]}-b"
            assert run_cli([*command, "--manifest", str(with_options), "--abs",
                            "--out-dir", str(a)]) == 0
            assert run_cli([*command, "--manifest", str(plain), "--abs", "--standardize",
                            "--grid", "1,3,5", "--out-dir", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                if name != "run_log.txt":
                    assert (a / name).read_bytes() == (b / name).read_bytes(), name
            lines = (a / "run_log.txt").read_text().splitlines()
            assert lines[0] == command[0]
            config = json.loads(lines[1][len("config: "):])
            assert config["standardize"] is True
            assert config["grid"] == [1, 3, 5]
            assert config["base_rate"] == 0.05
            assert "seed" not in config
            assert lines.count("wrote: run_log.txt") == 0

    def test_zero_residual_fit_is_degenerate(self, tmp_path):
        # every subject has the same matrices, so each edge's table has no residual
        corr = [[hollow(3, r) for r in (0.2, 0.4, 0.6)] for _ in range(3)]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["c0", "c1", "c2"],
                                  ["s1", "s2", "s3"])
        args = ["spn", "diff", "--manifest", str(manifest)]
        assert run_cli(args + ["--strict", "--out-dir", str(tmp_path / "strict")]) == 4
        assert not (tmp_path / "strict").exists()
        assert run_cli(args + ["--out-dir", str(tmp_path / "lax")]) == 0
        log = (tmp_path / "lax" / "run_log.txt").read_text()
        assert "warning: 3 fit(s) have zero residual variance" in log
        assert "first: edge (0, 1)" in log

    def test_seed_belongs_to_simulate_only(self, small_manifest, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["spn", "diff", "--manifest", str(small_manifest), "--seed", "1",
                     "--out-dir", str(tmp_path)])
