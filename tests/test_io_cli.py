"""Manifest loading, exporters, report bundle, and the CLI."""

import collections
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spnkit as sk
from spnkit import io as spnio
from spnkit import spn as spn_mod
from spnkit.cli import main as cli_main
from spnkit.errors import DataError, IncompleteDesignError, SchemaError, ValidationError

from datasets import build_manifest, planted_trend_dataset, write_matrix


def hollow(n, value):
    m = np.full((n, n), float(value))
    np.fill_diagonal(m, 0.0)
    return m


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


# small simulate runs carrying every required flag
SIMULATE_REWIRE = ["simulate", "rewire", "--n-v", "10", "--n-e", "15", "--grid", "0,5",
                   "--replicates", "2"]
SIMULATE_EDGES = ["simulate", "edges", "--n-v", "10", "--topology", "random",
                  "--edge-grid", "5,15", "--replicates", "2"]


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

    def test_each_cell_is_checked_once(self, tmp_path, monkeypatch):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        calls = collections.Counter()
        for name in ("_checked_correlation_matrix", "_check_signals"):  # the cell rules
            rule = getattr(spn_mod, name)
            monkeypatch.setattr(spn_mod, name,
                                lambda *a, rule=rule, name=name: calls.update([name]) or rule(*a))
        sk.load_dataset(manifest)
        sk.load_node_signals(manifest)
        assert calls == {"_checked_correlation_matrix": 4, "_check_signals": 4}

    def test_a_parse_fault_is_reported_before_a_cell_fault(self, tmp_path):
        # the files are all read and sized before any cell rule runs
        bad = hollow(3, 0.2)
        bad[0, 1] = bad[1, 0] = 1.5
        manifest = build_manifest(tmp_path, [[bad, hollow(3, 0.3)]], ["A", "B", "C"],
                                  ["rest", "task"], ["s1"])
        write_matrix(tmp_path / "s1_task.csv", hollow(2, 0.3))
        with pytest.raises(SchemaError, match=r"s1_task\.csv: expected a 3x3 matrix"):
            sk.load_dataset(manifest)
        # the signal loader likewise: a short vector after a non-finite one
        manifest = build_manifest(tmp_path, [[hollow(3, 0.2), hollow(3, 0.3)]], ["A", "B", "C"],
                                  ["rest", "task"], ["s1"],
                                  signals=[[[1.0, np.nan, 3.0], [1.5, 2.5]]])
        with pytest.raises(SchemaError, match=r"s1_task_signal\.csv: expected 3 signal values, got 2"):
            sk.load_node_signals(manifest)

    def test_of_two_bad_files_the_first_subject_major_is_named(self, tmp_path):
        # subject-major, s1/task comes first; condition-major order would reach s2/rest first
        first, second = hollow(3, 0.2), hollow(3, 0.2)
        first[1, 2] = first[2, 1] = 1.25
        second[0, 1] = second[1, 0] = np.nan
        corr = [[hollow(3, 0.3), first], [second, hollow(3, 0.3)]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"])
        with pytest.raises(DataError) as err:
            sk.load_dataset(manifest)
        assert str(err.value) == (f"{tmp_path / 's1_task.csv'}: entry (1,2) = 1.25 "
                                  "outside the open correlation range (-1, 1)")

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

    @pytest.mark.parametrize("head, line", [("", 4), ("# a comment\n\n", 6)],
                             ids=["plain", "after-a-comment"])
    def test_a_token_that_is_not_a_number_names_its_cell_and_line(self, tmp_path, head, line):
        rows = [["0.0"] * 6 for _ in range(6)]
        rows[3][5] = " abc"
        path = tmp_path / "m.csv"
        path.write_text(head + "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(DataError) as err:
            spnio.load_matrix_csv(path)
        assert str(err.value) == (f"{path}: cannot parse matrix: line {line}, entry (3,5) "
                                  "holds 'abc', not a number")

    def test_a_semicolon_separated_row_names_its_first_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0;0.2\n0.2;0.0\n")
        with pytest.raises(DataError) as err:
            spnio.load_matrix_csv(path)
        assert str(err.value) == (f"{path}: cannot parse matrix: line 1, entry (0,0) "
                                  "holds '0.0;0.2', not a number")

    def test_a_token_only_numpy_refuses_names_its_cell_and_line(self, tmp_path):
        # float() reads 1_0 as 10.0; np.loadtxt refuses it
        path = tmp_path / "m.csv"
        path.write_text("0.0,1_0\n1_0,0.0\n")
        with pytest.raises(DataError) as err:
            spnio.load_matrix_csv(path)
        assert str(err.value) == (f"{path}: cannot parse matrix: line 1, entry (0,1) "
                                  "holds '1_0', not a number")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment-only"])
    def test_a_file_with_no_values_is_named(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            spnio.load_matrix_csv(path)
        assert str(err.value) == f"{path}: cannot parse matrix: the file holds no values"

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


class TestProfileLevelRefusal:
    @pytest.mark.parametrize("metric", ["modularity_q", "modularity_count"])
    @pytest.mark.parametrize("via", ["flag", "manifest"])
    @pytest.mark.parametrize("command", ["density-profile", "report"])
    def test_modularity_at_k_zero_names_the_grid_source(self, small_manifest, tmp_path, capsys,
                                                         monkeypatch, command, via, metric):
        # refused as the grid is resolved: before the data are loaded, so before any step
        monkeypatch.setattr(spnio, "load_dataset", lambda manifest: pytest.fail("data loaded"))
        args = [command, "--manifest", str(small_manifest), "--abs", "--metric", metric]
        if via == "flag":
            args += ["--grid", "0,2"]
            source = "--grid"
        else:
            edit_manifest(small_manifest, lambda p: p.update(options={"density_grid": [0, 2]}))
            source = f"{small_manifest}: options.density_grid"
        err = refused(capsys, args, tmp_path / "out")
        assert err == (f"error: {source} holds density level k=0, where {metric} is undefined: "
                       "greedy modularity needs at least one edge\n")

    @pytest.mark.parametrize("metric", ["global_efficiency", "local_efficiency"])
    def test_efficiency_metrics_accept_k_zero(self, small_manifest, tmp_path, metric):
        out = tmp_path / "out"
        assert run_cli(["density-profile", "--manifest", str(small_manifest), "--abs",
                        "--metric", metric, "--grid", "0,2", "--out-dir", str(out)]) == 0
        with open(out / "density_profiles.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["k"], r["value"]) for r in rows if r["k"] == "0"] == [("0", "0.0")] * 2

    def test_library_step_names_condition_and_level(self, small_manifest, tmp_path):
        data = sk.load_dataset(small_manifest)
        with pytest.raises(ValidationError) as err:
            spnio.step_density_profiles(data, tmp_path, "", "abs", "modularity_q", [0, 2])
        assert str(err.value) == ("density profile of condition 'rest': density level k=0: "
                                  "greedy modularity needs at least one edge")


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

    def test_a_refused_condition_leaves_no_profile_table(self, signed_manifest, tmp_path):
        # every condition's profile is computed before a table is opened, so
        # the refusal of the 'task' mean leaves nothing, 'rest' rows included
        data = sk.load_dataset(signed_manifest)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(DataError, match="condition-mean association matrix of condition 'task'"):
            spnio.step_density_profiles(data, out, "04_", "error", "global_efficiency", None)
        assert list(out.iterdir()) == []

    def test_unknown_negatives_mode_is_refused(self):
        with pytest.raises(ValidationError) as err:
            sk.association_graph(hollow(3, 0.2), negatives="x")
        assert str(err.value) == "negatives must be 'error' or 'abs', got 'x'"

    def test_library_refusal_names_the_keyword(self):
        m = np.array([[0.0, -0.5], [-0.5, 0.0]])
        with pytest.raises(DataError, match=r"negative entry -0\.5 at \(0,1\).*negatives='abs'"):
            sk.association_graph(m)


def test_mean_spn_of_a_one_node_study_is_refused(tmp_path, capsys):
    corr = [[np.zeros((1, 1))] * 2] * 2
    manifest = build_manifest(tmp_path, corr, ["A"], ["rest", "task"], ["s1", "s2"])
    err = refused(capsys, ["spn", "mean", "--manifest", str(manifest), "--condition", "rest"],
                  tmp_path / "out")
    assert "error: mean SPN needs at least 2 nodes, got 1" in err


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
        (lambda p: p.update(options={"base_rate": "0.01"}),
         "options.base_rate must be a number, got a string"),
        (lambda p: p["nodes"].update(labels=["A", "B", "A"]),
         "nodes.labels: node label 'A' is repeated at nodes 0 and 2"),
        (lambda p: p["nodes"].update(labels=[1, "1", "C"]),
         "nodes.labels: node label '1' is repeated at nodes 0 and 1"),
        # a lone carriage return is not quoted by the CSV writer
        (lambda p: p["nodes"].update(labels=["A", "B\rx", "C"]),
         "nodes.labels: node label 'B\\rx' holds a carriage return"),
        (lambda p: p.update(conditions=["rest", "task\r"]),
         "condition label 'task\\r' holds a carriage return"),
        (lambda p: p.update(subjects=["s1", "s\r2"]), "subject id 's\\r2' holds a carriage return"),
    ])
    def test_refused_with_manifest_and_key(self, small_manifest, tmp_path, capsys, change,
                                           message):
        edit_manifest(small_manifest, change)
        with pytest.raises(SchemaError):
            sk.parse_manifest(small_manifest)
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert f"{small_manifest}: {message}" in err

    @pytest.mark.parametrize("value,shown", [(None, "nan"), (math.nan, "nan"), (math.inf, "inf")])
    def test_non_finite_coordinates_name_manifest_key_and_node(self, small_manifest, tmp_path,
                                                               capsys, value, shown):
        coords = [[1.0, 2.0, 3.0], [4.0, 5.0, value], [7.0, 8.0, 9.0]]
        edit_manifest(small_manifest, lambda p: p["nodes"].update(coords=coords))
        message = f"{small_manifest}: nodes.coords: node 1 (B) has non-finite coordinates [4.0, 5.0, {shown}]"
        with pytest.raises(SchemaError) as err:
            sk.parse_manifest(small_manifest)
        assert str(err.value) == message
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert message in err

    @pytest.mark.parametrize("rate", [1.5, 0, -0.1])
    def test_out_of_range_base_rate_names_manifest_and_key(self, small_manifest, tmp_path,
                                                           capsys, rate):
        edit_manifest(small_manifest, lambda p: p.update(options={"base_rate": rate}))
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert (f"{small_manifest}: options.base_rate must lie in (0, 1), "
                f"got {float(rate)!r}") in err

    def test_node_diff_without_signal_files_names_the_manifest(self, small_manifest, tmp_path,
                                                               capsys):
        assert sk.parse_manifest(small_manifest).path == small_manifest
        err = refused(capsys, ["spn", "node-diff", "--manifest", str(small_manifest)],
                      tmp_path / "out")
        assert f"{small_manifest}: manifest has no 'signal_files' map" in err

    @pytest.mark.parametrize("text,message", [
        ("[]", "the manifest must be an object, got a list"),
        ("{\"schema\": 1,", "not valid JSON"),
    ])
    def test_unreadable_top_level(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        err = refused(capsys, ["metrics", "--manifest", str(manifest)], tmp_path / "out")
        assert f"{manifest}: {message}" in err

    def test_manifest_that_is_not_utf8_names_the_manifest(self, small_manifest, tmp_path,
                                                          capsys):
        small_manifest.write_bytes(b"\xff\xfe" + small_manifest.read_text().encode("utf-16-le"))
        with pytest.raises(SchemaError):
            sk.parse_manifest(small_manifest)
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert f"{small_manifest}: not UTF-8 text" in err


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
        ("-1", "condition index -1 out of range 0..1"),
    ])
    def test_bad_condition(self, small_manifest, tmp_path, capsys, condition, message):
        err = refused(capsys, ["spn", "mean", "--manifest", str(small_manifest),
                               "--condition", condition], tmp_path / "out")
        assert message in err

    @pytest.mark.parametrize("text,message", [
        ("1.6,3.6\n", "expected 3 signal values, got 2"),
        ("1.6,abc,3.6\n", "cannot parse signal vector"),
        ("# no values\n", "cannot parse signal vector: the file holds no values"),
    ])
    def test_bad_signal_file(self, tmp_path, capsys, text, message):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        (tmp_path / "s2_task_signal.csv").write_text(text)
        err = refused(capsys, ["spn", "node-diff", "--manifest", str(manifest)], tmp_path / "out")
        assert f"{tmp_path / 's2_task_signal.csv'}: {message}" in err

    def test_signal_table_of_several_rows_and_columns_is_refused(self, tmp_path, capsys):
        # a 2 x 2 table holds the 4 values of a 4-node study, but in no defined order
        corr = [[hollow(4, 0.2), hollow(4, 0.3)], [hollow(4, 0.25), hollow(4, 0.35)]]
        signals = [[[1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5]],
                   [[1.1, 2.1, 3.1, 4.1], [1.6, 2.6, 3.6, 4.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C", "D"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        (tmp_path / "s2_task_signal.csv").write_text("1.6,2.6\n3.6,4.6\n")
        err = refused(capsys, ["spn", "node-diff", "--manifest", str(manifest)], tmp_path / "out")
        assert (f"{tmp_path / 's2_task_signal.csv'}: expected one row or one column of signal "
                "values, got 2 rows of 2") in err

    def test_ragged_signal_file_names_file_and_line(self, tmp_path, capsys):
        corr = [[hollow(3, 0.2), hollow(3, 0.3)], [hollow(3, 0.25), hollow(3, 0.35)]]
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], [[1.1, 2.1, 3.1], [1.6, 2.6, 3.6]]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        (tmp_path / "s2_task_signal.csv").write_text("1,2,3\n4,5\n")
        err = refused(capsys, ["spn", "node-diff", "--manifest", str(manifest)], tmp_path / "out")
        assert (f"{tmp_path / 's2_task_signal.csv'}: line 2 holds 2 values, expected 3 "
                "(as on line 1)") in err
        assert "usecols" not in err

    def test_non_square_matrix(self, small_manifest, tmp_path, capsys):
        (tmp_path / "s2_rest.csv").write_text("0.0,0.3,0.3\n0.3,0.0,0.3\n")
        err = refused(capsys, ["spn", "diff", "--manifest", str(small_manifest)], tmp_path / "out")
        assert f"{tmp_path / 's2_rest.csv'}: expected a square matrix, got shape (2, 3)" in err

    def test_report_refuses_condition_labels_sharing_a_file_name(self, tmp_path, capsys):
        corr = [[hollow(3, 0.2), hollow(3, 0.4)], [hollow(3, 0.3), hollow(3, 0.5)]]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["2 back", "2_back"],
                                  ["s1", "s2"])
        err = refused(capsys, ["report", "--manifest", str(manifest)], tmp_path / "out")
        assert ("error: conditions '2 back' and '2_back' share the file stem "
                "02_mean_spn_2_back") in err

    def test_nan_tau_is_refused(self, small_manifest, tmp_path, capsys):
        # every comparison with NaN is false, so it would write edgeless metrics
        err = refused(capsys, ["metrics", "--manifest", str(small_manifest), "--tau", "nan"],
                      tmp_path / "out")
        assert "threshold tau must be a number, got nan" in err


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

    def test_dot_text_of_a_weighted_graph(self, tmp_path):
        w = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 2 / 3], [0.0, 2 / 3, 0.0]])
        coords = [[1.0, -2.5, 0.0], [1e-3, 2.0, 3.0], [4.0, 5.0, 6.0]]
        g = sk.WeightedGraph(("A", 'say "hi"', "c d"), w, coords)
        assert sk.export_graph(g, "dot", tmp_path / "g.dot").read_text() == (
            'graph spn {\n'
            '  "A" [pos="1.0,-2.5,0.0!"];\n'
            '  "say \\"hi\\"" [pos="0.001,2.0,3.0!"];\n'
            '  "c d" [pos="4.0,5.0,6.0!"];\n'
            '  "A" -- "say \\"hi\\"" [weight=0.1];\n'
            '  "say \\"hi\\"" -- "c d" [weight=0.6666666666666666];\n'
            '}\n'
        )

    def test_dot_text_of_a_binary_graph(self, tmp_path):
        g = sk.BinaryGraph.from_edges(4, [(0, 1), (3, 0), (2, 3)])
        assert sk.export_graph(g, "dot", tmp_path / "g.dot").read_text() == (
            'graph spn {\n  "n0";\n  "n1";\n  "n2";\n  "n3";\n'
            '  "n0" -- "n1";\n  "n0" -- "n3";\n  "n2" -- "n3";\n}\n'
        )

    def test_statistics_tables_text(self, tmp_path):
        # last column: rejected with a positive sign, rejected with a negative one, or neither
        rng = np.random.default_rng(5)
        planted = planted_trend_dataset(rng, edge_up=0, edge_down=5, effect=1.5, n=6, j=3, n_v=4,
                                        sigma=0.1)
        labels, conditions = ("A", "b,c", "C", "D"), ("lo", "mid", "hi")
        data = sk.StudyDataset(planted.correlations(), labels, conditions, planted.subject_ids)
        values = rng.normal(5.0, 0.1, size=(5, 3, 3))
        values[:, :, 0] += [0.0, 1.0, 2.0]
        values[:, :, 2] -= [0.0, 1.0, 2.0]
        signals = sk.NodeSignalDataset(values, labels[:3], conditions, tuple("vwxyz"))
        spnio.step_mean_spn(data, tmp_path, "", 2, 0.05, "fdr", "json")
        spnio.step_differential_spn(data, tmp_path, "", 0.05, "fdr", "json")
        spnio.step_node_differential_spn(signals, tmp_path, "", 0.05, "fdr")
        assert (tmp_path / "mean_spn_hi_stats.csv").read_text() == (
            'i,j,label_i,label_j,statistic,p_value,effect_sign,rejected,included\n'
            '0,1,A,"b,c",5.934347841884998,2.9501578114656053e-09,1,1,1\n'
            '0,2,A,C,-0.9892250930522548,0.32255302386684315,-1,0,0\n'
            '0,3,A,D,-1.0655623265707062,0.28662153697657,-1,0,0\n'
            '1,2,"b,c",C,-1.2808814896032128,0.20023529541632445,-1,0,0\n'
            '1,3,"b,c",D,-1.1236697254271788,0.26115316435785446,-1,0,0\n'
            '2,3,C,D,-1.4790442562374901,0.13912848702300143,-1,0,0\n'
        )
        assert (tmp_path / "differential_stats.csv").read_text() == (
            'i,j,label_i,label_j,f_statistic,p_value,trend_sign,rejected,routed\n'
            '0,1,A,"b,c",574.4293541340373,4.784621162674615e-11,1,1,plus\n'
            '0,2,A,C,1.5498186475856333,0.2592409742857299,1,0,none\n'
            '0,3,A,D,2.131837315051078,0.16937249388499273,-1,0,none\n'
            '1,2,"b,c",C,0.1347234718960758,0.8755172807095888,1,0,none\n'
            '1,3,"b,c",D,0.1413629114159479,0.8698787466273672,-1,0,none\n'
            '2,3,C,D,754.6652002372741,1.2352044883952996e-11,-1,1,minus\n'
        )
        assert (tmp_path / "node_differential_stats.csv").read_text() == (
            'node,label,f_statistic,p_value,trend_sign,rejected,routed\n'
            '0,A,692.7521688438469,1.0862421433962545e-09,1,1,up\n'
            '1,"b,c",1.004408104412183,0.4081587303793799,-1,0,none\n'
            '2,C,550.9790803386388,2.6985689166286247e-09,-1,1,down\n'
        )

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

    @pytest.mark.parametrize("text,message", [
        ("graph spn {}\n", "not valid JSON"),
        ('{"schema": 1, "kind": "binary"}', "missing graph key 'node_labels'"),
        ("[1, 2]", "not a graph JSON payload"),
        ('{"schema": 1, "kind": "binary", "node_labels": ["a"], "adjacency": [[0, 1], [1, 0]]}',
         "1 node labels for a 2-node adjacency matrix"),
        ('{"schema": 1, "kind": "binary", "node_labels": ["a", "b"], "adjacency": [[0, 1], [1, 0]], '
         '"node_coords": [[1, 2, 3], [4, 5]]}',
         "node_coords must have shape (2, 3), got ragged or non-numeric rows"),
        ('{"schema": 1, "kind": "binary", "node_labels": "ab", "adjacency": [[0, 1], [1, 0]]}',
         "node labels must be a list of labels, not the string 'ab'"),
        ('{"schema": 1, "kind": "weighted", "node_labels": ["a", "a"], '
         '"weights": [[0, 0.5], [0.5, 0]]}',
         "node label 'a' is repeated at nodes 0 and 1"),
    ])
    def test_malformed_graph_json_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            sk.graph_from_json(path)
        assert str(err.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("fmt", ["json", "dot", "csv"])
    def test_export_of_a_non_graph_is_refused_before_writing(self, tmp_path, fmt):
        path = tmp_path / f"g.{fmt}"
        with pytest.raises(ValidationError, match="cannot export object of type ndarray"):
            sk.export_graph(hollow(3, 0.5), fmt, path)
        assert not path.exists()

    def test_unknown_format_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "g.png"
        with pytest.raises(ValidationError) as err:
            sk.export_graph(sk.BinaryGraph.from_edges(2, [(0, 1)]), "png", path)
        assert str(err.value) == "format must be one of ('dot', 'json', 'csv'), got 'png'"
        assert not path.exists()

    def test_unwritable_path_is_an_os_error_naming_it(self, tmp_path):
        with pytest.raises(OSError) as err:
            sk.export_graph(sk.BinaryGraph.from_edges(2, [(0, 1)]), "json", tmp_path)
        assert str(err.value).startswith(f"cannot write {tmp_path}: ")

    def test_list_valued_kind_is_not_a_graph_payload(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"schema": 1, "kind": ["binary"]}')
        with pytest.raises(SchemaError) as err:
            sk.graph_from_json(path)
        assert str(err.value) == f"{path}: not a graph JSON payload"

    def test_non_finite_coordinates_in_graph_json_name_the_file_and_node(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"schema": 1, "kind": "binary", "node_labels": ["a", "b"], '
                        '"adjacency": [[0, 1], [1, 0]], "node_coords": [[1, 2, 3], [4, 5, NaN]]}')
        with pytest.raises(SchemaError) as err:
            sk.graph_from_json(path)
        assert str(err.value) == f"{path}: node 1 (b) has non-finite coordinates [4.0, 5.0, nan]"

    def test_csv_text_of_binary_and_weighted_graphs(self, tmp_path):
        path_graph = sk.BinaryGraph.from_edges(3, [(0, 1), (1, 2)])
        text = sk.export_graph(path_graph, "csv", tmp_path / "b.csv").read_text()
        assert text == "0,1,0\n1,0,1\n0,1,0\n"
        w = np.array([[0.0, 0.5, 1 / 3], [0.5, 0.0, 0.25], [1 / 3, 0.25, 0.0]])
        text = sk.export_graph(sk.WeightedGraph.from_matrix(w), "csv", tmp_path / "w.csv").read_text()
        assert text == ("0.0,0.5,0.3333333333333333\n0.5,0.0,0.25\n"
                        "0.3333333333333333,0.25,0.0\n")

    def test_graph_json_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(SchemaError) as err:
            sk.graph_from_json(path)
        assert str(err.value).startswith(f"{path}: not UTF-8 text")

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
        assert np.array_equal(sk.threshold(matrix, 0.5).adjacency, g.adjacency)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _report_with_a_constant_edge(data, out, monkeypatch):
    """Edge (0, 1) at 0.3 in every cell: its differential SPN fit is degenerate,
    and the caller's filters make that an error in step 3, after steps 1 and 2 wrote."""
    corr = data.correlations()
    corr[:, :, 0, 1] = corr[:, :, 1, 0] = 0.3
    data = sk.StudyDataset(corr, data.node_labels, data.condition_labels, data.subject_ids)
    with warnings.catch_warnings():
        warnings.simplefilter("error", sk.DegenerateStatisticsWarning)
        sk.report_pipeline(data, out, negatives="abs")


def _report_interrupted_in_step_3(data, out, monkeypatch):
    monkeypatch.setattr(spnio, "step_differential_spn", _interrupt)
    sk.report_pipeline(data, out, negatives="abs")


# report_pipeline failures after ``out`` exists: (error, message pattern, call)
LATE_FAILURES = {
    "grid-beyond-the-edges": (
        ValidationError, r"density level k=100 outside 0\.\.15",
        lambda data, out, _: sk.report_pipeline(data, out, negatives="abs", density_grid=[100])),
    "modularity-at-k0": (
        ValidationError, "density level k=0: greedy modularity needs at least one edge",
        lambda data, out, _: sk.report_pipeline(data, out, negatives="abs", density_grid=[0],
                                                metric="modularity_q")),
    "unknown-negatives": (
        ValidationError, "negatives must be 'error' or 'abs', got 'bogus'",
        lambda data, out, _: sk.report_pipeline(data, out, negatives="bogus")),
    "degenerate-warning-as-error": (
        sk.DegenerateStatisticsWarning, "zero residual and zero condition variance",
        _report_with_a_constant_edge),
    "interrupt-in-step-3": (KeyboardInterrupt, None, _report_interrupted_in_step_3),
}


class TestReportPipeline:
    def test_constant_dataset_yields_constant_table_and_empty_spns(self, tmp_path):
        corr = np.stack([np.stack([hollow(4, 0.3)] * 2)] * 3)
        data = sk.StudyDataset(corr, ("a", "b", "c", "d"), ("c0", "c1"), ("s0", "s1", "s2"))
        with pytest.warns(sk.DegenerateStatisticsWarning) as record:
            bundle = sk.report_pipeline(data, tmp_path / "out")
        assert [str(w.message) for w in record] == [
            "grand SD is zero (constant dataset); mean SPN is empty"] * 2 + [
            "6 fit(s) have zero residual and zero condition variance (F = 0/0) and are "
            "reported as F = 0, p = 1; first: edge (0, 1)"]
        densities = {row[2] for row in bundle.density_table}
        assert len(densities) == 1
        for result in bundle.mean_spns.values():
            assert result.network.edge_count == 0
        plus, minus = bundle.differential
        assert plus.network.edge_count == 0
        assert minus.network.edge_count == 0

    def test_warnings_reach_the_caller_as_they_are_raised(self, tmp_path):
        corr = np.stack([np.stack([hollow(4, 0.3)] * 2)] * 3)
        data = sk.StudyDataset(corr, ("a", "b", "c", "d"), ("c0", "c1"), ("s0", "s1", "s2"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", sk.DegenerateStatisticsWarning)
            with pytest.raises(sk.DegenerateStatisticsWarning, match="grand SD is zero"):
                sk.report_pipeline(data, out)
        # the first mean SPN stopped the pipeline, and step 1's table went with the staging
        assert not out.exists()

    def test_planted_dataset_lands_in_the_right_sections(self, tmp_path):
        rng = np.random.default_rng(42)
        data = planted_trend_dataset(rng, edge_up=5, edge_down=20, n=16, n_v=10)
        bundle = sk.report_pipeline(data, tmp_path / "out", negatives="abs")
        rows, cols = np.triu_indices(10, k=1)
        plus, minus = bundle.differential
        assert plus.network.adjacency[rows[5], cols[5]] == 1
        assert minus.network.adjacency[rows[20], cols[20]] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=4, n=8, n_v=6)
        a = sk.report_pipeline(data, tmp_path / "a", negatives="abs")
        b = sk.report_pipeline(data, tmp_path / "b", negatives="abs")
        for pa, pb in zip(a.paths, b.paths):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_condition_labels_sharing_a_file_name_are_refused(self, tmp_path):
        # safe_name maps both labels to 2_back, so one mean SPN would overwrite the other
        corr = np.stack([np.stack([hollow(3, 0.2), hollow(3, 0.4)])] * 2)
        data = sk.StudyDataset(corr, ("A", "B", "C"), ("2 back", "2_back"), ("s1", "s2"))
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            sk.report_pipeline(data, out)
        assert str(err.value) == ("conditions '2 back' and '2_back' share the file stem "
                                  "02_mean_spn_2_back")
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        ({"metric": "bogus"}, "unknown metric 'bogus'; choose from ['global_efficiency', "
                              "'local_efficiency', 'modularity_count', 'modularity_q']"),
        ({"correction": "bogus"}, "correction must be one of ('fdr', 'none'), got 'bogus'"),
        ({"fmt": "bogus"}, "format must be one of ('dot', 'json', 'csv'), got 'bogus'"),
        ({"base_rate": 1.5}, "base_rate must lie in (0, 1), got 1.5"),
        ({"base_rate": 1.5, "correction": "none"}, "alpha must lie in (0, 1), got 1.5"),
    ], ids=["metric", "correction", "fmt", "base_rate", "alpha"])
    def test_bad_options_are_refused_before_a_file_is_written(self, tmp_path, option, message):
        rng = np.random.default_rng(8)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=4, n=8, n_v=6)
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            sk.report_pipeline(data, out, negatives="abs", **option)
        assert str(err.value) == message
        assert not out.exists()

    def test_writes_no_run_log(self, tmp_path):
        rng = np.random.default_rng(8)
        data = planted_trend_dataset(rng, edge_up=1, edge_down=4, n=8, n_v=6)
        out = tmp_path / "out"
        bundle = sk.report_pipeline(data, out, negatives="abs")
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in bundle.paths)
        assert not (out / "run_log.txt").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("case", LATE_FAILURES)
    def test_a_late_failure_leaves_out_dir_as_it_began(self, tmp_path, monkeypatch, case,
                                                      existing):
        error, match, fail = LATE_FAILURES[case]
        data = planted_trend_dataset(np.random.default_rng(8), edge_up=1, edge_down=4, n=8, n_v=6)
        parent = tmp_path / "runs"
        parent.mkdir()
        out = parent / "out"
        if existing:
            out.mkdir()
            (out / "keep.txt").write_text("kept\n")
        with pytest.raises(error, match=match):
            fail(data, out, monkeypatch)
        if existing:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
            assert (out / "keep.txt").read_text() == "kept\n"
        else:
            assert list(parent.iterdir()) == []

    def test_bundle_paths_name_the_files_in_out_dir(self, tmp_path):
        data = planted_trend_dataset(np.random.default_rng(8), edge_up=1, edge_down=4, n=8, n_v=6)
        out = tmp_path / "out"
        bundle = sk.report_pipeline(data, str(out), negatives="abs")
        assert len(bundle.paths) == 14
        for path in bundle.paths:
            assert path.parent == out and path.is_file(), path
        assert list(bundle.paths) == sorted(out.iterdir())


def _error_filter(monkeypatch):
    """Caller filters: DegenerateStatisticsWarning is an error."""
    warnings.simplefilter("error", sk.DegenerateStatisticsWarning)


def _other_category_first(monkeypatch):
    """Caller filters: a catch-all error filter behind one of another category."""
    warnings.simplefilter("error")
    warnings.filterwarnings("ignore", category=DeprecationWarning)


def _no_filter_and_an_error_default(monkeypatch):
    """Caller filters: none, with "error" as the default action."""
    warnings.resetwarnings()
    monkeypatch.setattr(warnings, "defaultaction", "error")


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

    @pytest.mark.parametrize("args", [
        SIMULATE_REWIRE,
        SIMULATE_EDGES,
        [*SIMULATE_EDGES, "--topology", "lattice"],
    ], ids=["rewire", "edges-random", "edges-lattice"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, args):
        err = refused(capsys, [*args, "--seed", "-1"], tmp_path / "out")
        assert "seed must be nonnegative, got -1" in err

    def test_empty_density_grid_means_the_default(self, small_manifest, tmp_path):
        # the flag wins over a grid the manifest sets, as any flag does
        with_grid = tmp_path / "with_grid.json"
        with_grid.write_text(small_manifest.read_text())
        edit_manifest(with_grid, lambda p: p.update(options={"density_grid": [1, 2]}))
        default = tmp_path / "default"
        assert run_cli(["density-profile", "--manifest", str(small_manifest),
                        "--out-dir", str(default)]) == 0
        for manifest in (small_manifest, with_grid):
            out = tmp_path / manifest.stem
            assert run_cli(["density-profile", "--manifest", str(manifest), "--grid", "",
                            "--out-dir", str(out)]) == 0
            for name in ("density_profiles.csv", "density_integrated.csv"):
                assert (out / name).read_bytes() == (default / name).read_bytes(), manifest
            assert '"grid": ""' in (out / "run_log.txt").read_text()

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
        # a constant dataset: zero grand SD, and every fit has zero residual
        corr = [[hollow(3, 0.3)] * 2] * 2
        signals = [[[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]]] * 2
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["rest", "task"],
                                  ["s1", "s2"], signals=signals)
        for i, command in enumerate((["spn", "mean", "--condition", "rest"],
                                     ["spn", "node-diff"], ["report"])):
            args = [*command, "--manifest", str(manifest)]
            strict = tmp_path / f"strict-{i}"
            assert run_cli([*args, "--strict", "--out-dir", str(strict)]) == 4, command
            assert not strict.exists()
            # without --strict the same run degrades to a warning and succeeds
            assert run_cli([*args, "--out-dir", str(tmp_path / f"lax-{i}")]) == 0, command

    @pytest.fixture
    def constant_manifest(self, tmp_path):
        return build_manifest(tmp_path, [[hollow(3, 0.3)] * 2] * 2, ["A", "B", "C"],
                              ["rest", "task"], ["s1", "s2"])

    def test_strict_stops_at_the_first_degenerate_statistic(self, constant_manifest, tmp_path,
                                                            capsys, monkeypatch):
        calls, step_3 = [], spnio.step_differential_spn
        monkeypatch.setattr(spnio, "step_differential_spn",
                            lambda *a, **k: calls.append(a) or step_3(*a, **k))
        out = tmp_path / "out"
        args = ["report", "--strict", "--manifest", str(constant_manifest), "--out-dir", str(out)]
        assert run_cli(args) == 4
        assert not out.exists()
        assert calls == []
        assert capsys.readouterr().err == (
            "degenerate statistics: grand SD is zero (constant dataset); mean SPN is empty\n")

    @pytest.mark.parametrize("caller_filters", [_error_filter, _other_category_first,
                                                _no_filter_and_an_error_default],
                             ids=["error-filter", "other-category-first", "error-default-action"])
    def test_caller_filter_that_raises_the_warning_exits_4(self, constant_manifest, tmp_path,
                                                           capsys, monkeypatch, caller_filters):
        # the caller's error filter stops the run at the first warning, as
        # --strict does, instead of running every step before the re-issue;
        # a filter of another category is passed over, and with no filter
        # the default action decides
        calls, step_3 = [], spnio.step_differential_spn
        monkeypatch.setattr(spnio, "step_differential_spn",
                            lambda *a, **k: calls.append(a) or step_3(*a, **k))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            caller_filters(monkeypatch)
            code = cli_main(["report", "--manifest", str(constant_manifest),
                             "--out-dir", str(out)])
        assert code == 4
        assert not out.exists()
        assert calls == []
        assert capsys.readouterr().err == (
            "degenerate statistics: grand SD is zero (constant dataset); mean SPN is empty\n")

    def test_a_message_filter_that_ignores_the_warning_lets_the_run_log_it(
            self, constant_manifest, tmp_path):
        # the ignore filter matches only some DegenerateStatisticsWarnings, so
        # the run goes on, logs the warning, and the re-issue is ignored
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", message="grand SD is zero",
                                    category=sk.DegenerateStatisticsWarning)
            code = cli_main(["spn", "mean", "--manifest", str(constant_manifest),
                             "--condition", "rest", "--out-dir", str(out)])
        assert code == 0
        assert caught == []
        assert ("warning: grand SD is zero (constant dataset); mean SPN is empty\n"
                in (out / "run_log.txt").read_text())

    def test_import_leaves_the_heavy_scipy_modules_unloaded(self, quoted_manifest, tmp_path):
        # no spnkit computation imports scipy.special or scipy.sparse: the
        # p-values and the weighted shortest paths are spnkit's own numpy code
        unloaded = "print(sorted({'scipy.special', 'scipy.sparse'} & set(sys.modules)))"
        probe = f"import sys, spnkit, spnkit.cli; {unloaded}"
        env = {**os.environ, "PYTHONPATH": str(Path(sk.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"
        m = ["--manifest", str(quoted_manifest)]
        runs = [[*command, *m, "--out-dir", str(tmp_path / str(i))] for i, command in enumerate(
            (["spn", "mean", "--condition", "c2"], ["spn", "diff"], ["spn", "node-diff"],
             ["report", "--abs", "--grid", "1:15:2"], ["metrics", "--abs", "--tau", "0.3"]))]
        probe = ("import sys\nfrom spnkit.cli import main\n"
                 f"for args in {runs!r}:\n    assert main(args) == 0, args\n{unloaded}")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip().splitlines()[-1] == "[]"


@pytest.fixture
def trend_manifest(tmp_path):
    """Six subjects x three conditions on 6 nodes, with a rising and a falling edge."""
    rng = np.random.default_rng(3)
    data = planted_trend_dataset(rng, edge_up=2, edge_down=9, n=6, j=3, n_v=6)
    return build_manifest(tmp_path, data.correlations(), data.node_labels,
                          data.condition_labels, data.subject_ids)


QUOTED_LABELS = ("a,1", 'c"q', 'x,"y"', "n3", "n4", "n5")
QUOTED_SUBJECTS = ("s,1", 's"2', "s3", "s4", "s5", "s6")
QUOTED_CONDITIONS = ("c,0", 'c"1', "c2")


@pytest.fixture
def quoted_manifest(tmp_path):
    """The trend study with commas and double quotes in node labels, subject
    ids and condition labels, and with per-node signals."""
    rng = np.random.default_rng(3)
    data = planted_trend_dataset(rng, edge_up=2, edge_down=9, n=6, j=3, n_v=6)
    signals = rng.normal(size=(6, 3, 6)) + np.arange(3)[None, :, None]
    return build_manifest(tmp_path, data.correlations(), QUOTED_LABELS, QUOTED_CONDITIONS,
                          QUOTED_SUBJECTS, signals=signals)


class TestOnePipeline:
    def test_subcommands_write_the_report_step_bytes(self, trend_manifest, tmp_path):
        m = ["--manifest", str(trend_manifest)]
        report = tmp_path / "report"
        assert run_cli(["report", *m, "--abs", "--format", "dot", "--grid", "1:15:2",
                        "--out-dir", str(report)]) == 0
        steps = tmp_path / "steps"
        for condition in ("c0", "c1", "c2"):
            assert run_cli(["spn", "mean", *m, "--condition", condition, "--format", "dot",
                            "--out-dir", str(steps)]) == 0
        assert run_cli(["spn", "diff", *m, "--format", "dot", "--out-dir", str(steps)]) == 0
        assert run_cli(["density-profile", *m, "--abs", "--grid", "1:15:2",
                        "--out-dir", str(steps)]) == 0
        compared = 0
        for path in sorted(report.iterdir()):
            if path.name[:3] in ("02_", "03_", "04_"):
                assert path.read_bytes() == (steps / path.name[3:]).read_bytes(), path.name
                compared += 1
        assert compared == 3 * 2 + 3 + 2

    def test_bundle_paths_are_the_files_the_run_log_lists(self, trend_manifest, tmp_path,
                                                          monkeypatch):
        bundles, pipeline = [], spnio.report_pipeline
        monkeypatch.setattr(spnio, "report_pipeline",
                            lambda *a, **k: bundles.append(pipeline(*a, **k)) or bundles[-1])
        out = tmp_path / "out"
        assert run_cli(["report", "--manifest", str(trend_manifest), "--abs", "--grid", "1:15:2",
                        "--out-dir", str(out)]) == 0
        logged = [line.removeprefix("wrote: ")
                  for line in (out / "run_log.txt").read_text().splitlines()
                  if line.startswith("wrote: ")]
        assert [p.name for p in bundles[0].paths] == [n for n in logged if n != "run_log.txt"]
        assert len(bundles[0].paths) == 1 + 2 * 3 + 3 + 2

    def test_metrics_and_node_diff_write_the_step_bytes(self, quoted_manifest, tmp_path):
        m = ["--manifest", str(quoted_manifest)]
        via_cli = tmp_path / "cli"
        assert run_cli(["metrics", *m, "--abs", "--tau", "0.3", "--out-dir", str(via_cli)]) == 0
        assert run_cli(["spn", "node-diff", *m, "--out-dir", str(via_cli)]) == 0
        direct = tmp_path / "direct"
        direct.mkdir()
        manifest = spnio.parse_manifest(quoted_manifest)
        spnio.step_metrics(spnio.load_dataset(manifest), direct, "", "abs", 0.3)
        spnio.step_node_differential_spn(spnio.load_node_signals(manifest), direct, "", 0.05, "fdr")
        paths = sorted(direct.iterdir())
        assert [p.name for p in paths] == [
            "metrics.csv", "node_differential.json", "node_differential_stats.csv"]
        for path in paths:
            assert path.read_bytes() == (via_cli / path.name).read_bytes(), path.name

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
        mkdtemp = spnio.tempfile.mkdtemp

        def spy(*args, dir=None, **kwargs):
            staged_in.append(Path(dir).resolve())
            return mkdtemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(spnio.tempfile, "mkdtemp", spy)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run_cli(["spn", "diff", "--manifest", str(small_manifest)]) == 0
        assert staged_in == [work.resolve()]
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert sorted(p.name for p in work.iterdir()) == [
            "differential_spn_minus.json", "differential_spn_plus.json",
            "differential_stats.csv", "run_log.txt"]

    def test_report_nests_its_staging_and_leaves_none_behind(self, trend_manifest, tmp_path,
                                                             monkeypatch):
        out = tmp_path / "out"
        staged_in = []
        mkdtemp = spnio.tempfile.mkdtemp

        def spy(*args, dir=None, **kwargs):
            staged_in.append(Path(dir))
            return mkdtemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(spnio.tempfile, "mkdtemp", spy)
        assert run_cli(["report", "--manifest", str(trend_manifest), "--abs", "--grid", "1:15:2",
                        "--out-dir", str(out)]) == 0
        # report_pipeline stages inside the CLI's staging directory
        assert staged_in[0] == out
        assert len(staged_in) == 2 and staged_in[1].parent == out
        assert staged_in[1].name.startswith(".staging-")
        log = (out / "run_log.txt").read_text().splitlines()
        wrote = [line.removeprefix("wrote: ") for line in log if line.startswith("wrote: ")]
        assert sorted(p.name for p in out.iterdir()) == sorted([*wrote, "run_log.txt"])

    def test_manifest_options_are_used_and_logged(self, tmp_path):
        rng = np.random.default_rng(3)
        data = planted_trend_dataset(rng, edge_up=2, edge_down=9, n=6, j=3, n_v=6)
        options = {"standardize": True, "density_grid": [1, 3, 5], "seed": 42}
        with_options = build_manifest(tmp_path, data.correlations(), data.node_labels,
                                      data.condition_labels, data.subject_ids, options=options)
        plain = tmp_path / "plain.json"
        payload = json.loads(with_options.read_text())
        del payload["options"]
        plain.write_text(json.dumps(payload))
        for command in (["density-profile"], ["report"]):
            a, b = tmp_path / f"{command[0]}-a", tmp_path / f"{command[0]}-b"
            assert run_cli([*command, "--manifest", str(with_options), "--abs",
                            "--out-dir", str(a)]) == 0
            assert run_cli([*command, "--manifest", str(plain), "--abs",
                            "--grid", "1,3,5", "--out-dir", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            for name in names:
                if name != "run_log.txt":
                    assert (a / name).read_bytes() == (b / name).read_bytes(), name
            lines = (a / "run_log.txt").read_text().splitlines()
            assert lines[0] == command[0]
            config = json.loads(lines[1][len("config: "):])
            assert config["grid"] == [1, 3, 5]
            if command == ["report"]:
                assert config["base_rate"] == 0.05
            else:  # density-profile tests no hypotheses, so it takes no --base-rate
                assert "base_rate" not in config
            assert "seed" not in config and "standardize" not in config
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

    def test_constant_edge_is_degenerate(self, tmp_path):
        # edge (0, 1) holds r = 0.3 in every cell of a 20 x 4 design: F = 0/0
        rng = np.random.default_rng(17)
        corr = [[hollow(3, 0.3) for _ in range(4)] for _ in range(20)]
        for cell in (m for row in corr for m in row):
            cell[0, 2], cell[1, 2] = rng.uniform(-0.5, 0.5, 2)
            cell[2, :2] = cell[:2, 2]
        manifest = build_manifest(tmp_path, corr, ["A", "B", "C"], ["c0", "c1", "c2", "c3"],
                                  [f"s{i}" for i in range(20)])
        args = ["spn", "diff", "--manifest", str(manifest)]
        assert run_cli(args + ["--strict", "--out-dir", str(tmp_path / "strict")]) == 4
        assert not (tmp_path / "strict").exists()
        assert run_cli(args + ["--out-dir", str(tmp_path / "lax")]) == 0
        log = (tmp_path / "lax" / "run_log.txt").read_text().splitlines()
        assert [line for line in log if line.startswith("warning:")] == [
            "warning: 1 fit(s) have zero residual and zero condition variance (F = 0/0) and "
            "are reported as F = 0, p = 1; first: edge (0, 1)"]

    def test_seed_belongs_to_simulate_only(self, small_manifest, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["spn", "diff", "--manifest", str(small_manifest), "--seed", "1",
                     "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("command,flag", [
        (["spn", "mean", "--condition", "rest"], ["--abs"]),
        (["spn", "diff"], ["--abs"]),
        (["spn", "node-diff"], ["--abs"]),
        (["metrics"], ["--base-rate", "0.01"]),
        (["metrics"], ["--correction", "none"]),
        (["density-profile"], ["--base-rate", "0.01"]),
        (["density-profile"], ["--correction", "none"]),
        (["density-profile"], ["--standardize"]),
        (["report"], ["--standardize"]),
        (["metrics"], ["--strict"]),
        (["density-profile"], ["--strict"]),
        (SIMULATE_REWIRE, ["--strict"]),
        (SIMULATE_EDGES, ["--strict"]),
    ], ids=["spn-mean-abs", "spn-diff-abs", "spn-node-diff-abs", "metrics-base-rate",
            "metrics-correction", "density-profile-base-rate", "density-profile-correction",
            "density-profile-standardize", "report-standardize", "metrics-strict",
            "density-profile-strict", "simulate-rewire-strict", "simulate-edges-strict"])
    def test_flags_belong_to_the_subcommands_that_read_them(self, small_manifest, tmp_path,
                                                            capsys, command, flag):
        out = tmp_path / "out"
        manifest = [] if command[0] == "simulate" else ["--manifest", str(small_manifest)]
        with pytest.raises(SystemExit) as exit_:
            run_cli([*command, *manifest, *flag, "--out-dir", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


def read_table(path) -> list[dict]:
    """The rows of a CSV table as dicts, each checked to the header's width."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows), path.name
    return [dict(zip(header, row)) for row in rows]


class TestCsvTables:
    def test_commas_and_quotes_read_back(self, quoted_manifest, tmp_path):
        m = ["--manifest", str(quoted_manifest), "--abs"]
        assert run_cli(["report", *m, "--out-dir", str(tmp_path / "report")]) == 0
        assert run_cli(["metrics", *m, "--tau", "0.3", "--out-dir", str(tmp_path / "metrics")]) == 0
        tables = sorted([*(tmp_path / "report").glob("*.csv"), tmp_path / "metrics" / "metrics.csv"])
        assert len(tables) == 1 + 3 + 1 + 2 + 1
        cells = [(s, c) for s in QUOTED_SUBJECTS for c in QUOTED_CONDITIONS]
        for path in tables:
            rows = read_table(path)
            if "subject" in rows[0]:
                assert [(r["subject"], r["condition"]) for r in rows] == cells, path.name
            elif "condition" in rows[0]:
                assert {r["condition"] for r in rows} == set(QUOTED_CONDITIONS), path.name
            else:
                assert len(rows) == 15, path.name
                for r in rows:
                    assert r["label_i"] == QUOTED_LABELS[int(r["i"])], path.name
                    assert r["label_j"] == QUOTED_LABELS[int(r["j"])], path.name

    def test_no_subcommand_writes_a_carriage_return(self, quoted_manifest, tmp_path):
        m = ["--manifest", str(quoted_manifest)]
        sweep = ["--n-v", "10", "--replicates", "2"]
        runs = [
            ["spn", "mean", *m, "--condition", "0"],
            ["spn", "diff", *m],
            ["spn", "node-diff", *m],
            ["metrics", *m, "--abs", "--tau", "0.3"],
            ["density-profile", *m, "--abs"],
            ["simulate", "rewire", *sweep, "--n-e", "15", "--grid", "0,5"],
            ["simulate", "edges", *sweep, "--topology", "lattice", "--edge-grid", "10,20"],
            ["simulate", "edges", *sweep, "--topology", "random", "--edge-grid", "10,20"],
            ["report", *m, "--abs"],
        ]
        for k, args in enumerate(runs):
            assert run_cli([*args, "--out-dir", str(tmp_path / str(k))]) == 0, args
        tables = sorted(tmp_path.glob("*/*.csv"))
        assert len(tables) == 1 + 1 + 1 + 1 + 2 + 1 + 1 + 1 + (1 + 3 + 1 + 2)
        for path in tables:
            assert b"\r" not in path.read_bytes(), path
        rows = read_table(tmp_path / "2" / "node_differential_stats.csv")
        assert [r["label"] for r in rows] == list(QUOTED_LABELS)
