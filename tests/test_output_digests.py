"""Every CLI op writes the bytes recorded in ``output_digests.json``.

The study is 8 subjects x 4 conditions x 48 nodes, with node signals.  Its
1,128 edges are more than one block of the differential SPN, so that
test runs the blockwise path.  Each op runs with the manifest path given
relative to the working directory, as ``run_log.txt`` records it.

The digests hold this environment's bits; the run log's version line
tells a numpy change apart from a code change.  A change that alters
output bytes on purpose rewrites the digest file in the same diff:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from spnkit import DegenerateStatisticsWarning
from spnkit.cli import main as cli_main

from datasets import build_manifest, dataset_from_z

DIGESTS = Path(__file__).with_name("output_digests.json")
MANIFEST = ["--manifest", "manifest.json"]

OPS = {
    "report": ["report", *MANIFEST, "--abs", "--grid", "1:1128:47"],
    "spn-mean": ["spn", "mean", *MANIFEST, "--condition", "c2"],
    "spn-mean-csv": ["spn", "mean", *MANIFEST, "--condition", "c2", "--format", "csv"],
    "spn-diff": ["spn", "diff", *MANIFEST],
    "spn-diff-dot": ["spn", "diff", *MANIFEST, "--format", "dot"],
    "spn-node-diff": ["spn", "node-diff", *MANIFEST],
    "metrics": ["metrics", *MANIFEST, "--abs", "--tau", "0.3"],
    "density-profile": ["density-profile", *MANIFEST, "--abs", "--metric", "modularity_q",
                        "--grid", "1:1128:24"],
    "density-profile-global": ["density-profile", *MANIFEST, "--abs", "--metric",
                               "global_efficiency"],
    "density-profile-local": ["density-profile", *MANIFEST, "--abs", "--metric",
                              "local_efficiency", "--grid", "1:1128:47"],
    "simulate-rewire": ["simulate", "rewire", "--n-v", "16", "--n-e", "30", "--grid", "0:20:10",
                        "--replicates", "3", "--seed", "5"],
    "simulate-edges": ["simulate", "edges", "--n-v", "16", "--topology", "random",
                       "--edge-grid", "20,40,60", "--replicates", "3", "--seed", "5"],
}


def build_study(directory: Path) -> None:
    """Write the seeded 8 x 4 x 48 study and its manifest into ``directory``:
    60 edges raised in every condition, 20 rising and 20 falling across the
    conditions, and 3 node signals with a trend."""
    rng = np.random.default_rng(20131)
    z = rng.normal(0.0, 0.25, size=(8, 4, 1128))
    ramp = np.linspace(0.0, 1.2, 4)
    z[:, :, :60] += 0.5
    z[:, :, 100:120] += ramp[:, None]
    z[:, :, 200:220] += ramp[::-1, None]
    data = dataset_from_z(z)
    signals = rng.normal(0.0, 1.0, size=(8, 4, 48))
    signals[:, :, [3, 4]] += 2.5 * ramp[:, None]
    signals[:, :, 10] -= 2.5 * ramp
    build_manifest(directory, data.correlations(), data.node_labels, data.condition_labels,
                   data.subject_ids, signals=signals)


def run_op(op: str, out: Path) -> dict:
    """Run ``op`` in the study's directory, the working directory; return the
    sha256 of each file it wrote, by name."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateStatisticsWarning)
        assert cli_main([*OPS[op], "--out-dir", str(out)]) == 0, op
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    directory = tmp_path_factory.mktemp("study")
    build_study(directory)
    return directory


@pytest.mark.parametrize("op", OPS)
def test_op_writes_the_committed_bytes(op, study, tmp_path, monkeypatch):
    monkeypatch.chdir(study)
    got = run_op(op, tmp_path / "out")
    expected = json.loads(DIGESTS.read_text())[op]
    assert sorted(got) == sorted(expected), f"{op} wrote other files"
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"{op} changed the bytes of {changed}"


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        study_dir = Path(scratch) / "study"
        study_dir.mkdir()
        build_study(study_dir)
        os.chdir(study_dir)
        digests = {op: run_op(op, Path(scratch) / op) for op in OPS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
