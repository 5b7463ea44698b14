"""The README's library quickstart runs against the current API.

The first fenced ``python`` block of ``README.md`` is read as text and
executed in a directory holding a small study (2 subjects x 2 conditions)
under the ``manifest.json`` name the block loads, so an API change that
leaves the quickstart stale fails here.
"""

import re
from pathlib import Path

import numpy as np

from datasets import build_manifest, noise_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block() -> str:
    match = re.search(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert match, "README.md has no python block"
    return match.group(1)


def test_library_quickstart_runs(tmp_path, monkeypatch):
    data = noise_dataset(np.random.default_rng(0), n=2, j=2, n_v=8)
    build_manifest(tmp_path, data.correlations(), data.node_labels, data.condition_labels,
                   data.subject_ids)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(first_python_block(), str(README), "exec"), namespace)
    assert namespace["profile"].densities
    assert namespace["mean_net"].network.n_nodes == 8
