"""Seeded study inputs for the benchmark: a manifest with matrix and signal files.

Every correlation matrix is the sample correlation of ``samples`` draws
from a module factor model.  Nodes fall into equal modules; a node's
loading on its module factor rises with the condition index, so
within-module edges strengthen along the gradient.  Two edges between
different modules are planted on top: one shares a component whose
weight rises with condition, the other one whose weight falls.  Signal
files carry a per-node baseline, a per-subject offset, noise, and a
linear rise on a few planted nodes.

The same seed always gives the same bytes.  Only these files reach the
program; the planted pairs and nodes are returned for the checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIZES = {
    "paper": {"subjects": 20, "conditions": 4, "nodes": 112, "modules": 8, "samples": 120},
    "smoke": {"subjects": 6, "conditions": 4, "nodes": 24, "modules": 4, "samples": 120},
}
CONDITIONS = ("0-back", "1-back", "2-back", "3-back")
RISING_NODES = 6


@dataclass(frozen=True)
class Study:
    """Where the generated files are, and what was planted in them."""

    manifest: Path
    rising_edge: tuple[int, int]
    falling_edge: tuple[int, int]
    rising_nodes: tuple[int, ...]


def _format_row(values) -> str:
    return ",".join(format(float(x), ".17g") for x in values)


def _planted_pair(rng, module_of: np.ndarray, taken: set) -> tuple[int, int]:
    while True:
        a, b = sorted(int(x) for x in rng.choice(module_of.size, size=2, replace=False))
        if module_of[a] != module_of[b] and not {a, b} & taken:
            return a, b


def _correlation(x: np.ndarray) -> np.ndarray:
    """Exactly symmetric, hollow sample correlation of the columns of x."""
    x = x - x.mean(axis=0)
    x = x / np.sqrt((x * x).sum(axis=0))
    # einsum, not BLAS: the bytes must not depend on the thread count
    r = np.einsum("ti,tj->ij", x, x)
    r = np.triu(r, k=1)
    r = r + r.T
    if not np.all(np.abs(r) < 1.0):
        raise ValueError("generated correlation reached |r| = 1")
    return r


def generate(out_dir: Path, seed: int, size: str = "paper") -> Study:
    """Write manifest.json plus one matrix and one signal file per cell."""
    spec = SIZES[size]
    n, j, n_v, n_mod, t = (spec[k] for k in ("subjects", "conditions", "nodes", "modules", "samples"))
    conditions = CONDITIONS[:j]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B17)))
    module_of = np.arange(n_v) * n_mod // n_v
    rising_edge = _planted_pair(rng, module_of, set())
    falling_edge = _planted_pair(rng, module_of, set(rising_edge))
    rising_nodes = tuple(sorted(int(v) for v in rng.choice(n_v, size=RISING_NODES, replace=False)))

    loading = np.linspace(0.35, 0.65, j)
    planted = np.linspace(0.0, 1.2, j)
    signal_base = rng.normal(10.0, 1.0, n_v)
    signal_ramp = np.zeros(n_v)
    signal_ramp[list(rising_nodes)] = 1.0

    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = [f"s{si + 1:02d}" for si in range(n)]
    files: dict = {}
    signal_files: dict = {}
    for si, subject in enumerate(subjects):
        files[subject], signal_files[subject] = {}, {}
        subject_offset = rng.normal(0.0, 0.5)
        for ci, condition in enumerate(conditions):
            lam = np.clip(loading[ci] + rng.normal(0.0, 0.03, n_v), 0.05, 0.95)
            factors = rng.normal(size=(t, n_mod))
            x = lam * factors[:, module_of] + np.sqrt(1.0 - lam**2) * rng.normal(size=(t, n_v))
            for (a, b), gamma in ((rising_edge, planted[ci]), (falling_edge, planted[j - 1 - ci])):
                shared = rng.normal(size=t)
                x[:, a] += gamma * shared
                x[:, b] += gamma * shared
            name = f"{subject}_{condition}.csv"
            r = _correlation(x)
            (out_dir / name).write_text("\n".join(_format_row(row) for row in r) + "\n")
            files[subject][condition] = name

            signal = signal_base + subject_offset + 0.5 * ci * signal_ramp + rng.normal(0.0, 0.3, n_v)
            sig_name = f"{subject}_{condition}_signal.csv"
            (out_dir / sig_name).write_text(_format_row(signal) + "\n")
            signal_files[subject][condition] = sig_name

    angles = 2.0 * np.pi * np.arange(n_v) / n_v
    coords = np.column_stack([60.0 * np.cos(angles), 60.0 * np.sin(angles), 10.0 * module_of])
    manifest = {
        "schema": 1,
        "subjects": subjects,
        "conditions": list(conditions),
        "nodes": {
            "labels": [f"R{v:03d}_M{module_of[v]}" for v in range(n_v)],
            "coords": coords.round(6).tolist(),
        },
        "files": files,
        "signal_files": signal_files,
        "options": {"standardize": False, "base_rate": 0.05, "density_grid": None, "seed": 42},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n")
    return Study(path, rising_edge, falling_edge, rising_nodes)
