"""Synthetic dataset builders shared by the SPN, acceptance, CLI and README tests."""

import json

import numpy as np

from spnkit import NodeSignalDataset, StudyDataset


def stack_from_z(z_edges: np.ndarray) -> np.ndarray:
    """The (n, J, N_V, N_V) correlation stack of (n, J, N_E) Fisher-z edge values."""
    n, j, n_e = z_edges.shape
    n_v = int(round((1 + np.sqrt(1 + 8 * n_e)) / 2))
    assert n_v * (n_v - 1) // 2 == n_e
    iu = np.triu_indices(n_v, k=1)
    corr = np.zeros((n, j, n_v, n_v))
    r = np.tanh(z_edges)
    for i in range(n):
        for c in range(j):
            m = np.zeros((n_v, n_v))
            m[iu] = r[i, c]
            corr[i, c] = m + m.T
    return corr


def dataset_from_z(z_edges: np.ndarray) -> StudyDataset:
    """Build a StudyDataset from (n, J, N_E) Fisher-z edge values."""
    corr = stack_from_z(z_edges)
    n, j, n_v, _ = corr.shape
    return StudyDataset(
        correlations=corr,
        node_labels=tuple(f"n{v}" for v in range(n_v)),
        condition_labels=tuple(f"c{c}" for c in range(j)),
        subject_ids=tuple(f"s{i}" for i in range(n)),
    )


def noise_dataset(rng, n=20, j=4, n_v=12, sigma=0.2) -> StudyDataset:
    n_e = n_v * (n_v - 1) // 2
    return dataset_from_z(rng.normal(0.0, sigma, size=(n, j, n_e)))


def planted_mean_dataset(rng, edge_index: int, effect=1.0, n=20, j=4, n_v=12, sigma=0.2):
    """One edge elevated to Fisher-z ``effect`` in every cell; rest is noise."""
    n_e = n_v * (n_v - 1) // 2
    z = rng.normal(0.0, sigma, size=(n, j, n_e))
    z[:, :, edge_index] += effect
    return dataset_from_z(z)


def planted_trend_dataset(rng, edge_up: int, edge_down: int, effect=1.0,
                          n=20, j=4, n_v=12, sigma=0.2):
    """One edge rising and one falling linearly by ``effect`` across conditions."""
    n_e = n_v * (n_v - 1) // 2
    z = rng.normal(0.0, sigma, size=(n, j, n_e))
    ramp = effect * np.arange(j) / (j - 1)
    z[:, :, edge_up] += ramp
    z[:, :, edge_down] += ramp[::-1]
    return dataset_from_z(z)


def signal_dataset(values: np.ndarray) -> NodeSignalDataset:
    n, j, n_v = values.shape
    return NodeSignalDataset(
        signals=values,
        node_labels=tuple(f"n{v}" for v in range(n_v)),
        condition_labels=tuple(f"c{c}" for c in range(j)),
        subject_ids=tuple(f"s{i}" for i in range(n)),
    )


def write_matrix(path, m):
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in m) + "\n")


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
