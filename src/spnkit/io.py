"""Dataset ingestion, weight standardization, exporters, and the report pipeline.

Matrix files are headerless comma-separated full square matrices.  A
manifest (JSON, ``"schema": 1``) names subjects, gradient-ordered
conditions, node labels (with optional 3D coordinates, passed through to
DOT for external layout), and one matrix file per (subject, condition)
cell; file paths are resolved relative to the manifest.

Node label order in the manifest is authoritative: loading never
reorders nodes, and every exported artifact follows that order.  All
writers are deterministic (no timestamps), so a rerun with the same
inputs and options is byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import density as density_mod
from .errors import (
    DataError,
    DegenerateStatisticsWarning,
    IncompleteDesignError,
    SchemaError,
    ValidationError,
)
from .graphs import BinaryGraph, WeightedGraph, weighted_density
from .spn import NodeSignalDataset, SpnResult, StudyDataset, differential_spn, mean_spn
from .spn import _check_signals, _checked_correlation_matrix
from .stats import fisher_z, fisher_z_inverse

MANIFEST_SCHEMA = 1
EXPORT_FORMATS = ("dot", "json", "csv")


@dataclass(frozen=True)
class ManifestOptions:
    standardize: bool = False
    base_rate: float = 0.05
    density_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.base_rate < 1.0:
            raise SchemaError(f"base_rate must lie in (0, 1), got {self.base_rate!r}")


@dataclass(frozen=True, eq=False)
class Manifest:
    subjects: tuple[str, ...]
    conditions: tuple[str, ...]
    node_labels: tuple[str, ...]
    node_coords: np.ndarray | None
    files: dict
    signal_files: dict | None
    options: ManifestOptions
    root: Path


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", (int, float): "a number", type(None): "null"}


def parse_manifest(path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc

    def typed(value, kind: type, key: str):
        if not isinstance(value, kind):
            raise SchemaError(
                f"{path}: {key} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}"
            )
        return value

    typed(raw, dict, "the manifest")
    if raw.get("schema") != MANIFEST_SCHEMA:
        raise SchemaError(f"{path}: expected \"schema\": {MANIFEST_SCHEMA}, got {raw.get('schema')!r}")
    for key in ("subjects", "conditions", "nodes", "files"):
        if key not in raw:
            raise SchemaError(f"{path}: missing manifest key {key!r}")
    subjects = tuple(str(s) for s in typed(raw["subjects"], list, "subjects"))
    conditions = tuple(str(c) for c in typed(raw["conditions"], list, "conditions"))
    if len(set(subjects)) != len(subjects) or len(set(conditions)) != len(conditions):
        raise SchemaError(f"{path}: duplicate subject or condition ids")
    nodes = typed(raw["nodes"], dict, "nodes")
    if "labels" not in nodes:
        raise SchemaError(f"{path}: nodes must carry a 'labels' list")
    labels = tuple(str(x) for x in typed(nodes["labels"], list, "nodes.labels"))
    coords = None
    if nodes.get("coords") is not None:
        try:
            coords = np.asarray(nodes["coords"], dtype=float)
        except (TypeError, ValueError):  # ragged or non-numeric
            coords = np.empty(0)
        if coords.shape != (len(labels), 3):
            raise SchemaError(f"{path}: nodes.coords must be {len(labels)} 3-vectors")

    def check_cells(mapping, what: str) -> dict:
        cells = {}
        for subject, per_condition in typed(mapping, dict, what).items():
            if subject not in subjects:
                raise SchemaError(f"{path}: {what} names unknown subject {subject!r}")
            for condition, file_name in typed(per_condition, dict, f"{what}[{subject!r}]").items():
                if condition not in conditions:
                    raise SchemaError(f"{path}: {what} names unknown condition {condition!r}")
                cells[(subject, condition)] = path.parent / typed(
                    file_name, str, f"{what}[{subject!r}][{condition!r}]")
        for subject in subjects:
            for condition in conditions:
                if (subject, condition) not in cells:
                    raise IncompleteDesignError(
                        f"{path}: {what} is missing cell (subject {subject!r}, condition {condition!r})"
                    )
        return cells

    files = check_cells(raw["files"], "files")
    signal_files = None
    if raw.get("signal_files") is not None:
        signal_files = check_cells(raw["signal_files"], "signal_files")

    # other keys in "options" (an old "seed" among them) are ignored
    opts = typed(raw.get("options", {}), dict, "options")
    grid = opts.get("density_grid")
    if grid is not None and not (
        isinstance(grid, list) and all(type(k) is int for k in grid)
    ):
        raise SchemaError(f"{path}: options.density_grid must be a list of integers, got {grid!r}")
    options = ManifestOptions(
        standardize=typed(opts.get("standardize", False), bool, "options.standardize"),
        base_rate=float(typed(opts.get("base_rate", 0.05), (int, float), "options.base_rate")),
        density_grid=tuple(grid) if grid is not None else None,
    )
    return Manifest(subjects, conditions, labels, coords, files, signal_files, options, path.parent)


def _raise_if_ragged(path: Path) -> None:
    """Name the first line whose value count differs from the first row's."""
    expected = first = None
    for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        count = len(text.split(","))
        if expected is None:
            expected, first = count, lineno
        elif count != expected:
            raise DataError(
                f"{path}: line {lineno} holds {count} values, expected {expected} "
                f"(as on line {first})"
            )


def load_matrix_csv(path, n_nodes: int | None = None) -> np.ndarray:
    """Read one headerless comma-separated square matrix."""
    path = Path(path)
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        _raise_if_ragged(path)
        raise DataError(f"{path}: cannot parse matrix: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"{path}: expected a square matrix, got shape {matrix.shape}")
    if n_nodes is not None and matrix.shape[0] != n_nodes:
        raise SchemaError(f"{path}: expected a {n_nodes}x{n_nodes} matrix, got {matrix.shape}")
    return matrix


def load_dataset(manifest: Manifest | str | Path) -> StudyDataset:
    """Assemble the balanced subjects x conditions array from manifest files."""
    if not isinstance(manifest, Manifest):
        manifest = parse_manifest(manifest)
    n_v = len(manifest.node_labels)
    n, j = len(manifest.subjects), len(manifest.conditions)
    data = np.empty((n, j, n_v, n_v), dtype=float)
    for si, subject in enumerate(manifest.subjects):
        for ci, condition in enumerate(manifest.conditions):
            path = manifest.files[(subject, condition)]
            data[si, ci] = _checked_correlation_matrix(load_matrix_csv(path, n_v), path)
    return StudyDataset(
        correlations=data,
        node_labels=manifest.node_labels,
        condition_labels=manifest.conditions,
        subject_ids=manifest.subjects,
        node_coords=manifest.node_coords,
    )


def load_node_signals(manifest: Manifest | str | Path) -> NodeSignalDataset:
    """Assemble per-node signal vectors from the manifest's signal_files map."""
    if not isinstance(manifest, Manifest):
        manifest = parse_manifest(manifest)
    if manifest.signal_files is None:
        raise SchemaError("manifest has no 'signal_files' map")
    n_v = len(manifest.node_labels)
    n, j = len(manifest.subjects), len(manifest.conditions)
    signals = np.empty((n, j, n_v), dtype=float)
    for si, subject in enumerate(manifest.subjects):
        for ci, condition in enumerate(manifest.conditions):
            path = manifest.signal_files[(subject, condition)]
            try:
                vec = np.loadtxt(path, delimiter=",").ravel()
            except ValueError as exc:
                raise DataError(f"{path}: cannot parse signal vector: {exc}") from exc
            if vec.size != n_v:
                raise SchemaError(f"{path}: expected {n_v} signal values, got {vec.size}")
            _check_signals(vec, path, manifest.node_labels)
            signals[si, ci] = vec
    return NodeSignalDataset(
        signals=signals,
        node_labels=manifest.node_labels,
        condition_labels=manifest.conditions,
        subject_ids=manifest.subjects,
    )


def association_graph(matrix, node_labels=None, node_coords=None, negatives: str = "error") -> WeightedGraph:
    """Turn a signed association matrix into a nonnegative WeightedGraph.

    negatives='error' refuses signed input (the analyst must decide);
    negatives='abs' takes absolute values first.  WeightedGraph then
    validates the result.
    """
    return _association_graph(matrix, node_labels, node_coords, negatives, "association matrix")


def _association_graph(matrix, node_labels, node_coords, negatives: str,
                       source: str) -> WeightedGraph:
    m = np.asarray(matrix, dtype=float)
    if negatives == "abs":
        m = np.abs(m)
    elif negatives != "error":
        raise ValidationError(f"negatives must be 'error' or 'abs', got {negatives!r}")
    elif m.ndim == 2 and np.any(m < 0):
        i, j = np.unravel_index(np.nanargmin(m), m.shape)
        raise DataError(
            f"{source} has negative entry {float(m[i, j])!r} at ({i},{j}); "
            "rerun with --abs (negatives='abs') to accept signed input"
        )
    if node_labels is None:
        node_labels = tuple(f"n{i}" for i in range(m.shape[0]))
    return WeightedGraph(tuple(node_labels), m, node_coords)


def _cell_graph(data: StudyDataset, si: int, ci: int, negatives: str) -> WeightedGraph:
    """The association graph of one subject x condition cell."""
    return _association_graph(
        data.correlations[si, ci], data.node_labels, None, negatives,
        f"association matrix of subject {data.subject_ids[si]!r}, "
        f"condition {data.condition_labels[ci]!r}",
    )


def standardize_weights(g: WeightedGraph) -> WeightedGraph:
    """Min-max rescale positive weights onto (0, 1]; zero entries stay zero.

    Strictly increasing on positives, so per-density edge selections are
    unchanged.
    """
    w = g.weights
    pos = w > 0
    values = w[pos]
    if np.unique(values).size < 2:
        raise ValidationError(
            "standardization needs at least two distinct positive weights"
        )
    w_min, w_max = float(values.min()), float(values.max())
    delta = (w_max - w_min) * 1e-6
    out = np.zeros_like(w)
    out[pos] = (w[pos] - w_min + delta) / (w_max - w_min + delta)
    return WeightedGraph(g.node_labels, out, g.node_coords)


# ---------------------------------------------------------------------------
# Exporters


def _quote(label: str) -> str:
    return '"' + label.replace('"', r"\"") + '"'


def _graph_payload(g) -> dict:
    payload: dict = {"schema": 1}
    if isinstance(g, BinaryGraph):
        payload["kind"] = "binary"
        payload["node_labels"] = list(g.node_labels)
        payload["node_coords"] = None if g.node_coords is None else g.node_coords.tolist()
        payload["adjacency"] = g.adjacency.astype(int).tolist()
    elif isinstance(g, WeightedGraph):
        payload["kind"] = "weighted"
        payload["node_labels"] = list(g.node_labels)
        payload["node_coords"] = None if g.node_coords is None else g.node_coords.tolist()
        payload["weights"] = g.weights.tolist()
    else:
        raise ValidationError(f"cannot export object of type {type(g).__name__}")
    return payload


def _to_dot(g) -> str:
    lines = ["graph spn {"]
    coords = g.node_coords
    for v, label in enumerate(g.node_labels):
        if coords is not None:
            x, y, z = (repr(float(c)) for c in coords[v])
            lines.append(f"  {_quote(label)} [pos=\"{x},{y},{z}!\"];")
        else:
            lines.append(f"  {_quote(label)};")
    if isinstance(g, BinaryGraph):
        for i, j in g.edges():
            lines.append(f"  {_quote(g.node_labels[i])} -- {_quote(g.node_labels[j])};")
    else:
        for i, j, w in g.positive_edges():
            lines.append(
                f"  {_quote(g.node_labels[i])} -- {_quote(g.node_labels[j])} [weight={w!r}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_csv_text(g) -> str:
    if isinstance(g, BinaryGraph):
        rows = ([str(int(x)) for x in row] for row in g.adjacency)
    else:
        rows = ([repr(float(x)) for x in row] for row in g.weights)
    return "\n".join(",".join(row) for row in rows) + "\n"


def export_graph(g, fmt: str, path) -> Path:
    """Write a graph as DOT, JSON, or a raw CSV matrix.

    DOT embeds node coordinates as pin positions when present; the JSON
    form round-trips byte-identically through graph_from_json.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"format must be one of {EXPORT_FORMATS}, got {fmt!r}")
    path = Path(path)
    try:
        if fmt == "dot":
            path.write_text(_to_dot(g))
        elif fmt == "json":
            path.write_text(json.dumps(_graph_payload(g), indent=2) + "\n")
        else:
            path.write_text(_to_csv_text(g))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def graph_from_json(path) -> BinaryGraph | WeightedGraph:
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("schema") != 1 or payload.get("kind") not in ("binary", "weighted"):
        raise SchemaError(f"{path}: not a graph JSON payload")
    labels = tuple(payload["node_labels"])
    coords = payload.get("node_coords")
    coords = None if coords is None else np.asarray(coords, dtype=float)
    if payload["kind"] == "binary":
        return BinaryGraph(labels, np.asarray(payload["adjacency"]), coords)
    return WeightedGraph(labels, np.asarray(payload["weights"], dtype=float), coords)


# ---------------------------------------------------------------------------
# Report steps and pipeline
#
# Each step takes the loaded data, an output directory and a file-name
# prefix ("02_" and so on inside report_pipeline, "" for a CLI
# subcommand), and returns its in-memory result with the paths it wrote.


@dataclass(frozen=True, eq=False)
class ReportBundle:
    """In-memory results plus the files written by report_pipeline.

    ``paths`` lists the report files; there is no run log among them
    (``spnkit report`` writes ``run_log.txt`` itself).  ``warnings``
    holds the message of every warning raised while the steps ran.
    """

    density_table: tuple
    mean_spns: dict
    differential: tuple[SpnResult, SpnResult]
    density_profiles: dict
    paths: tuple[Path, ...]
    warnings: tuple[str, ...] = ()


def safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def write_csv(path: Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


@contextlib.contextmanager
def recorded_warnings():
    """Record the warnings raised inside the block, then re-issue each one.

    Yields the list of ``warnings.WarningMessage`` records, filled when
    the block exits.  Every DegenerateStatisticsWarning is recorded;
    others as the caller's filters allow.  Re-issuing passes them on to
    the caller's filters and to any recorder further out.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateStatisticsWarning)
        yield caught
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def write_run_log(out_dir, command: str, config: dict, notes, paths) -> Path:
    """Write ``run_log.txt``: the command, its config, the spnkit, numpy and
    scipy versions, every warning and every file written.  Holds nothing
    that changes between reruns with the same inputs and options."""
    import scipy

    from . import __version__

    lines = [
        command,
        "config: " + json.dumps(config, sort_keys=True),
        f"versions: spnkit {__version__}, numpy {np.__version__}, scipy {scipy.__version__}",
    ]
    lines += [f"warning: {note}" for note in notes]
    lines += [f"wrote: {Path(p).name}" for p in paths]
    log_path = Path(out_dir) / "run_log.txt"
    log_path.write_text("\n".join(lines) + "\n")
    return log_path


def condition_mean_matrix(data: StudyDataset, condition: int) -> np.ndarray:
    """Fisher-domain mean of one condition's matrices, back-transformed."""
    z = fisher_z(data.correlations[:, condition])
    return np.asarray(fisher_z_inverse(z.mean(axis=0)))


def _float_column(values: np.ndarray) -> list[str]:
    return [repr(x) for x in values.tolist()]


def _edge_columns(node_labels, result: SpnResult) -> list:
    """i, j, labels, statistic, p-value, sign and rejection, one entry per edge."""
    rows, cols = np.triu_indices(len(node_labels), k=1)
    return [
        rows.tolist(),
        cols.tolist(),
        [node_labels[i] for i in rows],
        [node_labels[j] for j in cols],
        _float_column(result.statistic),
        _float_column(result.p_value),
        result.sign.tolist(),
        result.correction.rejected.astype(int).tolist(),
    ]


def write_mean_spn_stats(path, node_labels, result: SpnResult) -> Path:
    rows, cols = np.triu_indices(len(node_labels), k=1)
    included = (result.network.adjacency[rows, cols] != 0).astype(int).tolist()
    return write_csv(
        Path(path),
        ["i", "j", "label_i", "label_j", "statistic", "p_value",
         "effect_sign", "rejected", "included"],
        zip(*_edge_columns(node_labels, result), included),
    )


def write_differential_stats(path, node_labels, plus: SpnResult, minus: SpnResult) -> Path:
    rows, cols = np.triu_indices(len(node_labels), k=1)
    routed = np.where(plus.network.adjacency[rows, cols] != 0, "plus",
                      np.where(minus.network.adjacency[rows, cols] != 0, "minus", "none"))
    return write_csv(
        Path(path),
        ["i", "j", "label_i", "label_j", "f_statistic", "p_value",
         "trend_sign", "rejected", "routed"],
        zip(*_edge_columns(node_labels, plus), routed.tolist()),
    )


def write_node_differential_stats(path, node_labels, plus: SpnResult, minus: SpnResult) -> Path:
    routed = np.full(len(node_labels), "none", dtype=object)
    routed[list(minus.flagged_nodes)] = "down"
    routed[list(plus.flagged_nodes)] = "up"
    return write_csv(
        Path(path),
        ["node", "label", "f_statistic", "p_value", "trend_sign", "rejected", "routed"],
        zip(
            range(len(node_labels)),
            node_labels,
            _float_column(plus.statistic),
            _float_column(plus.p_value),
            plus.sign.tolist(),
            plus.correction.rejected.astype(int).tolist(),
            routed.tolist(),
        ),
    )


def step_weighted_density(data: StudyDataset, out: Path, prefix: str, negatives: str):
    """Step 1: the weighted density of every subject x condition cell."""
    table = [
        (subject, condition, weighted_density(_cell_graph(data, si, ci, negatives)))
        for si, subject in enumerate(data.subject_ids)
        for ci, condition in enumerate(data.condition_labels)
    ]
    path = write_csv(
        out / f"{prefix}weighted_density.csv",
        ["subject", "condition", "weighted_density"],
        ((s, c, repr(v)) for s, c, v in table),
    )
    return table, [path]


def step_mean_spn(data: StudyDataset, out: Path, prefix: str, condition: int,
                  base_rate: float, correction: str, fmt: str):
    """Step 2: the mean SPN of one condition, as a graph and a stats CSV."""
    result = mean_spn(data, condition, base_rate, correction)
    stem = f"{prefix}mean_spn_{safe_name(data.condition_labels[condition])}"
    return result, [
        export_graph(result.network, fmt, out / f"{stem}.{fmt}"),
        write_mean_spn_stats(out / f"{stem}_stats.csv", data.node_labels, result),
    ]


def step_differential_spn(data: StudyDataset, out: Path, prefix: str,
                          base_rate: float, correction: str, fmt: str):
    """Step 3: the differential SPN+/SPN- pair and their shared stats CSV."""
    plus, minus = differential_spn(data, base_rate, correction)
    paths = [
        export_graph(result.network, fmt, out / f"{prefix}differential_spn_{tag}.{fmt}")
        for tag, result in (("plus", plus), ("minus", minus))
    ]
    paths.append(write_differential_stats(
        out / f"{prefix}differential_stats.csv", data.node_labels, plus, minus))
    return (plus, minus), paths


def step_density_profiles(data: StudyDataset, out: Path, prefix: str, negatives: str,
                          standardize: bool, metric: str, density_grid):
    """Step 4: density-integrated metric profiles of each condition-mean matrix."""
    metric_fn = density_mod.metric_by_name(metric)
    profiles, profile_rows, summary_rows = {}, [], []
    for ci, condition in enumerate(data.condition_labels):
        g = _association_graph(
            condition_mean_matrix(data, ci), data.node_labels, None, negatives,
            f"condition-mean association matrix of condition {condition!r}",
        )
        if standardize:
            g = standardize_weights(g)
        profile = density_mod.density_integrated_metric(g, metric_fn, grid=density_grid)
        profiles[condition] = profile
        for k, mass, value in zip(profile.densities, profile.weights, profile.values):
            profile_rows.append((condition, k, repr(float(mass)), repr(float(value))))
        summary_rows.append((condition, metric, repr(profile.integrated)))
    return profiles, [
        write_csv(out / f"{prefix}density_profiles.csv",
                  ["condition", "k", "p_mass", "value"], profile_rows),
        write_csv(out / f"{prefix}density_integrated.csv",
                  ["condition", "metric", "integrated"], summary_rows),
    ]


def report_pipeline(
    data: StudyDataset,
    out_dir,
    base_rate: float = 0.05,
    correction: str = "fdr",
    negatives: str = "error",
    standardize: bool = False,
    metric: str = "global_efficiency",
    density_grid=None,
    fmt: str = "json",
) -> ReportBundle:
    """Emit the recommended reporting sequence into ``out_dir``.

    In order: (1) the per-subject-per-condition weighted density table,
    (2) one mean SPN per condition, (3) the differential SPN pair,
    (4) density-integrated metric profiles per condition (computed on
    the condition-mean association matrix).  Reruns with identical
    inputs and options produce byte-identical files.  No run log is
    written: the warnings are in the returned bundle, and the CLI's
    ``spnkit report`` writes ``run_log.txt`` next to these files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with recorded_warnings() as caught:
        table, paths = step_weighted_density(data, out, "01_", negatives)
        mean_results = {}
        for ci, condition in enumerate(data.condition_labels):
            mean_results[condition], written = step_mean_spn(
                data, out, "02_", ci, base_rate, correction, fmt)
            paths += written
        differential, written = step_differential_spn(data, out, "03_", base_rate, correction, fmt)
        paths += written
        profiles, written = step_density_profiles(
            data, out, "04_", negatives, standardize, metric, density_grid)
        paths += written
    return ReportBundle(
        density_table=tuple(table),
        mean_spns=mean_results,
        differential=differential,
        density_profiles=profiles,
        paths=tuple(paths),
        warnings=tuple(str(w.message) for w in caught),
    )
