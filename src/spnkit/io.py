"""Dataset ingestion, exporters, and the report pipeline.

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

import csv
import json
import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import density as density_mod
from .errors import DataError, IncompleteDesignError, SchemaError, ValidationError
from .graphs import BinaryGraph, WeightedGraph, _freeze, _node_coords, _node_labels, _set_fields, \
    _symmetric, _upper_pairs, global_efficiency, local_efficiency, spread_condition_holds, \
    threshold, weighted_density, weighted_efficiency
from .spn import NodeSignalDataset, SpnResult, StudyDataset, _design_labels, differential_spn, \
    mean_spn, node_differential_spn
from .stats import fisher_z_inverse

MANIFEST_SCHEMA = 1
EXPORT_FORMATS = ("dot", "json", "csv")


@dataclass(frozen=True, eq=False)
class Manifest:
    """A checked manifest; ``base_rate`` and ``density_grid`` are the defaults
    its ``options`` set for ``--base-rate`` and ``--grid`` (0.05 and None if unset)."""

    subjects: tuple[str, ...]
    conditions: tuple[str, ...]
    node_labels: tuple[str, ...]
    node_coords: np.ndarray | None
    files: dict
    signal_files: dict | None
    base_rate: float
    density_grid: tuple[int, ...] | None
    path: Path


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", (int, float): "a number", type(None): "null"}


def _read_json(path: Path):
    """The parsed JSON text of ``path``; undecodable bytes or bad JSON name the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def parse_manifest(path) -> Manifest:
    path = Path(path)
    raw = _read_json(path)

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
    subjects = typed(raw["subjects"], list, "subjects")
    conditions = typed(raw["conditions"], list, "conditions")
    try:  # the datasets' rule, which refuses a carriage return
        conditions, subjects = _design_labels(conditions, subjects, len(conditions), len(subjects))
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if len(set(subjects)) != len(subjects) or len(set(conditions)) != len(conditions):
        raise SchemaError(f"{path}: duplicate subject or condition ids")
    nodes = typed(raw["nodes"], dict, "nodes")
    if "labels" not in nodes:
        raise SchemaError(f"{path}: nodes must carry a 'labels' list")
    raw_labels = typed(nodes["labels"], list, "nodes.labels")
    try:  # the value types' rule, which refuses repeated labels
        labels = _node_labels(raw_labels, len(raw_labels), "manifest")
    except ValidationError as exc:
        raise SchemaError(f"{path}: nodes.labels: {exc}") from exc
    coords = None
    if nodes.get("coords") is not None:
        try:
            coords = np.asarray(nodes["coords"], dtype=float)
        except (TypeError, ValueError):  # ragged or non-numeric
            coords = np.empty(0)
        if coords.shape != (len(labels), 3):
            raise SchemaError(f"{path}: nodes.coords must be {len(labels)} 3-vectors")
        try:  # the value types' rule, which refuses non-finite coordinates
            _node_coords(coords, labels)
        except ValidationError as exc:
            raise SchemaError(f"{path}: nodes.coords: {exc}") from exc

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
    base_rate = float(typed(opts.get("base_rate", 0.05), (int, float), "options.base_rate"))
    if not 0.0 < base_rate < 1.0:
        raise SchemaError(f"{path}: options.base_rate must lie in (0, 1), got {base_rate!r}")
    return Manifest(subjects, conditions, labels, coords, files, signal_files, base_rate,
                    tuple(grid) if grid is not None else None, path)


def _parse_fault(path: Path, what: str, exc: ValueError) -> str:
    """Why numpy could not parse ``path``: its first line whose value count
    differs from the first row's or that holds an entry that is not a number,
    naming the entry by its 0-based (row, col) cell and the line by its
    1-based number; else numpy's reason ``exc``."""
    rows = [(lineno, text.split(",")) for lineno, line
            in enumerate(path.read_text(errors="replace").splitlines(), start=1)
            if (text := line.split("#", 1)[0].strip())]
    for row, (lineno, tokens) in enumerate(rows):
        if len(tokens) != len(rows[0][1]):
            return (f"line {lineno} holds {len(tokens)} values, expected {len(rows[0][1])} "
                    f"(as on line {rows[0][0]})")
        for col, token in enumerate(tokens):
            try:  # float refuses an empty entry, numpy's parser a token such as '1_0'
                float(token)
                np.loadtxt([token], delimiter=",")
            except ValueError:
                return (f"cannot parse {what}: line {lineno}, entry ({row},{col}) holds "
                        f"{token.strip()!r}, not a number")
    return f"cannot parse {what}: {exc}"


def _read_csv(path: Path, what: str) -> np.ndarray:
    """The numbers of one headerless comma-separated file, as a 2-d array;
    a file numpy cannot parse, or that holds no values, is a DataError naming it."""
    try:
        with warnings.catch_warnings():  # numpy warns of a file with no values
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: {_parse_fault(path, what, exc)}") from exc
    if table.size == 0:
        raise DataError(f"{path}: cannot parse {what}: the file holds no values")
    return table


def load_matrix_csv(path, n_nodes: int | None = None) -> np.ndarray:
    """Read one headerless comma-separated square matrix."""
    path = Path(path)
    matrix = _read_csv(path, "matrix")
    if matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"{path}: expected a square matrix, got shape {matrix.shape}")
    if n_nodes is not None and matrix.shape[0] != n_nodes:
        raise SchemaError(f"{path}: expected a {n_nodes}x{n_nodes} matrix, got {matrix.shape}")
    return matrix


def _from_files(kind, manifest: Manifest, files: dict, read, *node_coords):
    """The ``kind`` dataset filled, by its one check-and-fill path, from the
    cell files of ``files``, read subject-major, one at a time; a
    StudyDataset takes ``node_coords`` too.

    ``read(path)`` parses one file and checks it holds the cell's shape.
    Every file is read and sized before the first cell that breaks the
    dataset's cell rule is reported, with the path of its file.
    """
    def cell(si, ci):
        path = files[(manifest.subjects[si], manifest.conditions[ci])]
        return read(path), path

    data = kind.__new__(kind)
    data._fill((len(manifest.subjects), len(manifest.conditions), len(manifest.node_labels)),
               cell, manifest.node_labels, manifest.conditions, manifest.subjects, *node_coords)
    return data


def load_dataset(manifest: Manifest | str | Path) -> StudyDataset:
    """Assemble the balanced subjects x conditions dataset from manifest files.

    The files fill the dataset through the same check-and-fill path as
    StudyDataset's constructor: each file is checked as it is read, and
    only its upper triangle is kept; a fault names the file.
    """
    if not isinstance(manifest, Manifest):
        manifest = parse_manifest(manifest)
    n_v = len(manifest.node_labels)
    return _from_files(StudyDataset, manifest, manifest.files,
                       lambda path: load_matrix_csv(path, n_v), manifest.node_coords)


def load_node_signals(manifest: Manifest | str | Path) -> NodeSignalDataset:
    """Assemble per-node signal vectors from the manifest's signal_files map.

    The files fill the dataset through the same check-and-fill path as
    NodeSignalDataset's constructor; a fault names the file.
    """
    if not isinstance(manifest, Manifest):
        manifest = parse_manifest(manifest)
    if manifest.signal_files is None:
        raise SchemaError(f"{manifest.path}: manifest has no 'signal_files' map")
    labels = manifest.node_labels

    def read(path):
        table = _read_csv(path, "signal vector")
        if min(table.shape) > 1:
            raise SchemaError(f"{path}: expected one row or one column of signal values, "
                              f"got {table.shape[0]} rows of {table.shape[1]}")
        vector = table.ravel()
        if vector.size != len(labels):
            raise SchemaError(f"{path}: expected {len(labels)} signal values, got {vector.size}")
        return vector

    return _from_files(NodeSignalDataset, manifest, manifest.signal_files, read)


def association_graph(matrix, node_labels=None, node_coords=None, negatives: str = "error") -> WeightedGraph:
    """Turn a signed association matrix into a nonnegative WeightedGraph.

    negatives='error' refuses signed input (the analyst must decide);
    negatives='abs' takes absolute values first.  WeightedGraph then
    validates the result.
    """
    return WeightedGraph.from_matrix(_nonnegative(matrix, negatives, "association matrix"),
                                     node_labels, node_coords)


def _nonnegative(matrix, negatives: str, source: str) -> np.ndarray:
    """The sign rule: ``matrix`` as floats, made nonnegative by negatives='abs';
    negatives='error' refuses a negative entry, naming ``source``."""
    m = np.asarray(matrix, dtype=float)
    if negatives == "abs":
        return np.abs(m)
    if negatives != "error":
        raise ValidationError(f"negatives must be 'error' or 'abs', got {negatives!r}")
    if m.ndim == 2 and np.any(m < 0):
        i, j = np.unravel_index(np.nanargmin(m), m.shape)
        raise DataError(
            f"{source} has negative entry {float(m[i, j])!r} at ({i},{j}); "
            "rerun with --abs (negatives='abs') to accept signed input"
        )
    return m


def _dataset_graph(data: StudyDataset, matrix, negatives: str, source: str) -> WeightedGraph:
    """The sign rule, then an unchecked build on ``data``'s labels: ``matrix``
    was rebuilt from checked upper triangles, so it is symmetric and hollow."""
    return _set_fields(object.__new__(WeightedGraph), node_labels=data.node_labels,
                       weights=_freeze(_nonnegative(matrix, negatives, source)), node_coords=None)


def _cell_graphs(data: StudyDataset, negatives: str):
    """(subject, condition, signed matrix, association graph) of each cell, subject-major."""
    for si, subject in enumerate(data.subject_ids):
        for ci, condition in enumerate(data.condition_labels):
            matrix = _symmetric(data.edge_values[si, ci], data.n_nodes)
            source = f"association matrix of subject {subject!r}, condition {condition!r}"
            yield subject, condition, matrix, _dataset_graph(data, matrix, negatives, source)


# ---------------------------------------------------------------------------
# Exporters


def _quote(label: str) -> str:
    return '"' + label.replace('"', r"\"") + '"'


# graph kind -> (value type, the field that holds its matrix); the JSON
# payload stores the matrix under the field's name
_GRAPH_KINDS = {"binary": (BinaryGraph, "adjacency"), "weighted": (WeightedGraph, "weights")}


def _to_dot(g, kind: str) -> str:
    lines = ["graph spn {"]
    coords = g.node_coords
    for v, label in enumerate(g.node_labels):
        if coords is not None:
            x, y, z = (repr(float(c)) for c in coords[v])
            lines.append(f"  {_quote(label)} [pos=\"{x},{y},{z}!\"];")
        else:
            lines.append(f"  {_quote(label)};")
    matrix = getattr(g, _GRAPH_KINDS[kind][1])
    rows, cols = np.nonzero(np.triu(matrix, k=1))
    for i, j, w in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()):
        weight = f" [weight={w!r}]" if kind == "weighted" else ""
        lines.append(f"  {_quote(g.node_labels[i])} -- {_quote(g.node_labels[j])}{weight};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(g, fmt: str, path) -> Path:
    """Write a graph as DOT, JSON, or a raw CSV matrix.

    DOT embeds node coordinates as pin positions when present; the JSON
    form round-trips byte-identically through graph_from_json.  Anything
    but a BinaryGraph or WeightedGraph is refused before a file is opened.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValidationError(f"format must be one of {EXPORT_FORMATS}, got {fmt!r}")
    kind = next((k for k, (cls, _) in _GRAPH_KINDS.items() if isinstance(g, cls)), None)
    if kind is None:
        raise ValidationError(f"cannot export object of type {type(g).__name__}")
    key = _GRAPH_KINDS[kind][1]
    if fmt == "dot":
        text = _to_dot(g, kind)
    elif fmt == "json":
        payload = {"schema": 1, "kind": kind, "node_labels": list(g.node_labels),
                   "node_coords": None if g.node_coords is None else g.node_coords.tolist(),
                   key: getattr(g, key).tolist()}
        text = json.dumps(payload, indent=2) + "\n"
    else:  # a uint8 adjacency lists as ints, weights as floats; repr prints both
        text = "\n".join(",".join(map(repr, row)) for row in getattr(g, key).tolist()) + "\n"
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def graph_from_json(path) -> BinaryGraph | WeightedGraph:
    path = Path(path)
    payload = _read_json(path)
    # membership in a tuple compares by ==, so a list-valued kind is refused, not hashed
    if not (isinstance(payload, dict) and payload.get("schema") == 1
            and payload.get("kind") in tuple(_GRAPH_KINDS)):
        raise SchemaError(f"{path}: not a graph JSON payload")
    cls, matrix_key = _GRAPH_KINDS[payload["kind"]]
    for key in ("node_labels", matrix_key):
        if key not in payload:
            raise SchemaError(f"{path}: missing graph key {key!r}")
    try:
        return cls(payload["node_labels"], payload[matrix_key], payload.get("node_coords"))
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Report steps and pipeline
#
# Each step takes the loaded data, an output directory and a file-name
# prefix ("02_" and so on inside report_pipeline, "" for a CLI
# subcommand), writes its files and returns only its in-memory result.
# What a run wrote is read from its staging directory.


@dataclass(frozen=True, eq=False)
class ReportBundle:
    """In-memory results plus the files written by report_pipeline.

    ``paths`` names the report files in the caller's ``out_dir``, in sorted
    order, the order in which ``run_log.txt`` lists them; no run log is
    among them (``spnkit report`` writes ``run_log.txt`` itself).
    Warnings are not kept here: each reaches the caller's filters when raised.
    """

    density_table: tuple
    mean_spns: dict
    differential: tuple[SpnResult, SpnResult]
    density_profiles: dict
    paths: tuple[Path, ...]


def safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a CSV table: LF line ends, a field quoted only if it holds , " or LF.

    Rows go to the file as ``rows`` yields them, so a generator's rows are
    never all held at once.  If ``rows`` raises, the file is removed.
    """
    try:
        with path.open("w") as f:
            table = csv.writer(f, lineterminator="\n")
            table.writerow(header)
            table.writerows(rows)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


@contextmanager
def staged(out_dir):
    """Yield a new ``.staging-*`` directory inside ``out_dir`` (made, with its
    parents, if needed) to write a run into.  On success its files move up
    into ``out_dir`` in sorted order; on any exception, KeyboardInterrupt
    included, it is removed, and ``out_dir`` too if this call made it.
    Staging inside ``out_dir`` keeps each move on one file system."""
    out = Path(out_dir)
    created = not out.is_dir()
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
    except BaseException:
        shutil.rmtree(out if created else staging, ignore_errors=True)
        raise
    staging.rmdir()


def write_sweep(path, rows) -> Path:
    """Write the rows of ``randomness_sweep`` or ``edges_sweep`` as a CSV table."""
    return write_csv(Path(path), ["parameter", "replicates", "mean_modules", "sd_modules"],
                     ((row.parameter, row.replicates, repr(row.mean_modules),
                       repr(row.sd_modules)) for row in rows))


def write_run_log(out_dir, command: str, config: dict, notes, paths) -> Path:
    """Write ``run_log.txt``: the command, its config, the spnkit, numpy and
    scipy versions, every warning and every file written.  Holds nothing
    that changes between reruns with the same inputs and options."""
    import scipy  # cheaper in time and memory than importlib.metadata.version("scipy")

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
    z = np.arctanh(data.edge_values[:, condition])  # the cells passed |r| < 1 as they entered
    return _symmetric(fisher_z_inverse(z.mean(axis=0)), data.n_nodes)


def _float_column(values: np.ndarray) -> list[str]:
    return [repr(x) for x in values.tolist()]


def _edge_keys(node_labels) -> dict:
    """The key columns of an edge statistics table: i, j and their labels."""
    rows, cols = _upper_pairs(len(node_labels))
    return {"i": rows.tolist(), "j": cols.tolist(), "label_i": [node_labels[i] for i in rows],
            "label_j": [node_labels[j] for j in cols]}


def _write_stats(path, keys: dict, result: SpnResult, names: tuple, marks: tuple) -> Path:
    """Write one row per hypothesis: the ``keys`` columns, then the statistic,
    p_value, sign and rejected columns, under the statistic and sign names in
    ``names``, then the last column named in ``names``.  That column holds
    ``marks[0]`` where ``rejected & (sign > 0)``, ``marks[1]`` where
    ``rejected & (sign < 0)`` and ``marks[2]`` elsewhere, the rule that builds
    the networks and ``flagged_nodes``."""
    statistic, sign, last = names
    rejected = result.correction.rejected
    marked = np.select([rejected & (result.sign > 0), rejected & (result.sign < 0)],
                       marks[:2], marks[2])
    return write_csv(
        Path(path),
        [*keys, statistic, "p_value", sign, "rejected", last],
        zip(*keys.values(), _float_column(result.statistic), _float_column(result.p_value),
            result.sign.tolist(), rejected.astype(int).tolist(), marked.tolist()),
    )


def write_mean_spn_stats(path, node_labels, result: SpnResult) -> Path:
    return _write_stats(path, _edge_keys(node_labels), result,
                        ("statistic", "effect_sign", "included"), (1, 0, 0))


def write_differential_stats(path, node_labels, result: SpnResult) -> Path:
    return _write_stats(path, _edge_keys(node_labels), result,
                        ("f_statistic", "trend_sign", "routed"), ("plus", "minus", "none"))


def write_node_differential_stats(path, node_labels, result: SpnResult) -> Path:
    return _write_stats(path, {"node": range(len(node_labels)), "label": node_labels}, result,
                        ("f_statistic", "trend_sign", "routed"), ("up", "down", "none"))


def step_weighted_density(data: StudyDataset, out: Path, prefix: str, negatives: str):
    """Step 1: the weighted density of every subject x condition cell."""
    table = [(subject, condition, weighted_density(g))
             for subject, condition, _, g in _cell_graphs(data, negatives)]
    write_csv(out / f"{prefix}weighted_density.csv", ["subject", "condition", "weighted_density"],
              ((s, c, repr(v)) for s, c, v in table))
    return table


def step_metrics(data: StudyDataset, out: Path, prefix: str, negatives: str, tau: float | None):
    """Weighted density, weighted efficiency and spread condition of every cell; with
    ``tau``, binary metrics of the cell's signed matrix thresholded at tau. Returns the rows."""
    header = ["subject", "condition", "weighted_density", "weighted_efficiency",
              "spread_condition_holds"]
    if tau is not None:
        header += ["n_edges_tau", "global_efficiency_tau", "local_efficiency_tau"]
    rows = []
    for subject, condition, matrix, g in _cell_graphs(data, negatives):
        row = [subject, condition, repr(weighted_density(g)), repr(weighted_efficiency(g)),
               int(spread_condition_holds(g))]
        if tau is not None:
            bg = threshold(matrix, tau)
            row += [bg.edge_count, repr(global_efficiency(bg)), repr(local_efficiency(bg))]
        rows.append(row)
    write_csv(out / f"{prefix}metrics.csv", header, rows)
    return rows


def step_node_differential_spn(data: NodeSignalDataset, out: Path, prefix: str,
                               base_rate: float, correction: str):
    """The node differential SPN pair: a per-node stats CSV and the flagged labels as JSON."""
    plus, minus = node_differential_spn(data, base_rate, correction)
    write_node_differential_stats(out / f"{prefix}node_differential_stats.csv",
                                  data.node_labels, plus)
    payload = {tag: [data.node_labels[v] for v in result.flagged_nodes]
               for tag, result in (("upweighted", plus), ("downweighted", minus))}
    (out / f"{prefix}node_differential.json").write_text(json.dumps(payload, indent=2) + "\n")
    return plus, minus


def step_mean_spn(data: StudyDataset, out: Path, prefix: str, condition: int,
                  base_rate: float, correction: str, fmt: str):
    """Step 2: the mean SPN of one condition, as a graph and a stats CSV."""
    result = mean_spn(data, condition, base_rate, correction)
    stem = f"{prefix}mean_spn_{safe_name(data.condition_labels[condition])}"
    export_graph(result.network, fmt, out / f"{stem}.{fmt}")
    write_mean_spn_stats(out / f"{stem}_stats.csv", data.node_labels, result)
    return result


def step_differential_spn(data: StudyDataset, out: Path, prefix: str,
                          base_rate: float, correction: str, fmt: str):
    """Step 3: the differential SPN+/SPN- pair and their shared stats CSV."""
    plus, minus = differential_spn(data, base_rate, correction)
    for tag, result in (("plus", plus), ("minus", minus)):
        export_graph(result.network, fmt, out / f"{prefix}differential_spn_{tag}.{fmt}")
    write_differential_stats(out / f"{prefix}differential_stats.csv", data.node_labels, plus)
    return plus, minus


def step_density_profiles(data: StudyDataset, out: Path, prefix: str, negatives: str,
                          metric: str, density_grid):
    """Step 4: density-integrated metric profiles of each condition-mean matrix.

    Every condition's profile is computed before either table is opened, so
    a refused condition leaves no table behind."""
    metric_fn = density_mod.metric_by_name(metric)
    profiles = {}
    for ci, condition in enumerate(data.condition_labels):
        source = f"condition-mean association matrix of condition {condition!r}"
        g = _dataset_graph(data, condition_mean_matrix(data, ci), negatives, source)
        try:
            profiles[condition] = density_mod.density_integrated_metric(g, metric_fn, density_grid)
        except ValidationError as exc:
            raise ValidationError(f"density profile of condition {condition!r}: {exc}") from exc
    write_csv(out / f"{prefix}density_profiles.csv", ["condition", "k", "p_mass", "value"],
              ((condition, k, repr(float(mass)), repr(float(value)))
               for condition, profile in profiles.items()
               for k, mass, value in zip(profile.densities, profile.weights, profile.values)))
    write_csv(out / f"{prefix}density_integrated.csv", ["condition", "metric", "integrated"],
              ((condition, metric, repr(profile.integrated))
               for condition, profile in profiles.items()))
    return profiles


def report_pipeline(
    data: StudyDataset,
    out_dir,
    base_rate: float = 0.05,
    correction: str = "fdr",
    negatives: str = "error",
    metric: str = "global_efficiency",
    density_grid=None,
    fmt: str = "json",
) -> ReportBundle:
    """Emit the recommended reporting sequence into ``out_dir``.

    In order: (1) the per-subject-per-condition weighted density table,
    (2) one mean SPN per condition, (3) the differential SPN pair,
    (4) density-integrated metric profiles per condition (computed on
    the condition-mean association matrix).  Reruns with identical
    inputs and options produce byte-identical files.  Warnings go to the
    caller's filters as they are raised.  No run log is written; the
    CLI's ``spnkit report`` writes ``run_log.txt`` next to these files.
    The files are ``staged``: a failure at any step leaves ``out_dir`` as
    it was.  Condition labels that share a ``safe_name`` are refused first,
    as their files would overwrite each other.
    """
    stems = [safe_name(condition) for condition in data.condition_labels]
    for ci, stem in enumerate(stems):
        if (first := stems.index(stem)) != ci:
            raise ValidationError(
                f"conditions {data.condition_labels[first]!r} and "
                f"{data.condition_labels[ci]!r} share the file stem 02_mean_spn_{stem}")
    with staged(out_dir) as out:
        table = step_weighted_density(data, out, "01_", negatives)
        mean_results = {condition: step_mean_spn(data, out, "02_", ci, base_rate, correction, fmt)
                        for ci, condition in enumerate(data.condition_labels)}
        differential = step_differential_spn(data, out, "03_", base_rate, correction, fmt)
        profiles = step_density_profiles(data, out, "04_", negatives, metric, density_grid)
        names = sorted(path.name for path in out.iterdir())
    return ReportBundle(
        density_table=tuple(table),
        mean_spns=mean_results,
        differential=differential,
        density_profiles=profiles,
        paths=tuple(Path(out_dir) / name for name in names),
    )
