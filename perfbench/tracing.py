"""Spans around spnkit's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function wherever spnkit's
modules (and the density metric table) hold a reference to it, so calls
made inside the package are seen as well as calls from the CLI.  A span
is (name, start, end, parent); spans stay in memory until ``write``.
Counts are taken by hooks at the same call boundaries, after the span
has closed, so they do not add to any span's time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "io", "spn", "stats", "density", "graphs", "modularity")


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _manifest(tracer, args, kwargs):
    manifest = _arg(args, kwargs, 0, "manifest")
    if isinstance(manifest, (str, Path)):
        return tracer.pkg["io"].parse_manifest.__wrapped__(manifest)
    return manifest


def _on_parse_manifest(tracer, args, kwargs, result):
    tracer.counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _on_load_dataset(tracer, args, kwargs, result):
    manifest = _manifest(tracer, args, kwargs)
    tracer.counts["io.cells_loaded"] += len(manifest.files)
    tracer.counts["io.bytes_read"] += _file_bytes(manifest.files.values())


def _on_load_node_signals(tracer, args, kwargs, result):
    manifest = _manifest(tracer, args, kwargs)
    tracer.counts["io.cells_loaded"] += len(manifest.signal_files)
    tracer.counts["io.bytes_read"] += _file_bytes(manifest.signal_files.values())


def _on_spn(tracer, args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    tracer.counts["spn.hypotheses"] += int(first.correction.rejected.size)
    tracer.counts["spn.rejections"] += first.correction.n_rejected


def _on_profile(tracer, args, kwargs, result):
    tracer.counts["density.levels"] += len(result.densities)


def _on_greedy(tracer, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    tracer.counts["modularity.merges"] += g.n_nodes - result.module_count
    tracer.partitions.append((tracer.op, g.adjacency, result.assignment, result.q))


def _on_rewire(tracer, args, kwargs, result):
    tracer.counts["modularity.rewire_steps"] += int(_arg(args, kwargs, 1, "steps"))


# (module, function, hook run after the call)
TARGETS = (
    ("cli", "main", None),
    ("io", "parse_manifest", _on_parse_manifest),
    ("io", "load_dataset", _on_load_dataset),
    ("io", "load_node_signals", _on_load_node_signals),
    ("io", "export_graph", None),
    ("io", "write_csv", None),
    ("io", "write_mean_spn_stats", None),
    ("io", "write_differential_stats", None),
    ("io", "write_node_differential_stats", None),
    ("io", "report_pipeline", None),
    ("spn", "mean_spn", _on_spn),
    ("spn", "differential_spn", _on_spn),
    ("spn", "node_differential_spn", _on_spn),
    ("stats", "fisher_z", None),
    ("stats", "grand_mean_z_test", None),
    ("stats", "repeated_measures_fit", None),
    ("stats", "bh_fdr", None),
    ("density", "density_integrated_metric", _on_profile),
    ("graphs", "global_efficiency", None),
    ("graphs", "local_efficiency", None),
    ("graphs", "weighted_efficiency", None),
    ("graphs", "weighted_density", None),
    ("graphs", "threshold", None),
    ("modularity", "greedy_modularity", _on_greedy),
    ("modularity", "rewire", _on_rewire),
    ("modularity", "random_graph", None),
    ("modularity", "ring_lattice", None),
    ("modularity", "randomness_sweep", None),
    ("modularity", "edges_sweep", None),
)

EXPORTERS = ("export_graph", "write_csv", "write_mean_spn_stats", "write_differential_stats",
             "write_node_differential_stats")

# per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "cli.invocations": "count",
    "cli.self_s": "s",
    "io.parse_manifest_s": "s",
    "io.load_dataset_s": "s",
    "io.load_node_signals_s": "s",
    "io.cells_loaded": "count",
    "io.bytes_read": "bytes",
    "io.export_s": "s",
    "io.bytes_written": "bytes",
    "io.report_pipeline_self_s": "s",
    "spn.mean_spn_calls": "count",
    "spn.mean_spn_s": "s",
    "spn.differential_spn_s": "s",
    "spn.node_differential_spn_s": "s",
    "spn.hypotheses": "count",
    "spn.rejections": "count",
    "stats.fisher_z_s": "s",
    "stats.grand_mean_z_test_calls": "count",
    "stats.grand_mean_z_test_s": "s",
    "stats.repeated_measures_fit_calls": "count",
    "stats.repeated_measures_fit_s": "s",
    "stats.bh_fdr_s": "s",
    "density.profile_s": "s",
    "density.levels": "count",
    "density.loop_self_s": "s",
    "graphs.global_efficiency_calls": "count",
    "graphs.global_efficiency_s": "s",
    "graphs.local_efficiency_calls": "count",
    "graphs.local_efficiency_s": "s",
    "graphs.weighted_efficiency_s": "s",
    "graphs.weighted_density_s": "s",
    "graphs.threshold_s": "s",
    "modularity.greedy_calls": "count",
    "modularity.greedy_s": "s",
    "modularity.merges": "count",
    "modularity.rewire_s": "s",
    "modularity.rewire_steps": "count",
    "modularity.random_graph_s": "s",
    "modularity.ring_lattice_s": "s",
    "modularity.sweep_self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counts for one traced round."""

    def __init__(self):
        self.pkg = {name: importlib.import_module(f"spnkit.{name}") for name in MODULES}
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.partitions: list = []
        self.op = None
        self._patched: list = []

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, return_value)
            return return_value

        return traced

    def install(self) -> None:
        holders = [importlib.import_module("spnkit"), *self.pkg.values()]
        for module_name, attr, hook in TARGETS:
            original = getattr(self.pkg[module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)
            table = self.pkg["density"].METRICS
            for key, value in list(table.items()):
                if value is original:
                    self._patched.append((table, key, original))
                    table[key] = wrapper

    def remove(self) -> None:
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    def aggregate(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Calls, inclusive time and self time (span minus child spans) per name."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return calls, total, own

    def metrics(self, overhead_s: float, bytes_written: int) -> dict:
        calls, total, own = self.aggregate()
        c = self.counts
        values = {
            "cli.invocations": calls["cli.main"],
            "cli.self_s": own["cli.main"],
            "io.parse_manifest_s": own["io.parse_manifest"],
            "io.load_dataset_s": own["io.load_dataset"],
            "io.load_node_signals_s": own["io.load_node_signals"],
            "io.cells_loaded": c["io.cells_loaded"],
            "io.bytes_read": c["io.bytes_read"],
            "io.export_s": sum(own[f"io.{name}"] for name in EXPORTERS),
            "io.bytes_written": bytes_written,
            "io.report_pipeline_self_s": own["io.report_pipeline"],
            "spn.mean_spn_calls": calls["spn.mean_spn"],
            "spn.mean_spn_s": own["spn.mean_spn"],
            "spn.differential_spn_s": own["spn.differential_spn"],
            "spn.node_differential_spn_s": own["spn.node_differential_spn"],
            "spn.hypotheses": c["spn.hypotheses"],
            "spn.rejections": c["spn.rejections"],
            "stats.fisher_z_s": own["stats.fisher_z"],
            "stats.grand_mean_z_test_calls": calls["stats.grand_mean_z_test"],
            "stats.grand_mean_z_test_s": own["stats.grand_mean_z_test"],
            "stats.repeated_measures_fit_calls": calls["stats.repeated_measures_fit"],
            "stats.repeated_measures_fit_s": own["stats.repeated_measures_fit"],
            "stats.bh_fdr_s": own["stats.bh_fdr"],
            "density.profile_s": total["density.density_integrated_metric"],
            "density.levels": c["density.levels"],
            "density.loop_self_s": own["density.density_integrated_metric"],
            "graphs.global_efficiency_calls": calls["graphs.global_efficiency"],
            "graphs.global_efficiency_s": own["graphs.global_efficiency"],
            "graphs.local_efficiency_calls": calls["graphs.local_efficiency"],
            "graphs.local_efficiency_s": own["graphs.local_efficiency"],
            "graphs.weighted_efficiency_s": own["graphs.weighted_efficiency"],
            "graphs.weighted_density_s": own["graphs.weighted_density"],
            "graphs.threshold_s": own["graphs.threshold"],
            "modularity.greedy_calls": calls["modularity.greedy_modularity"],
            "modularity.greedy_s": own["modularity.greedy_modularity"],
            "modularity.merges": c["modularity.merges"],
            "modularity.rewire_s": own["modularity.rewire"],
            "modularity.rewire_steps": c["modularity.rewire_steps"],
            "modularity.random_graph_s": own["modularity.random_graph"],
            "modularity.ring_lattice_s": own["modularity.ring_lattice"],
            "modularity.sweep_self_s": own["modularity.randomness_sweep"] + own["modularity.edges_sweep"],
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated row: index, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
