"""Command-line surface tying the pipelines together.

Subcommands: ``spn mean``, ``spn diff``, ``spn node-diff``, ``metrics``,
``density-profile``, ``simulate rewire``, ``simulate edges``, ``report``.
Exit codes: 0 success, 2 validation error, 3 I/O error, 4 degenerate
statistics under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import density as density_mod
from . import io as spnio
from .errors import DegenerateStatisticsError, DegenerateStatisticsWarning, ValidationError
from .graphs import global_efficiency, local_efficiency, spread_condition_holds, threshold, \
    weighted_density, weighted_efficiency
from .modularity import edges_sweep, randomness_sweep
from .spn import node_differential_spn


def _grid_ints(text: str, pieces) -> list[int]:
    try:
        return [int(x) for x in pieces]
    except ValueError:
        raise ValidationError(f"grid {text!r} holds a non-integer entry") from None


def _parse_grid(text: str) -> list[int]:
    """Parse '0,50,100' or inclusive 'start:stop[:step]' into a list of ints."""
    if ":" in text:
        parts = _grid_ints(text, text.split(":"))
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValidationError(f"bad grid syntax {text!r}")
        if step <= 0 or stop < start:
            raise ValidationError(f"bad grid range {text!r}")
        return list(range(start, stop + 1, step))
    return _grid_ints(text, [x for x in text.split(",") if x.strip() != ""])


def _profile_grid(args) -> list[int] | None:
    """The --grid text parsed, or the manifest's grid list the runner put there."""
    if isinstance(args.grid, str):
        return _parse_grid(args.grid) if args.grid else None
    return args.grid


def _resolve_options(args, options: spnio.ManifestOptions) -> None:
    """Fill the flags left unset from the manifest's options, so that the
    commands and the run log see the values the run uses."""
    if args.base_rate is None:
        args.base_rate = options.base_rate
    if hasattr(args, "standardize"):
        args.standardize = args.standardize or options.standardize
        if not args.grid and options.density_grid is not None:
            args.grid = list(options.density_grid)


def _condition_index(conditions: tuple[str, ...], value: str) -> int:
    if value in conditions:
        return conditions.index(value)
    try:
        idx = int(value)
    except ValueError:
        raise ValidationError(
            f"unknown condition {value!r}; choose from {list(conditions)} or an index"
        ) from None
    if not 0 <= idx < len(conditions):
        raise ValidationError(f"condition index {idx} out of range 0..{len(conditions) - 1}")
    return idx


# Each command writes into ``out`` and returns a one-line summary.  The
# runner has already parsed the manifest, filled unset flags from its
# options and loaded ``data`` (None for the simulations).


def cmd_spn_mean(args, manifest, data, out: Path) -> str:
    ci = _condition_index(data.condition_labels, args.condition)
    result, _ = spnio.step_mean_spn(data, out, "", ci, args.base_rate, args.correction,
                                    args.format)
    return f"mean SPN ({data.condition_labels[ci]}): {result.network.edge_count} edges"


def cmd_spn_diff(args, manifest, data, out: Path) -> str:
    (plus, minus), _ = spnio.step_differential_spn(data, out, "", args.base_rate,
                                                   args.correction, args.format)
    return (f"differential SPN+: {plus.network.edge_count} edges, "
            f"SPN-: {minus.network.edge_count} edges")


def cmd_spn_node_diff(args, manifest, data, out: Path) -> str:
    plus, minus = node_differential_spn(data, args.base_rate, args.correction)
    spnio.write_node_differential_stats(out / "node_differential_stats.csv",
                                        data.node_labels, plus, minus)
    payload = {
        "upweighted": [data.node_labels[v] for v in plus.flagged_nodes],
        "downweighted": [data.node_labels[v] for v in minus.flagged_nodes],
    }
    (out / "node_differential.json").write_text(json.dumps(payload, indent=2) + "\n")
    return f"node differential SPN: {len(plus.flagged_nodes)} up, {len(minus.flagged_nodes)} down"


def cmd_metrics(args, manifest, data, out: Path) -> str:
    negatives = "abs" if args.abs else "error"
    rows = []
    for si, subject in enumerate(data.subject_ids):
        for ci, condition in enumerate(data.condition_labels):
            g = spnio._cell_graph(data, si, ci, negatives)
            row = [subject, condition, repr(weighted_density(g)),
                   repr(weighted_efficiency(g)), int(spread_condition_holds(g))]
            if args.tau is not None:
                bg = threshold(data.correlations[si, ci], args.tau)
                row += [bg.edge_count, repr(global_efficiency(bg)), repr(local_efficiency(bg))]
            rows.append(row)
    header = ["subject", "condition", "weighted_density", "weighted_efficiency",
              "spread_condition_holds"]
    if args.tau is not None:
        header += ["n_edges_tau", "global_efficiency_tau", "local_efficiency_tau"]
    spnio.write_csv(out / "metrics.csv", header, rows)
    return f"metrics for {len(rows)} subject x condition cells"


def cmd_density_profile(args, manifest, data, out: Path) -> str:
    spnio.step_density_profiles(data, out, "", "abs" if args.abs else "error",
                                args.standardize, args.metric, _profile_grid(args))
    return f"density profiles ({args.metric}) for {data.n_conditions} conditions"


def cmd_simulate_rewire(args, manifest, data, out: Path) -> str:
    grid = _parse_grid(args.grid)
    randomness_sweep(args.n_v, args.n_e, grid, args.replicates, args.seed).to_csv(
        out / "rewire_sweep.csv")
    return f"rewiring sweep ({len(grid)} grid points x {args.replicates} replicates)"


def cmd_simulate_edges(args, manifest, data, out: Path) -> str:
    grid = _parse_grid(args.edge_grid)
    edges_sweep(args.n_v, grid, args.topology, args.replicates, args.seed).to_csv(
        out / f"edges_sweep_{args.topology}.csv")
    return f"edge sweep ({args.topology}, {len(grid)} grid points x {args.replicates} replicates)"


def cmd_report(args, manifest, data, out: Path) -> str:
    bundle = spnio.report_pipeline(
        data,
        out,
        base_rate=args.base_rate,
        correction=args.correction,
        negatives="abs" if args.abs else "error",
        standardize=args.standardize,
        metric=args.metric,
        density_grid=_profile_grid(args),
        fmt=args.format,
    )
    return f"report bundle: {len(bundle.paths) + 1} files"  # and the runner's run_log.txt


# parsed arguments that are not part of a run's config
_NOT_CONFIG = ("command", "func", "load", "name", "out_dir", "simulate_command", "spn_command")


def run(args) -> int:
    """Run one parsed subcommand with nothing half-written left behind.

    Loads the manifest data the subcommand needs and runs it, recording
    warnings, in a staging directory inside --out-dir; writes
    ``run_log.txt`` there; and moves every file up into --out-dir only
    when the run succeeds.  A failure, or a DegenerateStatisticsWarning
    under --strict (raised as DegenerateStatisticsError), removes the
    staging directory, and --out-dir too if this run created it.
    """
    out = Path(args.out_dir)
    created = not out.is_dir()
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        with spnio.recorded_warnings() as caught:
            manifest = data = None
            if args.load is not None:
                manifest = spnio.parse_manifest(args.manifest)
                _resolve_options(args, manifest.options)
                data = getattr(spnio, args.load)(manifest)
            summary = args.func(args, manifest, data, staging)
        degenerate = [str(w.message) for w in caught
                      if issubclass(w.category, DegenerateStatisticsWarning)]
        if args.strict and degenerate:
            raise DegenerateStatisticsError("; ".join(degenerate))
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        spnio.write_run_log(staging, args.name, config, [str(w.message) for w in caught],
                            sorted(staging.iterdir()))
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise
    staging.rmdir()
    print(f"{summary} -> {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnkit",
        description="Statistical parametric networks and density-aware topology metrics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory (default: .)")
    common.add_argument("--strict", action="store_true",
                        help="treat degenerate statistics as an error (exit 4)")
    with_manifest = argparse.ArgumentParser(add_help=False)
    with_manifest.add_argument("--manifest", required=True, help="dataset manifest (JSON)")
    with_manifest.add_argument("--base-rate", type=float, default=None,
                               help="FDR base rate (default 0.05 or manifest option)")
    with_manifest.add_argument("--correction", choices=("fdr", "none"), default="fdr")
    with_manifest.add_argument("--abs", action="store_true",
                               help="take absolute values of signed associations")
    with_format = argparse.ArgumentParser(add_help=False)
    with_format.add_argument("--format", choices=("dot", "json", "csv"), default="json")
    with_seed = argparse.ArgumentParser(add_help=False)
    with_seed.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def add(subparsers, name: str, func, load, parents, help: str):
        p = subparsers.add_parser(name.split()[-1], parents=[common, *parents], help=help)
        p.set_defaults(func=func, name=name, load=load)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    spn = sub.add_parser("spn", help="build statistical parametric networks")
    spn_sub = spn.add_subparsers(dest="spn_command", required=True)
    p = add(spn_sub, "spn mean", cmd_spn_mean, "load_dataset", [with_manifest, with_format],
            "mean SPN for one condition")
    p.add_argument("--condition", required=True, help="condition label or index")
    add(spn_sub, "spn diff", cmd_spn_diff, "load_dataset", [with_manifest, with_format],
        "differential SPN+ / SPN-")
    add(spn_sub, "spn node-diff", cmd_spn_node_diff, "load_node_signals", [with_manifest],
        "node-level differential SPN")

    p = add(sub, "metrics", cmd_metrics, "load_dataset", [with_manifest],
            "weighted density/efficiency per subject and condition")
    p.add_argument("--tau", type=float, default=None,
                   help="also threshold at tau and report binary metrics")

    p = add(sub, "density-profile", cmd_density_profile, "load_dataset", [with_manifest],
            "density-integrated metric per condition")
    p.add_argument("--metric", choices=sorted(density_mod.METRICS), default="global_efficiency")
    p.add_argument("--grid", default=None, help="density grid: '1,2,3' or 'start:stop[:step]'")
    p.add_argument("--standardize", action="store_true")

    sim = sub.add_parser("simulate", help="modularity-vs-density simulations")
    sim_sub = sim.add_subparsers(dest="simulate_command", required=True)
    p = add(sim_sub, "simulate rewire", cmd_simulate_rewire, None, [with_seed],
            "module count vs rewiring")
    p.add_argument("--n-v", type=int, default=112)
    p.add_argument("--n-e", type=int, required=True)
    p.add_argument("--grid", required=True, help="rewiring counts, e.g. '0:500:50'")
    p.add_argument("--replicates", type=int, default=100)
    p = add(sim_sub, "simulate edges", cmd_simulate_edges, None, [with_seed],
            "module count vs edge count")
    p.add_argument("--n-v", type=int, default=112)
    p.add_argument("--edge-grid", required=True, help="edge counts, e.g. '100,600,1100'")
    p.add_argument("--topology", choices=("lattice", "random"), required=True)
    p.add_argument("--replicates", type=int, default=100)

    p = add(sub, "report", cmd_report, "load_dataset", [with_manifest, with_format],
            "full reporting sequence")
    p.add_argument("--metric", choices=sorted(density_mod.METRICS), default="global_efficiency")
    p.add_argument("--grid", default=None)
    p.add_argument("--standardize", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (DegenerateStatisticsError, DegenerateStatisticsWarning) as exc:
        # the warning itself arrives here when the interpreter's filters make it an error
        print(f"degenerate statistics: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
