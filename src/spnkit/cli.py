"""Command-line surface tying the pipelines together.

Subcommands: ``spn mean``, ``spn diff``, ``spn node-diff``, ``metrics``,
``density-profile``, ``simulate rewire``, ``simulate edges``, ``report``.
Exit codes: 0 success, 2 validation error, 3 I/O error, 4 degenerate
statistics under --strict.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import density as density_mod
from . import io as spnio
from .errors import DegenerateStatisticsWarning, ValidationError
from .modularity import TOPOLOGIES, edges_sweep, randomness_sweep
from .stats import CORRECTIONS


def _grid_ints(text: str, pieces) -> list[int]:
    try:
        return [int(x) for x in pieces]
    except ValueError:
        raise ValidationError(f"grid {text!r} holds a non-integer entry") from None


def _parse_grid(text: str) -> range | list[int]:
    """Parse '0,50,100' into a list of ints, or inclusive 'start:stop[:step]'
    into a range, left unexpanded: a density grid is bound-checked as it is read."""
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
        return range(start, stop + 1, step)
    return _grid_ints(text, [x for x in text.split(",") if x.strip() != ""])


def _profile_grid(args) -> range | list[int] | None:
    """The --grid text parsed, or the manifest's grid list the runner put there."""
    if isinstance(args.grid, str):
        return _parse_grid(args.grid) if args.grid else None
    return args.grid


def _resolve_options(args, manifest: spnio.Manifest) -> None:
    """Fill unset (None) flags from the manifest's options, so that the commands
    and the run log see the values the run uses, and refuse k = 0 for modularity."""
    if hasattr(args, "base_rate") and args.base_rate is None:
        args.base_rate = manifest.base_rate
    if hasattr(args, "grid") and args.grid is None and manifest.density_grid is not None:
        args.grid = list(manifest.density_grid)
    if getattr(args, "metric", "").startswith("modularity") and 0 in (_profile_grid(args) or ()):
        source = "--grid" if isinstance(args.grid, str) else f"{args.manifest}: options.density_grid"
        raise ValidationError(f"{source} holds density level k=0, where {args.metric} is "
                              "undefined: greedy modularity needs at least one edge")


def _condition_index(conditions: tuple[str, ...], value: str) -> int:
    if value in conditions:
        return conditions.index(value)
    try:  # mean_spn refuses an index out of range
        return int(value)
    except ValueError:
        raise ValidationError(
            f"unknown condition {value!r}; choose from {list(conditions)} or an index"
        ) from None


# Each command writes into ``out`` and returns a one-line summary.  The
# runner has already parsed the manifest, filled unset flags from its
# options and loaded ``data`` (None for the simulations).


def cmd_spn_mean(args, data, out: Path) -> str:
    ci = _condition_index(data.condition_labels, args.condition)
    result = spnio.step_mean_spn(data, out, "", ci, args.base_rate, args.correction, args.format)
    return f"mean SPN ({data.condition_labels[ci]}): {result.network.edge_count} edges"


def cmd_spn_diff(args, data, out: Path) -> str:
    plus, minus = spnio.step_differential_spn(data, out, "", args.base_rate, args.correction,
                                              args.format)
    return (f"differential SPN+: {plus.network.edge_count} edges, "
            f"SPN-: {minus.network.edge_count} edges")


def cmd_spn_node_diff(args, data, out: Path) -> str:
    plus, minus = spnio.step_node_differential_spn(data, out, "", args.base_rate, args.correction)
    return f"node differential SPN: {len(plus.flagged_nodes)} up, {len(minus.flagged_nodes)} down"


def cmd_metrics(args, data, out: Path) -> str:
    rows = spnio.step_metrics(data, out, "", "abs" if args.abs else "error", args.tau)
    return f"metrics for {len(rows)} subject x condition cells"


def cmd_density_profile(args, data, out: Path) -> str:
    spnio.step_density_profiles(data, out, "", "abs" if args.abs else "error", args.metric,
                                _profile_grid(args))
    return f"density profiles ({args.metric}) for {data.n_conditions} conditions"


def cmd_simulate_rewire(args, data, out: Path) -> str:
    grid = _parse_grid(args.grid)
    spnio.write_sweep(out / "rewire_sweep.csv",
                      randomness_sweep(args.n_v, args.n_e, grid, args.replicates, args.seed))
    return f"rewiring sweep ({len(grid)} grid points x {args.replicates} replicates)"


def cmd_simulate_edges(args, data, out: Path) -> str:
    grid = _parse_grid(args.edge_grid)
    spnio.write_sweep(out / f"edges_sweep_{args.topology}.csv",
                      edges_sweep(args.n_v, grid, args.topology, args.replicates, args.seed))
    return f"edge sweep ({args.topology}, {len(grid)} grid points x {args.replicates} replicates)"


def cmd_report(args, data, out: Path) -> str:
    bundle = spnio.report_pipeline(
        data,
        out,
        base_rate=args.base_rate,
        correction=args.correction,
        negatives="abs" if args.abs else "error",
        metric=args.metric,
        density_grid=_profile_grid(args),
        fmt=args.format,
    )
    return f"report bundle: {len(bundle.paths) + 1} files"  # and the runner's run_log.txt


# parsed arguments that are not part of a run's config
_NOT_CONFIG = ("command", "func", "load", "name", "out_dir", "simulate_command", "spn_command")


def _raises(category) -> bool:
    """True iff the caller's warning filters make every ``category`` warning
    an error, whatever its message, module and line.  A filter that matches
    only some of them and does not raise leaves the answer False."""
    for action, message, cat, module, lineno in warnings.filters:
        if not issubclass(category, cat):
            continue
        if message is None and module is None and not lineno:
            return action == "error"
        if action != "error":
            return False
    return warnings.defaultaction == "error"


def run(args) -> int:
    """Run one parsed subcommand in ``io.staged(--out-dir)``, so that a
    failed run leaves --out-dir as it was.

    Loads the manifest data the subcommand needs and runs it, recording
    every warning; re-issues them to the caller's filters; and writes
    ``run_log.txt``.  Under --strict, or when the caller's filters make it
    an error, the first DegenerateStatisticsWarning is raised, not recorded.
    """
    strict = getattr(args, "strict", False) or _raises(DegenerateStatisticsWarning)
    with spnio.staged(args.out_dir) as staging:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error" if strict else "always", DegenerateStatisticsWarning)
            data = None
            if args.load is not None:
                manifest = spnio.parse_manifest(args.manifest)
                _resolve_options(args, manifest)
                data = getattr(spnio, args.load)(manifest)
            summary = args.func(args, data, staging)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        spnio.write_run_log(staging, args.name, config, [str(w.message) for w in caught],
                            sorted(staging.iterdir()))
    line = f"{summary} -> {args.out_dir}"
    try:
        print(line)
    except UnicodeEncodeError:  # a label stdout's encoding cannot hold: escape it, as stderr does
        print(line.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnkit",
        description="Statistical parametric networks and density-aware topology metrics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory (default: .)")
    # one parent per flag group; each subcommand takes the groups it reads
    with_manifest = argparse.ArgumentParser(add_help=False)
    with_manifest.add_argument("--manifest", required=True, help="dataset manifest (JSON)")
    with_tests = argparse.ArgumentParser(add_help=False)
    with_tests.add_argument("--base-rate", type=float, default=None,
                            help="FDR base rate (default 0.05 or manifest option)")
    with_tests.add_argument("--correction", choices=CORRECTIONS, default="fdr")
    with_tests.add_argument("--strict", action="store_true",
                            help="treat degenerate statistics as an error (exit 4)")
    with_abs = argparse.ArgumentParser(add_help=False)
    with_abs.add_argument("--abs", action="store_true",
                          help="take absolute values of signed associations")
    with_format = argparse.ArgumentParser(add_help=False)
    with_format.add_argument("--format", choices=spnio.EXPORT_FORMATS, default="json")
    with_profile = argparse.ArgumentParser(add_help=False)
    with_profile.add_argument("--metric", choices=sorted(density_mod.METRICS),
                              default="global_efficiency")
    with_profile.add_argument("--grid", default=None, help="density grid: '1,2,3' or 'start:stop[:step]'")
    with_sweep = argparse.ArgumentParser(add_help=False)
    with_sweep.add_argument("--n-v", type=int, default=112)
    with_sweep.add_argument("--replicates", type=int, default=100)
    with_sweep.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def add(subparsers, name: str, func, load, parents, help: str):
        p = subparsers.add_parser(name.split()[-1], parents=[common, *parents], help=help)
        p.set_defaults(func=func, name=name, load=load)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    spn = sub.add_parser("spn", help="build statistical parametric networks")
    spn_sub = spn.add_subparsers(dest="spn_command", required=True)
    p = add(spn_sub, "spn mean", cmd_spn_mean, "load_dataset",
            [with_manifest, with_tests, with_format], "mean SPN for one condition")
    p.add_argument("--condition", required=True, help="condition label or index")
    add(spn_sub, "spn diff", cmd_spn_diff, "load_dataset",
        [with_manifest, with_tests, with_format], "differential SPN+ / SPN-")
    add(spn_sub, "spn node-diff", cmd_spn_node_diff, "load_node_signals",
        [with_manifest, with_tests], "node-level differential SPN")

    p = add(sub, "metrics", cmd_metrics, "load_dataset", [with_manifest, with_abs],
            "weighted density/efficiency per subject and condition")
    p.add_argument("--tau", type=float, default=None,
                   help="also threshold at tau and report binary metrics")

    add(sub, "density-profile", cmd_density_profile, "load_dataset",
        [with_manifest, with_abs, with_profile], "density-integrated metric per condition")

    sim = sub.add_parser("simulate", help="modularity-vs-density simulations")
    sim_sub = sim.add_subparsers(dest="simulate_command", required=True)
    p = add(sim_sub, "simulate rewire", cmd_simulate_rewire, None, [with_sweep],
            "module count vs rewiring")
    p.add_argument("--n-e", type=int, required=True)
    p.add_argument("--grid", required=True, help="rewiring counts, e.g. '0:500:50'")
    p = add(sim_sub, "simulate edges", cmd_simulate_edges, None, [with_sweep],
            "module count vs edge count")
    p.add_argument("--edge-grid", required=True, help="edge counts, e.g. '100,600,1100'")
    p.add_argument("--topology", choices=TOPOLOGIES, required=True)

    add(sub, "report", cmd_report, "load_dataset",
        [with_manifest, with_tests, with_abs, with_format, with_profile],
        "full reporting sequence")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except DegenerateStatisticsWarning as exc:  # raised under --strict or the caller's filters
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
