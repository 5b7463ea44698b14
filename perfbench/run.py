#!/usr/bin/env python3
"""spnkit benchmark: seeded paper-scale inputs through the CLI, checked independently.

Run from the root of a source checkout (spnkit is imported from ./src;
nothing is installed):

    python3 perfbench/run.py --workload report-paper --seed 1 --seconds 30 --trace 0

Workloads (``--workload all``, the default, runs the three in turn):

* report-paper  ``spnkit report --abs`` on a 20 x 4 x 112 study;
* fig4-sweeps   the three Fig 4 sweeps at full size, seed 42;
* cli-steps     the eight per-step subcommands, one process each.

With ``--trace 0`` each workload's spnkit processes run one at a time,
in whole rounds, for about ``--seconds`` of measured time (at least one
round).
Every output is checked against an independent recomputation
(``checks.py``); later rounds must reproduce the first round's bytes.
After the first round each check is shown a corrupted copy of a real
output and must reject it.  The end-to-end metrics are medians over
rounds.  With ``--trace 1`` one untraced and one traced round run inside
this process, and the per-layer metrics come from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--size smoke``
shrinks every input so that the whole harness runs in seconds.
"""

from __future__ import annotations

import os

# Cap numeric thread pools at the cores this process may use, before
# numpy loads here and in every spnkit child (they inherit the variables).
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or not 0 < int(os.environ[_var]) <= _NPROC:
        os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import corrupt  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("report-paper", "fig4-sweeps", "cli-steps")
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 160.0
Q_ATOL = 1e-12
GAIN_ATOL = 1e-12


@dataclass(frozen=True)
class Scale:
    report_grid: str
    profile_grid: str
    n_v: int
    n_e: int
    rewire_grid: str
    edge_grid: str
    replicates: int


SCALES = {
    # The report samples every 12th density level: the full grid 1..6216
    # takes 100-150 s on a 2-core machine, more than one benchmark run may
    # take, and shorter rounds let each run take the median of several.
    "paper": Scale("1:6216:12", "100:6200:100", 112, 600, "0:500:50", "100,600,1100,1600,2100", 100),
    "smoke": Scale("1:276:1", "10:270:10", 40, 120, "0:100:20", "40,120,200,280", 10),
}
SWEEP_SEED = "42"


def parse_grid(text: str) -> list[int]:
    """'a,b,c' or inclusive 'start:stop[:step]'."""
    if ":" in text:
        start, stop, *step = (int(x) for x in text.split(":"))
        return list(range(start, stop + 1, step[0] if step else 1))
    return [int(x) for x in text.split(",")]


@dataclass
class Op:
    """One spnkit invocation, the checks on its outputs and the corruptions they must reject."""

    name: str
    argv: list[str]
    out: Path
    checks: dict[str, Callable[[Path], list[str]]]
    corruptions: list[tuple[str, str, Callable[[Path], None]]]

    def check(self) -> list[str]:
        errors = []
        for group, fn in self.checks.items():
            try:
                errors += fn(self.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"{group}: unreadable output: {exc!r}")
        return errors


# -- workloads ------------------------------------------------------------


def report_ops(scale: Scale, ref: checks.Reference, manifest: Path, out: Path) -> list[Op]:
    grid = parse_grid(scale.report_grid)
    conds = ref.conditions
    first, last = conds[0], conds[-1]
    op_checks = {
        "weighted_density": lambda d: ref.check_weighted_density(d / "01_weighted_density.csv"),
        "mean_spn": lambda d: [
            e for ci, c in enumerate(conds)
            for e in ref.check_mean_spn(ci, d / f"02_mean_spn_{c}.json", d / f"02_mean_spn_{c}_stats.csv")
        ],
        "differential": lambda d: ref.check_differential(
            d / "03_differential_spn_plus.json", d / "03_differential_spn_minus.json", d / "03_differential_stats.csv"
        ),
        "profile": lambda d: ref.check_profile(
            d / "04_density_profiles.csv", d / "04_density_integrated.csv", "global_efficiency", grid
        ),
    }
    corruptions = [
        ("weighted density x (1 + 1e-6)", "weighted_density",
         lambda d: corrupt.scale_cell(d / "01_weighted_density.csv", "weighted_density")),
        ("flipped mean-SPN edge", "mean_spn", lambda d: corrupt.flip_edge(d / f"02_mean_spn_{last}.json")),
        ("mean-SPN p-value + 1e-6", "mean_spn", lambda d: corrupt.nudge_p(d / f"02_mean_spn_{first}_stats.csv")),
        ("flipped SPN+ edge", "differential", lambda d: corrupt.flip_edge(d / "03_differential_spn_plus.json")),
        ("differential p-value + 1e-6", "differential", lambda d: corrupt.nudge_p(d / "03_differential_stats.csv")),
        ("swapped profile rows", "profile", lambda d: corrupt.swap_rows(d / "04_density_profiles.csv")),
    ]
    d = out / "report"
    argv = ["report", "--manifest", str(manifest), "--abs", "--grid", scale.report_grid, "--out-dir", str(d)]
    return [Op("report", argv, d, op_checks, corruptions)]


def fig4_ops(scale: Scale, out: Path) -> list[Op]:
    common = ["--n-v", str(scale.n_v), "--replicates", str(scale.replicates), "--seed", SWEEP_SEED]
    edges = parse_grid(scale.edge_grid)
    specs = [
        ("rewire", ["simulate", "rewire", "--n-e", str(scale.n_e), "--grid", scale.rewire_grid],
         "rewire_sweep.csv", parse_grid(scale.rewire_grid)),
        ("edges-random", ["simulate", "edges", "--topology", "random", "--edge-grid", scale.edge_grid],
         "edges_sweep_random.csv", edges),
        ("edges-lattice", ["simulate", "edges", "--topology", "lattice", "--edge-grid", scale.edge_grid],
         "edges_sweep_lattice.csv", edges),
    ]
    ops = []
    for name, argv, csv_name, grid in specs:
        topology = name.split("-")[-1]
        d = out / name

        def check(p, csv_name=csv_name, grid=grid, topology=topology):
            return checks.check_sweep(p / csv_name, grid, scale.replicates, scale.n_v, topology)

        def alter(p, csv_name=csv_name):
            corrupt.shift_cell(p / csv_name, "mean_modules", 0.005)

        ops.append(Op(name, argv + common + ["--out-dir", str(d)], d, {"sweep": check},
                      [("sweep mean + 0.005", "sweep", alter)]))
    return ops


def cli_step_ops(scale: Scale, ref: checks.Reference, manifest: Path, out: Path) -> list[Op]:
    m = ["--manifest", str(manifest)]
    ops = []
    for ci, c in enumerate(ref.conditions):
        d = out / f"mean-{ci}"

        def check(p, ci=ci, c=c):
            return ref.check_mean_spn(ci, p / f"mean_spn_{c}.json", p / f"mean_spn_{c}_stats.csv")

        corruptions = [
            ("flipped mean-SPN edge", "mean_spn", lambda p, c=c: corrupt.flip_edge(p / f"mean_spn_{c}.json")),
            ("mean-SPN p-value + 1e-6", "mean_spn", lambda p, c=c: corrupt.nudge_p(p / f"mean_spn_{c}_stats.csv")),
        ]
        ops.append(Op(f"spn-mean-{ci}", ["spn", "mean", *m, "--condition", c, "--out-dir", str(d)], d,
                      {"mean_spn": check}, corruptions))

    d = out / "diff"
    ops.append(Op("spn-diff", ["spn", "diff", *m, "--out-dir", str(d)], d, {
        "differential": lambda p: ref.check_differential(
            p / "differential_spn_plus.json", p / "differential_spn_minus.json", p / "differential_stats.csv"),
    }, [
        ("flipped SPN- edge", "differential", lambda p: corrupt.flip_edge(p / "differential_spn_minus.json")),
        ("differential p-value + 1e-6", "differential", lambda p: corrupt.nudge_p(p / "differential_stats.csv")),
    ]))

    d = out / "node-diff"
    ops.append(Op("spn-node-diff", ["spn", "node-diff", *m, "--out-dir", str(d)], d, {
        "node": lambda p: ref.check_node_differential(p / "node_differential_stats.csv", p / "node_differential.json"),
    }, [("node p-value + 1e-6", "node", lambda p: corrupt.nudge_p(p / "node_differential_stats.csv"))]))

    d = out / "metrics"
    ops.append(Op("metrics", ["metrics", *m, "--abs", "--tau", "0.3", "--out-dir", str(d)], d, {
        "metrics": lambda p: ref.check_metrics(p / "metrics.csv", 0.3),
    }, [
        ("weighted efficiency x (1 + 1e-6)", "metrics",
         lambda p: corrupt.scale_cell(p / "metrics.csv", "weighted_efficiency")),
    ]))

    grid = parse_grid(scale.profile_grid)
    d = out / "profile"
    argv = ["density-profile", *m, "--abs", "--metric", "modularity_q", "--grid", scale.profile_grid,
            "--out-dir", str(d)]
    ops.append(Op("density-profile", argv, d, {
        "profile": lambda p: ref.check_profile(p / "density_profiles.csv", p / "density_integrated.csv",
                                               "modularity_q", grid),
    }, [("swapped profile rows", "profile", lambda p: corrupt.swap_rows(p / "density_profiles.csv"))]))
    return ops


# -- processes --------------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    start: float
    end: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs ``python -m spnkit`` processes, one at a time, through launch.py."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launch.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=work)

    def run(self, argv: list[str], log: Path) -> Proc:
        request = {"argv": [sys.executable, "-m", "spnkit", *argv], "cwd": str(self.work),
                   "log": str(log), "timeout_s": PROCESS_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the process launcher exited")
        reply = json.loads(line)
        return Proc(reply["returncode"], reply["start"], reply["end"], reply["cpu_s"],
                    reply["peak_rss_kb"] / 1024.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def self_test(op: Op, scratch: Path) -> list[str]:
    """Each corruption of a passing output must be rejected by its check group."""
    problems = []
    for index, (what, group, apply) in enumerate(op.corruptions):
        copy = scratch / f"{op.name}-{index}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(op.out, copy)
        apply(copy)
        if not op.checks[group](copy):
            problems.append(f"{op.name}: check '{group}' accepted a corrupted output ({what})")
        shutil.rmtree(copy)
    return problems


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: dict = field(default_factory=dict)

    def record(self, op: Op, returncode: int, errors: list[str]) -> None:
        self.attempted += 1
        if returncode != 0 or errors:
            self.failed += 1
            why = f"exit code {returncode}" if returncode != 0 else "; ".join(errors[:3])
            print(f"FAILED {op.name}: {why}", file=sys.stderr)
        if returncode == 0 and errors:
            self.wrong += 1


def measure_setup(launcher: Launcher) -> float:
    """Median wall time of a fresh ``python -m spnkit --help``, after one warm-up."""
    log = launcher.work / "setup.log"
    runs = [launcher.run(["--help"], log) for _ in range(SETUP_REPEATS + 1)]
    if any(r.returncode != 0 for r in runs):
        raise RuntimeError(f"spnkit --help failed; see {log}")
    return statistics.median(r.end - r.start for r in runs[1:])


def run_untraced(ops: list[Op], launcher: Launcher, seconds: float, outcome: Outcome) -> None:
    """Whole rounds of the ops, one process at a time, for about ``seconds`` of measured time.

    Another round starts when, at the last round's pace, it would end
    nearer to ``seconds`` than stopping now does.
    """
    walls, cpus, rsss = [], [], []
    first = None
    log = launcher.work / "spnkit-stderr.log"
    while not walls or sum(walls) + walls[-1] / 2 <= seconds:
        for op in ops:
            shutil.rmtree(op.out, ignore_errors=True)
        procs = [launcher.run(op.argv, log) for op in ops]
        walls.append(procs[-1].end - procs[0].start)
        cpus.append(sum(p.cpu_s for p in procs))
        rsss.append(max(p.peak_rss_mb for p in procs))
        if first is None:
            first = [digest(op.out) for op in ops]
            for op, proc in zip(ops, procs):
                errors = op.check() if proc.returncode == 0 else []
                outcome.record(op, proc.returncode, errors)
                if proc.returncode == 0 and not errors:
                    problems = self_test(op, launcher.work / "selftest")
                    if problems:
                        raise RuntimeError("; ".join(problems))
        else:
            for op, proc, expected in zip(ops, procs, first):
                same = proc.returncode != 0 or digest(op.out) == expected
                outcome.record(op, proc.returncode, [] if same else ["outputs differ from the first round"])
    print(f"round wall times: {' '.join(f'{w:.3f}' for w in walls)} s")
    outcome.metrics.update({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rsss), "unit": "MB"},
    })


def run_traced(ops: list[Op], workload: str, outcome: Outcome) -> None:
    """One untraced and one traced round in this process; per-layer metrics from the spans."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer()
    cli = tracer.pkg["cli"]

    def one_round(traced: bool) -> tuple[list[int], float]:
        for op in ops:
            shutil.rmtree(op.out, ignore_errors=True)
        codes = []
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            for index, op in enumerate(ops):
                tracer.op = index
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        codes.append(cli.main(op.argv))
                except Exception:  # an op that raises is a failed op, not a failed benchmark
                    traceback.print_exc()
                    codes.append(-1)
            wall = time.perf_counter() - start
        finally:
            tracer.remove()
        return codes, wall

    codes, untraced_wall = one_round(traced=False)
    first = [digest(op.out) for op in ops]
    for op, code in zip(ops, codes):
        outcome.record(op, code, op.check() if code == 0 else [])

    codes, traced_wall = one_round(traced=True)
    partition_errors: dict[int, list[str]] = {}
    for index, adjacency, assignment, q in tracer.partitions:
        q_check, gain = checks.newman_q_and_max_gain(adjacency, assignment)
        if abs(q - q_check) > Q_ATOL or gain > GAIN_ATOL:
            partition_errors.setdefault(index, []).append(
                f"greedy partition Q {q!r} vs recomputed {q_check!r}, largest merge gain {gain!r}")
    bytes_written = sum(p.stat().st_size for op in ops for p in op.out.rglob("*") if p.is_file())
    for index, (op, code, expected) in enumerate(zip(ops, codes, first)):
        errors = partition_errors.get(index, [])[:3]
        if code == 0 and digest(op.out) != expected:
            errors.append("traced outputs differ from the untraced round")
        outcome.record(op, code, errors)
    tracer.write(WORK / f"spans-{workload}.tsv")
    outcome.metrics.update(tracer.metrics(traced_wall - untraced_wall, bytes_written))


def build_ops(workload: str, scale: Scale, study: gen.Study | None, ref, out: Path) -> list[Op]:
    if workload == "fig4-sweeps":
        return fig4_ops(scale, out)
    if workload == "report-paper":
        return report_ops(scale, ref, study.manifest, out)
    return cli_step_ops(scale, ref, study.manifest, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1, help="input seed (the sweeps keep --seed 42)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time to aim for, in whole rounds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SCALES), default="paper")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spnkit" / "__init__.py").is_file():
        print(f"error: no spnkit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    scale = SCALES[args.size]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = {}
    try:
        with contextlib.ExitStack() as stack:
            launcher = None if args.trace else stack.enter_context(Launcher(work))
            setup_s = None if args.trace else measure_setup(launcher)
            study = ref = None
            if any(w != "fig4-sweeps" for w in workloads):
                study = gen.generate(work / "inputs", args.seed, args.size)
                ref = checks.Reference(study.manifest, study.rising_edge, study.falling_edge,
                                       study.rising_nodes, args.seed)
            for workload in workloads:
                outcome = Outcome()
                ops = build_ops(workload, scale, study, ref, work / "out" / workload)
                if args.trace:
                    run_traced(ops, workload, outcome)
                else:
                    outcome.metrics["setup_s"] = {"value": setup_s, "unit": "s"}
                    run_untraced(ops, launcher, args.seconds, outcome)
                results[workload] = outcome
                print(f"{workload}: attempted {outcome.attempted}, failed {outcome.failed}")
                for name, metric in outcome.metrics.items():
                    print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        (outcome,) = results.values()
        metrics = outcome.metrics
    else:
        metrics = {f"{w}.{k}": v for w, o in results.items() for k, v in o.metrics.items()}
    print(json.dumps({
        "correct": all(o.wrong == 0 for o in results.values()),
        "attempted": sum(o.attempted for o in results.values()),
        "failed": sum(o.failed for o in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
