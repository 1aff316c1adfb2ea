"""Benchmark of the paytobid CLI, with every output row checked against oracles.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is monte-carlo, cli-tables or all.  A run starts the
CLI as a user does, one process per command and one at a time, with
src/ on PYTHONPATH.  It first times a command that does no real work
(setup_s), then plays whole rounds of the workload's commands until S
seconds have passed.  Each round checks every output row against
oracles.py; an operation is one output row.  With --trace 0 the run
reports the end-to-end metrics, medians over rounds; with --trace 1 it
runs the same commands through traced_cli.py and reports per-layer
metrics from the spans.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the
run, with the machine facts, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import mpmath
import numpy as np

import checks
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# Timings of the null command per run, one before each of the first rounds.
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 60.0

PARAM_FIELDS = checks.PARAM_FIELDS
CLI_FLAGS = {
    "n": "--n", "value": "--value", "sale_price": "--sale-price", "bid_fee": "--bid-fee",
    "rho": "--rho", "mode": "--mode", "replications": "--replications", "seed": "--seed",
    "initial_wealth": "--initial-wealth", "tol": "--tol",
}
SWEEP_AXES = {"n": "n", "value": "v", "sale_price": "s", "bid_fee": "c", "rho": "rho"}


@dataclass(frozen=True)
class Command:
    """One paytobid invocation: fixed settings plus swept parameters."""

    name: str
    fixed: Dict
    sweep: Tuple = ()  # ((field, values), ...), crossed in this order

    def argv(self) -> List[str]:
        args = [self.name]
        for key, value in self.fixed.items():
            args += [CLI_FLAGS[key], str(value)]
        for key, values in self.sweep:
            args += ["--sweep", f"{SWEEP_AXES[key]}=" + ",".join(str(v) for v in values)]
        return args

    def points(self) -> List[Dict]:
        """Grid points in the order the CLI emits them."""
        keys = [key for key, _ in self.sweep]
        out = []
        for combo in itertools.product(*(values for _, values in self.sweep)):
            point = {key: self.fixed[key] for key in PARAM_FIELDS}
            point.update(zip(keys, combo))
            out.append(point)
        return out


def params(n, value, sale_price, bid_fee, rho) -> Dict:
    return {"n": n, "value": float(value), "sale_price": float(sale_price),
            "bid_fee": float(bid_fee), "rho": float(rho)}


# A command that does no real work: its wall time is what every command
# pays to start the interpreter and import the package.
NULL_COMMAND = Command("equilibrium", params(2, 2, 0, 1, 0))


# ---------------------------------------------------------------------------
# Workloads.  The seed picks the Monte Carlo seed and the inputs that
# change no amount of work (initial wealth, and the value in the analytic
# tables); the grids themselves are fixed.
# ---------------------------------------------------------------------------

def monte_carlo(seed: int) -> List[Command]:
    """The paper's claims by simulation, with and without re-entry."""
    rng = random.Random(seed)
    run = {"seed": rng.randrange(2**31), "initial_wealth": round(rng.uniform(0.0, 2.0), 3)}
    reentry = {"mode": "reentry", "replications": 40000, **run}
    attrition = {"mode": "no-reentry", **run}
    return [
        # Risk neutral: revenue equals the value.
        Command("simulate", {**params(3, 100, 5, 0.5, 0), **reentry}),
        # Risk loving: revenue above the value, growing as rho falls.
        Command("simulate", {**params(3, 10, 0, 1, -0.1), **reentry}, (("rho", (-0.05, -0.1, -0.2)),)),
        # Revenue does not depend on n.
        Command("simulate", {**params(2, 10, 0, 1, -0.1), **reentry}, (("n", (2, 10, 50)),)),
        # No re-entry: attrition from n = 3 to 1000 players.
        Command("simulate", {**params(3, 10, 0, 1, 0), **attrition, "replications": 4096},
                (("n", (3, 20, 100)), ("value", (10.0, 100.0)))),
        Command("simulate", {**params(1000, 100, 0, 1, 0), **attrition, "replications": 2048}),
    ]


def cli_tables(seed: int) -> List[Command]:
    """The analytic tables: fee series, attrition DP and a long p(k) table."""
    rng = random.Random(seed)
    return [
        # The rows at rho = -0.1 fail in every run: the series misses the
        # exact fee there by 1e-7 to 6e-7 against an allowance of 2e-9.
        Command("revenue", {**params(3, 100, 5, 0.5, 0), "replications": 0, "tol": 1e-9},
                (("rho", (0.0, -0.02, -0.1)), ("n", (3, 10, 30)))),
        Command("attrition", {**params(2, round(rng.uniform(10.0, 100.0), 3), 0, 1, 0),
                              "replications": 0},
                (("n", (2, 3, 10, 50, 150, 300)),)),
        Command("equilibrium", params(20000, round(rng.uniform(10.0, 100.0), 3), 0, 1, 0)),
    ]


WORKLOADS = {"monte-carlo": monte_carlo, "cli-tables": cli_tables}


def point_name(mode: str, point: Dict) -> str:
    """Name of a Monte Carlo grid point in the per-layer metrics."""
    return (f"{mode.replace('-', '')}_n{point['n']}_v{point['value']:g}"
            f"_rho{point['rho']:g}")


# ---------------------------------------------------------------------------
# Oracles and row checks for one command.
# ---------------------------------------------------------------------------

class Job:
    """One command of a workload with the expected value of every row."""

    def __init__(self, command: Command):
        self.command = command
        self.points = command.points()
        name = command.name
        if name == "equilibrium":
            self.refs = []
            for point in self.points:
                lam = oracles.win_ratio(point["value"], point["sale_price"], point["bid_fee"], point["rho"])
                p = [math.nan, math.nan] + [float(oracles.bid_probability(lam, k))
                                            for k in range(2, point["n"] + 1)]
                self.refs.append((float(lam), p))
        elif name == "revenue":
            self.refs = [oracles.Reentry.at(*(p[f] for f in PARAM_FIELDS)) for p in self.points]
        elif name == "attrition":
            # The chain at the largest n holds every smaller start too.
            top = max(p["n"] for p in self.points)
            chains = {}
            for point in self.points:
                key = tuple(point[f] for f in PARAM_FIELDS[1:])
                if key not in chains:
                    chains[key] = oracles.attrition_chain(float(oracles.win_ratio(*key)), top)
            self.refs = [chains[tuple(p[f] for f in PARAM_FIELDS[1:])] for p in self.points]
        elif name == "simulate":
            self.refs = [checks.SimExpectation(p, command.fixed["mode"]) for p in self.points]
        else:
            raise ValueError(f"no checks for command {name!r}")

    def rows_per_point(self, point: Dict) -> int:
        return point["n"] - 1 if self.command.name == "equilibrium" else 1

    @property
    def operations(self) -> int:
        return sum(self.rows_per_point(p) for p in self.points)

    @property
    def z_checks(self) -> int:
        if self.command.name != "simulate":
            return 0
        return sum(ref.z_checks() for ref in self.refs)

    def check(self, rows: List[Dict], z: float) -> Tuple[int, List[str]]:
        """(failed operations, problems) of one output of the command."""
        problems: List[str] = []
        failed = 0
        if len(rows) != self.operations:
            problems.append(f"{len(rows)} rows, expected {self.operations}")
        start = 0
        for point, ref in zip(self.points, self.refs):
            block = rows[start:start + self.rows_per_point(point)]
            start += self.rows_per_point(point)
            failed += self.rows_per_point(point) - len(block)  # missing rows
            if self.command.name == "equilibrium":
                per_row = checks.check_equilibrium(block, point, *ref)
            else:
                per_row = [self._check_row(row, point, ref, z) for row in block]
            for row, found in zip(block, per_row):
                status = row.get("status")
                if status != "OK":
                    failed += 1
                    if not (self.command.name == "revenue" and status == "FAILED"):
                        continue  # nothing was computed to check
                problems += [f"{self.command.name} {point_label(point)}: {p}" for p in found]
        return failed, problems

    def _check_row(self, row: Dict, point: Dict, ref, z: float) -> List[str]:
        if self.command.name == "revenue":
            return checks.check_revenue(row, point, self.command.fixed["tol"], ref)
        if self.command.name == "attrition":
            return checks.check_attrition(row, point, ref)
        return checks.check_simulate(row, point, self.command.fixed, ref, z)


def point_label(point: Dict) -> str:
    return ",".join(f"{f}={point[f]:g}" for f in PARAM_FIELDS)


# ---------------------------------------------------------------------------
# Running the CLI.
# ---------------------------------------------------------------------------

@dataclass
class Process:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: Path
    stderr: Path


def run_process(argv: List[str], tag: str) -> Process:
    """Run one command to its end; wall time and peak RSS from wait4."""
    out, err = RESULTS / f"{tag}.out", RESULTS / f"{tag}.err"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err)


def cli_argv(command: Command, spans: Path = None) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "paytobid.cli", *command.argv()]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *command.argv()]


def read_rows(proc: Process) -> List[Dict]:
    if proc.exit_code != 0:
        return []
    try:
        return json.loads(proc.stdout.read_bytes())["rows"]
    except (ValueError, KeyError, TypeError):
        return []


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------

TIMED_LAYERS = (
    "simulator.run_replications", "utility.evaluate", "equilibrium.bid_probability",
    "revenue.revenue_series", "revenue.closed_form_revenue",
    "attrition.expected_passage_time", "attrition.prob_two_player_endgame",
    "attrition.endgame_time_fraction", "cli.render",
    "cli.equilibrium", "cli.revenue", "cli.attrition", "cli.simulate",
)
MODES = ("reentry", "noreentry")  # game modes as they appear in metric names
COUNTED_LAYERS = ("utility.evaluate", "equilibrium.bid_probability", "attrition.bid_count_distribution")


def all_points() -> List[str]:
    """Names of every Monte Carlo point of every workload."""
    return [point_name(command.fixed["mode"], point)
            for workload in WORKLOADS.values() for command in workload(0)
            if command.name == "simulate" for point in command.points()]


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    units = {f"{layer}_s": ("s", "lower") for layer in TIMED_LAYERS}
    units.update({f"{layer}_calls": ("count", "lower") for layer in COUNTED_LAYERS})
    units["simulator.raw_rounds"] = ("count", "lower")
    for mode in MODES:
        units[f"simulator.rounds_per_s.{mode}"] = ("1/s", "higher")
        units[f"simulator.ns_per_active_draw.{mode}"] = ("ns", "lower")
    units.update({f"simulator.point_s.{name}": ("s", "lower") for name in all_points()})
    units["trace.wall_s"] = ("s", "lower")
    return units


def layer_metrics(span_files: List[Path], jobs: List[Job]) -> Dict[str, float]:
    """Per-layer figures of one round from the span files of its commands."""
    expected = {point_name(job.command.fixed["mode"], point): ref
                for job in jobs if job.command.name == "simulate"
                for point, ref in zip(job.points, job.refs)}
    metrics = {name: 0.0 for name in per_layer_units()}
    busy = dict.fromkeys(MODES, 0.0)
    raw = dict.fromkeys(MODES, 0.0)
    draws = dict.fromkeys(MODES, 0.0)
    for path in span_files:
        for name, start, end, _parent, attrs in json.loads(path.read_text()):
            if name in TIMED_LAYERS:
                metrics[f"{name}_s"] += end - start
            if name in COUNTED_LAYERS:
                metrics[f"{name}_calls"] += 1
            if name == "simulator.run_replications":
                point = point_name(attrs["mode"], attrs)
                mode = attrs["mode"].replace("-", "")
                metrics[f"simulator.point_s.{point}"] += end - start
                busy[mode] += end - start
                raw[mode] += attrs["raw_rounds"]
                if mode == "reentry":
                    draws[mode] += attrs["n"] * attrs["raw_rounds"]
                else:
                    draws[mode] += expected[point].active_draws * attrs["completed"]
    metrics["simulator.raw_rounds"] = sum(raw.values())
    for mode in MODES:
        if busy[mode] > 0:
            metrics[f"simulator.rounds_per_s.{mode}"] = raw[mode] / busy[mode]
            metrics[f"simulator.ns_per_active_draw.{mode}"] = 1e9 * busy[mode] / draws[mode]
    return metrics


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------

def machine_facts() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_null_command(tag: str) -> float:
    proc = run_process(cli_argv(NULL_COMMAND), f"{tag}-setup")
    if proc.exit_code != 0:
        raise SystemExit(f"the null command exited {proc.exit_code}: {proc.stderr.read_text()[-2000:]}")
    return proc.wall_s


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    commands = WORKLOADS[workload](seed)
    jobs = [Job(c) for c in commands]
    z = checks.z_bound(max(1, sum(job.z_checks for job in jobs)))
    tag = f"{workload}-s{seed}-t{int(trace)}"
    rounds = []
    setup: List[float] = []
    digests: Dict[int, set] = {}
    problems: Dict[str, None] = {}  # an ordered set: rounds repeat the same problems
    busy = 0.0  # wall time of the workload's processes so far
    while busy < seconds:
        if not trace and len(setup) < SETUP_PROBES:
            setup.append(time_null_command(tag))
        walls, rss, failed, spans = [], [], 0, []
        for i, job in enumerate(jobs):
            span_file = RESULTS / f"{tag}-{i}.spans.json" if trace else None
            proc = run_process(cli_argv(job.command, span_file), f"{tag}-{i}")
            walls.append(proc.wall_s)
            rss.append(proc.peak_rss_mb)
            if proc.exit_code != 0:
                tail = proc.stderr.read_text()[-300:].strip().replace("\n", " | ")
                problems[f"{job.command.name} exited {proc.exit_code}: {tail}"] = None
            rows = read_rows(proc)
            job_failed, found = job.check(rows, z)
            failed += job_failed
            problems.update(dict.fromkeys(found))
            digests.setdefault(i, set()).add(hashlib.sha256(proc.stdout.read_bytes()).hexdigest())
            if trace and proc.exit_code == 0:
                spans.append(span_file)
        figures = {"peak_rss_mb": max(rss), "process_wall_s": walls,
                   "attempted": sum(job.operations for job in jobs), "failed": failed}
        if trace:
            figures["layers"] = layer_metrics(spans, jobs)
        rounds.append(figures)
        busy += sum(walls)
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(time_null_command(tag))
    for i, seen in digests.items():
        if len(seen) > 1:
            problems[f"{jobs[i].command.name}: output differs between rounds of one seed"] = None

    # Each command's median over the rounds, summed: one slow process
    # moves its own median, not the whole round's.
    wall = sum(statistics.median(r["process_wall_s"][i] for r in rounds) for i in range(len(jobs)))
    if trace:
        units = per_layer_units()
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": units[name][0]}
                   for name in units}
        metrics["trace.wall_s"]["value"] = wall
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commands": [" ".join(job.command.argv()) for job in jobs], "z_bound": z,
        "facts": machine_facts(), "setup_s": setup, "rounds": rounds,
        "problems": list(problems)[:200], "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return result


def summary(workload: str, result: Dict) -> str:
    lines = [f"[{workload}] correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paytobid" / "cli.py").is_file():
        print(f"error: no paytobid sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps(machine_facts()))
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print(summary(name, results[name]), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
