"""Benchmark of the icqt command-line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding
``src/icqt``).  It generates the workload's scenario from the seed, then
runs ``icqt.cli.main`` on it in fresh child processes, one at a time, and
checks every report (bench/checks.py).

``--trace 0`` measures the end-to-end metrics: the median wall time of one
CLI call and the median peak resident set of the child making it, over the
calls that fit in S seconds (at least MIN_CALLS), and the median set-up time
(interpreter start to ``import icqt.cli`` done) over the calls' children and
SETUP_PROBES_PER_CALL bare interpreters after each call.  ``--trace 1`` makes one untraced and one traced call and
reports the per-layer metrics of bench/tracing.py; the difference between
the two calls' wall times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with every sample, every problem found and the environment, is written to
``.bench_work/results/``; traced runs write their spans to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
WORK_DIR = Path(".bench_work")

# The reference reports in bench/reference were recorded at this seed.
DEFAULT_SEED = 2026
MIN_CALLS = 2
SETUP_PROBES_PER_CALL = 2
# A run must end within 180 s; no call is started that would end later.
RUN_DEADLINE_S = 170.0


def _evolve_scenario(seed: int) -> dict:
    return {
        "schema": 1,
        "kind": "dynamics",
        "seed": seed,
        "dims": [5, 5, 25],
        "times": [0.25 * i for i in range(9)],
        "segments": [
            {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
            {"duration": 0.75, "hamiltonian": {"random": "coupled"}},
            {"duration": 1.0, "hamiltonian": {"random": "pmc"}},
        ],
        "initial_state": {"random": "separable"},
    }


def _icqc_scenario(seed: int) -> dict:
    return {
        "schema": 1,
        "kind": "icqc",
        "seed": seed,
        "n": 5,
        "initial": "uniform",
        "gates": [
            {"kind": "H", "targets": [["S", 0]]},
            {"kind": "CNOT", "targets": [["S", 0], ["A", 0]]},
            {"kind": "RY", "targets": [["P", 1]], "angle": 0.3},
        ],
        "program": {"random": {"depth": 4}},
    }


def _suite_scenario(seed: int) -> dict:
    # scenarios/full_suite.json, with the seed as given.
    return {"schema": 1, "kind": "property-suite", "seed": seed}


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: Callable[[int], dict]
    reports: tuple[str, ...]
    max_dim: int | None
    why: str


WORKLOADS = {
    "evolve-schedule-d5": Workload(
        command="evolve",
        scenario=_evolve_scenario,
        reports=("summary.json", "trajectory.csv"),
        max_dim=None,
        why="icqt evolve at dims [5,5,25] over pmc/coupled/pmc segments: dense oracle, "
        "repeated measurability checks and eigh dominate (dynamics layer)",
    ),
    "icqc-n5": Workload(
        command="icqc",
        scenario=_icqc_scenario,
        reports=("icqc_report.json",),
        max_dim=2**20,
        why="icqt icqc with n=5 (1024 branches, total 2^20): branch kernels in trinary, "
        "born and linalg dominate; never enters dynamics",
    ),
    "suite-default": Workload(
        command="suite",
        scenario=_suite_scenario,
        reports=("suite_report.json",),
        max_dim=None,
        why="icqt suite on the shipped property battery: thousands of tiny calls at d<=9, "
        "so per-call Python and validation overhead dominate",
    ),
}

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


class BenchError(RuntimeError):
    """The benchmark cannot produce a measurement at all."""


@dataclass
class Call:
    out_dir: Path
    problems: list[str]
    result: dict | None
    setup_s: float | None = None


def child_env(workload: Workload) -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ICQT_MAX_DIM", None)
    if workload.max_dim is not None:
        env["ICQT_MAX_DIM"] = str(workload.max_dim)
    return env


def run_child(args: list[str], env: dict, result_path: Path, deadline: float) -> tuple[dict, float]:
    """Run bench/child.py; return its result and the monotonic start time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(args, 0)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result_path), *args],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise BenchError(f"child exited {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text())
    expected = Path("src", "icqt", "cli.py").resolve()
    if Path(result["icqt_file"]) != expected:
        raise BenchError(f"child imported {result['icqt_file']}, not {expected}")
    return result, started


def setup_probe(env: dict, result_path: Path, deadline: float) -> float:
    """Interpreter start to ``import icqt.cli`` done, in a fresh interpreter."""
    result, started = run_child([], env, result_path, deadline)
    return result["imported_monotonic"] - started


def make_call(name: str, workload: Workload, scenario: Path, tmp: Path, k: int, env: dict,
              deadline: float, reference: bool, first_dir: Path | None,
              spans: Path | None) -> Call:
    """One CLI call in a fresh child, judged by bench/checks.py."""
    out_dir = tmp / f"call{k}"
    args = [] if spans is None else ["--spans", str(spans)]
    args += [workload.command, str(scenario), "--out", str(out_dir)]
    try:
        result, started = run_child(args, env, tmp / f"call{k}.json", deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        return Call(out_dir, [f"call did not finish: {exc}"], None)
    problems = checks.judge(
        workload.command, name, workload.reports, result["exit_code"], out_dir, reference,
        first_dir,
    )
    if "error" in result:
        problems.append(result["error"])
    return Call(out_dir, problems, result, result["imported_monotonic"] - started)


def source_record() -> dict:
    """Git commit when run in a git checkout, and a digest of src/icqt."""
    commit = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(Path("src", "icqt").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure_traced(call, spans_path: Path) -> tuple[dict, dict]:
    """One untraced and one traced call; the per-layer metrics."""
    spans_path.parent.mkdir(exist_ok=True)
    plain = call()
    traced = call(spans_path)
    if plain.result is None or traced.result is None:
        raise BenchError("; ".join(plain.problems + traced.problems))
    layers = dict(traced.result["layers"])
    layers["process.cpu_s"] = plain.result["cpu_s"]
    layers["trace.overhead_s"] = traced.result["wall_s"] - plain.result["wall_s"]
    metrics = {m: {"value": layers[m], "unit": unit} for m, unit, _ in tracing.PER_LAYER}
    samples = {
        "untraced_wall_s": plain.result["wall_s"],
        "traced_wall_s": traced.result["wall_s"],
        "spans_file": str(spans_path),
    }
    return metrics, samples


def measure_timed(call, probe, started: float, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Untraced calls for ``seconds`` (at least MIN_CALLS); the end-to-end metrics.

    Set-up is sampled in every call's child and in SETUP_PROBES_PER_CALL bare
    interpreters after it, so that the samples span the run.  The first
    probe only writes bytecode caches and is not counted.
    """
    probe()
    setup, timed = [], []
    for attempted in itertools.count(1):
        c = call()
        if c.result is not None:
            timed.append(c.result)
            setup.append(c.setup_s)
        setup += [probe() for _ in range(SETUP_PROBES_PER_CALL)]
        if attempted >= MIN_CALLS and time.monotonic() - started >= seconds:
            break
        longest = max((r["wall_s"] for r in timed), default=0.0)
        if time.monotonic() + 1.5 * longest + 5.0 > deadline:
            break
    if not timed:
        raise BenchError("no call finished: " + "; ".join(c.problems))
    values = {
        "wall_s": [r["wall_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "setup_s": setup,
    }
    metrics = {m: {"value": statistics.median(values[m]), "unit": unit} for m, unit in END_TO_END}
    samples = {
        **values,
        "cpu_s": [r["cpu_s"] for r in timed],
        "sys_s": [r["sys_s"] for r in timed],
    }
    return metrics, samples


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    env = child_env(workload)
    reference = seed == DEFAULT_SEED
    calls: list[Call] = []
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)).resolve()
    try:
        scenario = tmp / "scenario.json"
        scenario.write_text(json.dumps(workload.scenario(seed), indent=1) + "\n")

        def call(spans: Path | None = None) -> Call:
            # Reports must equal, byte for byte, those of the first passing call.
            first_dir = next((c.out_dir for c in calls if not c.problems), None)
            c = make_call(name, workload, scenario, tmp, len(calls), env, deadline,
                          reference, first_dir, spans)
            calls.append(c)
            return c

        def probe() -> float:
            return setup_probe(env, tmp / "probe.json", deadline)

        if trace:
            spans_path = WORK_DIR.resolve() / "traces" / f"{name}-seed{seed}.spans.json"
            metrics, samples = measure_traced(call, spans_path)
        else:
            metrics, samples = measure_timed(call, probe, started, seconds, deadline)
        env_record = next(c.result["env"] for c in calls if c.result is not None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for c in calls if c.problems)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "reference_compared": reference,
        "env": {**env_record, **source_record()},
        "samples": samples,
        "problems": [p for c in calls for p in c.problems],
        "summary": {
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": metrics,
        },
    }


def report(record: dict) -> None:
    summary = record["summary"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, m in summary["metrics"].items():
        n = len(record["samples"].get(name, ()))
        detail = f"  (median of {n})" if n else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{detail}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':40s} {frac:.6g}  ({summary['failed']} of {summary['attempted']} commands)")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src", "icqt", "cli.py").is_file():
        sys.stderr.write("bench: run from the root of an icqt source checkout (no src/icqt/cli.py here)\n")
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: no measurement: {exc}\n")
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
