"""Record the reference reports that bench/checks.py compares with.

    python3 bench/record_reference.py [WORKLOAD ...]

Run from the root of a source checkout.  Each workload (all by default) is
run once at run.DEFAULT_SEED; a report that fails its invariants is not
recorded.  Re-record only when a change to the program is meant to change
its reports, and say so with the change.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks
import run


def record(name: str) -> None:
    workload = run.WORKLOADS[name]
    run.WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR)).resolve()
    try:
        scenario = tmp / "scenario.json"
        scenario.write_text(json.dumps(workload.scenario(run.DEFAULT_SEED)))
        out_dir = tmp / "out"
        args = [workload.command, str(scenario), "--out", str(out_dir)]
        result, _ = run.run_child(args, run.child_env(workload), tmp / "call.json",
                                  time.monotonic() + 600)
        problems = checks.judge(workload.command, name, workload.reports, result["exit_code"],
                                out_dir, reference=False)
        if problems:
            raise SystemExit(f"{name}: not recorded: {problems[:3]}")
        target = checks.REFERENCE_DIR / name
        target.mkdir(parents=True, exist_ok=True)
        for report in workload.reports:
            data = gzip.compress((out_dir / report).read_bytes(), mtime=0)
            (target / (report + ".gz")).write_bytes(data)
        print(f"{name}: recorded {', '.join(workload.reports)} in {target}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str]) -> int:
    for name in argv or sorted(run.WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
