"""Correctness checks on the reports of one icqt CLI call.

A call passes when it exited 0, wrote every report, the reports satisfy the
workload's invariants, and, at the recorded seed, they match the reference
reports recorded with the benchmark: booleans, integers and strings
exactly, floats within the pinned acceptance tolerances.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from pathlib import Path

# Pinned acceptance tolerances (tests/test_acceptance.py, icqt.suite).
FACTORIZATION_TOL = 1e-9
ENTROPY_TOL = 1e-9
BORN_TOL = 1e-10
# Report keys holding Born-rule probabilities; every other float is a
# factorization deviation, an entropy, or a number derived from them.
BORN_KEYS = ("decision_probs", "outcome_probs")

# suite_report.json carries wall-clock timings that vary run to run.
VOLATILE_KEY = "elapsed_s"
_VOLATILE_LINE = re.compile(rb'^[ \t]*"' + VOLATILE_KEY.encode() + rb'": [^\n]*\n', re.MULTILINE)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _load_json(path: Path):
    return json.loads(path.read_text())


def _load_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---- invariants, checked at every seed ----------------------------------

def check_evolve(out_dir: Path) -> list[str]:
    summary = _load_json(out_dir / "summary.json")
    problems = []
    if summary.get("pmc_fallback") is not False:
        problems.append("summary.json: pmc_fallback is not false")
    dev = summary.get("factorized_full_max_deviation")
    if not _is_number(dev) or not dev <= FACTORIZATION_TOL:
        problems.append(f"summary.json: factorized_full_max_deviation {dev!r} > {FACTORIZATION_TOL}")
    d_s, _, d_p = summary["dims"]
    rows = _load_csv(out_dir / "trajectory.csv")
    header, body = rows[0], rows[1:]
    expected = ["t", "S_PSA"] + [f"S_SA_branch_{r}" for r in range(d_p)]
    if header != expected:
        problems.append("trajectory.csv: unexpected header")
        return problems
    if len(body) != len(summary["times"]):
        problems.append(f"trajectory.csv: {len(body)} rows for {len(summary['times'])} times")
    for i, row in enumerate(body):
        s_psa, *branches = (float(x) for x in row[1:])
        caps = [(s_psa, math.log(d_p))] + [(s, math.log(d_s)) for s in branches]
        for s, cap in caps:
            if not -ENTROPY_TOL <= s <= cap + ENTROPY_TOL:
                problems.append(f"trajectory.csv row {i}: entropy {s!r} outside [0, {cap!r}]")
    return problems


def check_icqc(out_dir: Path) -> list[str]:
    report = _load_json(out_dir / "icqc_report.json")
    problems = []
    d_p, d_s = 4 ** report["n"], 2 ** report["n"]
    decision, outcome, empty = report["decision_probs"], report["outcome_probs"], report["empty"]
    if len(decision) != d_p or len(outcome) != d_p or len(empty) != d_p:
        return [f"icqc_report.json: expected {d_p} branches"]
    if abs(math.fsum(decision) - 1.0) > BORN_TOL:
        problems.append(f"icqc_report.json: decision row sums to {math.fsum(decision)!r}")
    for r, (row, is_empty) in enumerate(zip(outcome, empty)):
        if len(row) != d_s:
            problems.append(f"icqc_report.json: outcome row {r} has {len(row)} entries")
        elif not is_empty and abs(math.fsum(row) - 1.0) > BORN_TOL:
            problems.append(f"icqc_report.json: outcome row {r} sums to {math.fsum(row)!r}")
    return problems


def check_suite(out_dir: Path) -> list[str]:
    report = _load_json(out_dir / "suite_report.json")
    if report.get("all_passed") is not True:
        return ["suite_report.json: all_passed is not true"]
    return []


# ---- reference comparison, at the recorded seed only ----------------------

def compare_values(ref, got, where: str, tol: float = FACTORIZATION_TOL) -> list[str]:
    """Differences between two parsed reports; floats within ``tol``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(ref):
            if key != VOLATILE_KEY:
                key_tol = BORN_TOL if key in BORN_KEYS else tol
                out += compare_values(ref[key], got[key], f"{where}.{key}", key_tol)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: lengths differ"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare_values(r, g, f"{where}[{i}]", tol)
        return out
    if _is_number(ref) and _is_number(got):
        return [] if abs(ref - got) <= tol else [f"{where}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != reference {ref!r}"]
    return []


def _parse_csv_cells(rows):
    def cell(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [[cell(x) for x in row] for row in rows]


def compare_reference(name: str, out_dir: Path, reports, ref_dir: Path = REFERENCE_DIR) -> list[str]:
    out = []
    for report in reports:
        ref_text = gzip.decompress((ref_dir / name / (report + ".gz")).read_bytes()).decode()
        got_path = out_dir / report
        if report.endswith(".json"):
            ref, got = json.loads(ref_text), _load_json(got_path)
        else:
            ref = _parse_csv_cells(csv.reader(io.StringIO(ref_text)))
            got = _parse_csv_cells(_load_csv(got_path))
        out += compare_values(ref, got, report)
    return out


# ---- byte identity between calls ----------------------------------------

def comparable_bytes(data: bytes) -> bytes:
    """Report bytes with the volatile timing lines removed."""
    return _VOLATILE_LINE.sub(b"", data)


def identical_reports(first_dir: Path, out_dir: Path, reports) -> list[str]:
    return [
        f"{report}: differs from the first call's report"
        for report in reports
        if comparable_bytes((first_dir / report).read_bytes())
        != comparable_bytes((out_dir / report).read_bytes())
    ]


INVARIANTS = {"evolve": check_evolve, "icqc": check_icqc, "suite": check_suite}


def judge(command: str, name: str, reports, exit_code: int, out_dir: Path,
          reference: bool, first_dir: Path | None = None,
          ref_dir: Path = REFERENCE_DIR) -> list[str]:
    """Every problem with one call; the call failed if the list is not empty.

    ``command`` picks the invariants, ``name`` the reference reports,
    ``reference`` whether to compare with them, and ``first_dir`` the
    reports of an earlier call of the same input that these must equal.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [r for r in reports if not (out_dir / r).is_file()]
    if missing:
        return [f"missing report {r}" for r in missing]
    try:
        problems = INVARIANTS[command](out_dir)
        if reference:
            problems += compare_reference(name, out_dir, reports, ref_dir)
        if first_dir is not None:
            problems += identical_reports(first_dir, out_dir, reports)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, csv.Error) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    return problems
