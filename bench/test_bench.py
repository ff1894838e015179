"""Tests of the benchmark itself: checks, span arithmetic, tracing.

    python3 -m pytest bench -q

Run from the root of the repository.  Reports come from small real CLI
runs, so the checks are tested on the exact formats the program writes.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SMALL = {
    "evolve": (
        {
            "schema": 1, "kind": "dynamics", "seed": 5, "dims": [2, 2, 4],
            "times": [0.0, 0.5, 1.0],
            "segments": [
                {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
                {"duration": 0.25, "hamiltonian": {"random": "coupled"}},
                {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
            ],
        },
        ("summary.json", "trajectory.csv"),
    ),
    "icqc": (
        {
            "schema": 1, "kind": "icqc", "seed": 5, "n": 1,
            "gates": [
                {"kind": "H", "targets": [["S", 0]]},
                {"kind": "CNOT", "targets": [["S", 0], ["A", 0]]},
                {"kind": "RY", "targets": [["P", 1]], "angle": 0.3},
            ],
            "program": {"random": {"depth": 2}},
        },
        ("icqc_report.json",),
    ),
    "suite": (
        {
            "schema": 1, "kind": "property-suite", "seed": 5, "dims_list": [[2, 2, 4]],
            "factorization_cases": 2, "converse_cases": 2, "block_cases": 2, "born_cases": 2,
            "creation_cases": 2, "shannon_cases": 2, "schmidt_roundtrips": 2,
        },
        ("suite_report.json",),
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """command -> directory with the reports of one small real call."""
    sys.path.insert(0, str(SRC))
    import icqt.cli

    base = tmp_path_factory.mktemp("reports")
    dirs = {}
    for command, (scenario, _) in SMALL.items():
        path = base / f"{command}.json"
        path.write_text(json.dumps(scenario))
        dirs[command] = base / command
        with redirect_stdout(io.StringIO()):
            assert icqt.cli.main([command, str(path), "--out", str(dirs[command])]) == 0
    return dirs


def copy(reports, command, tmp_path) -> Path:
    out = tmp_path / command
    shutil.copytree(reports[command], out)
    return out


def reference_dir(reports, command, tmp_path) -> Path:
    """A reference directory recorded from the valid small reports."""
    ref = tmp_path / "reference"
    (ref / command).mkdir(parents=True)
    for report in SMALL[command][1]:
        data = (reports[command] / report).read_bytes()
        (ref / command / (report + ".gz")).write_bytes(gzip.compress(data, mtime=0))
    return ref


def judge(command, out_dir, exit_code=0, ref_dir=None, first_dir=None):
    return checks.judge(
        command, command, SMALL[command][1], exit_code, out_dir,
        reference=ref_dir is not None, first_dir=first_dir,
        ref_dir=ref_dir or checks.REFERENCE_DIR,
    )


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command", sorted(SMALL))
def test_valid_reports_pass(reports, command, tmp_path):
    out = copy(reports, command, tmp_path)
    ref = reference_dir(reports, command, tmp_path)
    assert judge(command, out, ref_dir=ref, first_dir=reports[command]) == []


@pytest.mark.parametrize(
    "command, report, change",
    [
        ("evolve", "summary.json", lambda d: d.update(pmc_fallback=True)),
        ("evolve", "summary.json", lambda d: d.update(factorized_full_max_deviation=1e-6)),
        ("suite", "suite_report.json", lambda d: d.update(all_passed=False)),
        ("icqc", "icqc_report.json", lambda d: d["decision_probs"].__setitem__(0, d["decision_probs"][0] + 1e-6)),
        ("icqc", "icqc_report.json", lambda d: d["outcome_probs"][0].__setitem__(0, d["outcome_probs"][0][0] + 1e-6)),
    ],
)
def test_corrupted_report_fails_at_any_seed(reports, tmp_path, command, report, change):
    out = copy(reports, command, tmp_path)
    edit_json(out / report, change)
    assert judge(command, out)


def test_entropy_out_of_range_fails(reports, tmp_path):
    out = copy(reports, "evolve", tmp_path)
    lines = (out / "trajectory.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "-1e-6"
    lines[1] = ",".join(cells)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    assert any("entropy" in p for p in judge("evolve", out))


@pytest.mark.parametrize(
    "command, report, change",
    [
        ("icqc", "icqc_report.json", lambda d: d["degenerate"].__setitem__(0, not d["degenerate"][0])),
        ("icqc", "icqc_report.json", lambda d: d.update(s_psa=d["s_psa"] + 1e-8)),
        ("suite", "suite_report.json", lambda d: d["properties"][0].update(worst=1e-6)),
        ("evolve", "summary.json", lambda d: d["pmc"][0].update(satisfied=False)),
    ],
)
def test_reference_mismatch_fails(reports, tmp_path, command, report, change):
    out = copy(reports, command, tmp_path)
    ref = reference_dir(reports, command, tmp_path)
    edit_json(out / report, change)
    # Only the reference catches these: the invariants still hold.
    assert judge(command, out) == []
    assert judge(command, out, ref_dir=ref)


def test_reference_allows_roundoff_but_not_more(reports, tmp_path):
    out = copy(reports, "icqc", tmp_path)
    ref = reference_dir(reports, "icqc", tmp_path)
    edit_json(out / "icqc_report.json", lambda d: d.update(mean_s_sa=d["mean_s_sa"] + 1e-12))
    assert judge("icqc", out, ref_dir=ref) == []
    # Born probabilities are held to 1e-10, other floats to 1e-9.
    edit_json(out / "icqc_report.json",
              lambda d: d["decision_probs"].__setitem__(1, d["decision_probs"][1] + 5e-10))
    assert judge("icqc", out, ref_dir=ref)


def test_missing_report_fails(reports, tmp_path):
    out = copy(reports, "evolve", tmp_path)
    (out / "trajectory.csv").unlink()
    assert judge("evolve", out) == ["missing report trajectory.csv"]


def test_nonzero_exit_fails(reports):
    assert judge("suite", reports["suite"], exit_code=1) == ["exit code 1"]


def test_unparsable_report_fails(reports, tmp_path):
    out = copy(reports, "icqc", tmp_path)
    (out / "icqc_report.json").write_text('{"n": 1, "decision_probs": [nan')
    assert judge("icqc", out)[0].startswith("malformed report")


def test_reports_must_match_first_call(reports, tmp_path):
    out = copy(reports, "evolve", tmp_path)
    text = (out / "trajectory.csv").read_text().rstrip("\n")
    # The same number up to its 17th significant digit: valid, but not identical.
    (out / "trajectory.csv").write_text(text[:-1] + str((int(text[-1]) + 1) % 10) + "\n")
    problems = judge("evolve", out, first_dir=reports["evolve"])
    assert problems == ["trajectory.csv: differs from the first call's report"]


def test_elapsed_exemption_drops_those_keys_only(reports, tmp_path):
    out = copy(reports, "suite", tmp_path)
    path = out / "suite_report.json"
    text = path.read_text()
    assert '"elapsed_s": ' in text
    lines = [
        line.replace(line.split(": ")[1], "12.5,") if '"elapsed_s": ' in line else line
        for line in text.splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    assert path.read_text() != text
    assert judge("suite", out, first_dir=reports["suite"]) == []

    assert checks.comparable_bytes(b'  "elapsed_s": 1.5,\n  "x": 1\n') == b'  "x": 1\n'
    kept = b'  "elapsed_s_total": 1.5,\n  "notes": "elapsed_s": 2\n'
    assert checks.comparable_bytes(kept) == kept

    edit_json(path, lambda d: d["properties"][0].update(cases=d["properties"][0]["cases"] + 1))
    assert judge("suite", out, first_dir=reports["suite"])


def test_self_times_of_nested_spans():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- d [5, 9]
    spans = [
        ("cli.self", 0.0, 10.0, -1),
        ("kernel.eigh", 1.0, 4.0, 0),
        ("linalg.statevector", 2.0, 3.0, 1),
        ("kernel.eigh", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    values = tracing.group_metrics(spans, {"kernel.eigh_work": 16}, {"kernel.eigh": {"x"}})
    assert values["cli.self_s"] == 3.0
    assert values["kernel.eigh_s"] == 6.0
    assert values["kernel.eigh_calls"] == 2
    assert values["kernel.eigh_work"] == 16
    assert values["kernel.eigh_distinct_ratio"] == 0.5
    assert values["linalg.statevector_calls"] == 1
    assert values["linalg.statevector_s"] == 1.0
    assert values["dynamics.check_pmc_distinct_ratio"] == 0.0
    assert sum(tracing.self_times(spans)) == 10.0


def traced_call(tmp_path: Path, tag: str) -> dict:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SMALL["evolve"][0]))
    result_path, spans_path = tmp_path / f"{tag}.json", tmp_path / f"{tag}.spans.json"
    subprocess.run(
        [sys.executable, str(run.CHILD), str(result_path), "--spans", str(spans_path),
         "evolve", str(scenario), "--out", str(tmp_path / tag)],
        env=child_env(), check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    result = json.loads(result_path.read_text())
    result["spans"] = json.loads(spans_path.read_text())
    return result


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = traced_call(tmp_path, "a"), traced_call(tmp_path, "b")
    assert first["exit_code"] == second["exit_code"] == 0
    exact_a = {m: first["layers"][m] for m in tracing.EXACT if m in first["layers"]}
    exact_b = {m: second["layers"][m] for m in tracing.EXACT if m in second["layers"]}
    assert exact_a == exact_b
    # 3 checks in cmd_evolve plus one per segment step of the factorized path.
    assert exact_a["dynamics.check_pmc_calls"] == 3 + 5
    assert exact_a["dynamics.evolve_full_calls"] == 5
    spans = first["spans"]
    assert spans["names"][spans["spans"][0][0]] == "cli.main"
    assert all(s[3] < i for i, s in enumerate(spans["spans"]))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in run.WORKLOADS.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "suite-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_exception_in_the_program_is_a_failed_call(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SMALL["icqc"][0]))
    result_path = tmp_path / "result.json"
    env = dict(child_env(), ICQT_MAX_DIM="abc")  # the CLI raises ValueError on this
    subprocess.run(
        [sys.executable, str(run.CHILD), str(result_path), "icqc", str(scenario),
         "--out", str(tmp_path / "out")],
        env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 1
    assert result["error"].startswith("ValueError")
    assert result["wall_s"] > 0
    assert judge("icqc", tmp_path / "out", exit_code=result["exit_code"]) == ["exit code 1"]
