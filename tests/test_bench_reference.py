"""Each benchmark workload (bench/run.py WORKLOADS) passes the benchmark's own
correctness gate (bench/checks.py ``judge``) at the recorded seed.

The workload's scenario runs in process through ``icqt.cli.main``, and its
reports are judged against the reference reports in bench/reference, so a
drift of any report shows here before the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from icqt import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, path):
    """Run the file at ``path`` as module ``name``, registered in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(sys.modules):  # run.py imports checks and tracing by bare name
    CHECKS = load("checks", BENCH / "checks.py")
    load("tracing", BENCH / "tracing.py")
    RUN = load("bench_run", BENCH / "run.py")


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_reports_match_reference(name, tmp_path, monkeypatch, capsys):
    workload = RUN.WORKLOADS[name]
    monkeypatch.delenv("ICQT_MAX_DIM", raising=False)
    if workload.max_dim is not None:
        monkeypatch.setenv("ICQT_MAX_DIM", str(workload.max_dim))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(workload.scenario(RUN.DEFAULT_SEED)))
    out = tmp_path / "out"
    code = cli.main([workload.command, str(scenario), "--out", str(out)])
    capsys.readouterr()
    assert CHECKS.judge(workload.command, name, workload.reports, code, out, reference=True) == []
