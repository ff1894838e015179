"""The benchmark child (bench/child.py) counts a CLI call that raises as failed.

The CLI answers every malformed input with exit 2, so no input makes it
raise; the test replaces the CLI entry point with one that does.
"""

import importlib.util
import json
from pathlib import Path

import icqt.cli

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exception_escaping_the_cli_is_exit_one(tmp_path, monkeypatch):
    def raising_main(argv):
        raise ValueError("raised inside the program")

    monkeypatch.setattr(icqt.cli, "main", raising_main)
    result_path = tmp_path / "result.json"
    assert load_child().main([str(result_path), "icqc", "scenario.json"]) == 0
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 1
    assert result["error"] == "ValueError: raised inside the program"
    assert result["wall_s"] >= 0
