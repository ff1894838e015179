"""Every function the benchmark tracer wraps (bench/tracing.py TARGETS) exists.

The tracer looks each target up when a traced call starts, so a renamed or
deleted function would otherwise show only as a crash of ``--trace 1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in load_tracing().TARGETS]
)
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = inspect.getattr_static(owner, part)
    assert callable(owner)
