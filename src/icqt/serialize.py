"""Deterministic report writing: fixed-format JSON and CSV, atomic files.

Floats are always rendered with 17 significant digits and dict keys are
sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def _float_text(x) -> str:
    """17 significant digits; +0.0 folds -0.0 into 0."""
    return format(float(x) + 0.0, ".17g")


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}"{key}": {_render(value[key], indent + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        if all(type(v) is float for v in value):  # the rows of every report array
            items = [inner + _float_text(v) for v in value]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, np.ndarray):
        return _render(value.tolist(), indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return _render(obj, 0) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> str:
    """Write ``dumps(obj)`` to path and return that text."""
    text = dumps(obj)
    _atomic_write(Path(path), text)
    return text


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with '.' decimals, ',' separators, mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_float_text(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def complex_to_pairs(array: np.ndarray) -> list:
    """Complex ndarray as nested [re, im] pairs (the scenario matrix format)."""
    arr = np.asarray(array, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [complex_to_pairs(sub) for sub in arr]


def pairs_to_complex(data) -> np.ndarray:
    """Inverse of complex_to_pairs; validates the [re, im] leaf shape and finiteness."""
    try:
        arr = np.asarray(data, dtype=float)
    except OverflowError:  # an integer past the double range
        raise ValueError("complex data must be finite") from None
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError("complex data must be nested [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("complex data must be finite")
    return arr[..., 0] + 1j * arr[..., 1]
