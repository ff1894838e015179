import sys
from pathlib import Path

import numpy as np
import pytest

from icqt import icqc, suite
from icqt.trinary import TrinaryDims

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def spectral_calls(monkeypatch):
    """Every ``np.linalg.svd`` and ``eigvalsh`` call of the test, in order, as
    ("svd", shape, dtype name, compute_uv) or ("eigvalsh", shape, dtype name)."""
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh
    calls = []

    def recording_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a), np.asarray(a).dtype.name, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def recording_eigvalsh(a, *args, **kwargs):
        calls.append(("eigvalsh", np.shape(a), np.asarray(a).dtype.name))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    return calls


@pytest.fixture
def complex_typed(monkeypatch):
    """``call(f, *args)``: f(*args) with every ICQC run in a complex128 buffer.

    That is how icqt runs a circuit with a gate of a kind that is not real, and
    how it ran every circuit before real kinds went to float64 buffers and
    kernels; on a real run it gives the run of its complex-typed copy.  The
    library kernels take their input's dtype, so nothing else is patched.
    """

    def call(f, *args):
        with monkeypatch.context() as m:
            m.setattr(icqc, "_real_run", lambda config: False)
            return f(*args)

    return call


@pytest.fixture
def small_suite(monkeypatch):
    """``run_property_suite`` at two cases per battery count and the dims (2, 2, 4) alone.

    The suite's sizes are fixed constants, read when it is called; a test that runs the
    whole battery through the CLI shrinks them here to keep its run short.
    """
    for name in suite.DEFAULT_COUNTS:
        monkeypatch.setitem(suite.DEFAULT_COUNTS, name, 2)
    monkeypatch.setattr(suite, "DEFAULT_DIMS", (TrinaryDims(2, 2, 4),))
