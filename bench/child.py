"""One measured icqt CLI call, run in a fresh interpreter by bench/run.py.

    python3 bench/child.py RESULT.json [--spans SPANS.json] [CLI ARGS...]

icqt.cli is imported before anything else, so that the time from
interpreter start to the end of that import (the set-up every CLI call pays)
can be taken from the monotonic clock value written to RESULT.json.  With no
CLI arguments the child stops there.  With ``--spans`` the call is traced
and the spans are written to SPANS.json.  An exception escaping the CLI is
recorded as exit code 1, the status the CLI itself would end with, so that
the call still yields its time and memory.
"""

import time

import icqt.cli

IMPORTED = time.monotonic()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def blas_info() -> dict:
    """BLAS library name, version and thread count, as far as they can be read."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main(argv: list[str]) -> int:
    result_path, args = argv[0], argv[1:]
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    result = {"imported_monotonic": IMPORTED, "icqt_file": os.path.abspath(icqt.cli.__file__)}
    if args:
        tracer = None
        if spans_path is not None:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        try:
            code = icqt.cli.main(args)
        except Exception as exc:  # noqa: BLE001 - the CLI would die with status 1
            code = 1
            result["error"] = "".join(traceback.format_exception_only(exc)).strip()
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            sys_s=after.ru_stime - before.ru_stime,
            peak_rss_mb=after.ru_maxrss / 1024.0,
            env={
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": blas_info(),
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                **{
                    var: os.environ.get(var)
                    for var in ("ICQT_MAX_DIM", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                },
            },
        )
        if tracer is not None:
            result["layers"] = tracing.metrics(tracer)
            tracing.write_spans(tracer, spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
