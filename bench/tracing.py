"""Outside-in tracing of one icqt CLI call.

The tracer wraps public functions of the icqt modules, plus three numpy
kernels, from outside the program: every icqt module that bound a target
with ``from .x import y`` gets the wrapper too, so calls through any import
site are seen.  Each call becomes a span (name, start, end, parent); spans
stay in memory and are written out once the call has finished.  A layer's
self time is the sum of its spans' durations minus the durations of their
direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, group).  The group is the metric stem: per-layer
# metrics are "<group>_s" (self time) and "<group>_calls".  A dotted
# attribute names a method on a class.
TARGETS = [
    ("icqt.cli", "main", "cli.self"),
    ("icqt.dynamics", "check_pmc", "dynamics.check_pmc"),
    ("icqt.dynamics", "check_sapmc", "dynamics.check_sapmc"),
    ("icqt.dynamics", "evolve_full", "dynamics.evolve_full"),
    ("icqt.dynamics", "evolve_factorized", "dynamics.evolve_factorized"),
    ("icqt.dynamics", "evolve_programmed_block", "dynamics.evolve_programmed_block"),
    ("icqt.dynamics", "entanglement_trajectory", "dynamics.entanglement_trajectory"),
    ("icqt.trinary", "TrinaryState.from_product", "trinary.from_product"),
    ("icqt.trinary", "TrinaryState.from_branches", "trinary.from_branches"),
    ("icqt.trinary", "apply_programmed", "trinary.apply_programmed"),
    ("icqt.trinary", "build_programmed_unitary", "trinary.build_programmed_unitary"),
    ("icqt.trinary", "dual_entropies", "trinary.dual_entropies"),
    ("icqt.born", "dual_born_report", "born.dual_born_report"),
    ("icqt.born", "outcome_probabilities", "born.outcome_probabilities"),
    ("icqt.born", "conventional_oracle", "born.conventional_oracle"),
    ("icqt.icqc", "init_state", "icqc.init_state"),
    ("icqt.icqc", "apply_gates", "icqc.apply_gates"),
    ("icqt.icqc", "apply_programmed_op", "icqc.apply_programmed_op"),
    ("icqt.linalg", "StateVector.__post_init__", "linalg.statevector"),
    ("icqt.linalg", "schmidt_decompose", "linalg.schmidt_decompose"),
    ("icqt.linalg", "hermitian_propagator", "linalg.hermitian_propagator"),
    ("icqt.linalg", "commutator_norm", "linalg.commutator_norm"),
    ("icqt.suite", "factorization_battery", "suite.factorization"),
    ("icqt.suite", "converse_battery", "suite.converse"),
    ("icqt.suite", "block_battery", "suite.block"),
    ("icqt.suite", "born_battery", "suite.born"),
    ("icqt.suite", "bounds_and_creation_battery", "suite.bounds_and_creation"),
    ("icqt.suite", "shannon_identity_battery", "suite.shannon"),
    ("icqt.suite", "schmidt_battery", "suite.schmidt"),
    ("icqt.suite", "icqc_battery", "suite.icqc"),
    ("icqt.serialize", "write_json", "serialize.write"),
    ("icqt.serialize", "write_csv", "serialize.write"),
    ("icqt.serialize", "dumps", "serialize.write"),
    ("numpy.linalg", "eigh", "kernel.eigh"),
    ("numpy.linalg", "svd", "kernel.svd"),
    ("numpy", "kron", "kernel.kron"),
]
# Every public function of icqt.scenario (load_scenario and the parse_*
# family) is traced under one group.
SCENARIO_GROUP = "scenario.parse"

# The per-layer metrics a traced run reports, with unit and direction.
PER_LAYER = [
    ("dynamics.check_pmc_calls", "count", "lower"),
    ("dynamics.check_pmc_s", "s", "lower"),
    ("dynamics.check_pmc_distinct_ratio", "ratio", "higher"),
    ("dynamics.check_sapmc_s", "s", "lower"),
    ("dynamics.evolve_full_calls", "count", "lower"),
    ("dynamics.evolve_full_s", "s", "lower"),
    ("dynamics.evolve_factorized_calls", "count", "lower"),
    ("dynamics.evolve_factorized_s", "s", "lower"),
    ("dynamics.evolve_programmed_block_s", "s", "lower"),
    ("dynamics.entanglement_trajectory_s", "s", "lower"),
    ("trinary.from_product_s", "s", "lower"),
    ("trinary.from_branches_s", "s", "lower"),
    ("trinary.apply_programmed_s", "s", "lower"),
    ("trinary.build_programmed_unitary_s", "s", "lower"),
    ("trinary.dual_entropies_calls", "count", "lower"),
    ("trinary.dual_entropies_s", "s", "lower"),
    ("born.dual_born_report_s", "s", "lower"),
    ("born.outcome_probabilities_calls", "count", "lower"),
    ("born.outcome_probabilities_s", "s", "lower"),
    ("born.conventional_oracle_s", "s", "lower"),
    ("icqc.init_state_s", "s", "lower"),
    ("icqc.apply_gates_s", "s", "lower"),
    ("icqc.apply_programmed_op_s", "s", "lower"),
    ("linalg.statevector_calls", "count", "lower"),
    ("linalg.statevector_s", "s", "lower"),
    ("linalg.schmidt_decompose_calls", "count", "lower"),
    ("linalg.schmidt_decompose_s", "s", "lower"),
    ("linalg.hermitian_propagator_calls", "count", "lower"),
    ("linalg.hermitian_propagator_s", "s", "lower"),
    ("linalg.commutator_norm_s", "s", "lower"),
    ("kernel.eigh_calls", "count", "lower"),
    ("kernel.eigh_s", "s", "lower"),
    ("kernel.eigh_work", "count", "lower"),
    ("kernel.eigh_distinct_ratio", "ratio", "higher"),
    ("kernel.svd_calls", "count", "lower"),
    ("kernel.svd_s", "s", "lower"),
    ("kernel.svd_work", "count", "lower"),
    ("kernel.kron_calls", "count", "lower"),
    ("kernel.kron_s", "s", "lower"),
    ("kernel.kron_bytes", "bytes", "lower"),
    ("suite.factorization_s", "s", "lower"),
    ("suite.converse_s", "s", "lower"),
    ("suite.block_s", "s", "lower"),
    ("suite.born_s", "s", "lower"),
    ("suite.bounds_and_creation_s", "s", "lower"),
    ("suite.shannon_s", "s", "lower"),
    ("suite.schmidt_s", "s", "lower"),
    ("suite.icqc_s", "s", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("serialize.write_s", "s", "lower"),
    ("serialize.bytes_written", "bytes", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Measured by the caller from an untraced call, not from spans.
FROM_CALLER = ("process.cpu_s", "trace.overhead_s")
# Span group of the counting hooks; never reported as a layer.
HOOK = "trace.hook"

# Metrics that count work rather than time: two traced runs of one input
# must give them exactly.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes") or name.endswith("_ratio")]


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Span recorder plus per-group counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, group, start, end, parent]
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.digests: dict[str, set] = defaultdict(set)
        self.origin = time.perf_counter()

    def wrap(self, fn, name: str, group: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, group, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                # Counting runs in a span of its own, so that it is not
                # charged to the caller's self time.
                start = clock()
                after(self, args, result)
                spans.append([HOOK, HOOK, start, clock(), parent])
            return result

        return traced

    def to_json(self) -> dict:
        groups = {s[0]: s[1] for s in self.spans}
        names = sorted(groups)
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "groups": [groups[n] for n in names],
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[s[0]], s[2] - self.origin, s[3] - self.origin, s[4]] for s in self.spans
            ],
        }


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` holds (group, start, end, parent) with parent an index into
    ``spans`` or -1.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def group_metrics(spans, counters, digests) -> dict[str, float]:
    """Per-layer metrics from (group, start, end, parent) spans and counters.

    Covers every PER_LAYER metric except those in FROM_CALLER.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (group, *_), own in zip(spans, self_times(spans)):
        self_s[group] += own
        calls[group] += 1
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name in FROM_CALLER:
            continue
        if name.endswith("_distinct_ratio"):
            group = name[: -len("_distinct_ratio")]
            values[name] = len(digests[group]) / calls[group] if calls[group] else 0.0
        elif name.endswith("_calls"):
            values[name] = calls[name[: -len("_calls")]]
        elif name.endswith("_s"):
            values[name] = self_s[name[: -len("_s")]]
        else:
            values[name] = counters.get(name, 0)
    return values


# ---- counters taken after a call returns ----------------------------------

def _eigh_after(tracer, args, result):
    a = np.asarray(args[0])
    tracer.counters["kernel.eigh_work"] += math.prod(a.shape[:-2]) * a.shape[-1] ** 3
    tracer.digests["kernel.eigh"].add(_digest(a))


def _svd_after(tracer, args, result):
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    tracer.counters["kernel.svd_work"] += math.prod(a.shape[:-2]) * m * n * min(m, n)


def _kron_after(tracer, args, result):
    tracer.counters["kernel.kron_bytes"] += result.nbytes


def _check_pmc_after(tracer, args, result):
    h = args[0]
    arrays = [h.h_p.entries] + [b.entries for b in h.blocks]
    if h.programming_basis is not None:
        arrays.append(h.programming_basis)
    tracer.digests["dynamics.check_pmc"].add(_digest(*arrays))


def _write_after(tracer, args, result):
    tracer.counters["serialize.bytes_written"] += os.path.getsize(args[0])


AFTER = {
    ("numpy.linalg", "eigh"): _eigh_after,
    ("numpy.linalg", "svd"): _svd_after,
    ("numpy", "kron"): _kron_after,
    ("icqt.dynamics", "check_pmc"): _check_pmc_after,
    ("icqt.serialize", "write_json"): _write_after,
    ("icqt.serialize", "write_csv"): _write_after,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in place; icqt.cli must already be imported."""
    import icqt.scenario

    targets = list(TARGETS)
    for attr, obj in vars(icqt.scenario).items():
        if inspect.isfunction(obj) and obj.__module__ == "icqt.scenario" and not attr.startswith("_"):
            targets.append(("icqt.scenario", attr, SCENARIO_GROUP))

    replaced = {}
    for module_name, attr, group in targets:
        owner = sys.modules[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        span_name = f"{module_name.rpartition('.')[2]}.{attr}"
        wrapper = tracer.wrap(fn, span_name, group, AFTER.get((module_name, attr)))
        setattr(owner, leaf, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        replaced[id(fn)] = (fn, wrapper)

    # Rebind names that icqt modules imported with "from .x import y".
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "icqt" or module_name.startswith("icqt.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def metrics(tracer: Tracer) -> dict[str, float]:
    spans = [(s[1], s[2], s[3], s[4]) for s in tracer.spans]
    return group_metrics(spans, tracer.counters, tracer.digests)


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))
