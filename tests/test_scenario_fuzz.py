"""Fuzz of scenario parsing through the CLI, in process.

Each example draws a small valid scenario of one kind, then either runs it
as drawn or replaces or drops parts of it at random with arbitrary JSON, and
runs the matching command.  The draws cover dims, named bases, gates,
programs and property-suite seeds; an evolve scenario draws its schedule
(segments of zero and nonzero durations, and of 1e308, two of which end past
the double range; times on, between and past the segment boundaries) and its
product initial state, and a born scenario draws
its branch amplitudes g from 0, 0.5, 1 and values around 1e-7, whose squares
straddle the empty-branch tolerance.  Vector entries of born g and
system_state and of the evolve product state are also drawn from 1e-200,
1e-160 and 1e308, whose squares underflow to 0, are subnormal, or overflow:
such a vector cannot be normalized in double precision.  Integers past the
double range (+-10^400) and past Python's 4,300-digit limit for reading an
integer literal are drawn as scalars, vector entries, gate angles, times and
durations; the second is written into the file as raw text, since
``json.dumps`` refuses it.  Scalars of +-1.7e308, whose differences overflow,
are drawn too.  So are the values the library's input rules refuse: a random
program depth of -1, 2.5 or true, register sizes n_a or n_p of true, 2.0 or 3,
born and validate dims of [3, 2, 6] (fewer pointer positions than system
levels), a branch_bases list one too long or short, an unknown random
Hamiltonian kind, times holding a JSON NaN or a descending pair, and a basis
name past its dimension.  Whatever the input, the CLI keeps its contract:
exit 0, 1 or 2, exactly one stderr line on exit 2, and never a traceback.  A report written on exit 0 or 1 is strict JSON (no
bare NaN or Infinity), and a born report that exits 0 has every nonempty
outcome row summing to 1.  The draws reach the rarest refusals in only some
runs, so those also run every time from a fixed list, ``RARE``: validate and
born at dims [3, 2, 6] and the Hamiltonians of ``test_cli.OVERFLOWING``, each of
which must exit 2.  The suite runs at the sizes of the ``small_suite`` fixture.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icqt.cli import main
from test_cli import OVERFLOWING

REPORTS = {
    "validate": "completeness.json", "evolve": "summary.json", "born": "born_report.json",
    "icqc": "icqc_report.json", "suite": "suite_report.json",
}

VALID = {
    "validate": {
        "schema": 1, "kind": "trinary-build", "seed": 1, "dims": [2, 2, 4],
        "branch_bases": ["Z", "X", "Y", "Z"], "probe_apparatus": "basis0",
    },
    "evolve": {
        "schema": 1, "kind": "dynamics", "seed": 2, "dims": [2, 1, 2],
        "times": [0.0, 0.5, 1.0],
        "segments": [
            {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
            {"duration": 1.0, "hamiltonian": {
                "h_p": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                "blocks": [
                    [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                ],
                "programming_basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            }},
        ],
        "initial_state": {"product": {"chi": "uniform", "system": "basis1", "apparatus": "basis0"}},
    },
    "born": {
        "schema": 1, "kind": "born", "seed": 3, "dims": [2, 2, 2],
        "branch_bases": ["Z", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "g": "uniform", "system_state": [[0.6, 0], [0.8, 0]], "apparatus_state": "basis0",
    },
    "icqc": {
        "schema": 1, "kind": "icqc", "seed": 4, "n": 1, "initial": "zeros",
        "gates": [{"kind": "H", "targets": [["P", 0]]},
                  {"kind": "RY", "targets": [["S", 0]], "angle": 0.3}],
        "program": {"random": {"depth": 2}},
    },
    "suite": {"schema": 1, "kind": "property-suite", "seed": 5},
}

# Integers a double cannot hold, and one that json cannot read: RAW_HUGE stands
# for it in the payload and is replaced by its literal in the written text.
RAW_HUGE = "<a 4,301-digit integer>"
HUGE = st.sampled_from([10**400, -(10**400), RAW_HUGE])

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), -0.0, 1e300, 1.7e308, -1.7e308]),
    HUGE,
    st.sampled_from(["Z", "X", "Y", "basis0", "basis9", "uniform", "pmc", "random", ""]),
    st.text(max_size=3),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


def mutate(data, value):
    """Replace (1 in 6) or recurse into value; dict keys are dropped 1 in 10."""
    if data.draw(st.integers(0, 5)) == 0:
        return data.draw(JSON)
    if isinstance(value, dict):
        return {k: mutate(data, v) for k, v in value.items() if data.draw(st.integers(0, 9))}
    if isinstance(value, list):
        return [mutate(data, v) for v in value]
    return value


HAMILTONIANS = [seg["hamiltonian"] for seg in VALID["evolve"]["segments"]] + [{"random": "violating"}]


def refused(data, values, odds=4):
    """One of ``values`` (1 in ``odds``), else None."""
    return data.draw(st.sampled_from(values)) if data.draw(st.integers(1, odds)) == 1 else None


def draw_schedule(data, payload):
    """``payload`` with drawn segments and times; the last time may fall past the end, and
    the times may hold a NaN or a descending pair."""
    durations = data.draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e308]), min_size=1, max_size=4)
    )
    ends = list(itertools.accumulate(durations))
    points = sorted({0.0, *ends, *(end + 0.125 for end in ends)})
    times = [0.0] + sorted(data.draw(st.lists(st.sampled_from(points), max_size=4)))
    segments = [
        {"duration": d, "hamiltonian": data.draw(st.sampled_from(HAMILTONIANS))} for d in durations
    ]
    if data.draw(st.integers(0, 7)) == 0:  # a huge last time or duration, past the arithmetic above
        k = data.draw(st.integers(0, len(times) + len(segments) - 1))
        if k < len(times):
            times[-1] = data.draw(HUGE)
        else:
            segments[k - len(times)]["duration"] = data.draw(HUGE)
    kind = refused(data, ["sapmc", "PMC", ""], odds=6)
    if kind is not None:
        segments[-1]["hamiltonian"] = {"random": kind}
    bad = refused(data, [[float("nan")], [0.5, 0.25]], odds=6)
    return dict(payload, times=times + (bad or []), segments=segments)


DIMS = [[2, 2, 4], [2, 2, 2], [3, 3, 9], [2, 3, 3], [1, 1, 1]]
SHORT_POINTER = [3, 2, 6]  # d_a < d_s: too few pointer positions for a branch basis
TINY = [1e-7 * (1 + k * 2.0**-52) for k in range(-8, 9)]
FLOATS = st.floats(-2, 2, allow_nan=False)
EXTREME = st.one_of(st.sampled_from([1e-200, 1e-160, 1e308]), HUGE)
AMPLITUDES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, *TINY]), EXTREME)


def draw_evolve(data, payload):
    """``draw_schedule`` plus a product initial state of named or drawn vectors."""
    d_s, d_a, d_p = payload["dims"]
    names = dict(payload["initial_state"]["product"], chi=refused(data, ["basis2", "basis7"])
                 or "uniform")
    product = {
        key: names[key] if data.draw(st.booleans())
        else [[data.draw(AMPLITUDES), 0.0] for _ in range(dim)]
        for key, dim in (("chi", d_p), ("system", d_s), ("apparatus", d_a))
    }
    return dict(draw_schedule(data, payload), initial_state={"product": product})


def draw_bases(data, d_s, d_p):
    """d_p named bases, or one more or one fewer."""
    names = ["Z", "X", "Y"] if d_s == 2 else ["Z", "X"]
    count = d_p + (refused(data, [-1, 1], odds=8) or 0)
    return [data.draw(st.sampled_from(names)) for _ in range(count)]


def draw_validate(data, payload):
    d_s, _, d_p = dims = data.draw(st.sampled_from(DIMS + [SHORT_POINTER]))
    probe = data.draw(st.sampled_from(["basis0", "uniform"]))
    return dict(payload, dims=dims, branch_bases=draw_bases(data, d_s, d_p), probe_apparatus=probe)


def draw_born(data, payload):
    d_s, _, d_p = dims = data.draw(st.sampled_from(DIMS[:4] + [SHORT_POINTER]))
    g = refused(data, [f"basis{d_p}", f"basis{d_p + 1}"]) or [
        [data.draw(AMPLITUDES), 0.0] for _ in range(d_p)
    ]
    entries = st.one_of(FLOATS, EXTREME)
    system = [[data.draw(entries), data.draw(entries)] for _ in range(d_s)]
    return dict(
        payload, dims=dims, branch_bases=draw_bases(data, d_s, d_p), g=g, system_state=system
    )


def draw_gate(data, sizes):
    """One valid gate on the registers of ``sizes`` (register name to qubit count)."""
    qubits = [[reg, q] for reg, size in sizes.items() for q in range(size)]
    kind = data.draw(st.sampled_from(["H", "X", "S", "T", "RY", "RZ", "CNOT"]))
    if kind == "CNOT":  # every register set drawn from has at least two qubits
        pair = data.draw(st.lists(st.sampled_from(qubits), min_size=2, max_size=2, unique_by=str))
        return {"kind": kind, "targets": pair}
    gate = {"kind": kind, "targets": [data.draw(st.sampled_from(qubits))]}
    if kind in ("RY", "RZ"):
        gate["angle"] = data.draw(st.one_of(FLOATS, HUGE))
    return gate


def draw_icqc(data, payload):
    n = data.draw(st.sampled_from([1, 2]))
    sizes = {"P": 2 * n, "S": n, "A": n}
    programs = [{"random": {"depth": depth}} for depth in [0, 1, 2, 3, -1, 2.5, True]]
    program = data.draw(st.sampled_from(programs + ["tomographic-zxyz"] * (n == 1)))
    laws = {key: refused(data, [True, 2.0, 3, size]) for key, size in (("n_a", n), ("n_p", 2 * n))}
    return dict(
        payload, seed=data.draw(st.integers(0, 2**32)), n=n,
        **{key: size for key, size in laws.items() if size is not None},
        initial=data.draw(st.sampled_from(["zeros", "uniform"])),
        gates=[draw_gate(data, sizes) for _ in range(data.draw(st.integers(0, 3)))],
        p_circuit=[draw_gate(data, {"P": 2 * n}) for _ in range(data.draw(st.integers(0, 2)))],
        program=program,
    )


def draw_suite(data, payload):
    return dict(payload, seed=data.draw(st.integers(0, 2**32)))


DRAWS = {
    "validate": draw_validate, "evolve": draw_evolve, "born": draw_born,
    "icqc": draw_icqc, "suite": draw_suite,
}


def not_json(constant):
    raise ValueError(f"the report holds a bare {constant}")


def assert_exit_contract(command, payload) -> int:
    """Run ``command`` on ``payload`` and assert the CLI contract: exit 0, 1 or 2, exactly
    one stderr line on exit 2 and never a traceback; on exit 0 or 1 a strict-JSON report,
    and a born report that exits 0 has every nonempty outcome row summing to 1.  Returns
    the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload).replace(json.dumps(RAW_HUGE), "9" * 4301))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", tmp])
        report = Path(tmp) / REPORTS[command]
        doc = json.loads(report.read_text(), parse_constant=not_json) if code in (0, 1) else None
    born = doc if command == "born" and code == 0 else None
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
    if born is not None:
        for row, empty in zip(born["outcome_probs"], born["empty"]):
            assert empty or abs(sum(row) - 1.0) <= 1e-10
    return code


@pytest.mark.parametrize("command", sorted(VALID))
@settings(
    max_examples=40,
    deadline=5000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_scenario_keeps_the_exit_contract(monkeypatch, small_suite, command, data):
    monkeypatch.setenv("ICQT_MAX_DIM", "256")  # small operators whatever the dims say
    payload = DRAWS[command](data, VALID[command])
    if data.draw(st.booleans()):  # else the drawn scenario runs as drawn
        payload = mutate(data, payload)
    assert_exit_contract(command, payload)


ONE_HAMILTONIAN = {key: value for key, value in VALID["evolve"].items() if key != "segments"}
RARE = {  # refusals the draws above reach in only some runs, by name: (command, payload)
    "validate-short-pointer": ("validate", dict(VALID["validate"], dims=SHORT_POINTER,
                                                branch_bases=["Z"] * 6)),
    "born-short-pointer": ("born", dict(VALID["born"], dims=SHORT_POINTER, branch_bases=["Z"] * 6,
                                        system_state="uniform")),
    **{
        f"evolve-overflowing-{name}": (
            "evolve", dict(ONE_HAMILTONIAN, dims=[2, 1, 2], times=times, hamiltonian=hamiltonian)
        )
        for name, (hamiltonian, times, _) in OVERFLOWING.items()
    },
}


@pytest.mark.parametrize("command, payload", RARE.values(), ids=RARE)
def test_rare_refusal_keeps_the_exit_contract(command, payload):
    assert assert_exit_contract(command, payload) == 2
