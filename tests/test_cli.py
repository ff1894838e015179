import json
import tracemalloc

import numpy as np
import pytest

from icqt import cli, scenario
from icqt.cli import main
from icqt.dynamics import check_pmc, evolve_factorized, evolve_full
from icqt.icqc import CapacityError, init_state
from icqt.linalg import seeded_random
from icqt.scenario import (
    ScenarioError,
    load_scenario,
    parse_dims,
    parse_icqc_config,
    parse_initial_state,
    parse_segments,
    parse_vector,
)
from icqt.serialize import _echo, complex_to_pairs, dumps, pairs_to_complex, write_json
from icqt.trinary import dual_entropies
from oracles import schedule_walk


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ID2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def base(kind, **extra):
    doc = {"schema": 1, "kind": kind, "seed": 7}
    doc.update(extra)
    return doc


def structured_blocks(generators: int) -> dict:
    """A Hamiltonian at dims [2, 1, 2] whose two structured blocks hold ``generators``
    1x1 apparatus generators each (d_s = 2 are needed)."""
    block = {"s_basis": "Z", "h_s": ID2, "a_generators": [[[[1, 0]]]] * generators}
    return {"h_p": ID2, "blocks": [block, block]}


BIG = complex_to_pairs(np.diag([1.5e308, 1.5e308]))
ONE = complex_to_pairs(np.diag([1.0, 2.0]))
HUGE = complex_to_pairs(np.diag([1e200, 0]))
SWAP = complex_to_pairs(np.array([[0, 1e200], [1e200, 0]]))

# Hamiltonians at dims [2, 1, 2] whose evolution or measurability check overflows a double,
# by name: (hamiltonian, times, the refusal's message).  The core refuses all but the
# phases when the Hamiltonian is built; the walk refuses the phases.
OVERFLOWING = {
    "entries": ({"h_p": BIG, "blocks": [BIG, BIG]}, [0.0, 1.0],  # 2 * 1.5e308 + 1 * 1.5e308
                "scenario error: hamiltonian: h_p and the blocks overflow a double"),
    "complex-entries": (  # |1.5e308 + 1.5e308i| past the range, both parts finite
        {"h_p": complex_to_pairs(np.array([[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]])),
         "blocks": [ONE, ONE]}, [0.0],
        "scenario error: hamiltonian: h_p and the blocks overflow a double"),
    "phases": ({"h_p": ONE, "blocks": [ONE, ONE]}, [0.0, 1e308],  # phases w t past 1.8e308
               "scenario error: segment 0: the Hamiltonian overflows a double by t = 1e+308"),
    "framed": ({"h_p": complex_to_pairs(np.full((2, 2), 1e308)), "blocks": [ONE, ONE],
                "programming_basis": complex_to_pairs(np.array([[1, 1], [1, -1]]) / np.sqrt(2))},
               [0.0, 1.0],  # h'[0, 0] would be 2e308: refused before h' is framed
               "scenario error: hamiltonian: h_p and the blocks overflow a double"),
    "structured-block": (
        {"h_p": ONE, "blocks": [{"s_basis": "Z", "a_generators": [[[[1.5e308, 0]]]] * 2,
                                 "h_s": BIG}] * 2}, [0.0],
        "scenario error: hamiltonian.blocks[0]: "
        "h_s and the apparatus generators overflow a double"),
    "commutator": ({"h_p": SWAP, "blocks": [HUGE, complex_to_pairs(np.diag([-1e200, 0]))]}, [0.0],
                   "scenario error: hamiltonian: the measurability commutator overflows a double"),
    "structured-commutator": (  # 2 * 1e200 * 2e200 at the block level
        {"h_p": ONE, "blocks": [{"s_basis": "Z", "a_generators": [[[[1e200, 0]]], [[[-1e200, 0]]]],
                                 "h_s": SWAP}] * 2}, [0.0],
        "scenario error: hamiltonian.blocks[0]: the measurability commutator overflows a double"),
}


class TestScenarioLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_wrong_schema(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", {"schema": 2, "kind": "born", "seed": 1})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_bad_kind(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", {"schema": 1, "kind": "nope", "seed": 1})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_seed_override(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", base("born"))
        assert load_scenario(path, seed_override=99).seed == 99

    def test_parse_vector_pairs_roundtrip(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        out = parse_vector(complex_to_pairs(v), 2, "v")
        assert np.max(np.abs(out.amplitudes - v)) < 1e-12

    @pytest.mark.parametrize(
        "name", ["basis +1", "basis1 ", "basis\u0661", "basis1_0", "basis-1", "basis"]
    )
    def test_parse_vector_basis_index_is_ascii_digits(self, name):
        # int() reads signs, spaces, "_" and non-ASCII digits; the name takes none of them
        with pytest.raises(ScenarioError, match="bad basis name"):
            parse_vector(name, 12, "v")

    def test_parse_vector_basis_index(self):
        assert np.array_equal(parse_vector("basis01", 4, "v").amplitudes, np.eye(4)[1])
        with pytest.raises(ScenarioError, match="basis index 4 out of range"):
            parse_vector("basis4", 4, "v")

    def test_pairs_to_complex_validates(self):
        with pytest.raises(ValueError):
            pairs_to_complex([1.0, 2.0])


class TestSerialize:
    def test_deterministic_and_sorted(self):
        doc = {"b": 1.0 / 3.0, "a": [True, None, 2]}
        text = dumps(doc)
        assert text == dumps(doc)
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_negative_zero_folded(self):
        assert "-0" not in dumps({"x": -0.0})

    def test_float_lists_render_as_item_by_item(self):
        # numpy floats are not ``float`` by type, so they take the item-by-item path
        def as_numpy(x):
            return [as_numpy(v) for v in x] if isinstance(x, list) else np.float64(x)

        rows = [[-0.0, 0.0, 1.0 / 3.0, -2.5e-300, 1e300], [0.1, -0.0], [[7.0], [-1e-17, 2.0]]]
        doc = {"rows": rows, "flat": rows[0], "one": [-0.0]}
        mixed = [1.5, 2, None, -0.0]
        numpy_doc = {key: as_numpy(value) for key, value in doc.items()}
        assert dumps({**doc, "mixed": mixed}) == dumps({**numpy_doc, "mixed": mixed})
        assert "-0" not in dumps(doc)
        assert dumps({"x": [0.5, -0.0]}) == '{\n  "x": [\n    0.5,\n    0\n  ]\n}\n'

    @pytest.mark.parametrize(
        "value, text",
        [(10**5000, "<int of 16610 bits>"), ([10**5000, 2], "[<int of 16610 bits>, 2]")],
        ids=["int", "list"],
    )
    def test_echo_shows_an_integer_past_the_digit_limit_by_its_size(self, value, text):
        # repr refuses an integer of more than 4,300 decimal digits with a ValueError
        assert _echo(value) == text

    def test_write_json_returns_the_written_text(self, tmp_path):
        doc = {"b": [1.5, None], "a": "x"}
        text = write_json(tmp_path / "r.json", doc)
        assert text == dumps(doc) == (tmp_path / "r.json").read_text()


class TestValidateCommand:
    def test_complete_program_exit_zero(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "v.json",
            base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "X", "Y", "Z"]),
        )
        code = main(["validate", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["complete"] is True and doc["tomographic_rank"] == 4

    def test_all_z_exit_one(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "v.json",
            base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "Z", "Z", "Z"]),
        )
        code = main(["validate", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["tomographic_rank"] == 2

    def test_bad_dims_exit_one(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "v.json",
            base("trinary-build", dims=[2, 2, 3], branch_bases=["Z", "Z", "Z"]),
        )
        code = main(["validate", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["dims_ok"] is False

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "v.json", base("trinary-build", dims=[2, 2]))
        assert main(["validate", path, "--out", str(tmp_path / "out")]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        path = write_scenario(
            tmp_path,
            "v.json",
            base("born", dims=[2, 2, 4], branch_bases=["Z", "X", "Y", "Z"]),
        )
        assert main(["validate", path, "--out", str(tmp_path / "out")]) == 2


class TestEvolveCommand:
    def test_zero_hamiltonian_constant_rows(self, tmp_path, capsys):
        zero4 = complex_to_pairs(np.zeros((4, 4)))
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.5, 1.0],
            hamiltonian={"h_p": zero4, "blocks": [zero4] * 4},
            initial_state={"random": "generic"},
        )
        path = write_scenario(tmp_path, "e.json", payload)
        out = tmp_path / "out"
        assert main(["evolve", path, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,S_PSA,S_SA_branch_0")
        values = [line.split(",")[1] for line in lines[1:]]
        assert len(set(values)) == 1

    def test_seeded_pmc_deviation_small(self, tmp_path, capsys):
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.3, 1.0],
            hamiltonian={"random": "pmc"},
        )
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pmc_fallback"] is False
        assert doc["factorized_full_max_deviation"] <= 1e-9

    def test_separable_start_creates_entanglement(self, tmp_path, capsys):
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.5],
            hamiltonian={"random": "pmc"},
            initial_state={"random": "separable"},
        )
        path = write_scenario(tmp_path, "e.json", payload)
        main(["evolve", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert doc["final_S_PSA"] > 0

    def test_pmc_violation_falls_back(self, tmp_path, capsys):
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.2],
            hamiltonian={"random": "violating"},
        )
        path = write_scenario(tmp_path, "e.json", payload)
        code = main(["evolve", path, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert doc["pmc_fallback"] is True
        assert doc["factorized_full_max_deviation"] is None
        assert "warning" in captured.err

    def test_segment_ends_past_the_double_range(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows math.fsum: the second segment ends past every time,
        # so the walk reaches, and checks, the first alone
        segments = [{"duration": 1e308, "hamiltonian": {"random": "pmc"}}] * 2
        payload = base("dynamics", dims=[2, 2, 4], times=[0.0, 1.0], segments=segments)
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pmc_fallback"] is False and [c["segment"] for c in doc["pmc"]] == [0]

    def test_segment_walk_equals_replay_from_zero(self, tmp_path, capsys):
        # a coupled segment, a custom programming basis, t = 0 and times on
        # segment boundaries (0.5, 0.75 and the schedule's end 1.25)
        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        h_p = basis @ np.diag([0.4, -0.9, 1.3, 0.2]) @ basis.conj().T

        def herm(m):
            return 0.5 * (m + m.conj().T)

        blocks = [herm(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(4)]
        custom = {
            "h_p": complex_to_pairs(h_p),
            "blocks": [complex_to_pairs(b) for b in blocks],
            "programming_basis": complex_to_pairs(basis),
        }
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.25, 0.5, 0.6, 0.75, 1.0, 1.25],
            segments=[
                {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
                {"duration": 0.25, "hamiltonian": custom},
                {"duration": 0.5, "hamiltonian": {"random": "coupled"}},
            ],
        )
        path = write_scenario(tmp_path, "e.json", payload)
        out = tmp_path / "out"
        assert main(["evolve", path, "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)

        dims = parse_dims(payload)
        segments = [(d, h) for d, h, _ in parse_segments(payload, dims, 7)]
        assert all(check_pmc(h).satisfied for _, h in segments)
        state = parse_initial_state(payload, dims, 7)
        rows, deviation = [], 0.0
        for t in payload["times"]:
            full = schedule_walk(segments, state, t, evolve_full)
            fact = schedule_walk(segments, state, t, evolve_factorized)
            amp_diff = np.abs(fact.dense.amplitudes - full.dense.amplitudes)
            deviation = max(deviation, float(np.max(amp_diff)))
            s_psa, s_branches = dual_entropies(fact)
            rows.append([t, s_psa, *s_branches])
        got = [
            [float(x) for x in line.split(",")]
            for line in (out / "trajectory.csv").read_text().splitlines()[1:]
        ]
        assert got == rows
        assert doc["factorized_full_max_deviation"] == deviation
        assert doc["final_S_PSA"] == rows[-1][1]

    def test_time_past_schedule_end_exit_two(self, tmp_path, capsys, monkeypatch):
        eigh_calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            eigh_calls.append(args)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.5, 0.8],
            segments=[
                {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
                {"duration": 0.25, "hamiltonian": {"random": "coupled"}},
            ],
        )
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 2
        assert "shorter than requested time 0.8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert eigh_calls == []  # refused before any segment was decomposed

    def test_time_at_a_decimal_schedule_end(self, tmp_path, capsys, monkeypatch):
        # 1.1 - 0.5 rounds to 0.6000000000000001 > 0.6, yet 1.1 is the
        # schedule's end: it steps the second segment whole, and a violating third
        # segment, never reached, is neither checked nor decomposed
        eigh_calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            eigh_calls.append(np.shape(args[0]))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        segments = [
            {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
            {"duration": 0.6, "hamiltonian": {"random": "coupled"}},
        ]
        payload = base("dynamics", dims=[2, 1, 2], times=[0.0, 1.1], segments=segments)
        runs = []
        for name in ("two", "three"):
            eigh_calls.clear()
            path = write_scenario(tmp_path, f"{name}.json", payload)
            assert main(["evolve", path, "--out", str(tmp_path / name)]) == 0
            runs.append((capsys.readouterr(), list(eigh_calls)))
            segments.append({"duration": 1.0, "hamiltonian": {"random": "violating"}})
        (two, two_eigh), (three, three_eigh) = runs
        assert three.err == two.err == ""
        assert three.out == two.out
        doc = json.loads(three.out)
        assert doc["pmc_fallback"] is False and [c["segment"] for c in doc["pmc"]] == [0, 1]
        assert three_eigh == two_eigh  # the factorized and dense walks of segments 0 and 1

    def test_segments_and_sapmc_report(self, tmp_path, capsys):
        from icqt.dynamics import random_block_structure

        block = random_block_structure(2, 2, 3, kind="sapmc")
        structured = {
            "s_basis": complex_to_pairs(block.s_basis),
            "a_generators": [complex_to_pairs(g.entries) for g in block.a_generators],
            "h_s": complex_to_pairs(block.h_s.entries),
        }
        zero4 = complex_to_pairs(np.zeros((4, 4)))
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, 0.1],
            segments=[
                {
                    "duration": 0.6,
                    "hamiltonian": {"h_p": zero4, "blocks": [structured] * 4},
                }
            ],
        )
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sapmc"] is not None
        assert all(entry["satisfied"] for entry in doc["sapmc"])

    @pytest.mark.parametrize("last", [0.1, 0.8])
    def test_sapmc_lists_only_reached_segments(self, tmp_path, capsys, last):
        # the structured second segment violates sapmc (h_s = sigma x against distinct
        # generators in the Z basis); at t = 0.1 it is never reached, so never checked
        sx, sz = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
        structured = {
            "s_basis": "Z",
            "a_generators": [complex_to_pairs(np.array(sz)), complex_to_pairs(np.array(sx))],
            "h_s": complex_to_pairs(np.array(sx)),
        }
        zero4 = complex_to_pairs(np.zeros((4, 4)))
        payload = base(
            "dynamics",
            dims=[2, 2, 4],
            times=[0.0, last],
            segments=[
                {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
                {"duration": 0.6, "hamiltonian": {"h_p": zero4, "blocks": [structured] * 4}},
            ],
        )
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        reached = [0] if last < 0.5 else [0, 1]
        assert [c["segment"] for c in doc["pmc"]] == reached
        if last < 0.5:
            assert doc["sapmc"] is None
        else:
            assert [(e["segment"], e["block"]) for e in doc["sapmc"]] == [(1, n) for n in range(4)]
            assert not any(e["satisfied"] for e in doc["sapmc"])

    def test_violating_middle_segment_keeps_the_cross_check(self, tmp_path, capsys):
        # only the violating segment is stepped densely: the report still falls back and
        # warns, with the deviation of the factorized segments beside the dense reference
        kinds = ["pmc", "violating", "pmc"]
        segments = [
            {"duration": d, "hamiltonian": {"random": kind}}
            for d, kind in zip((0.5, 0.75, 1.0), kinds)
        ]
        payload = base("dynamics", dims=[2, 2, 4], times=[0.0, 0.3, 0.9, 2.0], segments=segments)
        path = write_scenario(tmp_path, "e.json", payload)
        assert main(["evolve", path, "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [c["satisfied"] for c in doc["pmc"]] == [True, False, True]
        assert doc["pmc_fallback"] is True
        assert 0.0 < doc["factorized_full_max_deviation"] <= 1e-12
        assert captured.err == "warning: measurability condition violated; dense evolution used\n"


class TestBornCommand:
    def test_zxyz_on_plus(self, tmp_path, capsys):
        plus = complex_to_pairs(np.array([1, 1], dtype=complex) / np.sqrt(2))
        payload = base(
            "born",
            dims=[2, 2, 4],
            branch_bases=["Z", "X", "Y", "Z"],
            g="uniform",
            system_state=plus,
        )
        path = write_scenario(tmp_path, "b.json", payload)
        assert main(["born", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_outcome_deviation"] <= 1e-10
        assert np.allclose(doc["decision_probs"], [0.25] * 4, atol=1e-10)

    def test_single_branch(self, tmp_path, capsys):
        payload = base(
            "born", dims=[2, 2, 1], branch_bases=["Z"], g="basis0", system_state="basis0"
        )
        path = write_scenario(tmp_path, "b.json", payload)
        assert main(["born", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision_probs"] == [1]

    def test_seeded_rows_normalized(self, tmp_path, capsys):
        payload = base(
            "born",
            dims=[2, 2, 4],
            branch_bases=["Z", "X", "Y", "Z"],
            g="uniform",
            system_state="random",
        )
        path = write_scenario(tmp_path, "b.json", payload)
        main(["born", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert abs(sum(doc["decision_probs"]) - 1) <= 1e-10
        for row, empty in zip(doc["outcome_probs"], doc["empty"]):
            if not empty:
                assert abs(sum(row) - 1) <= 1e-10

    def test_faint_branch_has_its_own_outcome_row(self, tmp_path, capsys):
        # |g_1|^2 lies just above EMPTY_BRANCH_TOL, so branch 1 is not empty
        # and its row is the Born row of the system state, not zeros
        payload = base(
            "born",
            seed=0,
            dims=[2, 2, 2],
            branch_bases=["Z", "Z"],
            g=[[0.999999999999995, 0.0], [1e-07, 0.0]],
            system_state=[
                [-1.7134394379643105, 0.3426915696456793],
                [-0.14102266511302244, -0.7608710875064288],
            ],
        )
        path = write_scenario(tmp_path, "b.json", payload)
        assert main(["born", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["empty"] == [False, False]
        assert doc["max_outcome_deviation"] <= 1e-10
        for row, empty in zip(doc["outcome_probs"], doc["empty"]):
            assert empty or abs(sum(row) - 1) <= 1e-10

    def test_explicit_matrix_basis(self, tmp_path, capsys):
        # one branch measured in an explicit custom basis instead of a named one
        theta = 0.7
        custom = complex_to_pairs(
            np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                dtype=complex,
            )
        )
        payload = base(
            "born",
            dims=[2, 2, 4],
            branch_bases=["Z", "X", custom, "Z"],
            g="uniform",
            system_state="random",
        )
        path = write_scenario(tmp_path, "b.json", payload)
        assert main(["born", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch_labels"][2] == "custom"
        assert doc["max_outcome_deviation"] <= 1e-10


class TestIcqcCommand:
    def test_identity_program(self, tmp_path, capsys):
        payload = base("icqc", n=1, program=[[] for _ in range(4)])
        path = write_scenario(tmp_path, "i.json", payload)
        assert main(["icqc", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s_psa"] < 1e-9
        assert np.allclose(doc["decision_probs"], [0.25] * 4, atol=1e-10)

    def test_tomographic_scenario(self, tmp_path, capsys):
        payload = base(
            "icqc",
            n=1,
            initial="zeros",
            gates=[
                {"kind": "H", "targets": [["P", 0]]},
                {"kind": "H", "targets": [["P", 1]]},
                {"kind": "H", "targets": [["S", 0]]},
            ],
            program="tomographic-zxyz",
        )
        path = write_scenario(tmp_path, "i.json", payload)
        main(["icqc", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["decision_probs"], [0.25] * 4, atol=1e-10)
        assert np.allclose(doc["outcome_probs"][0], [0.5, 0.5], atol=1e-10)

    def test_emit_state(self, tmp_path, capsys):
        payload = base("icqc", n=1, program=[[] for _ in range(4)], emit_state=True)
        path = write_scenario(tmp_path, "i.json", payload)
        main(["icqc", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        amp = pairs_to_complex(doc["final_state"])
        assert np.allclose(amp, 0.25)

    @pytest.mark.parametrize("emit_state", [None, False])
    def test_emit_state_null_or_false_writes_no_state(self, tmp_path, capsys, emit_state):
        payload = base("icqc", n=1, program=[[] for _ in range(4)], emit_state=emit_state)
        path = write_scenario(tmp_path, "i.json", payload)
        assert main(["icqc", path, "--out", str(tmp_path / "out")]) == 0
        assert "final_state" not in json.loads(capsys.readouterr().out)

    def test_random_program_runs(self, tmp_path, capsys):
        payload = base("icqc", n=2, program={"random": {"depth": 2}})
        path = write_scenario(tmp_path, "i.json", payload)
        assert main(["icqc", path, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(sum(doc["decision_probs"]) - 1) <= 1e-9


def untimed(data: bytes) -> list[bytes]:
    """The lines of a suite report but its "elapsed_s" lines, which are wall-clock timings."""
    return [line for line in data.splitlines() if b'"elapsed_s"' not in line]


@pytest.mark.usefixtures("small_suite")
class TestSuiteCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", base("property-suite"))
        code = main(["suite", path, "--out", str(tmp_path / "out")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_passed"] is True
        cases = {p["name"]: p["cases"] for p in doc["properties"]}
        assert "converse-probe" in cases  # the injected pmc-violating battery
        # the cases that ran: two per count, over SQUARE_D's two d for block and born
        assert list(cases.values()) == [2, 2, 4, 4, 2, 2, 2, 3]

    def test_sizes_in_the_scenario_are_ignored(self, tmp_path, capsys):
        # a property-suite scenario reads its seed alone; the suite's sizes are constants
        payloads = {
            "plain": base("property-suite"),
            "sized": base("property-suite", dims_list=[[3, 3, 9]], converse_cases=1),
        }
        runs = []
        for name, payload in payloads.items():
            path, out = write_scenario(tmp_path, f"{name}.json", payload), tmp_path / name
            assert main(["suite", path, "--out", str(out)]) == 0
            runs.append((untimed(capsys.readouterr().out.encode()),
                         untimed((out / "suite_report.json").read_bytes())))
        assert runs[0] == runs[1]


class TestSeedSplitting:
    def test_subseed_deterministic_and_distinct(self):
        from icqt.linalg import subseed

        assert subseed(7, 1, 2) == subseed(7, 1, 2)
        values = {subseed(7, k) for k in range(32)}
        assert len(values) == 32
        assert subseed(7, 1) != subseed(8, 1)


def coupled_segment():
    """A segment whose H_P mixes the programming basis states pairwise in an explicit basis.

    Paired states share one block, so the measurability condition holds with a
    program side that is not diagonal in the basis (as ``random: coupled``).
    """
    basis = seeded_random("unitary", 4, 8).entries
    mixing = np.zeros((4, 4), dtype=complex)
    for k in (0, 2):
        mixing[k : k + 2, k : k + 2] = seeded_random("hermitian", 2, 9 + k).entries
    blocks = [seeded_random("hermitian", 4, 12 + n // 2).entries for n in range(4)]
    hamiltonian = {
        "h_p": complex_to_pairs(basis @ mixing @ basis.conj().T),
        "blocks": [complex_to_pairs(b) for b in blocks],
        "programming_basis": complex_to_pairs(basis),
    }
    return {"duration": 1.0, "hamiltonian": hamiltonian}


class TestDeterminism:
    COMMANDS = [
        (
            "evolve",
            base("dynamics", dims=[2, 2, 4], times=[0.0, 0.4], segments=[coupled_segment()]),
        ),
        ("validate", base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "X", "Y", "Z"])),
        (
            "born",
            base("born", dims=[2, 2, 4], branch_bases=["Z", "X", "Y", "Z"], system_state="random"),
        ),
        ("icqc", base("icqc", n=1, program={"random": {"depth": 2}}, emit_state=True)),
    ]

    def test_byte_identical_reports(self, tmp_path, capsys):
        # every report file and stdout; suite is left out while its report
        # carries elapsed_s timings
        for command, payload in self.COMMANDS:
            path = write_scenario(tmp_path, f"{command}.json", payload)
            runs = []
            for out in ("a", "b"):
                out_dir = tmp_path / command / out
                assert main([command, path, "--out", str(out_dir)]) == 0
                files = [(f.name, f.read_bytes()) for f in sorted(out_dir.iterdir())]
                runs.append((capsys.readouterr().out, files))
            assert runs[0][1], command
            assert runs[0] == runs[1], command

    def test_coupled_segment_runs_factorized(self):
        # the evolve case steps a non-diagonal program side in a rotated basis
        payload = base("dynamics", dims=[2, 2, 4], segments=[coupled_segment()])
        (_, h, _), = parse_segments(payload, parse_dims(payload), 7)
        assert check_pmc(h).satisfied
        rotated = h.programming_basis.conj().T @ h.h_p.entries @ h.programming_basis
        assert np.max(np.abs(rotated - np.diag(np.diag(rotated)))) > 0.1

    def test_suite_byte_identical_but_timings(self, tmp_path, capsys, small_suite):
        # the "elapsed_s" lines are wall-clock timings; every other byte repeats
        path = write_scenario(tmp_path, "suite.json", base("property-suite"))
        runs = []
        for out in ("a", "b"):
            report = tmp_path / out / "suite_report.json"
            assert main(["suite", path, "--out", str(report.parent)]) == 0
            stdout = capsys.readouterr().out
            runs.append((untimed(stdout.encode()), untimed(report.read_bytes())))
            assert [p.name for p in report.parent.iterdir()] == ["suite_report.json"]
        assert b'"all_passed": true' in b"".join(runs[0][1])
        assert runs[0] == runs[1]

    def test_seed_override_changes_report(self, tmp_path):
        payload = base(
            "dynamics", dims=[2, 2, 4], times=[0.0, 0.4], hamiltonian={"random": "pmc"}
        )
        path = write_scenario(tmp_path, "d.json", payload)
        main(["evolve", path, "--out", str(tmp_path / "a")])
        main(["evolve", path, "--out", str(tmp_path / "b"), "--seed", "123"])
        assert (tmp_path / "a" / "summary.json").read_bytes() != (
            tmp_path / "b" / "summary.json"
        ).read_bytes()


@pytest.mark.usefixtures("small_suite")
class TestOutputErrors:
    """An --out that is not a directory, or a report that cannot be written, exits 2 with
    one line; the --out check comes before the scenario is loaded."""

    PAYLOADS = {**dict(TestDeterminism.COMMANDS), "suite": base("property-suite")}
    FIRST_REPORT = {
        "evolve": "trajectory.csv",
        "validate": "completeness.json",
        "born": "born_report.json",
        "icqc": "icqc_report.json",
        "suite": "suite_report.json",
    }

    @pytest.mark.parametrize("command", FIRST_REPORT)
    @pytest.mark.parametrize("under", ["", "x", "x/y"])
    def test_out_is_a_file_or_lies_under_one(self, tmp_path, capsys, monkeypatch, command, under):
        path = write_scenario(tmp_path, "s.json", self.PAYLOADS[command])
        blocker = tmp_path / "file"
        blocker.write_text("keep")

        def not_loaded(*args, **kwargs):
            raise AssertionError("the scenario was loaded")

        monkeypatch.setattr(cli, "load_scenario", not_loaded)
        code = main([command, path, "--out", str(blocker / under)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"i/o error: --out {blocker / under}: {blocker} is not a directory\n"
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command", FIRST_REPORT)
    def test_report_write_fails(self, tmp_path, capsys, command):
        path = write_scenario(tmp_path, "s.json", self.PAYLOADS[command])
        out = tmp_path / "out"
        report = self.FIRST_REPORT[command]
        (out / report).mkdir(parents=True)  # a report file cannot replace a directory
        code = main([command, path, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert len(captured.err.splitlines()) == 1
        assert [p.name for p in out.iterdir()] == [report]  # no temporary file is left


class TestInputErrors:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    def run_bad(self, tmp_path, capsys, command, payload, *extra):
        path = write_scenario(tmp_path, "bad.json", payload)
        code = main([command, path, "--out", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()
        return err

    def test_icqc_above_capacity(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ICQT_MAX_DIM", "255")
        err = self.run_bad(tmp_path, capsys, "icqc", base("icqc", n=2, program={"random": {}}))
        assert "exceeds the cap 255" in err

    @pytest.mark.parametrize("kind", [["H"], 3, None])
    def test_gate_kind_not_a_name(self, tmp_path, capsys, kind):
        gates = [{"kind": kind, "targets": [["P", 0]]}]
        payload = base("icqc", n=1, gates=gates, program={"random": {}})
        assert "gates[0]" in self.run_bad(tmp_path, capsys, "icqc", payload)

    @pytest.mark.parametrize(
        "field, target",
        [("gates", ["S", 3]), ("program", ["S", -2]), ("p_circuit", ["P", 7])],
    )
    def test_qubit_out_of_range(self, tmp_path, capsys, field, target):
        # n = 1: S and A hold one qubit each, P holds two
        gate = [{"kind": "X", "targets": [target]}]
        payload = base("icqc", n=1, program={"random": {}})
        payload[field] = [gate, [], [], []] if field == "program" else gate
        err = self.run_bad(tmp_path, capsys, "icqc", payload)
        assert f"qubit {target[1]} out of range for register {target[0]}" in err

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), True])
    def test_gate_angle_not_a_finite_number(self, tmp_path, capsys, angle):
        gates = [{"kind": "RY", "targets": [["S", 0]], "angle": angle}]
        payload = base("icqc", n=1, gates=gates, program={"random": {}})
        assert "gates[0]: angle" in self.run_bad(tmp_path, capsys, "icqc", payload)

    @pytest.mark.parametrize("emit_state", ["false", 1, 0, []], ids=["string", "one", "zero", "list"])
    def test_emit_state_not_a_boolean(self, tmp_path, capsys, emit_state):
        # "false" and 1 are truthy and once wrote the full final_state with exit 0
        payload = base("icqc", n=1, program={"random": {}}, emit_state=emit_state)
        err = self.run_bad(tmp_path, capsys, "icqc", payload)
        assert err.startswith("scenario error: emit_state must be true or false")

    def test_gate_qubit_a_boolean(self, tmp_path, capsys):
        gates = [{"kind": "X", "targets": [["P", True]]}]  # P holds two qubits at n = 1
        payload = base("icqc", n=1, gates=gates, program={"random": {}})
        assert "gates[0]: qubit True" in self.run_bad(tmp_path, capsys, "icqc", payload)

    @pytest.mark.parametrize("field", ["n_a", "n_p"])
    @pytest.mark.parametrize("value", [True, 2.0, "1"])
    def test_register_size_not_an_integer(self, tmp_path, capsys, field, value):
        # true and 2.0 equal the register sizes 1 and 2 at n = 1
        payload = base("icqc", n=1, program={"random": {}}, **{field: value})
        assert f"{field} must be an integer" in self.run_bad(tmp_path, capsys, "icqc", payload)

    LONG = "Q" * 5000

    @pytest.mark.parametrize(
        "command, payload, env, echoed",
        [
            ("born", {**base("born"), "schema": LONG}, None, "unsupported schema"),
            ("born", {**base("born"), "kind": LONG}, None, "kind must be one of"),
            ("born", base("born", dims=[2, 2, 2], branch_bases=["Z", "X"], g="basis" + "1" * 4995),
             None, "g: bad basis name"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[0.0], hamiltonian={"random": LONG}),
             None, "hamiltonian.random: unknown kind"),
            ("icqc", base("icqc", n=1, program={"random": {}}), LONG, "ICQT_MAX_DIM must be"),
            ("icqc", base("icqc", n=1, program={"random": {}},
                          gates=[{"kind": "X", "targets": [[LONG, 0]]}]),
             None, "gates[0]: unknown register"),
            ("icqc", base("icqc", n=1, program={"random": {}},
                          gates=[{"kind": LONG, "targets": [["S", 0]]}]),
             None, "gates[0]: unknown gate kind"),
            ("validate", base("trinary-build", dims=[2, 2, 4], branch_bases=[LONG, "Z", "Z", "Z"]),
             None, "branch_bases[0]: unknown basis name"),
            # integers of 4,300 digits, the most that JSON reads, in a refused formula
            ("born", base("born", dims=[10**4299, 2, 2], branch_bases=["Z"]), None,
             "full dimension 1"),
            ("icqc", base("icqc", n=10**4299, program={"random": {}}), None,
             "full dimension 2^4"),
            ("icqc", base("icqc", n=1, program={"random": {"depth": 10**4299}}), None,
             "random program gate count 4^1*(1"),
            ("born", base("born", dims=[2, 2, 2], branch_bases=["Z", "X"], g="basis" + "1" * 4000),
             None, "g: basis index 1"),
            ("icqc", base("icqc", n=1, program={"random": {}},
                          gates=[{"kind": "X", "targets": [["P", 10**4299]]}]),
             None, "gate sequence: qubit 1"),
        ],
        ids=["schema", "kind", "basis-index", "random-hamiltonian", "max-dim", "register",
             "gate-kind", "basis-name", "dims", "register-size", "program-depth", "basis-range",
             "qubit-range"],
    )
    def test_long_input_echoed_short(self, tmp_path, capsys, monkeypatch, command, payload, env,
                                     echoed):
        # a 5,000-character value once came back whole on the one stderr line
        if env is not None:
            monkeypatch.setenv("ICQT_MAX_DIM", env)
        err = self.run_bad(tmp_path, capsys, command, payload)
        assert echoed in err
        assert len(err.encode()) < 200

    POINTER = "branch_bases: apparatus dim 2 < system dim 3: not enough pointer positions"

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            # d_a < d_s and a d_p past d_s*d_a once gave tracebacks with exit 1
            ("validate", base("trinary-build", dims=[3, 2, 6], branch_bases=["Z", "X"] * 3),
             POINTER),
            ("born", base("born", dims=[3, 2, 6], branch_bases=["Z", "X"] * 3), POINTER),
            ("validate", base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "X", "Y"]),
             "branch_bases: need 4 branch bases, got 3"),
            ("born", base("born", dims=[2, 2, 2], branch_bases=["Z", "X", "Y"]),
             "branch_bases: need 2 branch bases, got 3"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[0.0],
                            hamiltonian={"h_p": ID2, "blocks": [ID2]}),
             "hamiltonian: need 2 blocks, got 1"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[0.0],
                            hamiltonian=structured_blocks(generators=1)),
             "hamiltonian.blocks[0]: need 2 apparatus generators, got 1"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[0.0],
                            hamiltonian=structured_blocks(generators=3)),
             "hamiltonian.blocks[0]: need 2 apparatus generators, got 3"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[0.0], hamiltonian={"random": "sapmc"}),
             "hamiltonian.random: unknown kind 'sapmc', expected pmc, coupled or violating"),
            ("evolve", base("dynamics", dims=[2, 1, 2], times=[], hamiltonian={"random": "pmc"}),
             "times must ascend and start at 0"),
        ],
        ids=["validate-pointer", "born-pointer", "branch-bases-short", "branch-bases-long",
             "blocks", "a-generators-short", "a-generators-long", "random-kind", "times-empty"],
    )
    def test_refused_by_the_library_rule(self, tmp_path, capsys, command, payload, message):
        assert self.run_bad(tmp_path, capsys, command, payload) == f"scenario error: {message}\n"

    @pytest.mark.parametrize("schema, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")])
    def test_schema_is_the_integer_one(self, tmp_path, capsys, schema, shown):
        # true and 1.0 equal 1 in Python, and were once read as schema 1
        payload = {**base("born", dims=[2, 2, 2], branch_bases=["Z", "X"]), "schema": schema}
        err = self.run_bad(tmp_path, capsys, "born", payload)
        assert err == f"scenario error: unsupported schema {shown}, expected 1\n"

    def test_segment_duration_a_boolean(self, tmp_path, capsys):
        segments = [{"duration": True, "hamiltonian": {"random": "pmc"}}]
        payload = base("dynamics", dims=[2, 1, 2], times=[0.0], segments=segments)
        assert "segments[0].duration" in self.run_bad(tmp_path, capsys, "evolve", payload)

    @pytest.mark.parametrize("product", [5, "chi system apparatus", ["chi", "system", "apparatus"]])
    def test_product_state_not_an_object(self, tmp_path, capsys, product):
        payload = base(
            "dynamics", dims=[2, 1, 2], times=[0.0], hamiltonian={"random": "pmc"},
            initial_state={"product": product},
        )
        assert "initial_state.product" in self.run_bad(tmp_path, capsys, "evolve", payload)

    def run_over_cap(self, tmp_path, capsys, command, payload):
        """Exit 2 on the cap before any allocation of the refused size."""
        tracemalloc.start()
        try:
            err = self.run_bad(tmp_path, capsys, command, payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "exceeds the cap" in err
        assert peak < 2**20
        return err

    def test_dims_above_capacity(self, tmp_path, capsys):
        # a dense born run at these dims would need about 12 GB
        payload = base("born", dims=[30, 30, 900], branch_bases=["Z"] * 900)
        err = self.run_over_cap(tmp_path, capsys, "born", payload)
        assert "30*30*900 = 810000" in err

    def test_icqc_above_capacity_before_the_program_table(self, tmp_path, capsys):
        # n = 8 would build a 4^8-circuit random program first
        payload = base("icqc", n=8, program={"random": {"depth": 3}})
        err = self.run_over_cap(tmp_path, capsys, "icqc", payload)
        assert "2^32" in err

    def test_icqc_start_rule_before_the_program_table(self, tmp_path, capsys, monkeypatch):
        # the start rule refuses a bad initial before any of the 4^n circuits is drawn, and a
        # register over the cap is still a capacity error, whatever the initial
        def no_table(*args):
            raise AssertionError("the random table was drawn")

        monkeypatch.setattr(scenario, "random_program", no_table)
        with pytest.raises(ScenarioError, match="^initial must be 'uniform' or 'zeros'$"):
            parse_icqc_config({"n": 1, "initial": "bogus", "program": {"random": {}}}, 1)
        payload = base("icqc", n=1, initial=5, program={"random": {}})
        err = self.run_bad(tmp_path, capsys, "icqc", payload)
        assert err == "scenario error: initial must be 'uniform' or 'zeros'\n"
        payload = base("icqc", n=8, initial="bogus", program={"random": {}})
        err = self.run_bad(tmp_path, capsys, "icqc", payload)
        assert err == (
            "capacity error: full dimension 2^32 = 4294967296 exceeds the cap 4096 "
            "(set ICQT_MAX_DIM to raise it)\n"
        )

    def test_random_program_depth_above_capacity(self, tmp_path, capsys):
        # depth 10^9 at n = 1 would build 4 * (10^9 + 1) gates before the run
        payload = base("icqc", n=1, program={"random": {"depth": 10**9}})
        err = self.run_over_cap(tmp_path, capsys, "icqc", payload)
        assert "gate count 4^1*(1000000000+1) = 4000000004" in err

    @pytest.mark.parametrize("depth", [True, False])
    def test_random_program_depth_a_boolean(self, tmp_path, capsys, depth):
        payload = base("icqc", n=1, program={"random": {"depth": depth}})
        assert "program.random: depth" in self.run_bad(tmp_path, capsys, "icqc", payload)

    @pytest.mark.parametrize("spec", [[], 3, "deep", None])
    def test_random_program_not_an_object(self, tmp_path, capsys, spec):
        payload = base("icqc", n=1, program={"random": spec})
        assert "program.random must be an object" in self.run_bad(tmp_path, capsys, "icqc", payload)

    def test_random_program_depth_at_the_cap(self, monkeypatch):
        monkeypatch.setenv("ICQT_MAX_DIM", "256")
        config = parse_icqc_config({"n": 1, "program": {"random": {"depth": 63}}}, 1)
        assert sum(len(circuit) for circuit in config.program_table) == 256
        with pytest.raises(CapacityError, match="= 260 exceeds the cap 256"):
            parse_icqc_config({"n": 1, "program": {"random": {"depth": 64}}}, 1)

    def test_init_state_above_capacity(self, tmp_path, capsys, monkeypatch, small_suite):
        # n = 8 unchecked would allocate 2^32 amplitudes (64 GiB)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="2\\^32"):
                init_state(8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # through the CLI: the suite's icqc battery runs an n = 2 register
        monkeypatch.setenv("ICQT_MAX_DIM", "255")
        err = self.run_bad(tmp_path, capsys, "suite", base("property-suite"))
        assert "2^8 = 256 exceeds the cap 255" in err

    @pytest.mark.parametrize("raw", ["abc", "\u00b2", "4.0e3"])
    def test_max_dim_not_an_integer(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("ICQT_MAX_DIM", raw)
        err = self.run_bad(tmp_path, capsys, "icqc", base("icqc", n=1, program={"random": {}}))
        assert "ICQT_MAX_DIM" in err

    @pytest.mark.parametrize("raw", [" 4096", "4096\n", "+4096"])
    def test_max_dim_read_as_int_reads_it(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("ICQT_MAX_DIM", raw)
        path = write_scenario(tmp_path, "ok.json", base("icqc", n=1, program={"random": {}}))
        assert main(["icqc", path, "--out", str(tmp_path / "out")]) == 0

    def test_negative_seed_override(self, tmp_path, capsys):
        payload = base("dynamics", dims=[2, 2, 4], times=[0.0], hamiltonian={"random": "pmc"})
        err = self.run_bad(tmp_path, capsys, "evolve", payload, "--seed", "-1")
        assert "seed must be" in err

    def test_negative_seed_override_not_reported(self, tmp_path, capsys):
        payload = base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "X", "Y", "Z"])
        self.run_bad(tmp_path, capsys, "validate", payload, "--seed", "-1")

    def test_nan_system_state(self, tmp_path, capsys):
        payload = base(
            "born",
            dims=[2, 2, 4],
            branch_bases=["Z", "X", "Y", "Z"],
            system_state=[[float("nan"), 0.0], [1.0, 0.0]],
        )
        err = self.run_bad(tmp_path, capsys, "born", payload)
        assert "system_state" in err

    @pytest.mark.parametrize(
        "field, vector",
        [
            ("g", [[1e-160, 0], [0, 0]]),  # |v|^2 subnormal: the norm is off by 5.6e-6
            ("g", [[1e-200, 0], [0, 0]]),  # |v|^2 underflows to 0, yet v is not zero
            ("system_state", [[1e308, 0], [1e308, 0]]),  # |v|^2 overflows to inf
            ("apparatus_state", [[1e308, 0], [1e308, 0]]),
        ],
    )
    def test_vector_not_normalizable_in_double(self, tmp_path, capsys, field, vector):
        payload = base("born", dims=[2, 2, 2], branch_bases=["Z", "X"], **{field: vector})
        err = self.run_bad(tmp_path, capsys, "born", payload)
        assert f"{field} cannot be normalized in double precision" in err

    def test_tiny_vector_in_range_keeps_its_bits(self):
        # 1e-150 squares to 1e-300, a normal double: normalized as before, not rescaled
        v = parse_vector([[3e-150, 0], [4e-150, 0]], 2, "g")
        raw = np.array([3e-150, 4e-150], dtype=complex)
        assert np.array_equal(v.amplitudes, raw / np.linalg.norm(raw))

    @pytest.mark.parametrize(
        "raw",
        [b'\xff\xfe{"schema":1}', ("[" * 100000 + "]" * 100000).encode()],
        ids=["not-utf8", "nested-past-recursion-limit"],
    )
    def test_unreadable_json(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code = main(["born", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("scenario error: invalid JSON in ")

    def test_non_orthonormal_basis_matrix(self, tmp_path, capsys):
        skew = complex_to_pairs(np.array([[1.0, 1.0], [0.0, 1.0]]))
        payload = base("trinary-build", dims=[2, 2, 4], branch_bases=["Z", "X", skew, "Z"])
        err = self.run_bad(tmp_path, capsys, "validate", payload)
        assert "branch_bases[2]" in err

    def test_non_finite_time(self, tmp_path, capsys):
        payload = base(
            "dynamics", dims=[2, 2, 4], times=[0.0, float("inf")], hamiltonian={"random": "pmc"}
        )
        self.run_bad(tmp_path, capsys, "evolve", payload)

    @pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["plus", "minus"])
    @pytest.mark.parametrize(
        "command, field, payload",
        [
            ("evolve", "times", lambda x: base(
                "dynamics", dims=[2, 1, 2], times=[0.0, x], hamiltonian={"random": "pmc"})),
            ("evolve", "segments[0].duration", lambda x: base(
                "dynamics", dims=[2, 1, 2], times=[0.0],
                segments=[{"duration": x, "hamiltonian": {"random": "pmc"}}])),
            ("evolve", "hamiltonian.h_p", lambda x: base(
                "dynamics", dims=[2, 1, 2], times=[0.0],
                hamiltonian={"h_p": [[[x, 0], [0, 0]], [[0, 0], [1, 0]]], "blocks": [ID2, ID2]})),
            ("icqc", "gates[0]: angle", lambda x: base(
                "icqc", n=1, program={"random": {}},
                gates=[{"kind": "RY", "targets": [["S", 0]], "angle": x}])),
            ("born", "system_state", lambda x: base(
                "born", dims=[2, 2, 2], branch_bases=["Z", "X"], system_state=[[x, 0], [0, 0]])),
        ],
        ids=["time", "duration", "matrix-entry", "angle", "vector-entry"],
    )
    def test_integer_past_the_double_range(self, tmp_path, capsys, command, field, payload, huge):
        # a JSON integer is exact: 10^400 passes an isinstance check, yet float() overflows
        assert field in self.run_bad(tmp_path, capsys, command, payload(huge))

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # json.dumps refuses to write such an integer, and json.loads to read it
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "kind": "icqc", "seed": 7, "n": ' + "9" * 4301 + "}")
        code = main(["icqc", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("scenario error: invalid JSON in ")

    @pytest.mark.parametrize("n", [4000, 10**9])
    def test_icqc_total_past_the_printable_digits(self, tmp_path, capsys, n):
        # 2^16000 has 4,817 digits, past what Python writes in decimal; 2^(4 * 10^9)
        # would take 500 MB, so it is refused from its exponent
        payload = base("icqc", n=n, program={"random": {}})
        err = self.run_over_cap(tmp_path, capsys, "icqc", payload)
        assert f"full dimension 2^{4 * n} exceeds the cap 4096" in err
        with pytest.raises(CapacityError, match=f"2\\^{4 * n} exceeds"):
            init_state(n)

    @pytest.mark.parametrize("digits", [500, 1500])
    def test_dims_total_past_the_printable_digits(self, tmp_path, capsys, digits):
        # dims products of 1,501 and 4,501 digits: the second is past what Python
        # writes in decimal, and neither is written out
        payload = base("born", dims=[10**digits] * 3, branch_bases=["Z"])
        err = self.run_over_cap(tmp_path, capsys, "born", payload)
        assert err.endswith(" exceeds the cap 4096 (set ICQT_MAX_DIM to raise it)\n")
        assert len(err) < 3 * digits + 200

    def test_hermiticity_check_overflowing(self, tmp_path, capsys):
        # h_p - h_p^dagger overflows: not Hermitian, with no numpy warning on stderr
        h_p = complex_to_pairs(np.array([[0, 1.7e308], [-1.7e308, 0]]))
        hamiltonian = {"h_p": h_p, "blocks": [ID2, ID2]}
        payload = base("dynamics", dims=[2, 1, 2], times=[0.0], hamiltonian=hamiltonian)
        assert "not Hermitian" in self.run_bad(tmp_path, capsys, "evolve", payload)

    @pytest.mark.parametrize("hamiltonian, times, message", OVERFLOWING.values(), ids=OVERFLOWING)
    def test_hamiltonian_overflowing_a_double(self, tmp_path, capsys, hamiltonian, times, message):
        payload = base("dynamics", dims=[2, 1, 2], times=times, hamiltonian=hamiltonian)
        assert message in self.run_bad(tmp_path, capsys, "evolve", payload)

    @pytest.mark.parametrize(
        "hamiltonian, message",
        [
            ({"h_p": ID2, "blocks": [ID2]}, "segments[1].hamiltonian: need 2 blocks, got 1"),
            ({"random": "PMC"}, "segments[1].hamiltonian.random: unknown kind 'PMC'"),
            (OVERFLOWING["entries"][0], "segments[1].hamiltonian: h_p and the blocks overflow"),
            ({"h_p": ID2, "blocks": [ID2, "X"]}, "segments[1].hamiltonian.blocks[1]: "),
        ],
        ids=["block count", "random kind", "overflow", "block"],
    )
    def test_a_refusal_inside_a_segment_names_its_path(self, tmp_path, capsys, hamiltonian, message):
        segments = [{"duration": 1.0, "hamiltonian": {"random": "pmc"}},
                    {"duration": 1.0, "hamiltonian": hamiltonian}]
        payload = base("dynamics", dims=[2, 1, 2], times=[0.0], segments=segments)
        assert self.run_bad(tmp_path, capsys, "evolve", payload).startswith(
            f"scenario error: {message}"
        )
