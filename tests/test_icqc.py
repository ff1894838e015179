import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from icqt import icqc
from icqt.born import dual_born_report
from icqt.icqc import (
    _FIXED_GATES,
    _ROTATIONS,
    CapacityError,
    GateOp,
    IcqcConfig,
    _REAL_KINDS,
    _apply_single,
    apply_gates,
    apply_programmed_op,
    init_state,
    pointer_branch_circuit,
    random_program,
    run,
    tomographic_program_n1,
)
from icqt.linalg import (
    _NORM_CHUNK,
    StateVector,
    _cut_entropy,
    entanglement_entropy,
    seeded_random,
    subseed,
)
from icqt.scenario import parse_icqc_config
from icqt.trinary import (
    EMPTY_BRANCH_TOL,
    TrinaryDims,
    TrinaryState,
    dual_entropies,
    standard_basis,
)
from oracles import (
    EPS,
    branch_entropies_loop,
    dense_programmed_matrix,
    entropy_bound,
    full_svd_entropy,
    pointer_unitary,
    single_qubit_gate,
    squared_value_bound,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def identity_program(n):
    return tuple([()] * (4**n))


class TestGateOp:
    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            GateOp("RX", (("S", 0),))

    def test_fixed_gate_rejects_angle(self):
        with pytest.raises(ValueError):
            GateOp("H", (("S", 0),), angle=1.0)

    def test_cnot_needs_two_targets(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (("S", 0),))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (("S", 0), ("S", 0)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateOp("FOO", (("S", 0),))

    def test_unknown_register(self):
        with pytest.raises(ValueError):
            GateOp("X", (("Q", 0),))

    @pytest.mark.parametrize("qubit", [0.9, True, "0", None])
    def test_qubit_not_an_integer_rejected(self, qubit):
        # neither truncated (0.9 would act on qubit 0) nor read as an int (True on qubit 1)
        with pytest.raises(ValueError, match="is not an integer"):
            GateOp("RY", (("S", qubit),), angle=0.1)

    def test_numpy_integer_qubit_kept_as_an_int(self):
        gate = GateOp("CNOT", (("S", np.int64(0)), ("A", np.uint8(1))))
        assert gate.targets == (("S", 0), ("A", 1))
        assert all(type(q) is int for _, q in gate.targets)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -np.inf, True, 10**400, "0.1"])
    def test_angle_not_a_finite_number_rejected(self, angle):
        with pytest.raises(ValueError, match="is not a finite number"):
            GateOp("RY", (("S", 0),), angle=angle)

    @pytest.mark.parametrize("angle", [0, -0.0, np.float32(0.5), np.int64(2), 10**300])
    def test_finite_real_angle_accepted(self, angle):
        assert GateOp("RZ", (("S", 0),), angle=angle).angle == angle

    @pytest.mark.parametrize("kind", [*_FIXED_GATES, *_ROTATIONS, "CNOT"])
    def test_real_gate_is_a_zero_imaginary_part(self, kind):
        # a kind is real exactly when its matrix is real at every angle of the grid
        if kind == "CNOT":
            assert kind in _REAL_KINDS
            return
        angles = [None] if kind in _FIXED_GATES else [0.0, -0.0, 0.3, 1.0, np.pi, 2 * np.pi]
        matrices = [GateOp(kind, (("S", 0),), angle=angle).matrix() for angle in angles]
        assert (kind in _REAL_KINDS) == (not any(m.imag.any() for m in matrices))


class TestInitState:
    def test_n1_uniform(self):
        state = init_state(1)
        assert state.dense.dim == 16
        assert np.allclose(state.dense.amplitudes, 0.25)

    def test_n2_uniform(self):
        state = init_state(2)
        assert state.dense.dim == 256
        assert np.allclose(state.dense.amplitudes, 1 / 16)

    def test_normalized(self):
        for n in (1, 2, 3):
            assert abs(np.linalg.norm(init_state(n).dense.amplitudes) - 1) <= 1e-12

    def test_zeros(self):
        state = init_state(1, "zeros")
        assert state.dense.amplitudes[0] == 1.0

    @pytest.mark.parametrize("initial", ["uniform", "zeros"])
    def test_run_start_is_the_kron_product_bit_for_bit(self, initial):
        # run writes the start straight into its buffer; an empty program keeps it
        n = 2
        factors = [StateVector.uniform(d) if initial == "uniform" else StateVector.basis(d, 0)
                   for d in (16, 4, 4)]
        want = np.kron(factors[0].amplitudes, np.kron(factors[1].amplitudes, factors[2].amplitudes))
        config = IcqcConfig(n=n, program_table=identity_program(n), initial=initial)
        for got in (run(config).final_state, init_state(n, initial)):
            assert np.all(got.dense.amplitudes == want)
            assert got.dense.amplitudes.tobytes() == want.tobytes()

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("ICQT_MAX_DIM", "256")
        with pytest.raises(CapacityError):
            init_state(3)
        monkeypatch.setenv("ICQT_MAX_DIM", "65536")
        assert init_state(3).dense.dim == 4096

    def test_capacity_checked_before_any_power_of_n(self):
        # 4**(10**7) alone would take about 0.2 s, and its digits cannot be printed
        for make in (lambda: init_state(10**7), lambda: IcqcConfig(n=10**7, program_table=())):
            start = time.perf_counter()
            with pytest.raises(CapacityError) as err:
                make()
            assert time.perf_counter() - start < 0.1
            assert "\n" not in str(err.value) and "2^40000000 exceeds the cap" in str(err.value)

    @pytest.mark.parametrize("n", [True, 1.0, np.int64(1), 0, -1, "1"])
    def test_n_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            init_state(n)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            IcqcConfig(n=n, program_table=identity_program(1))

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError, match="initial must be"):
            init_state(1, "ones")
        with pytest.raises(ValueError, match="initial must be"):
            IcqcConfig(n=1, program_table=identity_program(1), initial="ones")


class TestApplyGates:
    def test_x_flips_bit(self):
        state = init_state(1, "zeros")
        out = apply_gates(state, [GateOp("X", (("S", 0),))])
        # S qubit 0 flips the S index: position p=0, s=1, a=0 -> 1*2 + 0
        want = np.zeros(16, dtype=complex)
        want[2] = 1.0
        assert np.array_equal(out.dense.amplitudes, want)

    def test_h_involution(self):
        state = init_state(1)
        gates = [GateOp("H", (("A", 0),))] * 2
        out = apply_gates(state, gates)
        assert np.max(np.abs(out.dense.amplitudes - state.dense.amplitudes)) <= 1e-12

    def test_cnot_bell_pair(self):
        state = init_state(1, "zeros")
        out = apply_gates(
            state,
            [GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0)))],
        )
        # branch p=0 holds a Bell pair across the S|A cut
        sa = out.as_matrix()[0]
        assert abs(np.linalg.norm(sa) - 1) < 1e-12
        assert abs(entanglement_entropy(StateVector(sa), (2, 2)) - np.log(2)) <= 1e-12

    def test_gate_algebra_on_random_state(self):
        state = TrinaryState.from_dense(init_state(1).dims, seeded_random("state", 16, 3))
        for gates in ([GateOp("H", (("P", 1),))] * 2, [GateOp("CNOT", (("P", 0), ("A", 0)))] * 2):
            out = apply_gates(state, gates)
            assert np.max(np.abs(out.dense.amplitudes - state.dense.amplitudes)) <= 1e-12

    def test_hh_conjugation_swaps_cnot_direction(self):
        state = TrinaryState.from_dense(init_state(1).dims, seeded_random("state", 16, 4))
        h_both = [GateOp("H", (("S", 0),)), GateOp("H", (("A", 0),))]
        conjugated = apply_gates(state, h_both + [GateOp("CNOT", (("S", 0), ("A", 0)))] + h_both)
        reversed_cnot = apply_gates(state, [GateOp("CNOT", (("A", 0), ("S", 0)))])
        assert np.max(
            np.abs(conjugated.dense.amplitudes - reversed_cnot.dense.amplitudes)
        ) <= 1e-12

    def test_bounds_error(self):
        with pytest.raises(ValueError):
            apply_gates(init_state(1), [GateOp("X", (("S", 1),))])

    @pytest.mark.parametrize("target", [("S", 1), ("A", -1), ("P", 2), ("P", -3)])
    def test_out_of_range_qubit_has_the_config_message(self, target):
        gates = (GateOp("X", (target,)),)
        with pytest.raises(ValueError) as config_err:
            IcqcConfig(n=1, gate_sequence=gates, program_table=identity_program(1))
        with pytest.raises(ValueError) as apply_err:
            apply_gates(init_state(1), gates)
        (reg, q), size = target, 2 if target[0] == "P" else 1
        want = f"gate sequence: qubit {q} out of range for register {reg} of size {size}"
        assert str(apply_err.value) == str(config_err.value) == want

    def test_an_iterator_of_gates_is_checked_and_applied(self):
        state = init_state(1, "zeros")
        gates = [GateOp("X", (("S", 0),))]
        out = apply_gates(state, iter(gates)).dense.amplitudes
        assert np.array_equal(out, apply_gates(state, gates).dense.amplitudes)
        assert not np.array_equal(out, state.dense.amplitudes)

    def test_gates_checked_before_any_gate_runs(self):
        # one bad gate at the end refuses the whole circuit, with no work done
        gates = [GateOp("H", (("S", 0),)), "X"]
        want = "^gate sequence must be a circuit of GateOp, got str$"
        with pytest.raises(ValueError, match=want):
            apply_gates(init_state(1), gates)

    @pytest.mark.parametrize("dims", [TrinaryDims(3, 3, 9), TrinaryDims(2, 2, 16)])
    def test_state_off_the_register_layout(self, dims):
        state = TrinaryState.from_dense(dims, seeded_random("state", dims.total, 6))
        with pytest.raises(ValueError, match="register layout"):
            apply_gates(state, [GateOp("X", (("S", 0),))])

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_qubit_gate_on_every_axis(self, n):
        # n = 3 puts 2^11 amplitudes after qubit P0 and 1 after A2, so both
        # forms of the kernel (a long and a short trailing length) are reached
        dims = init_state(n).dims
        state = TrinaryState.from_dense(dims, seeded_random("state", dims.total, 5))
        arr = state.dense.amplitudes.reshape([2] * (4 * n))
        layout = {"P": (0, 2 * n), "S": (2 * n, n), "A": (3 * n, n)}
        for reg, (offset, size) in layout.items():
            for q in range(size):
                # RY is not symmetric and T is not real, so a transposed or
                # conjugated gate would show
                for gate in (GateOp("RY", ((reg, q),), angle=0.3 + q), GateOp("T", ((reg, q),))):
                    got = apply_gates(state, [gate]).dense.amplitudes
                    want = single_qubit_gate(arr, gate.matrix(), offset + q).reshape(-1)
                    assert np.max(np.abs(got - want)) <= 4 * EPS

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_short_rest_takes_one_identity_per_size(self, dtype, monkeypatch):
        # m (x) I_rest is built bit for bit as from a fresh np.eye(rest), which no gate
        # calls once its size has been seen
        amps = seeded_random("state", 256, 8).amplitudes
        arr = amps if dtype is complex else np.ascontiguousarray(amps.real)
        m = GateOp("RY", (("S", 0),), angle=0.7).matrix()
        m = m if dtype is complex else m.real.copy()
        for axis in range(3, 8):  # rests 16 down to 1
            rest = 2 ** (7 - axis)
            out = np.empty_like(arr)
            _apply_single(arr, m, axis, out)
            wide = (m[:, None, :, None] * np.eye(rest)[None, :, None, :]).reshape(2 * rest, 2 * rest)
            want = np.matmul(arr.reshape(-1, 2 * rest), wide.T)
            assert out.tobytes() == want.reshape(-1).tobytes()
        calls = []
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda *a, **k: calls.append(a) or eye(*a, **k))
        for axis in range(3, 8):
            _apply_single(arr, m, axis, np.empty_like(arr))
        assert calls == []


    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cnot_is_the_index_permutation(self, n, dtype):
        # qubit 0 is the most significant bit: CNOT flips the target's bit of every index
        # whose control bit is set, so the output is the input read at the flipped index
        amps = seeded_random("state", 2**n, n).amplitudes
        arr = amps if dtype is np.complex128 else np.ascontiguousarray(amps.real)
        index = np.arange(2**n)
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                bit = 1 << (n - 1 - control), 1 << (n - 1 - target)
                flipped = np.where(index & bit[0], index ^ bit[1], index)
                out = np.empty_like(arr)
                icqc._apply_cnot(arr, control, target, out)
                assert out.tobytes() == arr[flipped].tobytes(), (control, target)


class TestRegisterLaw:
    def test_defaults_fill_in(self):
        cfg = IcqcConfig(n=2, program_table=identity_program(2))
        assert cfg.n_a == 2 and cfg.n_p == 4

    @pytest.mark.parametrize("bad", [{"n_a": 2}, {"n_p": 3}, {"n_a": 0}])
    def test_rejects_wrong_sizes(self, bad):
        with pytest.raises(ValueError):
            IcqcConfig(n=1, program_table=identity_program(1), **bad)

    @pytest.mark.parametrize("bad", [{"n_a": True}, {"n_p": 2.0}, {"n_a": "1"}])
    def test_rejects_a_size_that_is_not_an_integer(self, bad):
        # True and 2.0 equal the sizes 1 and 2 at n = 1, and were once stored as given
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            IcqcConfig(n=1, program_table=identity_program(1), **bad)

    def test_numpy_sizes_kept_as_ints(self):
        cfg = IcqcConfig(n=1, program_table=identity_program(1), n_a=np.int64(1), n_p=np.int8(2))
        assert (cfg.n_a, cfg.n_p) == (1, 2) and type(cfg.n_a) is type(cfg.n_p) is int

    def test_program_table_arity(self):
        with pytest.raises(ValueError):
            IcqcConfig(n=1, program_table=tuple([()] * 3))

    def test_matrix_branch_rejected_by_name(self):
        # a branch is always a circuit; a raw 4x4 matrix is not one
        table = ((), np.eye(4, dtype=complex), (), ())
        with pytest.raises(ValueError, match="branch 1 must be a circuit of GateOp"):
            IcqcConfig(n=1, program_table=table)

    def test_single_gate_rejected_as_a_circuit(self):
        # a lone GateOp is not a sequence of gates, wherever a circuit is expected
        gate = GateOp("X", (("S", 0),))
        with pytest.raises(ValueError, match="^branch 0 must be a circuit of GateOp, got a single GateOp$"):
            IcqcConfig(n=1, program_table=(gate, (), (), ()))
        with pytest.raises(ValueError, match="^gate sequence must be a circuit of GateOp, got a single GateOp$"):
            IcqcConfig(n=1, gate_sequence=gate, program_table=identity_program(1))
        with pytest.raises(ValueError, match="^program table must be a table of circuits, got a single GateOp$"):
            IcqcConfig(n=1, program_table=gate)

    def test_branch_cannot_touch_p(self):
        bad = ((GateOp("X", (("P", 0),)),),) + tuple([()] * 3)
        with pytest.raises(ValueError):
            IcqcConfig(n=1, program_table=bad)

    def test_p_circuit_only_p(self):
        with pytest.raises(ValueError):
            IcqcConfig(
                n=1,
                program_table=identity_program(1),
                post_program_p_circuit=(GateOp("X", (("S", 0),)),),
            )


class TestKeptCircuits:
    """The config runs the circuits its circuit rule returned, so an iterator or a
    generator is read once, by the check, and then runs like a tuple."""

    BELL = (GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0))))

    @staticmethod
    def assert_same_report(got, want):
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert (got.s_psa, got.mean_s_sa) == (want.s_psa, want.mean_s_sa)
        assert got.s_sa_branches.tobytes() == want.s_sa_branches.tobytes()
        for field in ("decision_probs", "outcome_probs"):
            assert getattr(got.born, field).tobytes() == getattr(want.born, field).tobytes()
        assert (got.born.degenerate, got.born.empty) == (want.born.degenerate, want.born.empty)

    def test_an_iterator_gate_sequence_runs(self):
        # a Bell pair in branch 0 of four: mean S|A entropy ln(2)/4
        table = identity_program(1)
        want = run(IcqcConfig(n=1, gate_sequence=self.BELL, program_table=table, initial="zeros"))
        got = run(IcqcConfig(n=1, gate_sequence=iter(self.BELL), program_table=table, initial="zeros"))
        assert want.mean_s_sa == pytest.approx(np.log(2) / 4, abs=1e-12)
        self.assert_same_report(got, want)

    def test_an_iterator_p_only_circuit_runs(self):
        # X on P0 moves the zeros start's decision weight from p = 0 to p = 2
        x = (GateOp("X", (("P", 0),)),)
        for circuit in (x, iter(x)):
            config = IcqcConfig(
                n=1, program_table=tomographic_program_n1(), post_program_p_circuit=circuit,
                initial="zeros",
            )
            assert run(config).born.decision_probs.tolist() == [0.0, 0.0, 1.0, 0.0]
            assert config.post_program_p_circuit == x

    def test_iterator_branches_and_a_generator_table_run_like_tuples(self):
        table = tomographic_program_n1()
        want = run(IcqcConfig(n=1, gate_sequence=self.BELL, program_table=table))
        for given in (tuple(iter(c) for c in table), (c for c in table), iter(list(table))):
            config = IcqcConfig(n=1, gate_sequence=self.BELL, program_table=given)
            assert config.program_table == table
            self.assert_same_report(run(config), want)
            state = apply_programmed_op(init_state(1), config)
            assert state.dense.amplitudes.tobytes() == (
                apply_programmed_op(init_state(1), IcqcConfig(n=1, program_table=table))
                .dense.amplitudes.tobytes()
            )

    def test_a_generator_table_is_checked_like_a_tuple(self):
        with pytest.raises(ValueError, match="^program table needs 4 entries, got 3$"):
            IcqcConfig(n=1, program_table=(() for _ in range(3)))
        bad = (c for c in ((), (GateOp("X", (("P", 0),)),), (), ()))
        with pytest.raises(ValueError, match="^branch 1 may not touch register P$"):
            IcqcConfig(n=1, program_table=bad)


class TestApplyProgrammedOp:
    def test_identity_program(self):
        state = init_state(1)
        out = apply_programmed_op(state, IcqcConfig(n=1, program_table=identity_program(1)))
        assert np.array_equal(out.dense.amplitudes, state.dense.amplitudes)

    def test_conditional_x_matches_dense_oracle(self):
        # branch p applies X on A iff p is odd
        x_gate = (GateOp("X", (("A", 0),)),)
        table = tuple(x_gate if p % 2 else () for p in range(4))
        cfg = IcqcConfig(n=1, program_table=table)
        state = init_state(1)
        out = apply_programmed_op(state, cfg)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        blocks = [np.kron(np.eye(2), x) if p % 2 else np.eye(4) for p in range(4)]
        want = dense_programmed_matrix(blocks) @ state.dense.amplitudes
        assert np.max(np.abs(out.dense.amplitudes - want)) <= 1e-12

    def test_tomographic_program_born_row(self):
        cfg = IcqcConfig(
            n=1,
            gate_sequence=(
                GateOp("H", (("P", 0),)),
                GateOp("H", (("P", 1),)),
                GateOp("H", (("S", 0),)),
            ),
            program_table=tomographic_program_n1(),
            initial="zeros",
        )
        report = run(cfg)
        assert np.allclose(report.born.decision_probs, [0.25] * 4, atol=1e-10)
        assert np.allclose(report.born.outcome_probs[0], [0.5, 0.5], atol=1e-10)
        assert np.allclose(report.born.outcome_probs[1], [1.0, 0.0], atol=1e-10)

    def test_post_program_p_circuit_applied_after(self):
        table = tomographic_program_n1()
        p_circ = (GateOp("H", (("P", 0),)),)
        state = TrinaryState.from_dense(init_state(1).dims, seeded_random("state", 16, 200))
        combined = apply_programmed_op(
            state, IcqcConfig(n=1, program_table=table, post_program_p_circuit=p_circ)
        )
        stepwise = apply_gates(
            apply_programmed_op(state, IcqcConfig(n=1, program_table=table)), p_circ
        )
        assert np.array_equal(combined.dense.amplitudes, stepwise.dense.amplitudes)
        # H on P0 mixes branches with different circuits, so the order shows
        before = apply_programmed_op(apply_gates(state, p_circ), IcqcConfig(n=1, program_table=table))
        assert np.max(np.abs(combined.dense.amplitudes - before.dense.amplitudes)) > 0.1

    def test_memory_contract_no_full_space_matrix(self, monkeypatch):
        """One copy of the state and no full-space matrix (4096^2 complexes, 256 MiB, at n=3).

        Beside the copy, apply_programmed_op holds one S x A row, and the norm check
        squares one chunk of at most _NORM_CHUNK reals at a time: a whole state at
        n=3, 1/32 of one at n=5.
        """
        monkeypatch.setenv("ICQT_MAX_DIM", str(2**20))
        for n in (3, 5):
            cfg = IcqcConfig(
                n=n,
                program_table=tuple(
                    (GateOp("RY", (("S", p % n),), angle=0.1 + p / 64),) for p in range(4**n)
                ),
            )
            state = init_state(n)
            tracemalloc.start()
            apply_programmed_op(state, cfg)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            size = state.dense.amplitudes.nbytes
            squares = 8 * min(2 * state.dense.dim, _NORM_CHUNK)
            assert peak <= 1.1 * size + squares


class TestRun:
    def test_identity_run(self):
        report = run(IcqcConfig(n=1, program_table=identity_program(1)))
        assert report.s_psa < 1e-9
        assert np.allclose(report.born.decision_probs, [0.25] * 4, atol=1e-12)
        assert report.mean_s_sa < 1e-9

    def test_n2_seeded_program_normalized(self):
        rng = np.random.default_rng(7)
        program = []
        for _ in range(16):
            circ = [
                GateOp(
                    "RY",
                    ((("S", "A")[int(rng.integers(2))], int(rng.integers(2))),),
                    angle=float(rng.uniform(0, np.pi)),
                )
                for _ in range(3)
            ]
            circ.append(GateOp("CNOT", (("S", 0), ("A", 1))))
            program.append(tuple(circ))
        report = run(IcqcConfig(n=2, program_table=tuple(program)))
        assert abs(report.born.decision_probs.sum() - 1) <= 1e-9
        for r in range(16):
            if not report.born.empty[r]:
                assert abs(report.born.outcome_probs[r].sum() - 1) <= 1e-9
        assert 0 <= report.s_psa <= np.log(16) + 1e-9

    N2_CONFIG = IcqcConfig(
        n=2,
        gate_sequence=(GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0)))),
        program_table=tuple((GateOp("RY", (("S", p % 2),), angle=0.1 * p),) for p in range(16)),
    )

    # S on P0 after the uniform start makes half the rows imaginary
    N2_COMPLEX = IcqcConfig(
        n=2,
        gate_sequence=N2_CONFIG.gate_sequence + (GateOp("S", (("P", 0),)),),
        program_table=N2_CONFIG.program_table,
    )

    def test_branch_spectra_taken_once(self, spectral_calls):
        # one eigvalsh of the P|(SA) Gram matrix, one batched values-only SVD
        # shared by both reports: no singular vector is computed and thrown away;
        # H, CNOT and RY keep every amplitude real, so both take float64, and the
        # complex run's take complex128
        for config, dtype in ((self.N2_CONFIG, "float64"), (self.N2_COMPLEX, "complex128")):
            spectral_calls.clear()
            report = run(config)
            assert sorted(spectral_calls) == [
                ("eigvalsh", (16, 16), dtype),
                ("svd", (16, 4, 4), dtype, False),
            ]
            rows = report.final_state.as_matrix()
            assert abs(report.s_psa - full_svd_entropy(rows)) <= entropy_bound((16, 16))
            want = branch_entropies_loop(rows, (4, 4), EMPTY_BRANCH_TOL)
            assert np.max(np.abs(report.s_sa_branches - want)) <= entropy_bound((4, 4))
        # the complex run's spectra read its final state's rows: equal bit for bit
        s_psa, branches = dual_entropies(report.final_state)
        assert report.s_psa == s_psa
        assert np.array_equal(report.s_sa_branches, branches)
        alone = dual_born_report(report.final_state)
        assert np.array_equal(report.born.outcome_probs, alone.outcome_probs)

    def test_psa_entropy_of_an_n2_cut(self):
        """The 16 x 16 P|(SA) cut, of Schmidt rank below 16, within the bound of the full SVD."""
        report = run(self.N2_CONFIG)
        rows = report.final_state.as_matrix()
        assert np.linalg.matrix_rank(rows) < 16
        assert report.s_psa >= 0
        assert abs(report.s_psa - full_svd_entropy(rows)) <= entropy_bound((16, 16))

    ZX_PROGRAM = tuple(pointer_branch_circuit(b) for b in ("Z", "X", "Z", "X"))
    REAL_CONFIGS = {
        "n2": N2_CONFIG,
        # Z on |+> is degenerate, X on |+> rank one; branches 2 and 3 are empty
        "zx-pointers": IcqcConfig(
            n=1,
            initial="zeros",
            gate_sequence=(GateOp("H", (("S", 0),)), GateOp("H", (("P", 1),))),
            program_table=ZX_PROGRAM,
        ),
        "zx-uniform": IcqcConfig(n=1, program_table=ZX_PROGRAM),
        "random-n2": parse_icqc_config({"n": 2, "program": {"random": {"depth": 3}}}, 11),
        # every stage real: gates on all registers, the random table, then a P-only circuit
        "p-circuit": IcqcConfig(
            n=2,
            gate_sequence=N2_CONFIG.gate_sequence + (GateOp("RY", (("P", 1),), angle=0.3),),
            program_table=random_program(2, 4, np.random.default_rng(5)),
            post_program_p_circuit=(GateOp("H", (("P", 0),)), GateOp("CNOT", (("P", 0), ("P", 3)))),
        ),
    }

    @pytest.mark.parametrize("name", REAL_CONFIGS)
    def test_real_run_within_bounds_of_the_complex_typed_copy(
        self, name, spectral_calls, complex_typed
    ):
        config = self.REAL_CONFIGS[name]
        report = run(config)
        assert report.amplitudes.dtype == np.float64
        assert {call[2] for call in spectral_calls} == {"float64"}
        assert not report.final_state.dense.amplitudes.imag.any()
        spectral_calls.clear()
        want = complex_typed(run, config)
        # the copy runs in a complex128 buffer and takes complex128 kernels throughout
        assert want.amplitudes.dtype == np.complex128
        assert {call[2] for call in spectral_calls} == {"complex128"}
        gap = report.final_state.dense.amplitudes - want.final_state.dense.amplitudes
        assert np.max(np.abs(gap)) <= 64 * EPS
        self.assert_within_bounds(report, want, config.dims)
        if name == "zx-pointers":
            assert report.born.degenerate == (True, False, False, False)
            assert report.born.empty == (False, False, True, True)
            assert report.born.outcome_probs[1, 1] <= squared_value_bound((2, 2))

    @staticmethod
    def assert_within_bounds(report, want, d):
        """``report``, whose spectra read float64 rows, within the ``oracles`` bounds of
        ``want``, whose spectra read complex ones, with the same flags."""
        assert abs(report.s_psa - want.s_psa) <= entropy_bound((d.d_p, d.d_sa))
        gap = report.s_sa_branches - want.s_sa_branches
        assert np.max(np.abs(gap)) <= entropy_bound((d.d_s, d.d_a))
        assert report.born.degenerate == want.born.degenerate
        assert report.born.empty == want.born.empty
        assert np.array_equal(report.born.decision_probs, want.born.decision_probs)
        gap = report.born.outcome_probs - want.born.outcome_probs
        assert np.max(np.abs(gap)) <= squared_value_bound((d.d_s, d.d_a))

    REAL_VALUED_GATES = {
        # T on S0, which the H before it has emptied
        "t-on-emptied-s0": [{"kind": "T", "targets": [["S", 0]]}],
        # S then SDG on P0: i * -i is 1 exactly
        "s-then-sdg-on-p0": [
            {"kind": "S", "targets": [["P", 0]]}, {"kind": "SDG", "targets": [["P", 0]]}
        ],
    }

    @pytest.mark.parametrize("name", REAL_VALUED_GATES)
    def test_complex_run_of_real_amplitudes_reads_its_complex_rows(
        self, name, spectral_calls, complex_typed
    ):
        # the dtype is fixed by the gate kinds before the run: amplitudes that end
        # exactly real keep the complex buffer and take complex128 spectra
        config = self.bench_config(2, *self.REAL_VALUED_GATES[name])
        report = run(config)
        amps = report.amplitudes
        assert amps.dtype == np.complex128 and not amps.imag.any()
        assert {call[2] for call in spectral_calls} == {"complex128"}
        d = config.dims
        assert report.s_psa == _cut_entropy(amps.reshape(d.d_p, d.d_sa))
        assert report.final_state.dense.amplitudes is amps  # no copy
        self.assert_same_bits(report, complex_typed(run, config))

    def test_rotation_by_zero_runs_complex(self, spectral_calls, complex_typed):
        # RZ(0) is the identity, yet RZ is not a real kind
        config = self.bench_config(2, {"kind": "RZ", "targets": [["S", 1]], "angle": 0.0})
        report = run(config)
        assert report.amplitudes.dtype == np.complex128 and not report.amplitudes.imag.any()
        assert {call[2] for call in spectral_calls} == {"complex128"}
        self.assert_same_bits(report, complex_typed(run, config))

    @staticmethod
    def assert_same_bits(report, want):
        assert want.amplitudes.tobytes() == report.amplitudes.tobytes()
        assert report.s_psa == want.s_psa
        assert report.s_sa_branches.tobytes() == want.s_sa_branches.tobytes()
        for field in ("decision_probs", "outcome_probs"):
            assert getattr(report.born, field).tobytes() == getattr(want.born, field).tobytes()
        assert (report.born.degenerate, report.born.empty) == (want.born.degenerate, want.born.empty)

    def test_complex_run_keeps_its_bits(self, spectral_calls, complex_typed):
        # the tomographic table's Y pointer (S and SDG) makes amplitudes complex
        config = IcqcConfig(n=1, program_table=tomographic_program_n1())
        report = run(config)
        assert {call[2] for call in spectral_calls} == {"complex128"}
        self.assert_same_bits(report, complex_typed(run, config))

    @staticmethod
    def bench_config(n, *extra_gates):
        """The icqc-n5 benchmark scenario at n: gates on all registers, then a random table."""
        gates = [
            {"kind": "H", "targets": [["S", 0]]},
            {"kind": "CNOT", "targets": [["S", 0], ["A", 0]]},
            {"kind": "RY", "targets": [["P", 1]], "angle": 0.3},
            *extra_gates,
        ]
        return parse_icqc_config({"n": n, "gates": gates, "program": {"random": {"depth": 4}}}, 2026)

    @staticmethod
    def traced_peak(f, *args):
        tracemalloc.start()
        try:
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [4, 5])
    def test_run_holds_two_states(self, n, monkeypatch):
        # a real run holds two float64 arrays of the state's length (16 * total bytes):
        # the buffer and its spare through the gate stage, then the buffer beside the
        # P|(SA) Gram matrix or the branch unit rows; no cut copy and no complex array
        monkeypatch.setenv("ICQT_MAX_DIM", str(2**20))
        config = self.bench_config(n)
        report, peak = self.traced_peak(run, config)
        assert report.amplitudes.dtype == np.float64
        assert peak < 1.2 * 16 * config.dims.total

    @pytest.mark.parametrize(
        "gate, bound",
        [
            # S on P0 makes half the rows imaginary: the complex Gram matrix (one state
            # at n = 4) and one conjugated block of 16 of its rows (1/16 of a state),
            # then the complex unit rows (one state)
            ({"kind": "S", "targets": [["P", 0]]}, 2.2),
        ],
        ids=["complex-valued"],
    )
    def test_complex_run_holds_two_states(self, gate, bound, monkeypatch):
        # one complex gate makes the run complex: the buffer and its spare through the
        # gate stage, then the buffer beside the P|(SA) step or the branch unit rows
        monkeypatch.setenv("ICQT_MAX_DIM", str(2**16))
        config = self.bench_config(4, gate)
        report, peak = self.traced_peak(run, config)
        assert report.amplitudes.dtype == np.complex128
        assert peak < bound * 16 * config.dims.total

    def test_real_run_makes_its_complex_state_only_when_read(self, monkeypatch):
        monkeypatch.setenv("ICQT_MAX_DIM", str(2**16))
        config = self.bench_config(4)
        size = 16 * config.dims.total  # bytes of one complex128 state
        report, peak = self.traced_peak(run, config)
        # the float64 buffer of size / 2 lives through the whole run, so a complex128
        # array of the state's length beside it would lift the peak to 1.5 * size
        assert peak < 1.2 * size
        assert "final_state" not in vars(report)
        state, read_peak = self.traced_peak(lambda: report.final_state)
        assert read_peak >= size  # the one complex copy, made on the first read
        assert report.final_state is state
        amps = state.dense.amplitudes
        assert amps.dtype == np.complex128 and not amps.flags.writeable
        assert amps.real.tobytes() == report.amplitudes.tobytes() and not amps.imag.any()

    COMPLEX_GATE_AT = {
        "gates": lambda c: IcqcConfig(
            n=2, gate_sequence=c.gate_sequence + (GateOp("T", (("P", 1),)),),
            program_table=c.program_table,
        ),
        "branch": lambda c: IcqcConfig(
            n=2, gate_sequence=c.gate_sequence,
            program_table=tuple(
                circuit + (GateOp("S", (("A", 1),)),) if p == 5 else circuit
                for p, circuit in enumerate(c.program_table)
            ),
        ),
        "p-circuit": lambda c: IcqcConfig(
            n=2, gate_sequence=c.gate_sequence, program_table=c.program_table,
            post_program_p_circuit=(GateOp("H", (("P", 0),)), GateOp("SDG", (("P", 2),))),
        ),
        "scenario": lambda c: parse_icqc_config(
            json.loads((SCENARIOS / "icqc_tomographic.json").read_text()), 9
        ),
    }

    @pytest.mark.parametrize("where", COMPLEX_GATE_AT)
    def test_one_complex_gate_keeps_the_complex_run_and_its_bits(self, where):
        # the stepwise path runs the unchanged complex kernels on complex copies, and the
        # report of its final state is the report a complex run gave before real buffers
        config = self.COMPLEX_GATE_AT[where](self.REAL_CONFIGS["p-circuit"])
        assert not icqc._real_run(config)
        report = run(config)
        assert report.amplitudes.dtype == np.complex128
        start = init_state(config.n, config.initial)
        state = apply_programmed_op(apply_gates(start, config.gate_sequence), config)
        assert report.amplitudes.tobytes() == state.dense.amplitudes.tobytes()
        assert report.final_state.dense.amplitudes is report.amplitudes  # no copy
        s_psa, branches = dual_entropies(state)
        assert report.s_psa == s_psa
        assert report.s_sa_branches.tobytes() == branches.tobytes()
        alone = dual_born_report(state)
        for field in ("decision_probs", "outcome_probs"):
            assert getattr(report.born, field).tobytes() == getattr(alone, field).tobytes()
        assert (report.born.degenerate, report.born.empty) == (alone.degenerate, alone.empty)

    def test_final_state_is_read_only_and_never_written_again(self):
        config = IcqcConfig(
            n=1,
            gate_sequence=(GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0)))),
            program_table=tomographic_program_n1(),
            post_program_p_circuit=(GateOp("H", (("P", 1),)), GateOp("X", (("P", 0),))),
        )
        final = run(config).final_state
        amps = final.dense.amplitudes
        assert amps.flags.owndata and not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 0.0
        before = amps.tobytes()
        later = apply_programmed_op(apply_gates(final, config.gate_sequence), config)
        again = run(config).final_state
        assert amps.tobytes() == before
        for state in (later, again):
            assert not np.shares_memory(state.dense.amplitudes, amps)
        assert again.dense.amplitudes.tobytes() == before


class TestRandomProgram:
    def test_draw_order_pinned(self):
        # register, qubit and angle of each RY, then the CNOT's qubits, branch by branch
        def ry(reg, angle):
            return GateOp("RY", ((reg, 0),), angle=angle)

        cnot = GateOp("CNOT", (("S", 0), ("A", 0)))
        assert random_program(1, 2, np.random.default_rng(7)) == (
            (ry("A", 2.818680285825393), ry("A", 2.436888465969028), cnot),
            (ry("A", 0.9430001955324466), ry("S", 2.7443490865749487), cnot),
            (ry("A", 2.5799651661104637), ry("S", 2.5040674617684413), cnot),
            (ry("S", 0.952004445895042), ry("S", 0.8746998575470308), cnot),
        )

    @pytest.mark.parametrize("depth", [-3, True, 2.5, "3"])
    def test_depth_not_a_nonnegative_integer_refused_before_any_draw(self, depth):
        # depth -3 once gave CNOT-only circuits and True one RY per circuit; no rng is read
        with pytest.raises(ValueError, match="^depth must be an integer >= 0, got "):
            random_program(1, depth, None)

    def test_gate_count_over_the_cap_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setenv("ICQT_MAX_DIM", "256")
        assert sum(map(len, random_program(1, np.int64(63), np.random.default_rng(1)))) == 256
        with pytest.raises(CapacityError, match=r"4\^1\*\(64\+1\) = 260 exceeds the cap 256"):
            random_program(1, np.int64(64), None)

    def test_scenario_table_is_the_generator_at_subseed_nine(self):
        config = parse_icqc_config({"n": 2, "program": {"random": {"depth": 3}}}, 11)
        want = random_program(2, 3, np.random.default_rng(subseed(11, 9)))
        assert config.program_table == want


class TestPointerBranchCircuits:
    @pytest.mark.parametrize("name", ["Z", "X", "Y"])
    def test_circuit_equals_pointer_matrix(self, name):
        from icqt.icqc import _apply_gates_nd, _sa_layout

        circ = pointer_branch_circuit(name)
        cols = []
        for k in range(4):
            e = np.zeros(4, dtype=complex)
            e[k] = 1.0
            cols.append(_apply_gates_nd(e, circ, _sa_layout(1), np.empty_like(e)))
        got = np.array(cols).T
        want = pointer_unitary(standard_basis(name, 2), 2)
        assert np.max(np.abs(got - want)) <= 1e-12
