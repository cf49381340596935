import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uqsim.compiler import (
    ApplyLocal,
    CompileError,
    ControlSequence,
    CyclePlan,
    HardwareConstraintError,
    InfeasibleTargetError,
    MAX_INSTRUCTIONS,
    PlannedFamily,
    PulseSchedule,
    RawGate,
    RawGateSpec,
    UnsupportedInteractionError,
    compile_pair_interaction,
    cost_report,
    decoupling_echo,
    effective_hamiltonian,
    emit_cycle,
    field_angles,
    homogeneous_feasibility,
    inhomogeneous_cost,
    plan_for_hamiltonian,
    protocol_library,
    schedule_from_text,
    schedule_to_text,
    synthesize_diagonal,
    synthesize_diagonal_signed,
    three_body_gate,
    trotter_schedule,
)
from uqsim.cli import main
from uqsim.engine import ErrorModel, LoweredLayer, StateVector, execute_batch, run_schedule
from uqsim.hardware import LatticeModel, TrapArrayModel
from uqsim.kernels import STATEVECTOR_CAP
from uqsim.pauli import (
    CoeffMatrix,
    Hamiltonian,
    LocalLayer,
    SingleQubitUnitary,
    coeff_matrix,
    from_coeff_matrix,
)


def zz(gamma=1.0):
    return Hamiltonian.from_terms(2, [(gamma, "ZZ")])


def schedule_unitary(schedule: PulseSchedule) -> np.ndarray:
    """Dense matrix of a schedule: every basis state, run as one batch."""
    dim = 2**schedule.n_qubits
    rows = np.eye(dim, dtype=complex)  # row k starts as basis state k
    execute_batch(rows, schedule.n_qubits, schedule.instructions, None, [None] * dim)
    return rows.T


def chain_trap(n, gamma=1.0):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), gamma=gamma)


class TestEffectiveHamiltonian:
    def test_trivial_single_step(self):
        seq = protocol_library("identity")
        assert effective_hamiltonian(seq, zz(0.9)) == zz(0.9)

    def test_heisenberg3_sequence(self):
        gamma = 1.0
        out = effective_hamiltonian(protocol_library("heisenberg3"), zz(gamma))
        expect = Hamiltonian.from_terms(
            2, [(gamma / 3, "XX"), (gamma / 3, "YY"), (gamma / 3, "ZZ")]
        )
        assert out == expect  # exact: quarter turns carry integer Pauli actions

    def test_xy2_on_dipolar_raw(self):
        # two-step x/y sequence on the 1/d^3 ZZ chain gives the XY average
        n = 3
        raw = Hamiltonian.from_terms(
            n, [(1.0, "ZZI"), (1.0, "IZZ"), (1.0 / 8.0, "ZIZ")]
        )
        out = effective_hamiltonian(protocol_library("xy2"), raw)
        expect = Hamiltonian.from_terms(
            n,
            [
                (0.5, "XXI"), (0.5, "YYI"),
                (0.5, "IXX"), (0.5, "IYY"),
                (0.5 / 8.0, "XIX"), (0.5 / 8.0, "YIY"),
            ],
        )
        assert out == expect

    def test_antisym2_effective(self):
        gamma = 1.0
        out = effective_hamiltonian(protocol_library("antisym2"), zz(gamma))
        expect = Hamiltonian.from_terms(2, [(gamma / 2, "ZY"), (-gamma / 2, "YZ")])
        assert out == expect

    def test_linearity_in_weights_and_h0(self):
        seq = protocol_library("xy2")
        h1, h2 = zz(0.3), Hamiltonian.from_terms(2, [(0.2, "XX")])
        lhs = effective_hamiltonian(seq, h1 + h2)
        rhs = effective_hamiltonian(seq, h1) + effective_hamiltonian(seq, h2)
        assert lhs == rhs

    def test_weight_sum_enforced(self):
        with pytest.raises(CompileError):
            ControlSequence(((0.5, LocalLayer.identity()), (0.4, LocalLayer.identity())))

    def test_identity_protocol_structure(self):
        seq = protocol_library("identity")
        assert seq.n == 1
        assert seq.steps[0][0] == 1.0
        assert seq.steps[0][1].is_identity()

    def test_unknown_protocol(self):
        with pytest.raises(CompileError):
            protocol_library("nope")


def random_homogeneous_sequence(rng, max_steps=4, min_steps=1):
    k = rng.integers(min_steps, max_steps + 1)
    weights = rng.dirichlet(np.ones(k))
    steps = []
    for w in weights:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-math.pi, math.pi)
        steps.append((float(w), LocalLayer.homogeneous(SingleQubitUnitary.rot(axis, angle))))
    # guard the (0,1] constraint against dirichlet zeros
    steps = [(max(w, 1e-9), l) for w, l in steps]
    total = sum(w for w, _ in steps)
    steps = [(w / total, l) for w, l in steps]
    return ControlSequence(tuple(steps))


class TestHomogeneousClosure:
    def test_random_sequences_yield_symmetric_psd(self):
        rng = np.random.default_rng(7)
        gamma = 1.0
        for _ in range(25):
            seq = random_homogeneous_sequence(rng)
            out = effective_hamiltonian(seq, zz(gamma))
            m, rest = coeff_matrix(out)
            assert rest.terms == ()
            assert m.is_symmetric(1e-10)
            evals = np.linalg.eigvalsh(gamma * m.m)
            assert np.min(evals) >= -1e-10


class TestFeasibilityAndCost:
    def test_heisenberg_matching_signs(self):
        j, gamma = 0.7, 0.5
        res = homogeneous_feasibility(CoeffMatrix(j * np.eye(3)), gamma)
        assert res.feasible
        assert res.time_cost == pytest.approx(3 * j / gamma, rel=1e-13)

    def test_sign_mismatch_rejected(self):
        res = homogeneous_feasibility(CoeffMatrix(1.0 * np.eye(3)), -1.0)
        assert not res.feasible and res.time_cost is None
        assert "sign" in res.message

    def test_zero_target(self):
        res = homogeneous_feasibility(CoeffMatrix(np.zeros((3, 3))), 1.0)
        assert res.feasible and res.time_cost == 0.0

    def test_asymmetric_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(CompileError):
            homogeneous_feasibility(CoeffMatrix(m), 1.0)

    def test_inhomogeneous_antisym_example(self):
        j, gamma = 0.4, -0.3
        m = np.zeros((3, 3))
        m[2, 1] = j
        m[1, 2] = -j
        assert inhomogeneous_cost(CoeffMatrix(m), gamma) == pytest.approx(
            2 * abs(j) / abs(gamma), rel=1e-13
        )

    def test_self_simulation_cost_one(self):
        gamma = 0.8
        assert inhomogeneous_cost(CoeffMatrix(np.diag([0, 0, gamma])), gamma) == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma", [0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cost", [homogeneous_feasibility, inhomogeneous_cost])
    def test_gamma_must_be_finite_and_nonzero(self, cost, gamma):
        with pytest.raises(CompileError, match="gamma must be finite and nonzero"):
            cost(CoeffMatrix(np.eye(3)), gamma)

    def test_random_matrix_vs_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(3, 3))
            # independent oracle: singular values from eigen-decomposition of M^T M
            svals = np.sqrt(np.maximum(np.linalg.eigvalsh(m.T @ m), 0.0))
            expect = float(np.sum(svals))
            assert inhomogeneous_cost(CoeffMatrix(m), 1.0) == pytest.approx(expect, rel=1e-10)


class TestSynthesizeDiagonal:
    def test_heisenberg_structure(self):
        j = 1.0
        seq, rescale = synthesize_diagonal(CoeffMatrix(j * np.eye(3)), j)
        assert rescale == pytest.approx(3.0)
        assert seq.n == 3
        assert [round(p, 12) for p, _ in seq.steps] == [round(1 / 3, 12)] * 3
        eff = effective_hamiltonian(seq, zz(j))
        assert eff.scaled(rescale) == Hamiltonian.from_terms(2, [(j, "XX"), (j, "YY"), (j, "ZZ")])

    def test_self_target_is_identity_sequence(self):
        gamma = 0.9
        seq, rescale = synthesize_diagonal(CoeffMatrix(np.diag([0.0, 0.0, gamma])), gamma)
        assert rescale == pytest.approx(1.0)
        assert seq.n == 1 and seq.steps[0][1].is_identity()

    def test_two_axis_weights(self):
        gamma = 1.0
        target = CoeffMatrix(np.diag([2.0, 1.0, 0.0]))
        seq, rescale = synthesize_diagonal(target, gamma)
        assert rescale == pytest.approx(3.0)
        weights = sorted(p for p, _ in seq.steps)
        assert weights == pytest.approx([1 / 3, 2 / 3])
        eff = effective_hamiltonian(seq, zz(gamma))
        assert eff.scaled(rescale) == from_coeff_matrix(target)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            synthesize_diagonal(CoeffMatrix(np.diag([1.0, 1.0, 1.0])), -1.0)

    def test_non_diagonal_rejected(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 0.3
        with pytest.raises(UnsupportedInteractionError):
            synthesize_diagonal(CoeffMatrix(m), 1.0)

    def test_signed_variant_handles_mixed_signs(self):
        gamma = 1.0
        target = CoeffMatrix(np.diag([-0.5, 0.75, -0.25]))
        seq, rescale = synthesize_diagonal_signed(target, gamma)
        assert rescale == pytest.approx(1.5)
        eff = effective_hamiltonian(seq, zz(gamma))
        scaled = eff.scaled(rescale)
        expect = from_coeff_matrix(target)
        assert scaled.n_qubits == 2
        for t in expect.terms:
            assert scaled.coefficient(t.ops) == pytest.approx(t.coeff, abs=1e-14)
        assert len(scaled.terms) == len(expect.terms)


class TestAntisymmetricPair:
    @staticmethod
    def target(j):
        m = np.zeros((3, 3))
        m[2, 1], m[1, 2] = j, -j  # J*(ZY - YZ)
        return CoeffMatrix(m)

    @pytest.mark.parametrize("j, gamma", [(0.7, 0.5), (-0.7, 0.5), (0.7, -2.0), (-0.3, -1.0)])
    def test_per_qubit_sequence_realizes_the_target(self, j, gamma):
        # both signs of J*gamma: the library antisym2 steps and their mirror
        seq, cost = compile_pair_interaction(self.target(j), gamma, homogeneous_only=False)
        assert cost == pytest.approx(2 * abs(j) / abs(gamma), rel=1e-12)
        eff = effective_hamiltonian(seq, zz(gamma)).scaled(cost)
        expect = from_coeff_matrix(self.target(j))
        assert len(eff.terms) == len(expect.terms) == 2
        for t in expect.terms:
            assert eff.coefficient(t.ops) == pytest.approx(t.coeff, abs=1e-14)

    def test_homogeneous_control_cannot_realize_it(self):
        with pytest.raises(InfeasibleTargetError, match="per-qubit"):
            compile_pair_interaction(self.target(0.7), 0.5, homogeneous_only=True)


class TestTrotterSchedule:
    def test_plain_zz_arithmetic(self):
        target = zz(1.0)
        sched, cost = trotter_schedule(target, 1.0, 0.01, chain_trap(2))
        assert cost.time_cost == pytest.approx(1.0)
        assert cost.num_gates == 100
        assert cost.step_t == pytest.approx(0.01, rel=1e-12)
        # one instruction per cycle, the raw gate itself, repeated 100 times
        assert len(sched.instructions) == 100 and len(set(map(id, sched.instructions))) == 1

    def test_heisenberg_chain_control_complexity(self):
        n = 3
        terms = []
        for a in range(n - 1):
            for axis in "XYZ":
                ops = ["I"] * n
                ops[a] = axis
                ops[a + 1] = axis
                terms.append((1.0, "".join(ops)))
        target = Hamiltonian.from_terms(n, terms)
        hw = LatticeModel(n_sites=n, available_j=frozenset({1, 2}))
        sched, cost = trotter_schedule(target, 1.0, 0.01, hw)
        assert cost.time_cost == pytest.approx(3.0, rel=1e-12)
        assert cost.n_controls == 3
        assert cost.num_gates == 900
        # chi matches n*c*T'/eps within float fuzz of the exact-integer form
        assert cost.chi == pytest.approx(9 * 1.0 / (1.0 * 0.01), rel=1e-12)
        assert cost.chi * cost.total_time == pytest.approx(cost.n_controls * cost.num_gates, rel=1e-12)

    def test_cost_arithmetic_invariants(self):
        target = zz(0.7)
        sched, cost = trotter_schedule(target, 1.3, 0.02, chain_trap(2, gamma=0.5))
        assert cost.num_gates == math.ceil(cost.time_cost**2 * 1.3**2 / 0.02 - 1e-9)
        assert cost.num_gates * cost.step_t == pytest.approx(cost.total_time, rel=1e-12)
        assert cost.total_time == pytest.approx(cost.time_cost * cost.t_prime, rel=1e-12)

    def test_empty_target(self):
        sched, cost = trotter_schedule(Hamiltonian.zero(2), 1.0, 0.01, chain_trap(2))
        assert cost.num_gates == 0 and sched.instructions == ()

    def test_local_only_target_single_cycle(self):
        h = Hamiltonian.from_terms(2, [(0.4, "XI"), (0.4, "IX")])
        sched, cost = trotter_schedule(h, 1.0, 0.01, chain_trap(2))
        assert cost.time_cost == 0.0
        assert cost.num_gates == 1
        u = schedule_unitary(sched)
        expect = oracles.evolve(oracles.dense_hamiltonian(2, [(0.4, "XI"), (0.4, "IX")]), 1.0)
        assert oracles.op_distance(u, expect) < 1e-12

    def test_uqs1_2d_grid_compiles(self):
        # rectangular 2x2 Ising: row and column classes both complete
        pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]
        terms = []
        for a, b in pairs:
            ops = ["I"] * 4
            ops[a] = ops[b] = "Z"
            terms.append((-0.5, "".join(ops)))
        target = Hamiltonian.from_terms(4, terms)
        hw = LatticeModel(n_sites=4, shape=(2, 2), gamma=-1.0)
        sched, cost = trotter_schedule(target, 0.3, 0.05, hw)
        assert cost.time_cost == pytest.approx(1.0)  # two classes, 0.5 each
        u = schedule_unitary(sched)
        dense = oracles.dense_hamiltonian(4, terms)
        assert oracles.op_distance(u, oracles.evolve(dense, 0.3)) < 1e-10

    def test_ising_chain_on_lattice_single_gate_per_cycle(self):
        n = 4
        terms = []
        for a in range(n - 1):
            ops = ["I"] * n
            ops[a] = ops[a + 1] = "Z"
            terms.append((-0.5, "".join(ops)))
        target = Hamiltonian.from_terms(n, terms)
        hw = LatticeModel(n_sites=n, gamma=-1.0)
        sched, cost = trotter_schedule(target, 1.0, 0.05, hw)
        assert len(set(map(id, sched.instructions))) == 1  # a cycle of one gate
        gate = sched.instructions[0]
        assert isinstance(gate, RawGate)
        assert gate.gate_id == "uqs1:1"

    def test_uqs1_rejects_nonuniform_target(self):
        n = 3
        target = Hamiltonian.from_terms(n, [(1.0, "ZZI")])  # missing (1, 2)
        hw = LatticeModel(n_sites=n)
        with pytest.raises(HardwareConstraintError):
            trotter_schedule(target, 1.0, 0.01, hw)

    def test_uqs1_rejects_unavailable_displacement(self):
        n = 3
        target = Hamiltonian.from_terms(n, [(1.0, "ZIZ")])  # needs j = 2
        hw = LatticeModel(n_sites=n, available_j=frozenset({1}))
        with pytest.raises(HardwareConstraintError):
            trotter_schedule(target, 1.0, 0.01, hw)

    def test_uqs1_rejects_inhomogeneous_fields(self):
        n = 2
        target = Hamiltonian.from_terms(n, [(1.0, "XI")])
        with pytest.raises(HardwareConstraintError):
            trotter_schedule(target, 1.0, 0.01, LatticeModel(n_sites=n))

    def test_random_three_qubit_oracle_equivalence(self):
        # random 1-/2-qubit-term targets, diagonal pair matrices with signs
        rng = np.random.default_rng(42)
        eps = 0.01
        n = 3
        for trial in range(3):
            terms = []
            for a in range(n):
                for axis in "XYZ":
                    c = rng.uniform(-0.4, 0.4)
                    ops = ["I"] * n
                    ops[a] = axis
                    terms.append((c, "".join(ops)))
            for (a, b) in [(0, 1), (1, 2), (0, 2)]:
                for axis in "XYZ":
                    c = rng.uniform(-0.5, 0.5)
                    ops = ["I"] * n
                    ops[a] = axis
                    ops[b] = axis
                    terms.append((c, "".join(ops)))
            target = Hamiltonian.from_terms(n, terms)
            t_prime = 0.7
            sched, cost = trotter_schedule(target, t_prime, eps, chain_trap(n))
            u = schedule_unitary(sched)
            dense = oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in target.terms])
            expect = oracles.evolve(dense, t_prime)
            dist = oracles.op_distance(u, expect)
            assert dist <= 2 * eps, f"trial {trial}: distance {dist}"

    def test_error_halves_when_cycles_double(self):
        rng = np.random.default_rng(1)
        n = 2
        terms = [(0.5, "ZZ"), (0.35, "XX"), (-0.2, "YY"), (0.3, "XI"), (-0.25, "IY")]
        target = Hamiltonian.from_terms(n, terms)
        dense = oracles.dense_hamiltonian(n, terms)
        t_prime = 1.0
        expect = oracles.evolve(dense, t_prime)
        dists = []
        for cycles in (200, 400):
            sched, _ = trotter_schedule(target, t_prime, 0.01, chain_trap(n), num_cycles=cycles)
            dists.append(oracles.op_distance(schedule_unitary(sched), expect))
        ratio = dists[0] / dists[1]
        assert 1.8 <= ratio <= 2.2

    def test_short_gate_error_is_quadratic(self):
        # one compiled cycle vs exp(-i H_eff t): distance drops ~4x when t halves
        rng = np.random.default_rng(5)
        for trial in range(4):
            # single-step sequences are exact conjugations (no O(t^2) error)
            seq = random_homogeneous_sequence(rng, max_steps=3, min_steps=2)
            gamma = 1.0
            h_eff = effective_hamiltonian(seq, zz(gamma))
            dense_eff = h_eff.to_matrix()
            dists = []
            for t in (0.2, 0.1):
                # emit the wrapped segments directly at total raw angle t
                instrs = []
                steps = seq.steps
                opening = steps[0][1].dagger()
                if not opening.is_identity():
                    instrs.append(ApplyLocal(opening))
                for i, (p, layer) in enumerate(steps):
                    instrs.append(RawGate("zz", gamma * p * t, ((0, 1, 1.0),)))
                    bridge = (
                        steps[i + 1][1].dagger().compose(layer)
                        if i + 1 < len(steps) else layer
                    )
                    if not bridge.is_identity():
                        instrs.append(ApplyLocal(bridge))
                sched = PulseSchedule(2, tuple(instrs))
                u = schedule_unitary(sched)
                dists.append(oracles.op_distance(u, oracles.expm(-1j * dense_eff * t)))
            ratio = dists[0] / dists[1]
            assert 3.5 <= ratio <= 4.5, f"trial {trial}: ratio {ratio}"


def dipole_chain(n, j=1.0, b=0.0):
    """(J/2)(XX + YY)/d^3 on every pair of an n-site chain, plus a field b X."""
    terms = []
    for a in range(n):
        for c in range(a + 1, n):
            d = float(c - a)
            for axis in "XY":
                ops = ["I"] * n
                ops[a] = ops[c] = axis
                terms.append((0.5 * j * (1.0 / (d * d * d)), "".join(ops)))
    terms += [(b, "I" * q + "X" + "I" * (n - q - 1)) for q in range(n) if b]
    return Hamiltonian.from_terms(n, terms)


class TestPlanning:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("j", [1.0, 2.5])
    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_lattice_classes_with_equal_sequences_share_one_wrap(self, n, j, b):
        # the open dipole chain: every displacement class is wrapped by xy2,
        # so the plan is one xy2 family driving the classes in order
        plan = plan_for_hamiltonian(dipole_chain(n, j, b), LatticeModel(n_sites=n))
        (fam,) = plan.families
        assert [g.gate_id for g in fam.gates] == [f"uqs1:{d}" for d in range(1, n)]
        units = [j / float(d * d * d) for d in range(1, n)]
        hand = PlannedFamily(
            tuple(RawGateSpec(g.gate_id, g.targets, u) for g, u in zip(fam.gates, units)),
            protocol_library("xy2"), sum(units))
        by_hand = CyclePlan(n, (hand,), plan.local_fields, homogeneous_locals=True)
        assert fam.cost == hand.cost
        for dt, scale in ((0.01, 1.0), (0.1, 0.37)):
            ours, theirs = emit_cycle(plan, dt, scale), emit_cycle(by_hand, dt, scale)
            assert ours == theirs

    def test_cube_law_target_compiles_to_one_push(self):
        n = 5
        sched, report = trotter_schedule(dipole_chain(n), 1.0, 0.01, chain_trap(n))
        assert (report.time_cost, report.num_gates, len(sched.instructions)) == (1.0, 100, 500)
        gates = {ins.gate_id for ins in sched.instructions if isinstance(ins, RawGate)}
        assert gates == {"push:all"}
        plan = plan_for_hamiltonian(dipole_chain(n, b=0.3), chain_trap(n))
        (fam,) = plan.families
        (gate,) = fam.gates
        assert gate.targets == tuple((a, c, 1.0 / float(c - a) ** 3)
                                     for a in range(n) for c in range(a + 1, n))
        assert plan.local_fields == ((0.3, 0.0, 0.0),) * n

    @pytest.mark.parametrize("target, hw", [
        (dipole_chain(2), chain_trap(2)),                      # fewer than 3 ions
        (dipole_chain(4, j=-1.0), chain_trap(4)),              # sign opposite to gamma
        (dipole_chain(4), chain_trap(4, gamma=-1.0)),
        (dipole_chain(3), TrapArrayModel(positions=((0.0,), (1.0,), (3.0,)))),  # not 1/d^3
        (Hamiltonian.from_terms(3, [(1.0, "ZZI"), (1.0, "IZZ")]), chain_trap(3)),  # a pair missing
    ])
    def test_other_targets_get_one_push_per_pair(self, target, hw):
        plan = plan_for_hamiltonian(target, hw)
        assert all(len(g.targets) == 1 for fam in plan.families for g in fam.gates)
        assert all(g.unit_angle * hw.gamma > 0 for fam in plan.families for g in fam.gates)

    @pytest.mark.parametrize("hw", [chain_trap(2), LatticeModel(n_sites=4)])
    def test_qubit_count_must_match_the_hardware(self, hw):
        target = Hamiltonian.from_terms(3, [(1.0, "ZZI"), (1.0, "IZZ")])
        with pytest.raises(HardwareConstraintError, match="3 qubits"):
            plan_for_hamiltonian(target, hw)

    def test_cost_report_is_the_schedule_report(self):
        for target, hw in ((dipole_chain(4), LatticeModel(n_sites=4)), (zz(0.7), chain_trap(2))):
            _, report = trotter_schedule(target, 1.3, 0.02, hw)
            assert cost_report(report.time_cost, report.n_controls, report.num_gates,
                               1.3, 0.02) == report

    def test_infeasibility_message_prints_plain_numbers(self):
        res = homogeneous_feasibility(CoeffMatrix(np.diag([-0.5, -0.5, 0.0])), 1.0)
        assert "[-0.5, -0.5]" in res.message


class TestScheduleText:
    def test_round_trip(self):
        target = Hamiltonian.from_terms(2, [(0.6, "ZZ"), (0.3, "XX"), (0.2, "XI"), (0.2, "IX")])
        sched, _ = trotter_schedule(target, 0.5, 0.05, chain_trap(2))
        text = schedule_to_text(sched)
        again = schedule_from_text(text)
        assert schedule_to_text(again) == text and again == sched

    @pytest.mark.parametrize("header", ["cycles=5 cycle_length=3", "cycle_length=2 cycles=1458"])
    def test_header_cycles_must_multiply_to_the_body(self, header):
        text = f"# pulse schedule version=1 n_qubits=2 {header}\nGATE push:0-1 0.1 0-1:1.0\n"
        with pytest.raises(CompileError, match="line 1"):
            schedule_from_text(text)
        body = "GATE push:0-1 0.1 0-1:1.0\n" * 3
        sched = schedule_from_text(f"# n_qubits=2 cycles=3 cycle_length=1\n{body}")
        assert sched == schedule_from_text(f"# n_qubits=2\n{body}")

    def test_parse_error_reports_line(self):
        with pytest.raises(CompileError, match="line 2"):
            schedule_from_text("# pulse schedule n_qubits=2\nGATE zz oops 0-1:1.0\n")

    def test_equal_unitary_tokens_parse_to_one_object(self):
        one = "1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
        flip = "0.0 0.0 1.0 0.0 1.0 0.0 0.0 0.0"
        sched = schedule_from_text(f"# pulse schedule n_qubits=2\nLOCAL H {flip}\n"
                                   f"LOCAL I {one} {flip}\nLOCAL I {flip} {one}\n")
        a, b, c = (ins.layer for ins in sched.instructions)
        assert a.unitary_at(0) is b.unitary_at(1) is c.unitary_at(0)
        assert b.unitary_at(0) is c.unitary_at(1) is not a.unitary_at(0)
        assert np.array_equal(b.unitary_at(0).matrix, np.eye(2))
        # tokens that are no unitary fail where they first stand, each time
        bad = "2.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
        text = f"# pulse schedule n_qubits=2\nLOCAL H {one}\nLOCAL I {one} {bad}\nLOCAL H {bad}\n"
        for _ in range(2):
            with pytest.raises(CompileError, match="line 3: matrix is not unitary"):
                schedule_from_text(text)

    @staticmethod
    def per_qubit_schedule():
        target = Hamiltonian.from_terms(
            3, [(-0.4, "ZZI"), (-0.6, "IZZ"), (0.3, "XII"), (0.5, "IXI"), (0.2, "IIX")]
        )
        sched, _ = trotter_schedule(target, 0.5, 0.05, chain_trap(3), num_cycles=4)
        return sched

    def test_version_2_is_one_cycle_whose_repeats_share_objects(self):
        sched = self.per_qubit_schedule()
        m = len(sched.instructions) // 4
        text = schedule_to_text(sched)
        head, *lines = text.splitlines()
        assert head == f"# pulse schedule version=2 n_qubits=3 cycles=4 cycle_length={m}"
        assert len(lines) == m
        parsed = schedule_from_text(text)
        assert parsed == sched
        assert all(ins is parsed.instructions[i % m] for i, ins in enumerate(parsed.instructions))
        assert schedule_to_text(parsed) == text
        # the version=1 text of the same schedule runs to the same state, bit for bit
        v1 = schedule_from_text(oracles.version_1_text(sched))
        assert v1 == sched
        err = ErrorModel(0.01, 0.02, seed=4)
        runs = [run_schedule(StateVector.zero_state(3), s, err) for s in (parsed, v1)]
        assert runs[0][0].dump_text() == runs[1][0].dump_text()
        assert runs[0][1].to_text() == runs[1][1].to_text()

    def test_a_hand_built_repeat_is_written_as_version_2(self):
        # the period is the instructions', found by identity: the least one
        cycle = self.per_qubit_schedule().instructions[:5]
        text = schedule_to_text(PulseSchedule(3, tuple(cycle) * 12))
        assert text.splitlines()[0] == "# pulse schedule version=2 n_qubits=3 cycles=12 cycle_length=5"
        assert len(text.splitlines()) == 6
        gate = RawGate("zz", 0.25, ((0, 1, 1.0),))
        assert schedule_to_text(PulseSchedule(2, (gate,) * 6)).splitlines() == [
            "# pulse schedule version=2 n_qubits=2 cycles=6 cycle_length=1", "GATE zz 0.25 0-1:1.0"]
        # the first instruction recurs inside the cycle: period 2 fails, 4 holds
        b, c = RawGate("b", 0.5, ((0, 1, 1.0),)), RawGate("c", 0.75, ((0, 1, 1.0),))
        text = schedule_to_text(PulseSchedule(2, (gate, b, gate, c) * 3))
        assert text.splitlines()[0] == "# pulse schedule version=2 n_qubits=2 cycles=3 cycle_length=4"

    def test_one_cycle_is_written_as_version_1(self):
        # one occurrence of a cycle, or one whose lines repeat one gate in distinct objects
        for repeats in (1, 2, 3):
            gates = tuple(RawGate("zz", 0.25, ((0, 1, 1.0),)) for _ in range(repeats))
            assert schedule_to_text(PulseSchedule(2, gates)).splitlines() == (
                ["# pulse schedule version=1 n_qubits=2"] + ["GATE zz 0.25 0-1:1.0"] * repeats)
        sched = self.per_qubit_schedule()
        m = len(sched.instructions) // 4
        one = schedule_to_text(PulseSchedule(3, sched.instructions[:m]))
        assert one.splitlines()[0] == "# pulse schedule version=1 n_qubits=3"
        assert len(one.splitlines()) == m + 1

    @pytest.mark.parametrize("header, problem", [
        ("version=2 n_qubits=2 cycles=3 cycle_length=2", "cycle_length=2 is not the 1 instructions"),
        ("version=2 n_qubits=2 cycles=3", "version=2 needs cycles= and cycle_length="),
        ("version=3 n_qubits=2 cycles=1 cycle_length=1", "version=3 is not 1 or 2"),
        (f"version=2 n_qubits=2 cycles={MAX_INSTRUCTIONS + 1} cycle_length=1",
         f"cycles={MAX_INSTRUCTIONS + 1} times cycle_length=1 is over {MAX_INSTRUCTIONS}"),
    ])
    def test_version_2_header_errors_name_line_1(self, header, problem):
        with pytest.raises(CompileError, match=f"at line 1: {problem}"):
            schedule_from_text(f"# pulse schedule {header}\nGATE zz 0.25 0-1:1.0\n")

    def test_trotter_schedule_over_the_instruction_bound_raises(self):
        target = Hamiltonian.from_terms(2, [(0.6, "ZZ"), (0.2, "XI")])
        for eps in (1e-300, 1e-320):  # L = c^2 t'^2 / eps: huge, then inf
            with pytest.raises(CompileError, match="L"):
                trotter_schedule(target, 1.0, eps, chain_trap(2))
        sched, _ = trotter_schedule(target, 1.0, 0.05, chain_trap(2), num_cycles=2)
        over = MAX_INSTRUCTIONS // (len(sched.instructions) // 2) + 1
        with pytest.raises(CompileError, match="MAX_INSTRUCTIONS"):
            trotter_schedule(target, 1.0, 0.05, chain_trap(2), num_cycles=over)

    def test_repeated_lines_share_one_instruction(self):
        # version=1, every line written out
        text = oracles.version_1_text(self.per_qubit_schedule())
        lines = text.splitlines()[1:]
        assert any(line.startswith("LOCAL I ") for line in lines)
        assert len(set(lines)) < len(lines)
        parsed = schedule_from_text(text)
        by_line: dict[str, int] = {}
        for line, ins in zip(lines, parsed.instructions):
            assert by_line.setdefault(line, id(ins)) == id(ins)
        assert len({id(ins) for ins in parsed.instructions}) == len(set(lines))
        # the one exception to an exact text round trip: the shared objects
        # repeat as a cycle, so this version 1 text is written back as
        # version 2, and that text is a fixed point of reading and writing
        again = schedule_to_text(parsed)
        assert again != text and again == schedule_to_text(self.per_qubit_schedule())
        assert schedule_to_text(schedule_from_text(again)) == again
        # the same holds for two equal lines: one object, twice
        two = f"# pulse schedule version=1 n_qubits=1\nLOCAL H {IDENTITY_8}\nLOCAL H {IDENTITY_8}\n"
        assert schedule_to_text(schedule_from_text(two)) == (
            f"# pulse schedule version=2 n_qubits=1 cycles=2 cycle_length=1\nLOCAL H {IDENTITY_8}\n")
        # a version 1 text whose lines all differ is written back unchanged
        distinct = "# pulse schedule version=1 n_qubits=2\n" + "".join(
            f"GATE zz {theta} 0-1:1.0\n" for theta in (0.25, 0.5, 0.75))
        assert schedule_to_text(schedule_from_text(distinct)) == distinct

    def test_parse_and_lowering_run_once_per_distinct_line(self, monkeypatch):
        text = schedule_to_text(self.per_qubit_schedule())
        local_lines = {line for line in text.splitlines() if line.startswith("LOCAL")}
        n_qubits = 3
        real_init = SingleQubitUnitary.__init__
        units = []

        def counting_init(self, *args, **kwargs):
            units.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SingleQubitUnitary, "__init__", counting_init)
        parsed = schedule_from_text(text)
        monkeypatch.setattr(SingleQubitUnitary, "__init__", real_init)
        assert 0 < len(units) <= len(local_lines) * n_qubits

        real_from_layer = LoweredLayer.from_layer
        lowered = []

        def counting_from_layer(layer, n):
            lowered.append(layer)
            return real_from_layer(layer, n)

        monkeypatch.setattr(LoweredLayer, "from_layer", staticmethod(counting_from_layer))
        run_schedule(StateVector.zero_state(n_qubits), parsed, ErrorModel(0.01, 0.01, seed=3))
        assert len(lowered) == len(local_lines)

    def test_repeated_malformed_line_reports_first_occurrence(self):
        gate = "GATE zz 0.25 0-1:1.0"
        bad = "GATE zz 0.25 0-1:oops"
        text = "\n".join(["# pulse schedule n_qubits=2", gate, bad, gate, bad]) + "\n"
        with pytest.raises(CompileError, match="at line 3:"):
            schedule_from_text(text)

    def test_repeated_out_of_range_gate_reports_first_occurrence(self):
        gate = "GATE zz 0.25 0-1:1.0"
        far = "GATE zz 0.25 0-5:1.0"
        text = "\n".join([gate, far, gate, far, "# pulse schedule n_qubits=2"]) + "\n"
        with pytest.raises(CompileError, match="at line 2: gate qubits 0-5 out of range"):
            schedule_from_text(text)

    @pytest.mark.parametrize("field", ["n_qubits=abc", "cycles=x", "cycle_length=1.5",
                                       "n_qubits=1_0", "n_qubits=\u0663", "n_qubits=+2",
                                       "n_qubits=", "n_qubits=2 n_qubits=3", "cycles=1 cycles=2"])
    def test_non_integer_header_field_is_a_parse_error(self, field):
        with pytest.raises(CompileError, match="line 2:"):
            schedule_from_text(f"\n# pulse schedule {field}\nGATE zz 0.25 0-1:1.0\n")

    def test_header_fields_are_whole_tokens_and_repeats_agree(self):
        gate = "GATE zz 0.25 0-1:1.0\n"
        sched = schedule_from_text(f"# max_n_qubits=9 n_qubits=3\n{gate}# n_qubits=3\n")
        assert sched.n_qubits == 3
        with pytest.raises(CompileError, match="line 3: n_qubits=2, expected 3"):
            schedule_from_text(f"# n_qubits=3\n{gate}# n_qubits=2\n")

    @pytest.mark.parametrize("field", ["cycles=-2 cycle_length=-1", "cycle_length=0",
                                       "cycle_length=-5", "cycles=0", "cycles=-7"])
    def test_header_cycle_field_below_one_is_a_parse_error(self, field):
        # two gates: -2 times -1 would match the body
        with pytest.raises(CompileError, match=f"line 2: {field.split()[0]} is below 1"):
            schedule_from_text(f"\n# pulse schedule {field}\n" + "GATE zz 0.25 0-1:1.0\n" * 2)

    @pytest.mark.parametrize("n", [0, STATEVECTOR_CAP + 1, 99])
    def test_header_n_qubits_outside_the_cap_is_rejected(self, n):
        with pytest.raises(CompileError, match=f"n_qubits={n}, outside 1..{STATEVECTOR_CAP}"):
            schedule_from_text(f"# pulse schedule n_qubits={n}\nGATE zz 0.25 0-1:1.0\n")

    def test_inferred_n_qubits_outside_the_cap_is_rejected(self):
        with pytest.raises(CompileError, match="outside 1.."):
            schedule_from_text("GATE zz 0.25 0-99:1.0\n")

    @pytest.mark.parametrize("header", ["n_qubits=abc", "n_qubits=30", "cycles=0",
                                        "n_qubits=1_0"])
    def test_bad_header_exits_1_through_main(self, tmp_path, header):
        (tmp_path / "s.txt").write_text(f"# pulse schedule {header}\nGATE zz 0.25 0-1:1.0\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("[simulate]\nschedule = s.txt\n")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out" / "state.txt").exists()


FUZZ = settings(max_examples=60)
ANGLES = st.floats(-8.0, 8.0, allow_nan=False)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
EXACT_UNITARIES = [
    SingleQubitUnitary.identity(),
    SingleQubitUnitary.quarter_turn("x"),
    SingleQubitUnitary.quarter_turn("y", inverse=True),
    SingleQubitUnitary.pauli_flip("z"),
]


@st.composite
def unitaries(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(EXACT_UNITARIES))
    t, phi, lam = draw(ANGLES), draw(ANGLES), draw(ANGLES)
    c, s = math.cos(t), math.sin(t)
    return SingleQubitUnitary(np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ]))


@st.composite
def instructions(draw, n):
    kind = draw(st.sampled_from(["H", "I", "GATE"] if n > 1 else ["H", "I"]))
    if kind == "H":
        return ApplyLocal(LocalLayer.homogeneous(draw(unitaries())))
    if kind == "I":
        return ApplyLocal(LocalLayer.inhomogeneous([draw(unitaries()) for _ in range(n)]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    targets = draw(st.lists(st.tuples(pairs, NUMBERS), min_size=1, max_size=3))
    gate_id = draw(st.sampled_from(["zz", "push:0-1", "g7"]))
    return RawGate(gate_id, draw(NUMBERS), tuple((a, b, w) for (a, b), w in targets))


@st.composite
def repeated_schedules(draw):
    n = draw(st.integers(1, 4))
    cycle = draw(st.lists(instructions(n), min_size=1, max_size=5))
    repeats = draw(st.integers(1, 4))
    return PulseSchedule(n, tuple(cycle) * repeats), len(cycle), repeats


IDENTITY_8 = "1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
BASE_TEXT = [
    "# pulse schedule version=1 n_qubits=2 cycles=2 cycle_length=2",
    f"LOCAL I {IDENTITY_8} {IDENTITY_8}",
    "GATE zz 0.25 0-1:1.0",
    f"LOCAL I {IDENTITY_8} {IDENTITY_8}",
    "GATE zz 0.25 0-1:1.0",
]
TOKENS = st.sampled_from([
    "#", "LOCAL", "GATE", "H", "I", "n_qubits=2", "n_qubits=abc", "n_qubits=0",
    "n_qubits=99", "cycles=x", "cycle_length=1.5", "cycles=0", "cycle_length=-1",
    "0-1:1.0", "0-0:1.0", "0-7:1.0", "-1-2:1.0", "0-1", "0-1:nan", "1-0:inf", ":", "-",
    "=", "nan", "inf", "-inf",
    "1e999", "0.0", "-0.0", "1.0", "0.7071067811865476", "zz", "",
]) | st.text(max_size=6)


def parses_or_compile_error(text: str) -> None:
    try:
        schedule_from_text(text)
    except CompileError:
        pass


class TestScheduleTextFuzz:
    @FUZZ
    @given(repeated_schedules())
    def test_valid_schedules_round_trip(self, drawn):
        # a drawn cycle's instructions are distinct objects, so the
        # schedule's least period is the cycle
        sched, m, repeats = drawn
        text = schedule_to_text(sched)
        period = f" cycles={repeats} cycle_length={m}" if repeats > 1 else ""
        assert text.splitlines()[0] == (f"# pulse schedule version={1 + bool(period)} "
                                        f"n_qubits={sched.n_qubits}{period}")
        parsed = schedule_from_text(text)
        assert parsed == sched
        lines = text.splitlines()[1:]  # the drawn cycle's lines
        assert len({id(ins) for ins in parsed.instructions}) == len(set(lines))
        again = schedule_to_text(parsed)
        if len(set(lines)) == len(lines):
            # distinct lines read back as distinct objects: the period holds
            assert again == text
        # equal lines share one object, which may shorten the period once;
        # the rewritten text is then a fixed point
        assert schedule_to_text(schedule_from_text(again)) == again
        assert schedule_from_text(again) == sched

    @FUZZ
    @given(st.data())
    def test_mutated_schedules_raise_only_compile_error(self, data):
        lines = [line.split(" ") for line in BASE_TEXT]
        for _ in range(data.draw(st.integers(1, 3))):
            row = lines[data.draw(st.integers(0, len(lines) - 1))]
            pos = data.draw(st.integers(0, len(row)))
            op = data.draw(st.sampled_from(["replace", "insert", "delete", "line"]))
            if op == "line":
                lines.insert(pos % len(lines), data.draw(st.lists(TOKENS, max_size=4)))
            elif op == "insert" or not row:
                row.insert(pos, data.draw(TOKENS))
            elif op == "replace":
                row[pos % len(row)] = data.draw(TOKENS)
            else:
                del row[pos % len(row)]
        parses_or_compile_error("\n".join(" ".join(row) for row in lines) + "\n")

    @FUZZ
    @given(st.lists(st.lists(TOKENS, max_size=6), max_size=6))
    def test_garbage_raises_only_compile_error(self, rows):
        parses_or_compile_error("\n".join(" ".join(row) for row in rows))


class TestThreeBodyGate:
    def test_generator_direction_and_coefficient(self):
        h1 = Hamiltonian.from_terms(3, [(1.0, "IZZ")])
        h2 = Hamiltonian.from_terms(3, [(1.0, "XXI")])
        gate = three_body_gate(h1, h2, 0.05)
        assert len(gate.generator.terms) == 1
        assert gate.generator.terms[0].ops == "XYZ"
        assert gate.generator.terms[0].coeff == pytest.approx(2.0, abs=1e-14)
        assert gate.effective_time == pytest.approx(0.05**2)

    def test_commuting_inputs_give_identity(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        gate = three_body_gate(h, h, 0.1)
        u = np.eye(4, dtype=complex)
        for hseg, angle in gate.segments:
            u = oracles.evolve(hseg.to_matrix(), angle) @ u
        assert oracles.op_distance(u, np.eye(4)) < 1e-12
        assert gate.generator.terms == ()

    def test_cubic_remainder_scaling(self):
        h1 = Hamiltonian.from_terms(3, [(1.0, "IZZ")])
        h2 = Hamiltonian.from_terms(3, [(1.0, "XXI")])
        d1 = oracles.kron_string("IZZ")
        d2 = oracles.kron_string("XXI")
        comm = d1 @ d2 - d2 @ d1
        devs = []
        for theta in (0.05, 0.025):
            gate = three_body_gate(h1, h2, theta)
            u = np.eye(8, dtype=complex)
            for hseg, angle in gate.segments:
                u = oracles.evolve(hseg.to_matrix(), angle) @ u
            expect = oracles.expm(comm * theta * theta)
            devs.append(oracles.op_distance(u, expect))
        ratio = devs[0] / devs[1]
        assert 6.0 <= ratio <= 10.0

    def test_rejects_many_body_inputs(self):
        h1 = Hamiltonian.from_terms(3, [(1.0, "ZZZ")])
        h2 = Hamiltonian.from_terms(3, [(1.0, "XXI")])
        with pytest.raises(CompileError):
            three_body_gate(h1, h2, 0.1)


class TestDecouplingEcho:
    def dense_sequence(self, echo):
        n = echo.raw.n_qubits
        u = np.eye(2**n, dtype=complex)
        for seg in echo.segments:
            if seg[0] == "evolve":
                u = oracles.evolve(seg[1].to_matrix(), seg[2]) @ u
            else:
                layer = seg[1]
                mats = [layer.unitary_at(q).matrix for q in range(n)]
                u = oracles.local_layer_matrix(mats) @ u
        return u

    def test_cancels_local_z_exactly(self):
        raw = Hamiltonian.from_terms(2, [(1.0, "ZI"), (1.0, "ZZ")])
        echo = decoupling_echo(raw, 0.3)
        got = self.dense_sequence(echo)
        expect = oracles.evolve(oracles.kron_string("ZZ"), 0.6)
        assert oracles.op_distance(got, expect) < 1e-12
        # engine-level expansion agrees
        sched = echo.to_schedule()
        assert oracles.op_distance(schedule_unitary(sched), expect) < 1e-12

    def test_no_local_part_doubles_gate(self):
        raw = Hamiltonian.from_terms(2, [(0.7, "ZZ")])
        echo = decoupling_echo(raw, 0.25)
        got = self.dense_sequence(echo)
        expect = oracles.evolve(0.7 * oracles.kron_string("ZZ"), 0.5)
        assert oracles.op_distance(got, expect) < 1e-12

    def test_pure_local_cancels_to_identity(self):
        raw = Hamiltonian.from_terms(3, [(0.5, "ZII"), (-0.2, "IZI"), (1.1, "IIZ")])
        echo = decoupling_echo(raw, 0.4)
        got = self.dense_sequence(echo)
        assert oracles.op_distance(got, np.eye(8)) < 1e-12

    def test_non_z_terms_rejected(self):
        raw = Hamiltonian.from_terms(2, [(1.0, "XZ")])
        with pytest.raises(CompileError):
            decoupling_echo(raw, 0.1)


class TestMagneticFieldLayer:
    def test_field_angles_read_the_plans_field_axes(self):
        # norms and axes are computed once per plan; each dt only scales them
        fields = ((0.3, 0.0, 0.1), (0.0, 0.0, 0.0), (0.2, -0.4, 0.0))
        plan = CyclePlan(3, (), fields, homogeneous_locals=False)
        assert plan.field_axes is plan.field_axes
        with pytest.raises(ValueError):
            plan.field_axes[1][0, 0] = 1.0
        for dt in (0.37, -1.5):
            theta, axes = field_angles(plan, dt)
            for q, (bx, by, bz) in enumerate(fields):
                nm = math.sqrt(bx * bx + by * by + bz * bz)
                axis = (bx / nm, by / nm, bz / nm) if nm > 0 else (0.0, 0.0, 1.0)
                assert theta[q] == nm * dt and tuple(axes[q]) == axis
        assert CyclePlan(3, (), None).field_axes is None
