import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uqsim import kernels, oracle
from uqsim.compiler import ApplyLocal, CompileError, PulseSchedule, RawGate
from uqsim.engine import (
    EngineError,
    ErrorModel,
    StateFormatError,
    StateVector,
    expectation,
    expectation_energy,
    fidelity,
    parse_observable,
    run_schedule,
    subspace_fidelity,
)
from uqsim.oracle import SpectrumCache, exact_evolve, ground_state
from uqsim.pauli import Hamiltonian, LocalLayer, PauliString, SingleQubitUnitary


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


class TestKernels:
    def test_single_qubit_matches_dense(self):
        n = 4
        state = random_state(n, 3)
        u = SingleQubitUnitary.rot((0.6, 0.0, 0.8), 0.7)
        for q in range(n):
            got = state.amps.copy()
            kernels.apply_single_qubit(got, q, u.matrix)
            mats = [np.eye(2)] * n
            mats[q] = u.matrix
            dense = oracles.local_layer_matrix(mats)
            np.testing.assert_allclose(got, dense @ state.amps, atol=1e-12)

    def test_zz_phase_matches_dense(self):
        n = 3
        state = random_state(n, 4)
        theta = 0.43
        got = state.amps.copy()
        kernels.apply_zz_phase(got, 0, 2, theta)
        gen = oracles.kron_string("ZIZ")
        dense = oracles.evolve(gen, theta)
        np.testing.assert_allclose(got, dense @ state.amps, atol=1e-12)

    @staticmethod
    def batch(n, rows):
        return np.array([random_state(n, 20 + r).amps for r in range(rows)])

    @pytest.mark.parametrize("per_row", [False, True])
    def test_single_qubit_batch(self, per_row):
        n, rows = 4, 3
        amps = self.batch(n, rows)
        us = np.array([SingleQubitUnitary.rot((0.6, 0.0, 0.8), 0.3 + 0.4 * r).matrix
                       for r in range(rows)])
        u = us if per_row else us[1]
        for q in range(n):
            got = amps.copy()
            kernels.apply_single_qubit(got, q, u)
            for r in range(rows):
                mats = [np.eye(2)] * n
                mats[q] = us[r] if per_row else u
                dense = oracles.local_layer_matrix(mats)
                np.testing.assert_allclose(got[r], dense @ amps[r], atol=1e-12)

    def test_zz_phase_batch(self):
        n, rows = 3, 3
        amps = self.batch(n, rows)
        got = amps.copy()
        kernels.apply_zz_phase(got, 1, 2, -0.37)
        dense = oracles.evolve(oracles.kron_string("IZZ"), -0.37)
        for r in range(rows):
            np.testing.assert_allclose(got[r], dense @ amps[r], atol=1e-12)

    @staticmethod
    def block_positions(n):
        """(lo, k) of blocks at qubit 0, at the top and, at n=9, in the middle."""
        k = min(n, 4)
        out = {(0, k), (n - k, k)}
        if n == 9:
            out.add((3, 3))
        return sorted(out)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_matches_dense(self, n, per_row):
        rows = 3
        amps = self.batch(n, rows)
        rng = np.random.default_rng(n)
        for lo, k in self.block_positions(n):
            # per qubit of the block, one unitary per row
            us = [np.array([np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                            for _ in range(rows)]) for _ in range(k)]
            if not per_row:
                us = [u[0] for u in us]
            block = np.array([oracles.local_layer_matrix([u[r] for u in us]) for r in range(rows)]
                             if per_row else oracles.local_layer_matrix(us))
            got = amps.copy()
            oracles.apply_block(got, lo, block)
            for r in range(rows):
                mats = [np.eye(2)] * n
                mats[lo:lo + k] = [u[r] for u in us] if per_row else us
                dense = oracles.local_layer_matrix(mats)
                np.testing.assert_allclose(got[r], dense @ amps[r], atol=1e-12)
            if not per_row:  # a single state (2^n,)
                one = amps[0].copy()
                oracles.apply_block(one, lo, block)
                np.testing.assert_allclose(one, got[0], atol=1e-12)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_block_into_out_matches_in_place(self, n, per_row):
        # FusedCycle.execute writes each block's product into the views of
        # a second buffer (np.matmul(..., out=)): that is the in-place
        # result bit for bit, at qubit 0 and above it, and amps is left as
        # it was
        rows = 3
        amps = self.batch(n, rows)
        rng = np.random.default_rng(n)
        for lo, k in self.block_positions(n):
            shape = (rows, 2**k, 2**k) if per_row else (2**k, 2**k)
            block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            in_place, source, out = amps.copy(), amps.copy(), np.full_like(amps, np.nan)
            oracles.apply_block(in_place, lo, block)
            view, op = kernels.block_view(source, lo, k), kernels.block_operand(block, lo)
            target = kernels.block_view(out, lo, k)
            np.matmul(view, op, out=target) if lo == 0 else np.matmul(op, view, out=target)
            assert out.tobytes() == in_place.tobytes()
            assert source.tobytes() == amps.tobytes()


def run_one(state, ins, err=None):
    """The state after a one-instruction schedule, as run_schedule runs it."""
    return run_schedule(state, PulseSchedule(state.n_qubits, (ins,)), err)[0]


def zz_gate(gates):
    return RawGate("zz", 1.0, tuple(gates))


class TestApplyLocalLayer:
    def test_identity(self):
        s = random_state(3)
        out = run_one(s, ApplyLocal(LocalLayer.identity()))
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_x_layer_flips_all(self):
        s = StateVector.zero_state(3)
        layer = LocalLayer.homogeneous(SingleQubitUnitary.rot((1, 0, 0), math.pi / 2))
        out = run_one(s, ApplyLocal(layer))
        probs = np.abs(out.amps) ** 2
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_eta_bit_identical_to_no_error(self):
        s = random_state(4, 7)
        ins = ApplyLocal(LocalLayer.homogeneous(SingleQubitUnitary.rot((0, 0, 1), 0.4)))
        clean = run_one(s, ins, err=None)
        noisy = run_one(s, ins, err=ErrorModel(0.0, 0.0, seed=1))
        np.testing.assert_array_equal(clean.amps, noisy.amps)

    def test_norm_preserved_with_noise(self):
        s = random_state(4, 8)
        ins = ApplyLocal(LocalLayer.homogeneous(SingleQubitUnitary.rot((1, 0, 0), 1.1)))
        out = run_one(s, ins, err=ErrorModel(eta_local=0.05, seed=3))
        assert not np.array_equal(out.amps, run_one(s, ins).amps)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestApplyZZ:
    def test_zero_angle_identity(self):
        s = random_state(2)
        out = run_one(s, zz_gate([(0, 1, 0.0)]))
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_parity_rule(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)  # |00> + |11>
        s = StateVector(2, amps)
        out = run_one(s, zz_gate([(0, 1, math.pi / 4)]))
        expect = np.exp(-1j * math.pi / 4)
        assert out.amps[0] / s.amps[0] == pytest.approx(expect, abs=1e-12)
        assert out.amps[3] / s.amps[3] == pytest.approx(expect, abs=1e-12)

    def test_chain_matches_dense_exponential(self):
        # 1/d^3 chain couplings on 3 qubits vs dense matrix exponential
        s = random_state(3, 12)
        gates = [(0, 1, 0.3), (1, 2, 0.3), (0, 2, 0.3 / 8)]
        out = run_one(s, zz_gate(gates))
        gen = oracles.dense_hamiltonian(
            3, [(0.3, "ZZI"), (0.3, "IZZ"), (0.3 / 8, "ZIZ")]
        )
        expect = oracles.expm(-1j * gen) @ s.amps
        np.testing.assert_allclose(out.amps, expect, atol=1e-10)

    def test_gate_order_irrelevant(self):
        s = random_state(4, 13)
        gates = [(0, 1, 0.2), (2, 3, 0.7), (1, 2, -0.4)]
        a = run_one(s, zz_gate(gates))
        b = run_one(s, zz_gate(reversed(gates)))
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)

    def test_identical_qubits_rejected(self):
        with pytest.raises(CompileError, match="identical qubit 1"):
            zz_gate([(0, 2, 0.3), (1, 1, 0.1)])


class TestRunSchedule:
    def test_empty_schedule(self):
        s = random_state(3)
        out, log = run_schedule(s, PulseSchedule(3, ()))
        np.testing.assert_array_equal(out.amps, s.amps)
        assert log.to_text() == "# execution log rng=numpy-PCG64 seed=None version=2\n"
        assert oracles.log_entries(log.to_text()) == []

    def test_determinism_same_seed(self):
        s = random_state(3, 1)
        layer = LocalLayer.homogeneous(SingleQubitUnitary.rot((1, 0, 0), 0.3))
        sched = PulseSchedule(3, (
            ApplyLocal(layer),
            RawGate("zz", 0.21, ((0, 1, 1.0), (1, 2, 1.0))),
            ApplyLocal(layer),
        ))
        err = ErrorModel(eta_local=0.02, eta_int=0.01, seed=42)
        out1, log1 = run_schedule(s, sched, err)
        out2, log2 = run_schedule(s, sched, err)
        np.testing.assert_array_equal(out1.amps, out2.amps)
        assert log1.to_text() == log2.to_text()

    def test_different_seed_differs(self):
        s = random_state(3, 1)
        sched = PulseSchedule(3, (
            ApplyLocal(LocalLayer.homogeneous(SingleQubitUnitary.rot((1, 0, 0), 0.3))),
        ))
        a, _ = run_schedule(s, sched, ErrorModel(eta_local=0.05, seed=1))
        b, _ = run_schedule(s, sched, ErrorModel(eta_local=0.05, seed=2))
        assert not np.array_equal(a.amps, b.amps)

    def test_log_draw_counts(self):
        s = random_state(2, 1)
        sched = PulseSchedule(2, (
            ApplyLocal(LocalLayer.identity()),
            RawGate("zz", 0.1, ((0, 1, 1.0),)),
        ))
        _, log = run_schedule(s, sched, ErrorModel(eta_local=0.01, eta_int=0.01, seed=5))
        text = log.to_text()
        (kind0, row0), (kind1, row1) = oracles.log_entries(text)
        # one delta drawn per qubit, none logged: no qubit is active
        assert kind0 == "local" and row0 == []
        assert kind1 == "gate" and len(row1) == 1  # one delta per gate entry
        assert "numpy-PCG64" in text and "seed=5" in text

    def test_log_text_values_are_the_applied_draws(self):
        layer = LocalLayer.homogeneous(SingleQubitUnitary.rot((0, 1, 0), 0.4))
        sched = PulseSchedule(3, (
            ApplyLocal(layer),
            RawGate("zz", 0.2, ((0, 1, 1.0), (1, 2, 0.5))),
            ApplyLocal(LocalLayer.identity()),
            RawGate("zz", 0.3, ((0, 2, 1.0),)),
        ))
        err = ErrorModel(eta_local=0.02, eta_int=0.007, seed=13)
        _, log = run_schedule(random_state(3, 2), sched, err)
        rng = np.random.Generator(np.random.PCG64(13))
        entries = oracles.log_entries(log.to_text())
        assert len(entries) == len(sched.instructions)
        for (kind, values), ins in zip(entries, sched.instructions):
            eta = err.eta_local if kind == "local" else err.eta_int
            size = 3 if isinstance(ins, ApplyLocal) else len(ins.targets)
            drawn = rng.uniform(-eta, eta, size=size).tolist()
            # the identity layer draws three values and logs none
            assert values == ([] if ins is sched.instructions[2] else drawn)

    def test_missing_seed_rejected(self):
        with pytest.raises(EngineError):
            ErrorModel(eta_local=0.01)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "1"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(EngineError, match="non-negative integer"):
            ErrorModel(eta_local=0.01, seed=seed)
        with pytest.raises(EngineError, match="non-negative integer"):
            ErrorModel(seed=seed)
        assert ErrorModel(eta_local=0.01, seed=0).seed == 0


class TestExactEvolve:
    def test_t_zero(self):
        s = random_state(3, 2)
        h = Hamiltonian.from_terms(3, [(1.0, "ZZI"), (0.5, "IXX")])
        out = exact_evolve(h, 0.0, s)
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-12)

    def test_single_qubit_z(self):
        s = StateVector(1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        h = Hamiltonian.from_terms(1, [(1.0, "Z")])
        out = exact_evolve(h, math.pi / 2, s)
        np.testing.assert_allclose(
            out.amps,
            [np.exp(-1j * math.pi / 2) / math.sqrt(2), np.exp(1j * math.pi / 2) / math.sqrt(2)],
            atol=1e-12,
        )

    def test_heisenberg_phases(self):
        # singlet has eigenvalue -3J, triplets +J
        j = 0.7
        h = Hamiltonian.from_terms(2, [(j, "XX"), (j, "YY"), (j, "ZZ")])
        singlet = StateVector(2, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0])
        out = exact_evolve(h, 1.0, singlet)
        np.testing.assert_allclose(out.amps, np.exp(3j * j) * singlet.amps, atol=1e-10)
        triplet = StateVector(2, [1, 0, 0, 0])
        out_t = exact_evolve(h, 1.0, triplet)
        np.testing.assert_allclose(out_t.amps, np.exp(-1j * j) * triplet.amps, atol=1e-10)

    def test_matches_scipy_expm(self):
        s = random_state(3, 9)
        terms = [(0.4, "ZZI"), (-0.2, "XIX"), (0.9, "IYY"), (0.3, "XII")]
        h = Hamiltonian.from_terms(3, terms)
        out = exact_evolve(h, 0.83, s)
        dense = oracles.evolve(oracles.dense_hamiltonian(3, terms), 0.83)
        np.testing.assert_allclose(out.amps, dense @ s.amps, atol=1e-10)

    def test_group_law(self):
        s = random_state(2, 3)
        h = Hamiltonian.from_terms(2, [(1.0, "XY"), (0.2, "ZI")])
        a = exact_evolve(h, 0.4, exact_evolve(h, 0.6, s))
        b = exact_evolve(h, 1.0, s)
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-9)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        h = Hamiltonian.from_terms(2, [(1.0, "XY"), (0.2, "ZI")])
        with pytest.raises(EngineError, match="not finite"):
            exact_evolve(h, t, random_state(2, 3))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "DENSE_CAP", 2)
        h = Hamiltonian.from_terms(3, [(1.0, "ZZZ")])
        with pytest.raises(EngineError):
            exact_evolve(h, 1.0, random_state(3))


class TestGroundState:
    def test_uniform_field_polarizes(self):
        # With Z|1> = -|1>, the ground state of +sum Z_a is |11...1> at -N.
        n = 3
        h = Hamiltonian.from_terms(n, [(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")])
        gs = ground_state(h)
        assert gs.energy == pytest.approx(-n, abs=1e-12)
        assert gs.degeneracy == 1
        assert abs(gs.state.amps[-1]) == pytest.approx(1.0, abs=1e-9)
        flipped = ground_state(h.scaled(-1.0))
        assert abs(flipped.state.amps[0]) == pytest.approx(1.0, abs=1e-9)

    def test_antialigned_degenerate(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        gs = ground_state(h)
        assert gs.energy == pytest.approx(-1.0, abs=1e-12)
        assert gs.degeneracy == 2

    def test_heisenberg_against_dense(self):
        j = 1.0
        h = Hamiltonian.from_terms(2, [(-j / 2, "XX"), (-j / 2, "YY"), (-j / 2, "ZZ")])
        gs = ground_state(h)
        evals = np.linalg.eigvalsh(oracles.dense_hamiltonian(
            2, [(-j / 2, "XX"), (-j / 2, "YY"), (-j / 2, "ZZ")]
        ))
        assert gs.energy == pytest.approx(evals[0], abs=1e-12)

    def test_representative_is_deterministic(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        a = ground_state(h).state.amps
        b = ground_state(h).state.amps
        np.testing.assert_array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a[k].imag == pytest.approx(0.0, abs=1e-12) and a[k].real > 0


class TestFidelity:
    def test_self(self):
        s = random_state(3, 1)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = StateVector(1, [1, 0])
        b = StateVector(1, [0, 1])
        assert fidelity(a, b) == 0.0

    def test_phase_invariance_and_symmetry(self):
        s = random_state(3, 2)
        t = StateVector(3, np.exp(1j * 0.7) * s.amps)
        assert fidelity(s, t) == pytest.approx(1.0, abs=1e-12)
        u = random_state(3, 5)
        assert fidelity(s, u) == pytest.approx(fidelity(u, s), abs=1e-13)

    def test_subspace(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        spec = SpectrumCache.from_hamiltonian(h)
        basis = spec.group_basis(0)
        psi = StateVector(2, [0, 1, 0, 0])
        assert subspace_fidelity(psi, basis) == pytest.approx(1.0, abs=1e-10)


class TestSpectrumAndHistogram:
    def test_grouping(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        spec = SpectrumCache.from_hamiltonian(h)
        assert len(spec.groups) == 2
        assert spec.groups[0][1] - spec.groups[0][0] == 2

    def test_orthonormal_eigenvectors(self):
        h = Hamiltonian.from_terms(3, [(0.3, "ZZI"), (0.4, "IXX"), (0.1, "YIY")])
        spec = SpectrumCache.from_hamiltonian(h)
        assert sum(v.shape[0] * v.shape[1] for v in spec.eigenvectors) == 8
        for v in spec.eigenvectors:
            gram = np.swapaxes(v.conj(), -1, -2) @ v
            assert np.max(np.abs(gram - np.eye(v.shape[-1]))) < 1e-9

    def test_ground_vector_weight(self):
        h = Hamiltonian.from_terms(2, [(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")])
        gs = ground_state(h)
        hist = SpectrumCache.from_hamiltonian(h).histogram(gs.state)
        assert hist[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_superposition_of_degenerate_space(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        psi = StateVector(2, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        hist = SpectrumCache.from_hamiltonian(h).histogram(psi)
        assert hist[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_weights_sum_to_one(self):
        h = Hamiltonian.from_terms(3, [(0.3, "ZZI"), (0.4, "IXX")])
        s = random_state(3, 17)
        hist = SpectrumCache.from_hamiltonian(h).histogram(s)
        assert sum(w for _, w in hist) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= -1e-12 for _, w in hist)


class TestObservables:
    @pytest.mark.parametrize("seed", range(12))
    def test_expectation_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        state = random_state(n, 100 + seed)
        terms = []
        for _ in range(5):
            ops = "".join(rng.choice(list("IXYZ"), size=n))
            coeff = float(rng.normal())
            dense = oracles.kron_string(ops, coeff)
            expect = np.real(np.vdot(state.amps, dense @ state.amps))
            assert expectation(state, PauliString(ops, coeff)) == pytest.approx(expect, abs=1e-12)
            terms.append((coeff, ops))
        h = Hamiltonian.from_terms(n, terms)
        expect = np.real(np.vdot(state.amps, oracles.dense_hamiltonian(
            n, [(t.coeff, t.ops) for t in h.terms]) @ state.amps))
        assert expectation_energy(state, h) == pytest.approx(expect, abs=1e-12)

    def test_z_on_zero(self):
        s = StateVector.zero_state(1)
        assert expectation(s, PauliString("Z")) == pytest.approx(1.0, abs=1e-12)

    def test_zz_on_bell_like(self):
        psi = StateVector(2, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        assert expectation(psi, PauliString("ZZ")) == pytest.approx(-1.0, abs=1e-12)

    def test_xx_matches_dense(self):
        s = random_state(2, 21)
        val = expectation(s, PauliString("XX"))
        dense = oracles.kron_string("XX")
        expect = np.real(np.vdot(s.amps, dense @ s.amps))
        assert val == pytest.approx(expect, abs=1e-12)

    def test_parse_and_menu(self):
        s = StateVector.zero_state(2)
        vals = {spec: expectation(s, parse_observable(spec, 2)) for spec in ["Z0", "Z1", "Z0Z1"]}
        assert vals["Z0"] == pytest.approx(1.0)
        assert vals["Z0Z1"] == pytest.approx(1.0)
        with pytest.raises(EngineError):
            parse_observable("Q3", 4)
        with pytest.raises(EngineError):
            parse_observable("Z9", 2)

    def test_energy_term_sum(self):
        terms = [(0.4, "ZZ"), (-0.3, "XI")]
        h = Hamiltonian.from_terms(2, terms)
        s = random_state(2, 30)
        dense = oracles.dense_hamiltonian(2, terms)
        assert expectation_energy(s, h) == pytest.approx(
            float(np.real(np.vdot(s.amps, dense @ s.amps))), abs=1e-12
        )


class TestDumpFormat:
    def test_round_trip(self):
        s = random_state(3, 40)
        again = StateVector.load_text(s.dump_text())
        np.testing.assert_array_equal(again.amps, s.amps)

    @pytest.mark.parametrize("line, message", [
        ("-1 1.0 0.0", "index -1"),
        ("4 1.0 0.0", "index 4"),
        ("0 nan 0.0", "non-finite"),
        ("0 1.0 inf", "non-finite"),
        ("x 1.0 0.0", "invalid literal"),
    ])
    def test_bad_entry_is_a_parse_error_with_its_line(self, line, message):
        text = f"# statevector n_qubits=2 endian=little norm=1.0\n{line}\n"
        with pytest.raises(StateFormatError, match=f"line 2: .*{message}"):
            StateVector.load_text(text)

    def test_duplicate_index_rejected(self):
        text = "# statevector n_qubits=1\n0 0.6 0.0\n1 0.8 0.0\n0 0.6 0.0\n"
        with pytest.raises(StateFormatError, match="line 4: index 0 given twice"):
            StateVector.load_text(text)

    def test_unnormalised_dump_rejected(self):
        text = "# statevector n_qubits=1\n0 3.0 0.0\n"
        with pytest.raises(StateFormatError, match="norm"):
            StateVector.load_text(text)

    def test_qubit_count_outside_cap_rejected(self):
        with pytest.raises(StateFormatError, match="n_qubits=60"):
            StateVector.load_text("# statevector n_qubits=60\n0 1.0 0.0\n")

    def test_header_beyond_the_int_digit_limit_is_a_parse_error(self):
        with pytest.raises(StateFormatError, match="bad n_qubits"):
            StateVector.load_text("# statevector n_qubits=" + "9" * 5000 + "\n0 1.0 0.0\n")

    @pytest.mark.parametrize("header, message", [
        ("# statevector n_qubits=2\n# n_qubits=1", "line 2: n_qubits=1, expected 2"),
        ("# statevector n_qubits=1_0", "line 1: bad n_qubits '1_0'"),
        ("# statevector n_qubits=\u0663", "line 1: bad n_qubits"),
        ("# statevector n_qubits=-1", "line 1: n_qubits=-1 outside 1.."),
        ("# statevector max_n_qubits=1", "missing n_qubits header"),
    ], ids=["repeat", "underscore", "non-ascii-digit", "negative", "whole-token"])
    def test_bad_header_is_a_parse_error(self, header, message):
        with pytest.raises(StateFormatError, match=message):
            StateVector.load_text(f"{header}\n0 1.0 0.0\n")

    def test_header_fields_are_whole_tokens_and_repeats_agree(self):
        state = StateVector.load_text(
            "# statevector max_n_qubits=1 n_qubits=2\n# n_qubits=2\n3 1.0 0.0\n")
        assert state.n_qubits == 2 and state.amps[3] == 1.0

    def test_non_finite_norm_fails_closed(self):
        with pytest.raises(EngineError, match="norm"):
            StateVector(1, np.array([math.nan, 0.0])).check_norm()

    def test_threshold_drops_zeros(self):
        s = StateVector.zero_state(4)
        text = s.dump_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1


STATE_FUZZ = settings(max_examples=80)
STATE_TOKENS = st.sampled_from([
    "#", "# statevector", "n_qubits=1", "n_qubits=2", "n_qubits=0", "n_qubits=99", "n_qubits=x",
    "endian=little", "norm=1.0", "0", "1", "3", "4", "-1", "0.6", "0.8", "-0.8", "1.0", "0.0",
    "-0.0", "nan", "inf", "-inf", "1e999", "1e-320", "x", "", "=",
]) | st.text(max_size=5)


@st.composite
def states(draw):
    n = draw(st.integers(1, 4))
    parts = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-16, 1e-300])
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(2**n)])
    norm = np.linalg.norm(amps)
    if not norm > 1e-3:
        amps, norm = np.eye(2**n)[draw(st.integers(0, 2**n - 1))].astype(complex), 1.0
    return StateVector(n, amps / norm)


class TestDumpFormatFuzz:
    @STATE_FUZZ
    @given(states())
    def test_valid_dumps_round_trip(self, state):
        text = state.dump_text()
        again = StateVector.load_text(text)
        assert again.dump_text() == text
        kept = np.abs(state.amps) > 1e-15
        np.testing.assert_array_equal(again.amps[kept], state.amps[kept])
        assert not again.amps[~kept].any()

    @STATE_FUZZ
    @given(st.data())
    def test_mutated_dumps_raise_only_state_format_error(self, data):
        base = "# statevector n_qubits=2 endian=little norm=1.0\n0 0.6 0.0\n3 0.0 -0.8\n"
        lines = [line.split(" ") for line in base.splitlines()]
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.integers(0, len(lines) - 1))
            words = lines[row]
            action = data.draw(st.sampled_from(["replace", "insert", "delete", "line"]))
            at = data.draw(st.integers(0, len(words)))
            if action == "replace" and at < len(words):
                words[at] = data.draw(STATE_TOKENS)
            elif action == "delete" and at < len(words):
                del words[at]
            elif action == "line":
                lines.insert(row, data.draw(st.lists(STATE_TOKENS, max_size=4)))
            else:
                words.insert(at, data.draw(STATE_TOKENS))
        try:
            StateVector.load_text("\n".join(" ".join(w) for w in lines) + "\n")
        except StateFormatError:
            pass

    @STATE_FUZZ
    @given(st.text(max_size=60))
    def test_garbage_raises_only_state_format_error(self, text):
        try:
            StateVector.load_text(text)
        except StateFormatError:
            pass

    @pytest.mark.parametrize("n_qubits, amps", [(1, []), (2, [1.0, 0.0, 0.0]),
                                                (3, [1.0] + [0.0] * 5)])
    def test_amplitude_count_must_be_a_power_of_2(self, n_qubits, amps):
        with pytest.raises(EngineError, match="wrong length"):
            StateVector(n_qubits, amps)
