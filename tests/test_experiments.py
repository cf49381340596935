import math

import numpy as np
import pytest

import oracles
from uqsim.compiler import ApplyLocal, HardwareConstraintError, InfeasibleTargetError, emit_cycle
from uqsim.engine import EngineError, ErrorModel, StateVector
from uqsim.experiments import (
    MODEL_NAMES,
    RAMPS,
    AdiabaticConfig,
    ExperimentError,
    Geometry,
    NamedModel,
    SweepRow,
    adiabatic_run,
    build_model,
    error_sweep,
    nn_chain,
    protocol_for_model,
    random_couplings,
    sweep_table_csv,
)
from uqsim.hardware import HardwareError, LatticeModel, TrapArrayModel
from uqsim.oracle import GroundPath, min_gap
from uqsim.pauli import Hamiltonian, conjugate as pauli_conjugate


def chain_trap(n, **kw):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), **kw)


def plan_effective(plan) -> Hamiltonian:
    """Symbolic simulated Hamiltonian per unit time of a cycle plan."""
    acc = Hamiltonian.zero(plan.n_qubits)
    for fam in plan.families:
        gen_terms = []
        for g in fam.gates:
            for a, b, w in g.targets:
                ops = ["I"] * plan.n_qubits
                ops[a] = "Z"
                ops[b] = "Z"
                gen_terms.append((g.unit_angle * w, "".join(ops)))
        gen = Hamiltonian.from_terms(plan.n_qubits, gen_terms)
        for p, layer in fam.sequence.steps:
            acc = acc + pauli_conjugate(gen, layer).scaled(p)
    if plan.local_fields is not None:
        terms = []
        for q, (bx, by, bz) in enumerate(plan.local_fields):
            for c, axis in zip((bx, by, bz), "XYZ"):
                if c != 0.0:
                    ops = ["I"] * plan.n_qubits
                    ops[q] = axis
                    terms.append((c, "".join(ops)))
        acc = acc + Hamiltonian.from_terms(plan.n_qubits, terms)
    return acc


# a 3x3 grid, site 3*row + col
GRID_ROWS = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
GRID_COLS = [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)]


class TestGeometry:
    @pytest.mark.parametrize("pattern, pairs", [
        ("rectangular", GRID_ROWS + GRID_COLS),
        ("triangular", GRID_ROWS + GRID_COLS + [(0, 4), (1, 5), (3, 7), (4, 8)]),
        ("hexagonal", GRID_ROWS + [(0, 3), (2, 5), (4, 7)]),  # rungs where row + col is even
    ])
    def test_grid_patterns(self, pattern, pairs):
        geo = Geometry.grid(3, 3, pattern)
        assert sorted(geo.nn_pairs) == sorted(pairs)
        assert geo.positions == tuple((float(r), float(c)) for r in range(3) for c in range(3))
        assert math.dist(geo.positions[0], geo.positions[4]) == pytest.approx(math.sqrt(2.0),
                                                                              rel=1e-15)

    def test_unknown_grid_pattern(self):
        with pytest.raises(HardwareError, match="pattern"):
            Geometry.grid(2, 2, "kagome")


class TestBuildModel:
    def test_ising_two_sites(self):
        j = 0.8
        h = build_model(NamedModel("ising", Geometry.chain(2), j=j))
        assert h == Hamiltonian.from_terms(2, [(-j / 2, "ZZ")])

    def test_dipole_two_sites_matches_ladder_oracle(self):
        # expand J(s+ s- + s- s+) at unit distance with the sigma+- matrices
        j = 1.0
        h = build_model(NamedModel("dipole", Geometry.chain(2), j=j))
        plus_minus = np.kron(oracles.SMINUS, oracles.SPLUS)  # qubit0 -> +, qubit1 -> -
        minus_plus = np.kron(oracles.SPLUS, oracles.SMINUS)
        # ordered-pair sum of Eq-style dipole: (1/2) * sum_{a != b} J (s+_a s-_b + s-_a s+_b)
        dense = 0.5 * j * 2.0 * (plus_minus + minus_plus)
        np.testing.assert_allclose(h.to_matrix(), dense, atol=1e-14)
        assert h.coefficient("XX") == pytest.approx(j / 2)
        assert h.coefficient("YY") == pytest.approx(j / 2)

    def test_dipole_cube_law(self):
        h = build_model(NamedModel("dipole", Geometry.chain(3), j=2.0))
        assert h.coefficient("XIX") == pytest.approx(2.0 / (2 * 8))

    def test_heisenberg_with_field(self):
        j, b = 1.0, 0.3
        h = build_model(
            NamedModel("heisenberg", Geometry.chain(2), j=j, b=b, direction=(1.0, 0.0, 0.0))
        )
        assert h.coefficient("XX") == pytest.approx(-j / 2)
        assert h.coefficient("XI") == pytest.approx(b)
        assert h.coefficient("IX") == pytest.approx(b)

    def test_random_ising_map_and_fields(self):
        model = NamedModel(
            "random_ising",
            Geometry.chain(3),
            j_map=(((0, 1), 1.0), ((1, 2), -0.5)),
            b_list=(0.1, 0.0, 0.2),
        )
        h = build_model(model)
        assert h.coefficient("ZZI") == pytest.approx(-0.5)
        assert h.coefficient("IZZ") == pytest.approx(0.25)
        assert h.coefficient("XII") == pytest.approx(0.1)
        assert h.coefficient("IIX") == pytest.approx(0.2)

    def test_random_ising_seeded_draws_reproduce(self):
        geo = Geometry.chain(4)
        m = NamedModel("random_ising", geo, j_range=(-1.0, 1.0), seed=9)
        assert random_couplings(m) == random_couplings(m)
        with pytest.raises(ExperimentError):
            NamedModel("random_ising", geo, j_range=(-1.0, 1.0))

    @pytest.mark.parametrize("name", ["dipole", "ising", "heisenberg"])
    def test_random_ising_settings_on_another_model_are_rejected(self, name):
        with pytest.raises(ExperimentError, match=f"{name} takes no b_list, j_range, seed"):
            NamedModel(name, Geometry.chain(3), b_list=(0.1, 0.2, 0.3), j_range=(0.0, 1.0),
                       seed=1)
        with pytest.raises(ExperimentError, match=f"{name} takes no j_map "):
            NamedModel(name, Geometry.chain(3), j_map=(((0, 1), 1.0),))

    @pytest.mark.parametrize("pair", [(0, 7), (1, 1), (-1, 2)])
    def test_j_map_pairs_are_distinct_sites(self, pair):
        with pytest.raises(ExperimentError, match="distinct sites"):
            NamedModel("random_ising", Geometry.chain(3), j_map=((pair, 1.0),))

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (3.0, 0.0, 0.0),
                                           (0.6, 0.0, 0.7), (math.nan, 0.0, 1.0),
                                           (math.inf, 0.0, 0.0)])
    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_direction_is_a_unit_vector_at_construction(self, direction, b):
        # checked whatever b is, before build_model: not a bare ValueError
        with pytest.raises(ExperimentError, match="3 finite values forming a unit vector"):
            NamedModel("ising", Geometry.chain(3), b=b, direction=direction)

    def test_ising_relabeling_invariance(self):
        # reversing a chain is a graph automorphism: canonical forms agree
        n = 5
        h = build_model(NamedModel("ising", Geometry.chain(n), j=0.7))
        relabeled = [
            (t.coeff, "".join(t.ops[n - 1 - q] for q in range(n))) for t in h.terms
        ]
        assert Hamiltonian.from_terms(n, relabeled) == h


# build_model of every named model, nn_chain and the ZZ generators of both
# platforms, one small instance each, as written before PauliString.on
TERM_TEXTS = {
    "dipole": "# hamiltonian n_qubits=3\n-0.1 I I Y\n0.35 I X X\n-0.1 I Y I\n0.35 I Y Y\n"
              "0.04375 X I X\n0.35 X X I\n-0.1 Y I I\n0.04375 Y I Y\n0.35 Y Y I\n",
    "ising": "# hamiltonian n_qubits=3\n0.24 I I X\n0.32000000000000006 I I Z\n0.24 I X I\n"
             "0.32000000000000006 I Z I\n-0.65 I Z Z\n0.24 X I I\n0.32000000000000006 Z I I\n"
             "-0.65 Z Z I\n",
    "heisenberg": "# hamiltonian n_qubits=4\n0.25 I I X X\n0.25 I I Y Y\n0.25 I I Z Z\n"
                  "0.25 I X I X\n0.25 I Y I Y\n0.25 I Z I Z\n0.25 X I X I\n0.25 X X I I\n"
                  "0.25 Y I Y I\n0.25 Y Y I I\n0.25 Z I Z I\n0.25 Z Z I I\n",
    "random_ising": "# hamiltonian n_qubits=3\n-0.2 I I X\n-0.30794078973649375 I Z Z\n"
                    "0.3 X I I\n-0.3050029237453802 Z Z I\n",
    "zz_chain": "# hamiltonian n_qubits=3\n1.0 I Z Z\n1.0 Z Z I\n",
    "xx_chain": "# hamiltonian n_qubits=3\n1.0 I X X\n1.0 X X I\n",
    "uqs2_push": "# hamiltonian n_qubits=3\n0.08888888888888888 I Z Z\n0.0192 Z I Z\n"
                 "0.3 Z Z I\n",
    "uqs1_gate": "# hamiltonian n_qubits=4\n1.0 I I Z Z\n1.0 I Z Z I\n1.0 Z Z I I\n",
}


@pytest.mark.parametrize("name", TERM_TEXTS)
def test_term_builders_keep_their_text(name):
    from uqsim.hardware import uqs1_gate, uqs2_push

    build = {
        "dipole": lambda: build_model(NamedModel("dipole", Geometry.chain(3), j=0.7, b=0.1,
                                                 direction=(0.0, -1.0, 0.0))),
        "ising": lambda: build_model(NamedModel("ising", Geometry.chain(3), j=1.3, b=0.4,
                                                direction=(0.6, 0.0, 0.8))),
        "heisenberg": lambda: build_model(NamedModel("heisenberg", Geometry.grid(2, 2), j=-0.5)),
        "random_ising": lambda: build_model(NamedModel(
            "random_ising", Geometry.chain(3), j_range=(-1.0, 1.0), seed=5,
            b_list=(0.3, 0.0, -0.2))),
        "zz_chain": lambda: nn_chain("zz", 3),
        "xx_chain": lambda: nn_chain("xx", 3),
        "uqs2_push": lambda: uqs2_push(TrapArrayModel(((0.0,), (1.0,), (2.5,))), [0, 1, 2], 0.3),
        "uqs1_gate": lambda: uqs1_gate(LatticeModel(n_sites=4), 1, 0.2)[0],
    }[name]
    assert set(MODEL_NAMES) <= set(TERM_TEXTS)
    assert build().to_text() == TERM_TEXTS[name]


class TestProtocolForModel:
    def test_dipole_uqs2_single_global_push(self):
        geo = Geometry.chain(4)
        plan = protocol_for_model(NamedModel("dipole", geo, j=1.0), chain_trap(4))
        assert len(plan.families) == 1
        fam = plan.families[0]
        assert len(fam.gates) == 1
        gate = fam.gates[0]
        # raw generator carries the exact 1/d^3 weights of the global push
        weights = {(a, b): w for a, b, w in gate.targets}
        assert weights[(0, 1)] == 1.0
        assert weights[(0, 2)] == 1.0 / 8.0
        assert weights[(0, 3)] == 1.0 / 27.0
        assert fam.sequence.n == 2

    def test_dipole_uqs1_cube_law_angles(self):
        geo = Geometry.chain(4)
        hw = LatticeModel(n_sites=4, available_j=frozenset({1, 2, 3}))
        plan = protocol_for_model(NamedModel("dipole", geo, j=1.0), hw)
        fam = plan.families[0]
        units = {g.gate_id: g.unit_angle for g in fam.gates}
        assert units["uqs1:2"] / units["uqs1:1"] == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert units["uqs1:3"] / units["uqs1:1"] == pytest.approx(1.0 / 27.0, rel=1e-15)

    def test_dipole_uqs1_truncates_at_available_j(self):
        geo = Geometry.chain(5)
        hw = LatticeModel(n_sites=5, available_j=frozenset({1, 2}))
        plan = protocol_for_model(NamedModel("dipole", geo, j=1.0), hw)
        ids = {g.gate_id for g in plan.families[0].gates}
        assert ids == {"uqs1:1", "uqs1:2"}

    def test_heisenberg_uqs1_three_layers_per_cycle(self):
        geo = Geometry.chain(3)
        hw = LatticeModel(n_sites=3, gamma=-1.0)  # -(J/2) target needs gamma < 0
        plan = protocol_for_model(NamedModel("heisenberg", geo, j=1.0), hw)
        cycle = emit_cycle(plan, 0.01)
        layers = [i for i in cycle if isinstance(i, ApplyLocal)]
        assert len(layers) == 3
        assert all(l.layer.is_homogeneous for l in layers)

    def test_dipole_protocol_identity_uqs2(self):
        # the xy-wrapped global push reproduces the dipole Hamiltonian exactly
        geo = Geometry.chain(5)
        model = NamedModel("dipole", geo, j=1.0)
        plan = protocol_for_model(model, chain_trap(5))
        assert plan_effective(plan) == build_model(model)

    def test_dipole_protocol_identity_uqs1(self):
        geo = Geometry.chain(5)
        model = NamedModel("dipole", geo, j=1.0)
        plan = protocol_for_model(model, LatticeModel(n_sites=5))
        assert plan_effective(plan) == build_model(model)

    def test_dipole_rescale_with_j(self):
        # general J: identity up to a global positive time rescale
        geo = Geometry.chain(3)
        model = NamedModel("dipole", geo, j=2.5)
        plan = protocol_for_model(model, chain_trap(3))
        eff = plan_effective(plan)
        target = build_model(model)
        ratios = [target.coefficient(t.ops) / t.coeff for t in eff.terms]
        assert all(r == pytest.approx(1.0, rel=1e-12) for r in ratios)

    def test_random_ising_gate_counts_proportional(self):
        geo = Geometry.chain(4)
        model = NamedModel(
            "random_ising", geo,
            j_map=(((0, 1), 0.5), ((1, 2), 1.0), ((2, 3), 2.0)),
        )
        plan = protocol_for_model(model, chain_trap(4))
        counts = {fam.gates[0].gate_id: len(fam.gates) for fam in plan.families}
        assert counts["push:0-1"] == 1
        assert counts["push:1-2"] == 2
        assert counts["push:2-3"] == 4
        assert plan_effective(plan) == build_model(model)

    @pytest.mark.parametrize("model, hw", [
        (NamedModel("dipole", Geometry.chain(3), b=0.4, direction=(0.6, 0.0, 0.8)),
         LatticeModel(n_sites=3)),
        (NamedModel("random_ising", Geometry.chain(4), j_map=(((0, 1), 1.0), ((2, 3), -0.6)),
                    b_list=(0.3, 0.0, -0.5, 0.2), b=0.25, direction=(1.0, 0.0, 0.0)),
         chain_trap(4)),
    ])
    def test_plan_fields_are_the_targets(self, model, hw):
        # the preset plans read their local terms off the target Hamiltonian
        plan = protocol_for_model(model, hw)
        assert plan.local_fields is not None
        assert plan_effective(plan) == build_model(model)

    def test_dipole_uqs2_mismatched_positions_realize_the_target(self):
        # trap positions other than the geometry's: a uniform stretch keeps the
        # cube law (one push of all ions), an uneven one needs a push per pair
        model = NamedModel("dipole", Geometry.chain(3), j=1.0)
        for positions, ids in ((((0.0,), (2.0,), (4.0,)), ["push:all"]),
                               (((0.0,), (1.0,), (3.0,)), ["push:0-1", "push:0-2", "push:1-2"])):
            plan = protocol_for_model(model, TrapArrayModel(positions=positions))
            assert [g.gate_id for fam in plan.families for g in fam.gates] == ids
            assert plan_effective(plan) == build_model(model)

    def test_dipole_on_a_periodic_lattice_is_rejected(self):
        # a wrap class would couple sites 0 and n-1 at unit distance
        hw = LatticeModel(n_sites=5, boundary="periodic")
        with pytest.raises(HardwareConstraintError):
            protocol_for_model(NamedModel("dipole", Geometry.chain(5)), hw)

    @pytest.mark.parametrize("hw", [LatticeModel(n_sites=4), chain_trap(2)])
    def test_geometry_must_match_the_hardware_size(self, hw):
        with pytest.raises(HardwareConstraintError, match="3 qubits"):
            protocol_for_model(NamedModel("dipole", Geometry.chain(3)), hw)

    def test_random_ising_uqs1_needs_addressability(self):
        geo = Geometry.chain(3)
        model = NamedModel("random_ising", geo, j_map=(((0, 1), 1.0), ((1, 2), 0.5)))
        with pytest.raises(HardwareConstraintError, match="addressability"):
            protocol_for_model(model, LatticeModel(n_sites=3))


def realizability_model(name, sign):
    if name == "random_ising":
        couplings = (((0, 1), sign), ((1, 2), -0.6 * sign), ((2, 3), 2.0 * sign))
        return NamedModel(name, Geometry.chain(4), j_map=couplings, b_list=(0.3, 0.0, -0.5, 0.2))
    return NamedModel(name, Geometry.chain(4), j=sign, b=0.25, direction=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("gamma", [1.0, -1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("platform", ["uqs1", "uqs2"])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_plans_are_physically_realizable(name, platform, sign, gamma):
    # a plan either fails with a compile error or simulates the target with
    # raw angles of gamma's sign; on the lattice the sign rule decides which
    model = realizability_model(name, sign)
    target = build_model(model)
    if platform == "uqs1":
        hw = LatticeModel(n_sites=4, available_j=frozenset({1, 2}), gamma=gamma)
        # the dipole simulates the pairs the classes reach: all but 0-3
        target = Hamiltonian(4, tuple(t for t in target.terms if t.sites() != (0, 3)))
    else:
        hw = chain_trap(4, gamma=gamma)
    if platform == "uqs1" and name == "random_ising":
        expected = HardwareConstraintError
    elif platform == "uqs1" and (sign * gamma > 0) != (name == "dipole"):
        expected = InfeasibleTargetError  # -(J/2) couplings need J*gamma < 0
    else:
        expected = None
    if expected is not None:
        with pytest.raises(expected):
            protocol_for_model(model, hw)
        return
    plan = protocol_for_model(model, hw)
    effective = {t.ops: t.coeff for t in plan_effective(plan).terms}
    assert set(effective) == {t.ops for t in target.terms}
    assert all(abs(effective[t.ops] - t.coeff) <= 1e-12 for t in target.terms)
    assert all(g.unit_angle * gamma > 0 for fam in plan.families for g in fam.gates)


def exact_ground_weight(path: GroundPath, steps: int, theta1: float) -> float:
    """The final ground weight of an exact run of the path: from path.start,
    exp(-i H(k_s) theta1) for each step s on the linear ramp k_s."""
    ks = [RAMPS["linear"](s / steps) for s in range(1, steps + 1)]
    amps = path.start[None]
    for spec in path.spectra(ks):
        amps = spec.evolve(amps, theta1)
    return float(path.spectrum(0.0).weights(amps[0])[0])


def random_hamiltonian(rng, n):
    terms = [(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=n)))
             for _ in range(int(rng.integers(1, 2 * n + 2)))]
    return Hamiltonian.from_terms(n, terms)


class TestGroundPath:
    @pytest.mark.parametrize("seed", range(10))
    def test_matrix_matches_kron_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 5
        h_i, h_t = random_hamiltonian(rng, n), random_hamiltonian(rng, n)
        # H(k) as the path decomposes it, part by part, has the eigenvalues
        # of the kron oracle's matrix (the blocks themselves are checked
        # entry by entry in test_sectors)
        path = GroundPath(h_i, h_t)
        dense_i = oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in h_i.terms])
        dense_t = oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in h_t.terms])
        for k in (1.0, 0.0, *rng.random(3)):
            expect = np.linalg.eigvalsh(k * dense_i + (1.0 - k) * dense_t)
            levels = next(path.spectra([k], vectors=False))
            np.testing.assert_allclose(levels.eigenvalues, expect, rtol=0, atol=1e-12)

    @staticmethod
    def count_decompositions(monkeypatch):
        from uqsim import oracle

        calls = []
        real = oracle._spectrum

        def counting(stacks, *args, **kwargs):
            calls.append([m.shape for m in stacks])
            return real(stacks, *args, **kwargs)

        monkeypatch.setattr(oracle, "_spectrum", counting)
        return calls

    def setup_method(self):
        n = 3
        self.init = nn_chain("zz", n)
        self.target = build_model(NamedModel("dipole", Geometry.chain(n), j=1.0))
        self.hw = LatticeModel(n_sites=n)

    def test_sweep_decomposes_each_endpoint_once(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        cfg = AdiabaticConfig(self.init, self.target, steps=5, theta1=0.05, record_every=0)
        rows = error_sweep(cfg, self.hw, eta_list=[0.01, 0.02, 0.03], steps_list=[4],
                           repetitions=2, base_seed=3)
        assert len(rows) == 3
        assert len(calls) == 2

    def test_recorded_run_decomposes_once_per_step(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        steps = 6
        cfg = AdiabaticConfig(self.init, self.target, steps=steps, theta1=0.05, record_every=1)
        res = adiabatic_run(cfg, self.hw)
        assert len(res.trajectory) == steps
        assert len(calls) <= steps + 1

    def test_bundled_fig4a_decomposes_in_chunks_of_k(self, monkeypatch, tmp_path):
        # start state, 100 recorded steps in chunks of 15, the final
        # histogram, and the 41-point gap scan in one chunk
        from uqsim.cli import main

        calls = self.count_decompositions(monkeypatch)
        assert main(["adiabatic", "--config", "fig4a.cfg", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 10
        assert sorted({shapes[0][0] for shapes in calls}) == [1, 10, 15, 41]

    def test_path_for_other_hamiltonians_rejected(self):
        cfg = AdiabaticConfig(self.init, self.target, steps=3, theta1=0.05)
        other = GroundPath(nn_chain("xx", 3), self.target)
        with pytest.raises(ExperimentError):
            adiabatic_run(cfg, self.hw, ground_path=other)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            GroundPath(nn_chain("zz", 3), nn_chain("zz", 4))


class TestAdiabaticConfigChecks:
    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("steps", -4), ("theta1", -0.1), ("theta1", 0.0),
        ("theta1", math.nan), ("theta1", math.inf), ("record_every", -1),
        ("ramp", "cubic"),
    ])
    def test_bad_field_names_it(self, field, value):
        h = nn_chain("zz", 2)
        fields = dict(h_initial=h, h_target=h, steps=3, theta1=0.1)
        fields[field] = value
        with pytest.raises(ExperimentError, match=field):
            AdiabaticConfig(**fields)


class TestMinGap:
    def test_constant_path(self):
        h = Hamiltonian.from_terms(1, [(1.0, "Z")])
        res = min_gap(GroundPath(h, h), samples=11)
        assert res.min_gap == pytest.approx(2.0, abs=1e-10)
        assert not res.gapless

    def test_single_qubit_closed_form(self):
        hz = Hamiltonian.from_terms(1, [(1.0, "Z")])
        hx = Hamiltonian.from_terms(1, [(1.0, "X")])
        res = min_gap(GroundPath(hz, hx), samples=101)
        assert res.min_gap == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert res.argmin_k == pytest.approx(0.5, abs=1e-9)
        assert res.recommended_time == pytest.approx(1 / math.sqrt(2.0), abs=1e-9)

    @staticmethod
    def real_path():
        n = 7
        return GroundPath(nn_chain("zz", n), build_model(NamedModel("dipole", Geometry.chain(n))))

    @staticmethod
    def complex_path():
        # a field along X turning into one along Y: one Y per target term
        n = 4

        def field(axis):
            return Hamiltonian.from_terms(n, [(1.0, "I" * q + axis + "I" * (n - q - 1))
                                              for q in range(n)])

        return GroundPath(field("X"), field("Y"))

    @pytest.mark.parametrize("which, dtypes", [
        ("real", [np.float64] * 4),
        # H(1) is the X field alone, so real
        ("complex", [np.complex128] * 3 + [np.float64]),
    ])
    def test_levels_match_the_full_spectrum(self, monkeypatch, which, dtypes):
        path = self.real_path() if which == "real" else self.complex_path()
        seen = {"eigvalsh": [], "eigh": []}  # per k, the dtype of every stacked call
        for name in seen:
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, name=name, solve=solve:
                                seen[name][-1].append(m.dtype) or solve(m))
        for k in (0.0, 0.3, 0.5, 1.0):
            for calls in seen.values():
                calls.append([])
            levels = next(path.spectra([k], vectors=False))
            assert levels.eigenvectors is None
            full = path.spectrum(k)
            assert levels.groups == full.groups
            np.testing.assert_allclose(levels.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
        # one call per part size, each in the arithmetic of the parts
        stacks = len(path.sectors.part_sizes)
        for calls in seen.values():
            assert calls == [[dtype] * stacks for dtype in dtypes]

    def test_complex_path_gap(self):
        res = min_gap(self.complex_path(), samples=41)
        assert res.min_gap == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert res.argmin_k == 0.5

    def test_scan_decomposes_no_eigenvectors(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        res = min_gap(self.real_path(), samples=41)
        assert calls == []
        assert res.min_gap == pytest.approx(0.6927372499417848, abs=1e-6)

    def test_eigenvalue_only_spectrum_has_no_vectors(self):
        levels = next(self.complex_path().spectra([0.5], vectors=False))
        state = StateVector.zero_state(4)
        for ask in (lambda: levels.group_basis(0), levels.ground_vector,
                    lambda: levels.group_weight(0, state), lambda: levels.histogram(state),
                    lambda: levels.evolve(state.amps, 0.1)):
            with pytest.raises(EngineError, match="eigenvalues only"):
                ask()

    def test_fig4_path_regression_baseline(self):
        n = 7
        init = nn_chain("zz", n)
        target = build_model(NamedModel("dipole", Geometry.chain(n), j=1.0))
        res = min_gap(GroundPath(init, target), samples=101)
        # regression value recorded at first implementation
        assert res.min_gap == pytest.approx(0.6927372499417848, abs=1e-6)
        assert res.min_gap > 0 and not res.gapless


class TestAdiabaticRun:
    def setup_method(self):
        self.n = 4
        self.init = nn_chain("zz", self.n)
        self.target = build_model(NamedModel("dipole", Geometry.chain(self.n), j=1.0))
        self.hw = LatticeModel(n_sites=self.n)

    def test_single_step_runs(self):
        cfg = AdiabaticConfig(self.init, self.target, steps=1, theta1=0.05)
        res = adiabatic_run(cfg, self.hw)
        assert len(res.trajectory) == 1
        assert res.t_sim == pytest.approx(res.dt)
        assert sum(w for _, w in res.histogram) == pytest.approx(1.0, abs=1e-9)

    def test_zero_error_trotter_deterministic(self):
        cfg = AdiabaticConfig(self.init, self.target, steps=20, theta1=0.05, record_every=0)
        a = adiabatic_run(cfg, self.hw)
        b = adiabatic_run(cfg, self.hw)
        np.testing.assert_array_equal(a.final_state.amps, b.final_state.amps)

    def test_seeded_noise_deterministic(self):
        err = ErrorModel(eta_local=0.01, eta_int=0.01, seed=5)
        cfg = AdiabaticConfig(self.init, self.target, steps=10, theta1=0.05,
                              error_model=err, record_every=0)
        a = adiabatic_run(cfg, self.hw)
        b = adiabatic_run(cfg, self.hw)
        np.testing.assert_array_equal(a.final_state.amps, b.final_state.amps)

    def test_ramp_endpoints_enforced(self):
        cfg = AdiabaticConfig(self.init, self.target, steps=5, theta1=0.05,
                              ramp=lambda x: 1.0 - 0.5 * x)
        with pytest.raises(ExperimentError):
            adiabatic_run(cfg, self.hw)

    def test_cosine_ramp_runs(self):
        cfg = AdiabaticConfig(self.init, self.target, steps=10, theta1=0.05, ramp="cosine")
        res = adiabatic_run(cfg, self.hw)
        assert res.trajectory[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_trotter_close_to_exact_stepper(self):
        shared = dict(h_initial=self.init, h_target=self.target, steps=200,
                      theta1=0.05, record_every=0)
        trot = adiabatic_run(AdiabaticConfig(**shared), self.hw)
        exact = exact_ground_weight(GroundPath(self.init, self.target), 200, 0.05)
        assert abs(trot.ground_weight - exact) < 0.02

    @pytest.mark.slow
    def test_exact_step_convergence_is_monotone(self):
        n = 7
        init = nn_chain("zz", n)
        target = build_model(NamedModel("dipole", Geometry.chain(n), j=1.0))
        path = GroundPath(init, target)
        weights = [exact_ground_weight(path, steps, 0.1) for steps in (50, 100, 250, 500, 1500)]
        assert all(b >= a - 1e-12 for a, b in zip(weights, weights[1:]))
        assert weights[-1] >= 0.99

    @pytest.mark.slow
    def test_min_gap_time_recommendation(self):
        # total simulated time past 10/min_gap reaches >= 0.9 ground weight
        n = 7
        init = nn_chain("zz", n)
        target = build_model(NamedModel("dipole", Geometry.chain(n), j=1.0))
        path = GroundPath(init, target)
        gap = min_gap(path, samples=41).min_gap
        theta1 = 0.1
        steps = math.ceil(10.0 / gap / theta1)
        assert steps * theta1 >= 10.0 / gap
        assert exact_ground_weight(path, steps, theta1) >= 0.9


class TestErrorSweep:
    def test_grid_shape_and_eta_zero(self):
        n = 3
        init = nn_chain("zz", n)
        target = build_model(NamedModel("dipole", Geometry.chain(n), j=1.0))
        cfg = AdiabaticConfig(init, target, steps=10, theta1=0.05, record_every=0)
        rows = error_sweep(cfg, LatticeModel(n_sites=n),
                           eta_list=[0.0, 0.02], steps_list=[5, 10], repetitions=4)
        assert len(rows) == 4
        zero_rows = [r for r in rows if r.eta == 0.0]
        assert all(r.std_fidelity == 0.0 and r.repetitions == 1 for r in zero_rows)
        noisy = [r for r in rows if r.eta > 0]
        assert all(r.repetitions == 4 for r in noisy)

    def test_csv_stable_header(self):
        rows = [SweepRow(0.0, 10, 1, 0.5, 0.0, 0.0)]
        text = sweep_table_csv(rows)
        assert text.splitlines()[0] == "eta,steps,repetitions,mean_fidelity,std_fidelity,stderr"
