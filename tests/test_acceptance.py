"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import json
import math

import numpy as np
import pytest

import oracles
from uqsim.cli import main as cli_main
from uqsim.compiler import (
    InfeasibleTargetError,
    PulseSchedule,
    decoupling_echo,
    effective_hamiltonian,
    homogeneous_feasibility,
    inhomogeneous_cost,
    protocol_library,
    synthesize_diagonal,
    three_body_gate,
    trotter_schedule,
)
from uqsim.engine import ErrorModel, StateVector, run_schedule
from uqsim.experiments import (
    AdiabaticConfig,
    Geometry,
    GroundPath,
    NamedModel,
    adiabatic_run,
    build_model,
    error_sweep,
    nn_chain,
    protocol_for_model,
)
from uqsim.hardware import (
    LatticeModel,
    TrapArrayModel,
    beam_compensation,
    compensation_angles,
    crosstalk_report,
    gaussian_beam,
)
from uqsim.pauli import CoeffMatrix, Hamiltonian


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def chain_trap(n, **kw):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), **kw)


def schedule_unitary(schedule: PulseSchedule) -> np.ndarray:
    dim = 2**schedule.n_qubits
    cols = []
    for k in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        out, _ = run_schedule(StateVector(schedule.n_qubits, amps), schedule)
        cols.append(out.amps)
    return np.array(cols).T


def test_criterion_1_cost_formulas_exact():
    j = gamma = 1.0
    t_prime, eps = 1.0, 0.01
    # three-step isotropic protocol on gamma*ZZ
    target = Hamiltonian.from_terms(2, [(j, "XX"), (j, "YY"), (j, "ZZ")])
    sched, report = trotter_schedule(target, t_prime, eps, chain_trap(2, gamma=gamma))
    assert abs(report.time_cost - 3 * j / gamma) <= 1e-12
    assert abs(report.chi - 9 * j * t_prime / (gamma * eps)) <= 1e-12 * report.chi
    assert report.n_controls == 3
    # antisymmetric two-step target
    m = np.zeros((3, 3))
    m[2, 1] = j
    m[1, 2] = -j
    c = inhomogeneous_cost(CoeffMatrix(m), gamma)
    assert abs(c - 2 * abs(j) / abs(gamma)) <= 1e-12
    ok(1, f"c = 3J/gamma = {report.time_cost}, chi = {report.chi}, antisym c = {c}")


def test_criterion_2_sign_gate():
    j, gamma = 1.0, 1.0
    mismatched = homogeneous_feasibility(CoeffMatrix(j * np.eye(3)), -gamma)
    assert not mismatched.feasible
    with pytest.raises(InfeasibleTargetError):
        synthesize_diagonal(CoeffMatrix(j * np.eye(3)), -gamma)
    matched = homogeneous_feasibility(CoeffMatrix(j * np.eye(3)), gamma)
    assert matched.feasible
    eff = effective_hamiltonian(
        protocol_library("heisenberg3"), Hamiltonian.from_terms(2, [(gamma, "ZZ")])
    )
    expect = Hamiltonian.from_terms(
        2, [(gamma / 3, "XX"), (gamma / 3, "YY"), (gamma / 3, "ZZ")]
    )
    assert eff == expect  # canonical forms identical
    ok(2, "opposite-sign target rejected; matched signs give (gamma/3)(XX+YY+ZZ) exactly")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(202)
    eps = 0.01
    n = 3
    t_prime = 0.7
    worst = 0.0
    for trial in range(2):
        terms = []
        for a in range(n):
            for axis in "XYZ":
                ops = ["I"] * n
                ops[a] = axis
                terms.append((rng.uniform(-0.3, 0.3), "".join(ops)))
        for (a, b) in [(0, 1), (1, 2), (0, 2)]:
            falloff = 1.0 / (b - a) ** 3  # keep distant-pair couplings physical
            for axis in "XYZ":
                ops = ["I"] * n
                ops[a] = axis
                ops[b] = axis
                terms.append((rng.uniform(-0.35, 0.35) * falloff, "".join(ops)))
        target = Hamiltonian.from_terms(n, terms)
        sched, report = trotter_schedule(target, t_prime, eps, chain_trap(n))
        u = schedule_unitary(sched)
        dense = oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in target.terms])
        dist = oracles.op_distance(u, oracles.evolve(dense, t_prime))
        worst = max(worst, dist)
        assert dist <= 2 * eps
        if trial == 0:
            double, _ = trotter_schedule(
                target, t_prime, eps, chain_trap(n), num_cycles=2 * report.num_gates
            )
            dist2 = oracles.op_distance(schedule_unitary(double), oracles.evolve(dense, t_prime))
            ratio = dist / dist2
            assert 1.8 <= ratio <= 2.2
    ok(3, f"operator distance <= 2*eps (worst {worst:.5f}); doubling L halves the error")


def test_criterion_4_short_gate_and_commutator_scaling():
    # O(t^2) per compiled short gate; ZZ interaction plus a transverse field
    # so the pieces of one cycle do not commute
    target = Hamiltonian.from_terms(
        2, [(1.0, "ZZ"), (0.5, "XI"), (0.5, "IX")]
    )
    dense = target.to_matrix()
    dists = []
    for t in (0.2, 0.1):
        sched, _ = trotter_schedule(target, t, 1.0, chain_trap(2), num_cycles=1)
        u = schedule_unitary(sched)
        dists.append(oracles.op_distance(u, oracles.expm(-1j * dense * t)))
    gate_ratio = dists[0] / dists[1]
    assert 3.5 <= gate_ratio <= 4.5
    # O(theta^3) commutator-gate remainder and the derived generator
    h1 = Hamiltonian.from_terms(3, [(1.0, "IZZ")])
    h2 = Hamiltonian.from_terms(3, [(1.0, "XXI")])
    gate = three_body_gate(h1, h2, 0.05)
    assert gate.generator.terms[0].ops == "XYZ"
    assert abs(gate.generator.terms[0].coeff - 2.0) <= 1e-12
    d1, d2 = oracles.kron_string("IZZ"), oracles.kron_string("XXI")
    comm = d1 @ d2 - d2 @ d1
    devs = []
    for theta in (0.05, 0.025):
        g = three_body_gate(h1, h2, theta)
        u = np.eye(8, dtype=complex)
        for hseg, angle in g.segments:
            u = oracles.evolve(hseg.to_matrix(), angle) @ u
        devs.append(oracles.op_distance(u, oracles.expm(comm * theta**2)))
    comm_ratio = devs[0] / devs[1]
    assert 6.0 <= comm_ratio <= 10.0
    ok(4, f"short-gate ratio {gate_ratio:.2f} in [3.5,4.5]; commutator ratio {comm_ratio:.2f} in [6,10]; generator 2*XYZ")


def test_criterion_5_decoupling_echo_exact():
    raw = Hamiltonian.from_terms(
        3, [(0.8, "ZII"), (-0.4, "IZI"), (0.3, "IIZ"), (1.0, "ZZI"), (0.6, "IZZ"), (0.25, "ZIZ")]
    )
    theta = 0.3
    echo = decoupling_echo(raw, theta)
    got = schedule_unitary(echo.to_schedule())
    zz_dense = echo.zz_part.to_matrix()
    expect = oracles.expm(-1j * 2 * theta * zz_dense)
    dist = oracles.op_distance(got, expect)
    assert dist <= 1e-12
    ok(5, f"echo equals the pure-ZZ gate to {dist:.2e} <= 1e-12")


def test_criterion_6_crosstalk_law():
    model = chain_trap(13, crosstalk_threshold=2e-3)
    report = crosstalk_report(model, [{0, 1}, {11, 12}])
    assert abs(report.max_ratio - 1e-3) <= 1e-15 * 1e-3
    ok(6, f"parasitic/intended ratio = {report.max_ratio!r} at 10-site separation")


def test_criterion_7_dipole_protocol_identity():
    geo = Geometry.chain(6)
    model = NamedModel("dipole", geo, j=1.0)
    target = build_model(model)
    for hw in (chain_trap(6), LatticeModel(n_sites=6)):
        plan = protocol_for_model(model, hw)
        eff = Hamiltonian.zero(6)
        for fam in plan.families:
            gen_terms = []
            for g in fam.gates:
                for a, b, w in g.targets:
                    ops = ["I"] * 6
                    ops[a] = "Z"
                    ops[b] = "Z"
                    gen_terms.append((g.unit_angle * w, "".join(ops)))
            gen = Hamiltonian.from_terms(6, gen_terms)
            for p, layer in fam.sequence.steps:
                from uqsim.pauli import conjugate

                eff = eff + conjugate(gen, layer).scaled(p)
        assert eff == target  # canonical-form equality, bitwise coefficients
    ok(7, "xy-wrapped raw generator reproduces the dipole Hamiltonian exactly on both platforms")


@pytest.mark.slow
def test_criterion_8_fig5_qualitative():
    n = 9
    geo = Geometry.chain(n)
    model = NamedModel("dipole", geo, j=1.0)
    target = build_model(model)
    init = nn_chain("xx", n)
    hw = LatticeModel(n_sites=n)
    plan_t = protocol_for_model(model, hw)
    path = GroundPath(init, target)
    # zero error, 1500 steps: ground-group weight >= 0.99
    cfg = AdiabaticConfig(init, target, steps=1500, theta1=0.025, record_every=0)
    clean = adiabatic_run(cfg, hw, plan_target=plan_t, ground_path=path)
    assert clean.ground_weight >= 0.99
    # 1% errors: strictly increasing mean ground weight across 50/100/500 steps
    stats = []
    for steps in (50, 100, 500):
        vals = []
        for r in range(20):
            err = ErrorModel(eta_local=0.01, eta_int=0.01, seed=100 + r)
            c = AdiabaticConfig(init, target, steps=steps, theta1=0.025,
                                error_model=err, record_every=0)
            out = adiabatic_run(c, hw, plan_target=plan_t, ground_path=path)
            vals.append(out.ground_weight)
        stats.append((float(np.mean(vals)), float(np.std(vals, ddof=1)) / math.sqrt(20)))
    for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
        margin = math.sqrt(s1 * s1 + s2 * s2)
        assert m2 - m1 > margin, f"increase {m2 - m1} not beyond 1 SE {margin}"
    ok(8, f"means {[round(m, 3) for m, _ in stats]} strictly increase; "
          f"zero-error 1500-step weight {clean.ground_weight:.4f} >= 0.99")


@pytest.mark.slow
def test_criterion_9_fig4b_trend():
    n = 7
    geo = Geometry.chain(n)
    model = NamedModel("dipole", geo, j=1.0)
    target = build_model(model)
    init = nn_chain("zz", n)
    hw = LatticeModel(n_sites=n)
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(init, target, steps=100, theta1=0.025, record_every=0)
    rows = error_sweep(cfg, hw, eta_list=[0.0, 0.01, 0.02, 0.03, 0.04],
                       steps_list=[100], repetitions=20, base_seed=11,
                       plan_target=plan_t)
    means = [r.mean_fidelity for r in rows]
    errs = [r.stderr for r in rows]
    for i in range(len(rows) - 1):
        combined = math.sqrt(errs[i] ** 2 + errs[i + 1] ** 2)
        assert means[i + 1] <= means[i] + combined, (
            f"eta={rows[i + 1].eta}: {means[i + 1]} not <= {means[i]} + {combined}"
        )
    ok(9, f"mean fidelity nonincreasing across eta grid: {[round(m, 3) for m in means]}")


def test_criterion_10_beam_compensation():
    positions = [float(i) for i in range(5)]
    f = gaussian_beam(1.5)
    tau, target = 0.6, 2
    sol = beam_compensation(positions, f, target=target, tau=tau)
    angles = compensation_angles(sol, positions, f, target)
    worst = 0.0
    for j, phi in enumerate(angles):
        u = oracles.expm(-1j * phi * oracles.SX)
        expect = oracles.expm(-1j * tau * oracles.SX) if j == target else np.eye(2)
        worst = max(worst, oracles.op_distance(u, expect))
    assert worst <= 1e-8
    ok(10, f"5-atom Gaussian compensation reproduces the target rotations to {worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    ham = tmp_path / "zz.ham"
    ham.write_text("1.0 Z Z\n")
    compile_cfg = tmp_path / "compile.cfg"
    compile_cfg.write_text(
        "[compile]\nhamiltonian = zz.ham\nt_prime = 0.5\nepsilon = 0.01\n"
        "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1\n"
    )
    out_c = tmp_path / "compiled"
    assert cli_main(["compile", "--config", str(compile_cfg), "--out-dir", str(out_c)]) == 0
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        f"[simulate]\nschedule = {out_c / 'schedule.txt'}\n"
        "eta_local = 0.01\neta_int = 0.005\n"
    )
    dumps, manifests = [], []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["simulate", "--config", str(sim_cfg), "--out-dir", str(out),
                         "--seed", "99"])
        assert code == 0
        dumps.append((out / "state.txt").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text())["outputs"])
    assert dumps[0] == dumps[1]
    assert manifests[0] == manifests[1]
    ok(11, "identical manifest + seed reproduce bit-identical state dumps")
