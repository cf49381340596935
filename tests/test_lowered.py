"""The lowered, batched execution core against the per-instruction loop it
replaced (kept in oracles.reference_execute)."""
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from uqsim import engine
from uqsim.compiler import (
    ApplyLocal,
    CyclePlan,
    PlannedFamily,
    PulseSchedule,
    RawGate,
    RawGateSpec,
    emit_cycle,
    plan_for_hamiltonian,
    protocol_library,
)
from uqsim.engine import (
    EngineError,
    ErrorModel,
    ExecutionLog,
    LoweredPlan,
    StateVector,
    execute_batch,
    execute_instructions,
    run_schedule,
)
from uqsim.experiments import (
    AdiabaticConfig,
    Geometry,
    GroundPath,
    NamedModel,
    adiabatic_batch,
    adiabatic_run,
    build_model,
    error_sweep,
    nn_chain,
    protocol_for_model,
)
from uqsim.hardware import LatticeModel, TrapArrayModel
from uqsim.pauli import LocalLayer, SingleQubitUnitary

AMP_TOL = 1e-12
ETAS = [(0.0, 0.0), (0.04, 0.0), (0.0, 0.03), (0.05, 0.02)]


def random_amps(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_unit(rng):
    kind = rng.integers(3)
    if kind == 0:
        return SingleQubitUnitary.identity()
    if kind == 1:
        axis = rng.normal(size=3)
        return SingleQubitUnitary.rot(axis / np.linalg.norm(axis), rng.uniform(-math.pi, math.pi))
    # a general unitary, global phase included
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return SingleQubitUnitary(q)


def random_schedule(n, seed, length=24):
    """Homogeneous and per-qubit layers (with identity units) between runs
    of multi-target gates, some with zero angles or weights."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(length):
        r = rng.random()
        if r < 0.2:
            out.append(ApplyLocal(LocalLayer.homogeneous(random_unit(rng))))
        elif r < 0.45:
            out.append(ApplyLocal(LocalLayer.inhomogeneous([random_unit(rng) for _ in range(n)])))
        else:
            targets = []
            for _ in range(rng.integers(1, 4)):
                a, b = rng.choice(n, size=2, replace=False)
                w = 0.0 if rng.random() < 0.1 else rng.uniform(-1.5, 1.5)
                targets.append((int(a), int(b), w))
            theta = 0.0 if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)
            out.append(RawGate("g", theta, tuple(targets)))
    return out


def error_model(etas, seed):
    return ErrorModel(*etas, seed=seed) if any(etas) else None


def run_both(n, instructions, err, start, cycle_length=None):
    """(lowered amps, lowered log text, reference amps, reference log text)."""
    got = start.copy()
    log = ExecutionLog(seed=err.seed if err else None)
    execute_instructions(got, n, instructions, err, err.rng() if err else None, log, cycle_length)
    ref = start.copy()
    entries = []
    oracles.reference_execute(ref, n, instructions, err, err.rng() if err else None, entries)
    ref_log = ExecutionLog(seed=err.seed if err else None, entries=entries)
    return got, log.to_text(), ref, ref_log.to_text()


@pytest.mark.parametrize("etas", ETAS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 13])
def test_single_run_matches_reference(n, etas):
    # 6 and 9: local layers in two and three fused groups, one in the middle;
    # 13: four groups and sign rows made per target
    for trial in range(3):
        seed = 100 * n + trial
        got, log, ref, ref_log = run_both(
            n, random_schedule(n, seed), error_model(etas, seed), random_amps(n, seed)
        )
        assert np.max(np.abs(got - ref)) <= AMP_TOL
        assert log == ref_log  # repr of every draw: bit-identical


@pytest.mark.parametrize("etas", ETAS)
def test_fused_group_with_inactive_qubits(etas):
    # group 0..3 holds an identity on qubit 1 and a bare phase on qubit 2
    # (theta = 0, alpha != 0: active) beside rotations; group 4..6 has one
    # active qubit
    n = 7
    rot = SingleQubitUnitary.rot((0.6, 0.0, 0.8), 0.7)
    units = [SingleQubitUnitary.identity()] * n
    units[0], units[3], units[6] = rot, SingleQubitUnitary.rot((0.0, 1.0, 0.0), -0.4), rot
    units[2] = SingleQubitUnitary(np.exp(0.3j) * np.eye(2))
    layer = LocalLayer.inhomogeneous(units)
    gate = RawGate("g", 0.4, ((1, 5, 1.0), (2, 6, -0.5)))
    instructions = [ApplyLocal(layer), gate, ApplyLocal(layer)]
    got, log, ref, ref_log = run_both(n, instructions, error_model(etas, 5), random_amps(n, 5))
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


@pytest.mark.parametrize("n, sizes", [(1, [1]), (4, [4]), (5, [3, 2]), (7, [4, 3]), (8, [4, 4]),
                                      (9, [3, 3, 3]), (13, [4, 3, 3, 3])])
def test_group_bounds(n, sizes):
    bounds = list(engine._group_bounds(n))
    assert [k for _, k in bounds] == sizes
    assert [lo for lo, _ in bounds] == [sum(sizes[:g]) for g in range(len(sizes))]


@pytest.mark.parametrize("etas", ETAS)
def test_long_runs_repeats_and_chunks(etas):
    # more ops than one chunk, a raw-gate run longer than one fused run, and
    # instruction objects that repeat (a cycle tuple times a count)
    n = 3
    cycle = random_schedule(n, 9, length=30)
    gates = [RawGate("run", 0.01 * (i + 1), ((i % 3, (i + 1) % 3, 1.0),)) for i in range(150)]
    empty = RawGate("empty", 0.5, ())
    instructions = (empty,) + tuple(cycle) * 4 + tuple(gates) + tuple(cycle)
    got, log, ref, ref_log = run_both(n, instructions, error_model(etas, 3), random_amps(n, 3))
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


@pytest.mark.parametrize("etas", ETAS)
def test_unrepeated_stretches_run_in_bounded_fused_windows(monkeypatch, etas):
    # without a cycle_length the whole stream is one unrepeated stretch: it
    # runs as count-1 FusedCycle passes over windows of _CHUNK instructions
    n = 5
    passes, real = [], engine.FusedCycle.execute

    def spy(self, amps, count, *args):
        passes.append((count, len(self.kinds)))
        return real(self, amps, count, *args)

    monkeypatch.setattr(engine.FusedCycle, "execute", spy)
    instructions = random_schedule(n, 31, length=200)
    got, log, ref, ref_log = run_both(n, instructions, error_model(etas, 31), random_amps(n, 31))
    assert engine._CHUNK == 64 and passes == [(1, 64)] * 3 + [(1, 8)]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


def test_unstacked_sign_rows_match(monkeypatch):
    # above the shared-row size each target's signs are made one at a time
    n = 4
    err = ErrorModel(0.03, 0.02, seed=8)
    instructions = random_schedule(n, 8, length=40)
    stacked = random_amps(n, 8)
    execute_instructions(stacked, n, instructions, err, err.rng())
    monkeypatch.setattr(engine, "_SHARED_SIGN_QUBITS", 1)
    got, _, ref, _ = run_both(n, instructions, err, random_amps(n, 8))
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert np.max(np.abs(got - stacked)) <= AMP_TOL


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_batch_rows_match_single_runs(rows):
    n = 4
    err = ErrorModel(eta_local=0.04, eta_int=0.02, seed=0)
    instructions = random_schedule(n, 21, length=40)
    seeds = [10 + r for r in range(rows)]
    start = np.array([random_amps(n, s) for s in seeds])
    batch = start.copy()
    execute_batch(batch, n, instructions, err, [replace(err, seed=s).rng() for s in seeds])
    for r, s in enumerate(seeds):
        ref = start[r].copy()
        oracles.reference_execute(ref, n, instructions, err, replace(err, seed=s).rng())
        assert np.max(np.abs(batch[r] - ref)) <= AMP_TOL


def cycle_of(n, seed):
    """A random_schedule cycle behind back-to-back layers (one with identity
    qubits), gates inside the first and the last qubit group and one across
    groups."""
    rng = np.random.default_rng(seed)
    units = ApplyLocal(LocalLayer.inhomogeneous(
        [random_unit(rng) if q % 3 else SingleQubitUnitary.identity() for q in range(n)]))
    rot = ApplyLocal(LocalLayer.homogeneous(SingleQubitUnitary.rot((0.0, 0.6, 0.8), 0.3)))
    head = [units, rot, RawGate("in", 0.2, ((0, 1, 1.0), (1, 2, -0.5))), units,
            RawGate("last", 0.4, ((n - 2, n - 1, 0.8),)), rot,
            RawGate("across", -0.3, ((1, n - 1, 1.0),))]
    return head + random_schedule(n, seed, length=10)


def spy_fused(monkeypatch):
    """The occurrence counts that FusedCycle.execute runs."""
    counts, real = [], engine.FusedCycle.execute

    def spy(self, amps, count, *args):
        counts.append(count)
        return real(self, amps, count, *args)

    monkeypatch.setattr(engine.FusedCycle, "execute", spy)
    return counts


@pytest.mark.parametrize("etas", ETAS)
@pytest.mark.parametrize("n", [5, 8])
def test_repeated_cycles_match_reference(monkeypatch, n, etas):
    # at most 8 blocks per pass: passes of one or two occurrences
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 8)
    fused = spy_fused(monkeypatch)
    cycle = cycle_of(n, n)
    instructions, err = tuple(cycle) * 8, error_model(etas, n)
    got, log, ref, ref_log = run_both(n, instructions, err, random_amps(n, n), len(cycle))
    assert fused == [8]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log
    seeds = [n, n + 1, n + 2]
    start = np.array([random_amps(n, s) for s in seeds])
    batch = start.copy()
    rngs = [replace(err, seed=s).rng() if err else None for s in seeds]
    assert execute_batch(batch, n, instructions, err, rngs, None, len(cycle)) == len(instructions)
    for r, s in enumerate(seeds):
        ref = start[r].copy()
        oracles.reference_execute(ref, n, instructions, err, replace(err, seed=s).rng() if err else None)
        assert np.max(np.abs(batch[r] - ref)) <= AMP_TOL


@pytest.mark.parametrize("case", ["cycle 2 differs", "trailing partial cycle", "wrong period"])
def test_cycle_length_is_checked_not_assumed(monkeypatch, case):
    n, err = 6, ErrorModel(0.04, 0.03, seed=11)
    fused = spy_fused(monkeypatch)
    cycle = cycle_of(n, 6)
    other = list(cycle)
    other[2] = RawGate("in", 0.7, ((0, 1, 1.0), (1, 2, -0.5)))  # one changed angle in cycle 2
    instructions, period, cycles = {
        "cycle 2 differs": (cycle + other + cycle * 3, len(cycle), 5),
        "trailing partial cycle": (cycle * 4 + cycle[:5], len(cycle), None),
        "wrong period": (cycle * 4, len(cycle) + 1, None),
    }[case]
    schedule = PulseSchedule(n, tuple(instructions), None, period, cycles)
    start = random_amps(n, 6)
    final, log = run_schedule(StateVector.from_amplitudes(start), schedule, err)
    ref, entries = start.copy(), []
    oracles.reference_execute(ref, n, instructions, err, err.rng(), entries)
    # every piece of the stream is one FusedCycle: the repeats of one
    # 17-instruction window as one, an unrepeated stretch in count-1
    # windows of at most 64 instructions
    assert fused == {"cycle 2 differs": [1, 3], "trailing partial cycle": [4, 1],
                     "wrong period": [1, 1]}[case]
    assert np.max(np.abs(final.amps - ref)) <= AMP_TOL
    assert log.to_text() == ExecutionLog(seed=err.seed, entries=entries).to_text()


def test_lowering_validates_against_n_qubits():
    amps = random_amps(3, 1)
    with pytest.raises(EngineError, match="out of range"):
        execute_instructions(amps, 3, [RawGate("g", 0.3, ((0, 7, 1.0),))], None, None)
    short = ApplyLocal(LocalLayer.inhomogeneous([SingleQubitUnitary.identity()]))
    with pytest.raises(EngineError, match="1 unitaries"):
        execute_instructions(amps, 3, [short], None, None)
    with pytest.raises(EngineError, match="generator"):
        execute_instructions(amps, 3, [ApplyLocal(LocalLayer.identity())],
                             ErrorModel(eta_local=0.1, seed=1), None)
    with pytest.raises(EngineError, match="batch of one"):
        execute_batch(np.zeros((2, 8), dtype=complex), 3, [], None, [None, None], ExecutionLog())


@pytest.mark.parametrize("homogeneous", [False, True])
def test_plan_ops_draw_exactly_what_emit_cycle_emits(homogeneous):
    # gate "b" underflows to an exact zero angle at a tiny scale while "a"
    # does not: emit_cycle drops b, and the lowered plan must draw for a only.
    # A homogeneous plan applies site 0's field rotation on every site.
    n = 3
    fam = PlannedFamily(
        (RawGateSpec("a", ((0, 1, 1.0), (1, 2, 0.5)), 1.0), RawGateSpec("b", ((0, 2, 1.0),), 1e-3)),
        protocol_library("xy2"), cost=1.0,
    )
    fields = ((0.3, 0.0, 0.1), (0.0, 0.0, 0.0), (0.2, -0.4, 0.0))
    plan = CyclePlan(n, (fam,), fields, homogeneous_locals=homogeneous)
    err = ErrorModel(eta_local=0.05, eta_int=0.03, seed=2)
    lowered = LoweredPlan(plan, 1.0, n)
    for scale in (1.0, 0.37, 1e-323, 0.0):
        cycle = emit_cycle(plan, 1.0, scale)
        ref, ref_rng = random_amps(n, 4), err.rng()
        oracles.reference_execute(ref, n, cycle, err, ref_rng)
        got, rng = random_amps(n, 4)[None, :].copy(), err.rng()
        step = engine.FusedCycle(lowered.ops(scale), n, err.eta_local, err.eta_int)
        count = step.execute(got, 1, [rng], None, 0)
        assert count == len(cycle)
        assert np.max(np.abs(got[0] - ref)) <= AMP_TOL
        assert rng.random() == ref_rng.random()  # streams in the same place


def chain_trap(n):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)))


ADIABATIC_CASES = {
    # homogeneous layers, no fields
    "dipole-uqs1": lambda: (NamedModel("dipole", Geometry.chain(3)), LatticeModel(n_sites=3), "zz"),
    # fig5's shape: three qubit groups, every gate run across them
    "dipole-9-uqs1": lambda: (NamedModel("dipole", Geometry.chain(9)), LatticeModel(n_sites=9),
                              "xx"),
    # homogeneous field layer
    "heisenberg-field-uqs1": lambda: (
        NamedModel("heisenberg", Geometry.chain(3), j=-1.0, b=0.4, direction=(0.6, 0.0, 0.8)),
        LatticeModel(n_sites=3), "xx"),
    # per-qubit fields and per-pair sequences
    "random-ising-uqs2": lambda: (
        NamedModel("random_ising", Geometry.chain(4), j_map=(((0, 1), 1.0), ((1, 2), -0.6), ((2, 3), 0.8)),
                   b_list=(0.3, 0.0, 0.5, 0.2)),
        chain_trap(4), "zz"),
}


def op_by_op(cfg, hw, plan_t, seeds, start):
    """The amplitudes and generators of adiabatic_batch(cfg, hw, seeds) from
    the amplitudes `start`, row by row with every step's emit_cycle
    instructions run one at a time through oracles.reference_execute."""
    n = cfg.h_initial.n_qubits
    plan_i = plan_for_hamiltonian(cfg.h_initial, hw)
    dt = cfg.theta1 / max(plan_i.max_unit_angle(), plan_t.max_unit_angle())
    err = cfg.error_model
    rngs = [replace(err, seed=s).rng() if err else None for s in seeds]
    amps = np.tile(start, (len(seeds), 1))
    ramp = cfg.ramp_fn()
    for s in range(1, cfg.steps + 1):
        k = ramp(s / cfg.steps)
        cycle = emit_cycle(plan_i, dt, k) + emit_cycle(plan_t, dt, 1.0 - k)
        for row, rng in zip(amps, rngs):
            oracles.reference_execute(row, n, cycle, err, rng)
    return amps, rngs


def spy_generators(monkeypatch):
    """Every generator ErrorModel.rng makes, in order."""
    made, real = [], ErrorModel.rng

    def spy(self):
        made.append(real(self))
        return made[-1]

    monkeypatch.setattr(ErrorModel, "rng", spy)
    return made


@pytest.mark.parametrize("etas", [(0.0, 0.0), (0.03, 0.02), (0.04, 0.0), (0.0, 0.03)])
@pytest.mark.parametrize("case", sorted(ADIABATIC_CASES))
def test_adiabatic_run_matches_reference(monkeypatch, case, etas):
    # steps 4 and 8 are recorded and end a run of fused occurrences (in
    # passes of a few steps); the final k = 0 step 12 runs on its own
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 24)
    fused = spy_fused(monkeypatch)
    model, hw, chain = ADIABATIC_CASES[case]()
    target = build_model(model)
    init = nn_chain(chain, model.geometry.n_sites)
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(init, target, steps=12, theta1=0.1, ramp="cosine",
                          error_model=error_model(etas, 6), record_every=4)
    path = GroundPath(init, target)
    result = adiabatic_run(cfg, hw, plan_target=plan_t, ground_path=path)
    assert fused == [4, 4, 3, 1]
    ref = oracles.reference_adiabatic_amps(cfg, plan_for_hamiltonian(init, hw), plan_t)
    assert np.max(np.abs(result.final_state.amps - ref)) <= AMP_TOL
    for seeds in ([6], [6, 7, 8]):
        made = spy_generators(monkeypatch)
        results = adiabatic_batch(cfg, hw, seeds, plan_target=plan_t, ground_path=path)
        made = list(made)
        amps, rngs = op_by_op(cfg, hw, plan_t, seeds, path.start)
        for r, result in enumerate(results):
            assert np.max(np.abs(result.final_state.amps - amps[r])) <= AMP_TOL
        if any(etas):
            assert [g.bit_generator.state for g in made] == [g.bit_generator.state for g in rngs]


def test_recorded_and_irregular_steps_end_fused_passes(monkeypatch):
    model, hw, _ = ADIABATIC_CASES["dipole-uqs1"]()
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(nn_chain("zz", 3), build_model(model), steps=10, theta1=0.1,
                          error_model=ErrorModel(0.02, 0.01, seed=3), record_every=0)
    fused = spy_fused(monkeypatch)
    adiabatic_run(cfg, hw, plan_target=plan_t)
    # the final k = 0 step leaves out the initial plan: a cycle of its own
    assert fused == [9, 1]
    fused.clear()
    adiabatic_run(replace(cfg, record_every=1), hw, plan_target=plan_t)
    assert fused == [1] * 10  # every step recorded


def test_regular_scales_keep_the_shape_of_scale_one():
    # at 1e-15 the field rotations fall within the identity tolerance, at
    # 1e-310 the fields below FIELD_ANGLE_FLOOR and at 1e-323 gate b's angle
    # to an exact zero
    n = 3
    fam = PlannedFamily(
        (RawGateSpec("a", ((0, 1, 1.0), (1, 2, 0.5)), 1.0), RawGateSpec("b", ((0, 2, 1.0),), 1e-3)),
        protocol_library("xy2"), cost=1.0,
    )
    plan = CyclePlan(n, (fam,), ((0.3, 0.0, 0.1), (0.0, 0.0, 0.0), (0.2, -0.4, 0.0)))
    lowered = LoweredPlan(plan, 1.0, n)
    scales = np.array([1.0, 0.37, -2.0, 1e-15, 1e-310, 1e-323, 0.0])
    assert lowered.regular(scales).tolist() == [True, True, True, False, False, False, False]
    no_field = LoweredPlan(replace(plan, local_fields=None), 1.0, n)
    assert no_field.regular(scales).tolist() == [True] * 5 + [False] * 2


def test_fig5_step_fuses_into_twelve_blocks_and_three_diagonals(monkeypatch):
    n = 9
    hw = LatticeModel(n_sites=n)
    plans = (plan_for_hamiltonian(nn_chain("xx", n), hw),
             protocol_for_model(NamedModel("dipole", Geometry.chain(n)), hw))
    dt = 0.025 / max(p.max_unit_angle() for p in plans)
    (ops_i, slots_i), (ops_t, slots_t) = (LoweredPlan(p, dt, n).template(j)
                                          for j, p in enumerate(plans))
    err = ErrorModel(0.01, 0.01, seed=1)
    cycle = engine.FusedCycle(ops_i + ops_t, n, err.eta_local, err.eta_int, slots_i + slots_t)
    assert cycle.n_blocks == 12
    calls = {"block": 0, "zz": 0}
    for name, module, key in (("apply_block", engine.kernels, "block"),
                              ("_apply_zz", engine, "zz")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, key=key:
                            calls.__setitem__(key, calls[key] + 1) or real(*a))
    amps = np.tile(random_amps(n, 1), (2, 1))
    ks = np.array([0.9, 0.7, 0.5])
    cycle.execute(amps, 3, [err.rng(), err.rng()], None, 0, np.column_stack([ks, 1.0 - ks]))
    assert calls["block"] <= 12 * 3 and calls["zz"] <= 3 * 3


def test_sweep_repetitions_match_single_runs():
    n = 4
    model = NamedModel("dipole", Geometry.chain(n))
    hw = LatticeModel(n_sites=n)
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(nn_chain("zz", n), build_model(model), steps=15, theta1=0.1,
                          record_every=5)
    seeds = [4, 5, 6]
    err = ErrorModel(eta_local=0.03, eta_int=0.03, seed=0)
    batch = adiabatic_batch(replace(cfg, error_model=err), hw, seeds, plan_target=plan_t)
    singles = [
        adiabatic_run(replace(cfg, error_model=replace(err, seed=s)), hw, plan_target=plan_t)
        for s in seeds
    ]
    for b, s in zip(batch, singles):
        assert abs(b.ground_weight - s.ground_weight) <= AMP_TOL
        assert np.max(np.abs(b.final_state.amps - s.final_state.amps)) <= AMP_TOL
        for (_, _, fb, eb), (_, _, fs, es) in zip(b.trajectory, s.trajectory):
            assert abs(fb - fs) <= AMP_TOL and abs(eb - es) <= AMP_TOL
    (row,) = error_sweep(cfg, hw, [0.03], [15], len(seeds), base_seed=4, plan_target=plan_t)
    assert abs(row.mean_fidelity - np.mean([s.ground_weight for s in singles])) <= AMP_TOL
