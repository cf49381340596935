"""The lowered, batched execution core against the per-instruction loop it
replaced (kept in oracles.reference_execute)."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from uqsim import engine, kernels
from uqsim.compiler import (
    ApplyLocal,
    CyclePlan,
    PlannedFamily,
    PulseSchedule,
    RawGate,
    RawGateSpec,
    FIELD_ANGLE_FLOOR,
    emit_cycle,
    field_angles,
    plan_for_hamiltonian,
    protocol_library,
)
from uqsim.engine import (
    EngineError,
    ErrorModel,
    ExecutionLog,
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
    cycle_template,
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


def run_both(n, instructions, err, start):
    """(lowered amps, lowered log text, reference amps, reference log text)."""
    got = start.copy()
    log = ExecutionLog(seed=err.seed if err else None)
    execute_instructions(got, n, instructions, err, err.rng() if err else None, log)
    ref = start.copy()
    ref_log = ExecutionLog(seed=err.seed if err else None)
    oracles.reference_execute(ref, n, instructions, err, err.rng() if err else None, ref_log)
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
def test_long_runs_repeats_and_chunks(monkeypatch, etas):
    # more ops than one chunk, a raw-gate run longer than one fused run, and
    # instruction objects that repeat (a cycle tuple times a count)
    n = 3
    passes = spy_passes(monkeypatch)
    cycle = random_schedule(n, 9, length=30)
    gates = [RawGate("run", 0.01 * (i + 1), ((i % 3, (i + 1) % 3, 1.0),)) for i in range(150)]
    empty = RawGate("empty", 0.5, ())
    instructions = (empty,) + tuple(cycle) * 4 + tuple(gates) + tuple(cycle)
    got, log, ref, ref_log = run_both(n, instructions, error_model(etas, 3), random_amps(n, 3))
    # the four cycles, found in the stream, run as one count-4 piece; the
    # gates and the last cycle, repeated once, in windows of _CHUNK
    assert passes == [(1, 1), (4, 30), (1, 64), (1, 64), (1, 52)]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


@pytest.mark.parametrize("etas", ETAS)
def test_unrepeated_stretches_run_in_bounded_fused_windows(monkeypatch, etas):
    # no object of a random schedule repeats, so the whole stream is one
    # unrepeated stretch: count-1 FusedCycle passes over windows of _CHUNK
    n = 5
    passes = spy_passes(monkeypatch)
    instructions = random_schedule(n, 31, length=200)
    got, log, ref, ref_log = run_both(n, instructions, error_model(etas, 31), random_amps(n, 31))
    assert engine._CHUNK == 64 and passes == [(1, 64)] * 3 + [(1, 8)]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


def test_repeats_rebuild_the_stream():
    # random streams over a few objects, a repeated cycle among them: the
    # pieces, each window run count times, are the stream object for object
    rng = np.random.default_rng(0)
    for _ in range(300):
        objs = [object() for _ in range(rng.integers(1, 6))]
        draw = lambda size: [objs[k] for k in rng.integers(len(objs), size=size)]
        cycle = draw(rng.integers(1, 30))
        stream = draw(rng.integers(40)) + cycle * int(rng.integers(1, 12)) + draw(rng.integers(40))
        out = []
        for piece, count in engine._repeats(stream):
            # a repeat spans at least _CHUNK; a count-1 window at most that
            span = len(piece) * count
            assert span >= engine._CHUNK if count > 1 else 1 <= span <= engine._CHUNK
            out += list(piece) * count
        assert len(out) == len(stream) and all(a is b for a, b in zip(out, stream))


def test_short_repeats_stay_in_the_windows(monkeypatch):
    # a repeat over fewer than _CHUNK instructions gains nothing from a
    # FusedCycle of its own: a doubled gate and a doubled 10-instruction
    # stretch run inside the count-1 windows
    n = 4
    passes = spy_passes(monkeypatch)
    body = random_schedule(n, 12, length=100)
    instructions = body[:21] + body[20:60] + body[60:70] * 2 + body[70:]
    got, log, ref, ref_log = run_both(n, instructions, ErrorModel(0.05, 0.02, seed=12),
                                      random_amps(n, 12))
    assert passes == [(1, 64), (1, 47)]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log


def test_unstacked_sign_rows_match(monkeypatch):
    # above _SIGN_ROW_QUBITS a diagonal across groups makes its sign rows
    # one target at a time as it runs
    n = 6  # two qubit groups: gate runs across them
    err = ErrorModel(0.03, 0.02, seed=8)
    instructions = random_schedule(n, 8, length=40)
    stacked = random_amps(n, 8)
    execute_instructions(stacked, n, instructions, err, err.rng())
    monkeypatch.setattr(engine, "_SIGN_ROW_QUBITS", 1)
    got, _, ref, _ = run_both(n, instructions, err, random_amps(n, 8))
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert np.max(np.abs(got - stacked)) <= AMP_TOL


def random_pairs(n, rng):
    """One to seven random pairs of distinct qubits of n."""
    return [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(rng.integers(1, 8))]


def zz_reference(amps, pairs, coef):
    """amps (R, 2^n) under exp(-i coef[r, t] Z_a Z_b) for each pair t, one
    kernels.apply_zz_phase call per row and pair."""
    out = amps.copy()
    for row, row_coef in zip(out, coef):
        for (a, b), theta in zip(pairs, row_coef.tolist()):
            kernels.apply_zz_phase(row, a, b, theta)
    return out


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", range(2, 10))
def test_zz_diagonal_over_half_the_basis(n, rows):
    # sign rows over the lower half of the basis, kept or made one pair at a
    # time, give the products of one kernel call per pair. Not always the
    # same bits: at one row numpy's vector-matrix product sums the kept rows
    # a few pairs at a time, the made rows are summed one by one
    rng = np.random.default_rng(10 * n + rows)
    pairs = random_pairs(n, rng)
    coef = rng.uniform(-3.0, 3.0, (rows, len(pairs)))
    start = np.array([random_amps(n, 10 * n + r) for r in range(rows)])
    signs = np.array([kernels.zz_signs(n, a, b, half=True) for a, b in pairs])
    assert signs.shape == (len(pairs), 2 ** (n - 1))
    kept, made = start.copy(), start.copy()
    engine._apply_zz(kept, pairs, signs, coef)
    engine._apply_zz(made, pairs, None, coef)
    ref = zz_reference(start, pairs, coef)
    assert np.max(np.abs(kept - ref)) <= AMP_TOL
    assert np.max(np.abs(made - ref)) <= AMP_TOL


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", range(5, 10))
def test_cycle_diagonals_keep_half_rows_and_match_made_rows(monkeypatch, n, rows):
    # a gate across groups keeps sign rows of 2^(n-1) columns, or makes them
    # one at a time above _SIGN_ROW_QUBITS
    rng = np.random.default_rng(n)
    pairs = [(0, n - 1)] + random_pairs(n, rng)
    gate = RawGate("zz", 0.3, tuple((a, b, w) for (a, b), w
                                    in zip(pairs, rng.uniform(-2.0, 2.0, len(pairs)).tolist())))
    err = ErrorModel(0.0, 0.05, seed=n)
    start = np.array([random_amps(n, 10 * n + r) for r in range(rows)])
    out = []
    for cap in (engine._SIGN_ROW_QUBITS, n - 1):
        monkeypatch.setattr(engine, "_SIGN_ROW_QUBITS", cap)
        cycle = engine.FusedCycle([gate], n, err.eta_local, err.eta_int)
        (kind, _, signs, _), = cycle.steps
        assert kind == "zz" and (signs is None) == (cap < n)
        if signs is not None:
            assert signs.shape == (len(pairs), 2 ** (n - 1))
        amps = start.copy()
        cycle.execute(amps, 1, [replace(err, seed=s).rng() for s in range(rows)], None)
        out.append(amps)
    for r in range(rows):
        ref = start[r].copy()
        oracles.reference_execute(ref, n, [gate], err, replace(err, seed=r).rng())
        for amps in out:
            assert np.max(np.abs(amps[r] - ref)) <= AMP_TOL


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fused_block_diagonal_factors_match_kernel_calls(k, rows):
    # a block of two diagonal factors around a layer of 2x2s on bits 0 and
    # k-1, for (C, R) occurrences, against one kernel call per 2x2 and pair
    rng = np.random.default_rng(k + rows)
    first, second = random_pairs(k, rng), random_pairs(k, rng)
    pairs = first + second
    signs = [np.array([kernels.zz_signs(k, a, b, half=True) for a, b in part])
             for part in (first, second)]
    coef = rng.uniform(-3.0, 3.0, (2, rows, len(pairs)))
    mats = np.array([[[SingleQubitUnitary.rot(*args).matrix
                       for args in (((0.0, 0.6, 0.8), rng.uniform(-3, 3)), ((1.0, 0.0, 0.0), 0.7))]
                      for _ in range(rows)] for _ in range(2)])
    factors = [(slice(0, len(first)), signs[0]), (((0, 0), (1, k - 1)), None),
               (slice(len(first), len(pairs)), signs[1])]
    block = engine._fused_block(k, factors, mats, coef)
    assert block.shape == (2, rows, 2**k, 2**k)
    for c in range(2):
        start = np.array([random_amps(k, 10 * c + r) for r in range(rows)])
        got = start.copy()
        oracles.apply_block(got, 0, block[c])
        ref = zz_reference(start, first, coef[c, :, :len(first)])
        for row, m in zip(ref, mats[c]):
            kernels.apply_single_qubit(row, 0, m[0])
            kernels.apply_single_qubit(row, k - 1, m[1])
        ref = zz_reference(ref, second, coef[c, :, len(first):])
        assert np.max(np.abs(got - ref)) <= AMP_TOL


def test_zz_phases_are_the_bits_of_complex_exp():
    # the byte-identity of execution's outputs rests on this: the lower
    # half is exp(-1j * angles) bit for bit, the upper half its mirror
    angles = np.linspace(-50.0, 50.0, 400_001)
    for x in (angles, angles[1:].reshape(8, -1)):
        got, want = engine._zz_phases(x), np.exp(-1j * x)
        assert got.dtype == want.dtype and got.shape == (*x.shape[:-1], 2 * x.shape[-1])
        assert np.array_equal(got.view(np.uint64),
                              np.concatenate([want, want[..., ::-1]], axis=-1).view(np.uint64))



def test_zz_phases_allocate_one_lower_half_beside_their_result():
    # a pass builds the phases of all its occurrences at once (fig5: 28 of
    # 2^8 angles each), so no full-size copy may be made on the way
    angles = np.random.default_rng(3).normal(size=(28, 1, 256))
    tracemalloc.start()
    try:
        out = engine._zz_phases(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + angles.nbytes + 4096

def across_gate(n, rng):
    """One gate on (0, n - 1) and random pairs, with random weights."""
    pairs = [(0, n - 1)] + random_pairs(n, rng)
    return RawGate("zz", float(rng.uniform(-1.0, 1.0)), tuple(
        (a, b, w) for (a, b), w in zip(pairs, rng.uniform(-2.0, 2.0, len(pairs)).tolist())))


@pytest.mark.parametrize("draws, scaled", [(False, False), (True, False), (False, True),
                                           (True, True)])
@pytest.mark.parametrize("rows", [1, 3, 10])
@pytest.mark.parametrize("n", range(3, 11))
def test_pass_phases_are_per_occurrence_apply_zz_bit_for_bit(monkeypatch, n, rows, draws, scaled):
    # a pass makes each kept-row diagonal's phases for all its occurrences
    # in one coef @ signs; multiplied in, they give what _apply_zz of each
    # occurrence's coefs alone gives, bit for bit. The coefs are those of
    # the same cycle with its sign rows made as it runs. Groups of 2 put
    # the diagonal across groups at every n
    monkeypatch.setattr(engine, "_GROUP_QUBITS", 2)
    rng = np.random.default_rng(100 * n + rows)
    gate, eta_i = across_gate(n, rng), 0.05 * draws
    slots = [0] if scaled else None
    kept = engine.FusedCycle([gate], n, 0.0, eta_i, slots)
    monkeypatch.setattr(engine, "_SIGN_ROW_QUBITS", 1)
    made = engine.FusedCycle([gate], n, 0.0, eta_i, slots)
    (_, pairs, signs, _), = kept.steps
    assert signs is not None and made.steps[0][2] is None
    count = 4
    d = rng.uniform(-0.05, 0.05, (count, rows, kept.width)) if draws or scaled else None
    scales = np.column_stack([rng.uniform(0.2, 1.0, count), np.ones(count)]) if scaled else None
    (phases,), (coef,) = kept._build(d, scales), made._build(d, scales)
    assert phases.shape[-1] == 1 << n
    start = np.array([random_amps(n, 10 * n + r) for r in range(rows)])
    for j in range(count):
        want, got = start.copy(), start.copy()
        engine._apply_zz(want, pairs, signs, coef[j])
        np.multiply(got, phases[j], out=got)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("etas", [(0.0, 0.0), (0.04, 0.03)])
def test_made_row_diagonals_run_per_occurrence(monkeypatch, etas):
    # above _SIGN_ROW_QUBITS a diagonal across groups makes its sign rows
    # as it runs, one _apply_zz per occurrence, and no pass makes phases
    n, count = 6, 5
    rng = np.random.default_rng(6)
    instructions = [ApplyLocal(LocalLayer.inhomogeneous([random_unit(rng) for _ in range(n)])),
                    across_gate(n, rng)]
    calls = {"_apply_zz": 0, "_zz_phases": 0}
    for name in calls:
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    monkeypatch.setattr(engine, "_SIGN_ROW_QUBITS", 1)
    cycle = engine.FusedCycle(instructions, n, *etas)
    assert [s[0] for s in cycle.steps] == ["block", "block", "zz"] and cycle.steps[2][2] is None
    assert cycle.entries == 2 * 4 ** 3  # made rows hold no phases in a pass
    err = ErrorModel(*etas, seed=6)
    start = np.array([random_amps(n, r) for r in range(2)])
    amps = start.copy()
    cycle.execute(amps, count, [replace(err, seed=r).rng() for r in range(2)], None)
    assert calls == {"_apply_zz": count, "_zz_phases": count}
    for r in range(2):
        ref = start[r].copy()
        oracles.reference_execute(ref, n, instructions * count, err if any(etas) else None,
                                  replace(err, seed=r).rng())
        assert np.max(np.abs(amps[r] - ref)) <= AMP_TOL


def one_at_a_time(k, layer, mats):
    """The block of one layer's 2x2s mats[..., i] on bits b, each applied to
    every column of the identity in turn with kernels.apply_single_qubit."""
    dim = 1 << k
    out = np.empty((*mats.shape[:-3], dim, dim), dtype=complex)
    for at in np.ndindex(*mats.shape[:-3]):
        cols = np.eye(dim, dtype=complex)  # row c: column c of the block
        for i, bit in layer:
            kernels.apply_single_qubit(cols, bit, mats[at][i])
        out[at] = cols.T
    return out


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kronecker_first_layer_matches_one_at_a_time(k, rows):
    # the first layer of a block is the Kronecker product of its 2x2s, an
    # exact identity on the bits without one, at any batch size
    rng = np.random.default_rng(k + 10 * rows)
    mats = np.array([[[random_unit(rng).matrix for _ in range(k)] for _ in range(rows)]
                     for _ in range(2)])
    for bits in ([0], [k - 1], list(range(k)), list(range(k))[::-2]):
        layer = tuple((i, bit) for i, bit in enumerate(bits))
        block = engine._fused_block(k, [(layer, None)], mats, np.empty((2, rows, 0)))
        assert block.shape == (2, rows, 1 << k, 1 << k)
        assert np.max(np.abs(block - one_at_a_time(k, layer, mats))) <= 1e-13


@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_layer_block_rows_are_their_builds_alone(k):
    # each row of a one-layer block built for 3 rows is, bit for bit, that
    # row's block built alone, like blocks stacked or not
    rng = np.random.default_rng(k)
    mats = np.array([[[random_unit(rng).matrix for _ in range(2 * k)] for _ in range(3)]
                     for _ in range(2)])
    coef = np.empty((2, 3, 0))
    for layer in (tuple((q, q) for q in range(k)),
                  ((np.array([0, k]), 0), (np.array([k - 1, 2 * k - 1]), k - 1))):
        block = engine._fused_block(k, [(layer, None)], mats, coef)
        for r in range(3):
            alone = engine._fused_block(k, [(layer, None)], mats[:, r:r + 1], coef[:, r:r + 1])
            assert alone.tobytes() == block[:, r:r + 1].tobytes()


def like_schedule(n, seed):
    """Instructions whose blocks come in like groups: layers that give every
    qubit group the same 2x2s bit by bit (some of them identities), and gate
    runs inside each group on the same pairs, with their own angles and
    weights, each run ended by an identity layer. A gate across groups, then
    a layer of random 2x2s, make blocks of their own."""
    rng = np.random.default_rng(seed)
    bounds = list(engine._group_bounds(n))
    gap = ApplyLocal(LocalLayer.identity())

    def like_layer():
        units = [random_unit(rng) for _ in range(max(k for _, k in bounds))]
        return [ApplyLocal(LocalLayer.inhomogeneous(
            [units[q - lo] for lo, k in bounds for q in range(lo, lo + k)]))]

    def in_group_runs():
        pairs, out = random_pairs(min(k for _, k in bounds), rng), []
        for lo, _ in bounds:
            out += [RawGate("in", rng.uniform(-1.0, 1.0), tuple(
                (lo + a, lo + b, rng.uniform(-1.5, 1.5)) for a, b in pairs)), gap]
        return out

    across = [RawGate("across", rng.uniform(-1.0, 1.0), ((0, n - 1, 1.0),))]
    unlike = [ApplyLocal(LocalLayer.inhomogeneous([random_unit(rng) for _ in range(n)]))]
    return (like_layer() + in_group_runs() + like_layer() + in_group_runs() + across
            + like_layer() + unlike + in_group_runs() + like_layer())


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("scaled, etas", [(False, (0.0, 0.0)), (True, (0.0, 0.0)),
                                          (False, (0.04, 0.03)), (True, (0.04, 0.03))])
@pytest.mark.parametrize("n", range(3, 10))
def test_like_blocks_share_one_build_bit_for_bit(monkeypatch, n, scaled, etas, rows):
    # each block of a stacked build is, bit for bit, the block built alone
    # from its own 2x2 indices and targets; and the run matches the reference
    instructions = like_schedule(n, n)
    rng = np.random.default_rng(n)
    slots = ([None if s == 2 else int(s) for s in rng.integers(3, size=len(instructions))]
             if scaled else None)
    cycle = engine.FusedCycle(instructions, n, *etas, slots)
    real, stacks = engine._fused_block, []

    def stacked(k, factors, mats, coef):
        block = real(k, factors, mats, coef)
        for p in range(block.shape[-3]):
            alone = real(k, [(tuple((i[p], bit) for i, bit in a), None) if b is None
                             else (a[p], b) for a, b in factors], mats, coef)
            assert alone.shape == block[..., p, :, :].shape
            assert alone.tobytes() == block[..., p, :, :].tobytes()
        stacks.append((block.shape[-3], any(b is not None for _, b in factors)))
        return block

    monkeypatch.setattr(engine, "_fused_block", stacked)
    start = np.array([random_amps(n, 10 * n + r) for r in range(rows)])
    amps, count = start.copy(), 3
    err = ErrorModel(*etas, seed=0)
    scales = rng.uniform(0.2, 1.0, (count, 2)) if scaled else None
    cycle.execute(amps, count, [replace(err, seed=r).rng() for r in range(rows)], None, scales)
    # one pass: each group of like blocks is built once
    assert len(stacks) == len(cycle.like)
    assert sum(g for g, _ in stacks) == [s[0] for s in cycle.steps].count("block")
    if n in (6, 8, 9):  # groups of one size: like blocks with in-group diagonals
        assert any(g > 1 and diagonal for g, diagonal in stacks)
    if not scaled:
        for r in range(rows):
            ref = start[r].copy()
            oracles.reference_execute(ref, n, instructions * count, err if any(etas) else None,
                                      replace(err, seed=r).rng())
            assert np.max(np.abs(amps[r] - ref)) <= AMP_TOL


@pytest.mark.parametrize("etas", [(0.0, 0.0), (0.04, 0.03)])
def test_odd_block_ops_leave_each_occurrence_in_amps(etas):
    # 3 blocks per occurrence (both groups, then group 0 again after a
    # diagonal across them) alternate between amps and the scratch state;
    # after(j) and the caller still find occurrence j's state in amps
    n, rows, count = 6, 2, 5
    rng = np.random.default_rng(6)
    units = [random_unit(rng) for _ in range(n)]
    low = units[:3] + [SingleQubitUnitary.identity()] * 3
    instructions = [ApplyLocal(LocalLayer.inhomogeneous(units)),
                    RawGate("across", 0.4, ((2, 3, 1.0), (0, 5, -0.5))),
                    ApplyLocal(LocalLayer.inhomogeneous(low))]
    err = ErrorModel(*etas, seed=0)
    cycle = engine.FusedCycle(instructions, n, *etas)
    assert [s[0] for s in cycle.steps] == ["block", "block", "zz", "block"]
    start = np.array([random_amps(n, r) for r in range(rows)])
    amps, seen = start.copy(), []
    cycle.execute(amps, count, [replace(err, seed=r).rng() for r in range(rows)], None,
                  after=lambda j: seen.append((j, amps.copy())))
    assert [j for j, _ in seen] == list(range(count))
    assert seen[-1][1].tobytes() == amps.tobytes()
    alone = start.copy()
    cycle.execute(alone, count, [replace(err, seed=r).rng() for r in range(rows)], None)
    assert alone.tobytes() == amps.tobytes()
    for r in range(rows):
        ref, gen = start[r].copy(), replace(err, seed=r).rng()
        for j in range(count):
            oracles.reference_execute(ref, n, instructions, err if any(etas) else None, gen)
            assert np.max(np.abs(seen[j][1][r] - ref)) <= AMP_TOL


def fig4b_cell_cycle():
    """The template cycle of a fig4b-cell step: 7 lattice sites, the ZZ
    chain toward the dipole chain."""
    hw = LatticeModel(n_sites=7)
    plans = (plan_for_hamiltonian(nn_chain("zz", 7), hw),
             protocol_for_model(NamedModel("dipole", Geometry.chain(7)), hw))
    dt = 0.025 / max(p.max_unit_angle() for p in plans)
    (ins_i, slots_i, _), (ins_t, slots_t, _) = (cycle_template(p, dt, j, [])
                                                for j, p in enumerate(plans))
    return engine.FusedCycle(ins_i + ins_t, 7, 0.02, 0.02, slots_i + slots_t)


def test_passes_are_sized_by_block_entries():
    trotter = plan_for_hamiltonian(build_model(NamedModel(
        "random_ising", Geometry.chain(8), j_map=tuple(((a, a + 1), 1.0) for a in range(7)),
        b_list=(0.4,) * 8)), chain_trap(8))
    three = random_schedule(3, 3, length=20)
    cycles = {"fig4b-cell": (fig4b_cell_cycle(), 10, 4),
              "trotter-uqs2": (engine.FusedCycle(emit_cycle(trotter, 0.1, 1.0), 8, 0.002, 0.001),
                               1, 64),
              "3 qubits": (engine.FusedCycle(three, 3, 0.01, 0.01), 1, 256)}
    for name, (cycle, rows, per_pass) in cycles.items():
        assert cycle.per_pass(rows) == per_pass, name
    unit = 4 ** engine._GROUP_QUBITS
    # blocks of 4 and 3 qubits three times, and the phases (2^n,) of each
    # diagonal across groups: 3 on 7 sites, 1 on 8 ions
    assert cycles["fig4b-cell"][0].entries == 3 * unit + 3 * unit // 4 + 3 * 2**7
    assert cycles["trotter-uqs2"][0].entries == 3 * unit + 2**8
    for cycle, _, _ in cycles.values():
        for rows in (1, 2, 3, 10, 20, 100):
            c = cycle.per_pass(rows)
            assert 1 <= c <= engine._CHUNK_BLOCKS
            if c > 1:
                assert c * rows * cycle.entries <= engine._CHUNK_BLOCKS * unit == 1 << 16


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


def spy_passes(monkeypatch, entry=lambda cycle, count: (count, len(cycle.codes))):
    """entry(cycle, count) of each FusedCycle.execute call: by default its
    occurrence count and window length."""
    passes, real = [], engine.FusedCycle.execute

    def spy(self, amps, count, *args):
        passes.append(entry(self, count))
        return real(self, amps, count, *args)

    monkeypatch.setattr(engine.FusedCycle, "execute", spy)
    return passes


def spy_fused(monkeypatch):
    """The occurrence counts that FusedCycle.execute runs."""
    return spy_passes(monkeypatch, lambda cycle, count: count)


@pytest.mark.parametrize("etas", ETAS)
@pytest.mark.parametrize("n", [5, 8])
def test_repeated_cycles_match_reference(monkeypatch, n, etas):
    # passes of at most 8 (2^4, 2^4) blocks' entries: of one to four occurrences
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 8)
    fused = spy_fused(monkeypatch)
    cycle = cycle_of(n, n)
    instructions, err = tuple(cycle) * 8, error_model(etas, n)
    got, log, ref, ref_log = run_both(n, instructions, err, random_amps(n, n))
    assert fused == [8]
    assert np.max(np.abs(got - ref)) <= AMP_TOL
    assert log == ref_log
    seeds = [n, n + 1, n + 2]
    start = np.array([random_amps(n, s) for s in seeds])
    batch = start.copy()
    rngs = [replace(err, seed=s).rng() if err else None for s in seeds]
    assert execute_batch(batch, n, instructions, err, rngs) == len(instructions)
    for r, s in enumerate(seeds):
        ref = start[r].copy()
        oracles.reference_execute(ref, n, instructions, err, replace(err, seed=s).rng() if err else None)
        assert np.max(np.abs(batch[r] - ref)) <= AMP_TOL


@pytest.mark.parametrize("case", ["cycle 2 differs", "trailing partial cycle", "wrong period"])
def test_header_period_is_ignored(monkeypatch, case):
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
    final, log = run_schedule(StateVector(n, start), schedule, err)
    ref, ref_log = start.copy(), ExecutionLog(seed=err.seed)
    oracles.reference_execute(ref, n, instructions, err, err.rng(), ref_log)
    # every piece of the stream is one FusedCycle: the repeats of the
    # 17-instruction cycle that the stream holds as one, whatever the header
    # says, and an unrepeated stretch in count-1 windows of at most 64
    assert fused == {"cycle 2 differs": [1, 3, 1], "trailing partial cycle": [4, 1],
                     "wrong period": [4]}[case]
    assert np.max(np.abs(final.amps - ref)) <= AMP_TOL
    assert log.to_text() == ref_log.to_text()
    bare = replace(schedule, cycle_length=None, num_cycles=None)
    again, again_log = run_schedule(StateVector(n, start), bare, err)
    assert np.array_equal(again.amps, final.amps) and again_log.to_text() == log.to_text()


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
    # does not: emit_cycle drops b, and the fused cycle must draw for a only.
    # A homogeneous plan applies site 0's field rotation on every site.
    n = 3
    fam = PlannedFamily(
        (RawGateSpec("a", ((0, 1, 1.0), (1, 2, 0.5)), 1.0), RawGateSpec("b", ((0, 2, 1.0),), 1e-3)),
        protocol_library("xy2"), cost=1.0,
    )
    fields = ((0.3, 0.0, 0.1), (0.0, 0.0, 0.0), (0.2, -0.4, 0.0))
    plan = CyclePlan(n, (fam,), fields, homogeneous_locals=homogeneous)
    err = ErrorModel(eta_local=0.05, eta_int=0.03, seed=2)
    for scale in (1.0, 0.37, 1e-323, 0.0):
        cycle = emit_cycle(plan, 1.0, scale)
        ref, ref_rng = random_amps(n, 4), err.rng()
        oracles.reference_execute(ref, n, cycle, err, ref_rng)
        got, rng = random_amps(n, 4)[None, :].copy(), err.rng()
        step = engine.FusedCycle(cycle, n, err.eta_local, err.eta_int)
        count = step.execute(got, 1, [rng], None)
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
    # steps 4 and 8 are recorded inside one run of fused occurrences (in
    # passes of a few steps); the final k = 0 step 12 runs on its own
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 8)
    fused = spy_fused(monkeypatch)
    model, hw, chain = ADIABATIC_CASES[case]()
    target = build_model(model)
    init = nn_chain(chain, model.geometry.n_sites)
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(init, target, steps=12, theta1=0.1, ramp="cosine",
                          error_model=error_model(etas, 6), record_every=4)
    path = GroundPath(init, target)
    result = adiabatic_run(cfg, hw, plan_target=plan_t, ground_path=path)
    assert fused == [11, 1]
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


def test_irregular_steps_end_fused_passes_and_recorded_steps_do_not(monkeypatch):
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
    assert fused == [9, 1]  # every step recorded, copied out mid-pass


def reference_trajectory(cfg, hw, plan_t, seed, start):
    """The trajectory and generator of adiabatic_run(cfg) at `seed`, step
    by step: each step's emit_cycle instructions one at a time through
    oracles.reference_execute, and at each recorded step the ground-space
    weight and the energy from a dense eigh of H(k)."""
    n = cfg.h_initial.n_qubits
    plan_i = plan_for_hamiltonian(cfg.h_initial, hw)
    dt = cfg.theta1 / max(plan_i.max_unit_angle(), plan_t.max_unit_angle())
    dense_i, dense_t = (oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in h.terms])
                        for h in (cfg.h_initial, cfg.h_target))
    rng = replace(cfg.error_model, seed=seed).rng()
    amps, trajectory = start.copy(), []
    ramp = cfg.ramp_fn()
    for s in range(1, cfg.steps + 1):
        k = ramp(s / cfg.steps)
        oracles.reference_execute(amps, n, emit_cycle(plan_i, dt, k) + emit_cycle(plan_t, dt, 1.0 - k),
                                  cfg.error_model, rng)
        if s % cfg.record_every == 0 or s == cfg.steps:
            m = k * dense_i + (1.0 - k) * dense_t
            w, v = np.linalg.eigh(m)
            tol = 1e-8 * max(1.0, w[-1] - w[0])
            ground = int(np.argmax(np.r_[np.diff(w) >= tol, True])) + 1
            fid = float(np.sum(np.abs(v[:, :ground].conj().T @ amps) ** 2))
            trajectory.append((s, k, fid, float(np.real(np.vdot(amps, m @ amps)))))
    return trajectory, rng


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("case", ["dipole-uqs1", "heisenberg-field-uqs1", "random-ising-uqs2"])
def test_recorded_run_matches_step_by_step_trajectory(monkeypatch, case, record_every):
    # passes of a few steps, and recorded states sampled in chunks of two
    monkeypatch.setattr(engine, "_CHUNK_BLOCKS", 8)
    monkeypatch.setattr(GroundPath, "chunk", lambda self, vectors=True: 2)
    model, hw, chain = ADIABATIC_CASES[case]()
    target = build_model(model)
    init = nn_chain(chain, model.geometry.n_sites)
    plan_t = protocol_for_model(model, hw)
    cfg = AdiabaticConfig(init, target, steps=11, theta1=0.1, ramp="cosine",
                          error_model=ErrorModel(0.03, 0.02, seed=5), record_every=record_every)
    path = GroundPath(init, target)
    path.start
    made = spy_generators(monkeypatch)
    stacked, solve = [], engine._spectrum
    monkeypatch.setattr(engine, "_spectrum", lambda mats, *a: stacked.append(len(mats[0])) or
                        solve(mats, *a))
    seeds = [5, 9]
    results = adiabatic_batch(cfg, hw, seeds, plan_target=plan_t, ground_path=path)
    # recorded steps in chunks of two k, then the final spectrum at k = 0
    recorded = len(results[0].trajectory)
    assert stacked == [2] * (recorded // 2) + [1] * (recorded % 2) + [1]
    assert len(made) == len(seeds)
    for result, rng, seed in zip(results, made, seeds):
        ref, ref_rng = reference_trajectory(cfg, hw, plan_t, seed, path.start)
        assert [row[:2] for row in result.trajectory] == [row[:2] for row in ref]
        for (_, _, fid, energy), (_, _, ref_fid, ref_energy) in zip(result.trajectory, ref):
            assert abs(fid - ref_fid) <= AMP_TOL and abs(energy - ref_energy) <= AMP_TOL
        assert rng.random() == ref_rng.random()  # the next draw is the same


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
    scales = np.array([1.0, 0.37, -2.0, 1e-15, 1e-310, 1e-323, 0.0])
    template, slots, regular = cycle_template(plan, 1.0, 0, scales)
    assert regular.tolist() == [True, True, True, False, False, False, False]
    # the field layer (first) and the gates take the plan's slot
    assert slots == [0 if i == 0 or isinstance(ins, RawGate) else None
                     for i, ins in enumerate(template)]
    template, slots, regular = cycle_template(replace(plan, local_fields=None), 1.0, 1, scales)
    assert regular.tolist() == [True] * 5 + [False] * 2
    assert slots == [1 if isinstance(ins, RawGate) else None for ins in template]


def per_scale_regular(plan, dt, scales):
    """cycle_template's regular mask by the rule it replaced: one
    LoweredLayer per scale, its active sites compared with scale one's."""
    template = emit_cycle(plan, dt)
    regular = scales != 0.0
    thetas = [ins.theta for ins in template if isinstance(ins, RawGate)]
    if thetas:
        regular &= np.all(np.multiply.outer(scales, thetas) != 0.0, axis=1)
    active = [None if f is None else engine.LoweredLayer(np.zeros(plan.n_qubits), *f).active
              for f in (field_angles(plan, dt * s) for s in [1.0, *scales])]
    return regular & np.array([a == active[0] for a in active[1:]], dtype=bool)


@pytest.mark.parametrize("model", ["heisenberg", "random_ising"])
def test_field_masks_match_the_per_scale_rule(model):
    n = 7
    if model == "heisenberg":  # one field on every site
        named = NamedModel("heisenberg", Geometry.chain(n), j=-1.0, b=0.4, direction=(0.6, 0.0, 0.8))
        hw = LatticeModel(n_sites=n)
    else:  # a field per site, one of them zero
        named = NamedModel("random_ising", Geometry.chain(n), j_range=(0.5, 1.5), seed=3,
                           b_list=(0.3, 0.0, 0.5, 0.2, 0.7, 0.25, 0.4))
        hw = chain_trap(n)
    plan = protocol_for_model(named, hw)
    norms = plan.field_axes[0]
    rng = np.random.default_rng(0)
    cases, flips = 0, []
    # a plain dt, and dts whose scale-one field sits at the identity
    # tolerance and at FIELD_ANGLE_FLOOR, so that scales near one cross them
    for dt in (0.1, 1.25e-14 / norms.max(), FIELD_ANGLE_FLOOR / norms[norms > 0].min()):
        near = 1.0 + np.linspace(-0.3, 0.3, 61)
        edge = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
        scales = np.concatenate([near, near * 1.25e-14 / (dt * norms.max()), edge,
                                 [0.0, 1e-323, -1e-310], rng.uniform(-2.0, 2.0, 38)])
        cases += scales.size
        _, _, regular = cycle_template(plan, dt, 0, scales)
        expect = per_scale_regular(plan, dt, scales)
        assert regular.tolist() == expect.tolist()
        flips.append(int(np.sum(expect[:-1] != expect[1:])))
    assert cases == 498
    assert min(flips) >= 2  # each dt's scales cross a boundary of the rule


def test_fig5_step_fuses_into_twelve_blocks_and_three_diagonals(monkeypatch):
    n = 9
    hw = LatticeModel(n_sites=n)
    plans = (plan_for_hamiltonian(nn_chain("xx", n), hw),
             protocol_for_model(NamedModel("dipole", Geometry.chain(n)), hw))
    dt = 0.025 / max(p.max_unit_angle() for p in plans)
    (ins_i, slots_i, _), (ins_t, slots_t, _) = (cycle_template(p, dt, j, [])
                                                for j, p in enumerate(plans))
    err = ErrorModel(0.01, 0.01, seed=1)
    cycle = engine.FusedCycle(ins_i + ins_t, n, err.eta_local, err.eta_int, slots_i + slots_t)
    assert [step[0] for step in cycle.steps].count("block") == 12
    # each block one np.matmul, each diagonal one np.multiply, into `out`
    calls = {"matmul": 0, "multiply": 0}
    for name in calls:
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, name=name, **kw:
                            calls.__setitem__(name, calls[name] + ("out" in kw)) or real(*a, **kw))
    amps = np.tile(random_amps(n, 1), (2, 1))
    ks = np.array([0.9, 0.7, 0.5])
    cycle.execute(amps, 3, [err.rng(), err.rng()], None, np.column_stack([ks, 1.0 - ks]))
    assert calls == {"matmul": 12 * 3, "multiply": 3 * 3}


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
