"""Compiled schedules through `uqsim simulate`: pinned output bytes, one
lowering per distinct instruction, kernel calls per repeated cycle, the
contract the benchmark's tracer reads, and replay of a run from its
execution log."""
import base64
import dataclasses
import hashlib
import inspect
import json
import math
import re

import numpy as np
import pytest

import oracles
from uqsim import engine, execlog, kernels
from uqsim.cli import main
from uqsim.compiler import (
    ApplyLocal,
    PulseSchedule,
    RawGate,
    emit_cycle,
    plan_for_hamiltonian,
    schedule_from_text,
    trotter_schedule,
)
from uqsim.engine import (
    EngineError,
    ErrorModel,
    ExecutionLog,
    LogDraws,
    LogFormatError,
    LoweredLayer,
    StateVector,
    run_schedule,
)
from uqsim.experiments import Geometry, NamedModel, cycle_template, nn_chain, protocol_for_model
from uqsim.hardware import LatticeModel, TrapArrayModel
from uqsim.pauli import Hamiltonian, LocalLayer, SingleQubitUnitary

# A random-field Ising chain on 4 trap ions. Compiled at t'=0.5 and eps=0.05
# it is 14 cycles of 10 instructions (7 layers, 3 gates).
ISING4 = """# hamiltonian n_qubits=4
-0.4 Z Z I I
-0.7 I Z Z I
-0.55 I I Z Z
0.3 X I I I
0.45 I X I I
0.6 I I X I
0.35 I I I X
"""
COMPILE_CFG = """[hardware]
platform = uqs2
gamma = 1.0
positions = 0 ; 1 ; 2 ; 3
[compile]
hamiltonian = ham.ham
t_prime = 0.5
epsilon = 0.05
"""
SIMULATE_CFG = """[simulate]
schedule = compiled/schedule.txt
oracle_hamiltonian = ham.ham
t_prime = 0.5
eta_local = 0.01
eta_int = 0.02
"""
ETAS = (0.01, 0.02)
SEED = 5
# sha256 of the outputs at SEED. The state was recorded once the engine ran
# repeated cycles as fused blocks (the 4 ions are one qubit group, so each
# cycle is one block), which moved its last bits. The log was recorded once
# it was written as version 2 (codes and draws in base64); it keeps only
# the draws that reach the state (a local layer's active qubits), and
# neither change moved the draws or the state.
STATE_SHA256 = "62b8f9df161d9468aae90cca8aad5bda8e9bedb7683ccd8fa6a9d03d979f4046"
LOG_SHA256 = "e665227ebff372601eedabfbede26ae944da21312ad7b5b3581ef87ee47ed098"


@pytest.fixture
def simulated(tmp_path):
    """The compiled ISING4 schedule run by `uqsim simulate` at SEED."""
    (tmp_path / "ham.ham").write_text(ISING4)
    (tmp_path / "compile.cfg").write_text(COMPILE_CFG)
    (tmp_path / "sim.cfg").write_text(SIMULATE_CFG)
    assert main(["compile", "--config", str(tmp_path / "compile.cfg"),
                 "--out-dir", str(tmp_path / "compiled")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "sim.cfg"), "--seed", str(SEED),
                 "--oracle", "--out-dir", str(tmp_path / "out")]) == 0
    return tmp_path


def test_outputs_are_pinned_byte_for_byte(simulated):
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    assert schedule.num_cycles >= 3 and len(schedule.instructions) > engine._CHUNK
    out = simulated / "out"
    assert hashlib.sha256((out / "execution_log.txt").read_bytes()).hexdigest() == LOG_SHA256
    assert hashlib.sha256((out / "state.txt").read_bytes()).hexdigest() == STATE_SHA256
    # the pin is not the only check: the per-instruction reference agrees
    ref = StateVector.zero_state(4).amps
    err = ErrorModel(*ETAS, seed=SEED)
    oracles.reference_execute(ref, 4, schedule.instructions, err, err.rng())
    state = StateVector.load_text((out / "state.txt").read_text())
    assert np.max(np.abs(state.amps - ref)) <= 1e-12


def test_replay_reproduces_the_state_dump(simulated):
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    text = (simulated / "out" / "execution_log.txt").read_text()
    log = ExecutionLog.from_text(text)
    assert log.seed == SEED and log.to_text() == text
    # the log's draws stand in for the generator: the seed here is never used
    err = ErrorModel(*ETAS, seed=SEED + 1)
    final, replayed = run_schedule(StateVector.zero_state(4), schedule, err, replay=log)
    assert final.dump_text() == (simulated / "out" / "state.txt").read_text()
    assert replayed.to_text() == text


def test_replay_of_a_log_with_shortest_repr_draws(simulated):
    # logs were written with each draw's shortest repr before %.17g; the pin
    # below is that older text of this run, and it replays bit for bit
    out = simulated / "out"
    text = (out / "execution_log.txt").read_text()
    older = f"# execution log rng=numpy-PCG64 seed={SEED}\n" + "".join(
        f"{i} {kind} {','.join(map(repr, values)) or '-'}\n"
        for i, (kind, values) in enumerate(oracles.log_entries(text)))
    assert hashlib.sha256(older.encode()).hexdigest() == (
        "eced476bbb3c56362eb224a6905262d23bd0d3a32d3a43f0843add0f7921b078")
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    err = ErrorModel(*ETAS, seed=SEED + 1)
    final, replayed = run_schedule(StateVector.zero_state(4), schedule, err,
                                   replay=ExecutionLog.from_text(older))
    assert final.dump_text() == (out / "state.txt").read_text()
    assert replayed.to_text() == text


def test_replay_refuses_a_log_of_another_run(simulated):
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    log = ExecutionLog.from_text((simulated / "out" / "execution_log.txt").read_text())
    start = StateVector.zero_state(4)
    with pytest.raises(LogFormatError, match="do not match the log"):
        run_schedule(start, schedule, ErrorModel(ETAS[0], 0.0, seed=1), replay=log)
    short = type(schedule)(4, schedule.instructions[:-1])
    with pytest.raises(LogFormatError, match="140 instructions, the run 139"):
        run_schedule(start, short, ErrorModel(*ETAS, seed=1), replay=log)
    longer = type(schedule)(4, schedule.instructions + schedule.instructions[:1])
    with pytest.raises(LogFormatError, match="do not match the log"):
        run_schedule(start, longer, ErrorModel(*ETAS, seed=1), replay=log)


def version_1(entries, seed=SEED):
    """A version-1 log text of (kind, draws) entries, each draw as %.17g."""
    return f"# execution log rng=numpy-PCG64 seed={seed}\n" + "".join(
        f"{i} {kind} {','.join('%.17g' % v for v in values) or '-'}\n"
        for i, (kind, values) in enumerate(entries))


def simulate_replay(simulated, text, *extra):
    """Exit code and out dir of `uqsim simulate --replay` of a log text."""
    (simulated / "replay.log").write_text(text)
    out = simulated / "replayed"
    code = main(["simulate", "--config", str(simulated / "sim.cfg"), "--oracle", "--replay",
                 str(simulated / "replay.log"), "--out-dir", str(out), *extra])
    return code, out


@pytest.mark.parametrize("version", [1, 2])
def test_simulate_replay_reproduces_the_run(simulated, version):
    # the config holds no seed: the run takes it, and every draw, from the log
    out = simulated / "out"
    text = (out / "execution_log.txt").read_text()
    if version == 1:
        text = version_1(oracles.log_entries(text))
    code, replayed = simulate_replay(simulated, text)
    assert code == 0
    for name in ("state.txt", "execution_log.txt", "summary.json"):
        assert (replayed / name).read_bytes() == (out / name).read_bytes(), name
    manifest = json.loads((replayed / "manifest.json").read_text())
    assert manifest["seed"] == SEED
    assert manifest["replay"]["sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_simulate_replay_of_a_log_that_does_not_fit_exits_1(simulated, capsys):
    text = (simulated / "out" / "execution_log.txt").read_text()
    entries = oracles.log_entries(text)
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    other = PulseSchedule(4, schedule.instructions[::-1])
    _, other_log = run_schedule(StateVector.zero_state(4), other, ErrorModel(*ETAS, seed=SEED))
    for bad, extra, why in [
        (text[:len(text) // 2] + "\n", (), "line 2: draws: "),   # cut mid-line
        (version_1(entries[:-1]), (), "do not match the log"),
        (version_1(entries + entries[:1]), (), "the log holds 141 instructions, the run 140"),
        (other_log.to_text(), (), "do not match the log"),
        (text.replace("version=2", "version=3"), (), "line 1: version=3 is not 1 or 2"),
        (text, ("--seed", "6"), "the log is of seed=5, not --seed 6"),
        (version_1([(kind, []) for kind, _ in entries], None), (), "a run without jitter"),
    ]:
        code, out = simulate_replay(simulated, bad, *extra)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists(), why
        assert err.startswith(f"uqsim: --replay {simulated / 'replay.log'}: ") and why in err


def test_replay_of_layers_with_inactive_qubits():
    # a field layer, one-ion echo pulses, an identity and a bare phase
    # (theta = 0, alpha != 0: active), 12 cycles, so that one pass of the
    # repeated cycle draws for many occurrences
    n, err = 6, ErrorModel(*ETAS, seed=SEED)
    ident = [SingleQubitUnitary.identity()] * n

    def one_ion(q, u):
        return ApplyLocal(LocalLayer.inhomogeneous(ident[:q] + [u] + ident[q + 1:]))

    echo = [one_ion(q, SingleQubitUnitary.rot((1.0, 0.0, 0.0), math.pi / 2)) for q in (1, 4)]
    field = ApplyLocal(LocalLayer.homogeneous(SingleQubitUnitary.rot((0.6, 0.0, 0.8), 0.3)))
    gate = RawGate("zz", 0.2, ((0, 1, 1.0), (3, 4, -0.5)))
    cycle = (field, echo[0], gate, echo[0], ApplyLocal(LocalLayer.identity()),
             one_ion(2, SingleQubitUnitary(np.exp(0.3j) * np.eye(2))), echo[1], gate, echo[1])
    schedule = PulseSchedule(n, cycle * 12)
    start = StateVector.zero_state(n)
    final, log = run_schedule(start, schedule, err)
    text = log.to_text()
    # each instruction logs the draws of its active qubits or targets, in order,
    # out of all that the generator drew for it
    rng, full, counts = err.rng(), [f"# execution log rng=numpy-PCG64 seed={SEED}"], []
    entries = oracles.log_entries(text)
    assert len(entries) == len(schedule.instructions)
    for i, (ins, (kind, values)) in enumerate(zip(schedule.instructions, entries)):
        if kind == "local":
            drawn = rng.uniform(-ETAS[0], ETAS[0], size=n).tolist()
            active = [q for q in range(n) if not ins.layer.unitary_at(q).is_identity()]
            counts.append(len(values))
        else:
            drawn = rng.uniform(-ETAS[1], ETAS[1], size=len(ins.targets)).tolist()
            active = range(len(drawn))
        assert values == [drawn[q] for q in active]
        full.append(f"{i} {kind} {','.join(map(repr, drawn))}")
    assert counts[:7] == [6, 1, 1, 0, 1, 1, 1]
    # the log replays the run bit for bit and writes the same text
    again, replayed = run_schedule(start, schedule, ErrorModel(*ETAS, seed=SEED + 1),
                                   replay=ExecutionLog.from_text(text))
    assert np.array_equal(again.amps, final.amps) and replayed.to_text() == text
    # a log of every draw made, one per qubit per layer, is refused, not misread
    with pytest.raises(LogFormatError, match="do not match the log"):
        run_schedule(start, schedule, err, replay=ExecutionLog.from_text("\n".join(full) + "\n"))


def trap_chain(n):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), gamma=1.0)


def ising_chain(n):
    text = [f"-0.5 {' '.join('Z' if q in (a, a + 1) else 'I' for q in range(n))}"
            for a in range(n - 1)]
    text += [f"0.4 {' '.join('X' if q == a else 'I' for q in range(n))}" for a in range(n)]
    return Hamiltonian.from_text("\n".join(text) + "\n")


def test_each_distinct_instruction_is_lowered_once(monkeypatch):
    assert not hasattr(engine, "_LAYER_CACHE")
    real_layer = LoweredLayer.from_layer
    counts = {"layer": 0}

    def counting_layer(layer, n):
        counts["layer"] += 1
        return real_layer(layer, n)

    monkeypatch.setattr(LoweredLayer, "from_layer", staticmethod(counting_layer))
    h, hw, eps = ising_chain(4), trap_chain(4), 0.05
    c = trotter_schedule(h, t_prime=0.1, epsilon=eps, hw=hw)[1].time_cost
    for cycles in (3, 30):
        # L = ceil(c^2 t'^2 / eps)
        t_prime = 0.999 * math.sqrt(cycles * eps) / c
        schedule, cost = trotter_schedule(h, t_prime=t_prime, epsilon=eps, hw=hw)
        assert cost.num_gates == cycles
        distinct = {id(ins): ins for ins in schedule.instructions}.values()
        gates = sum(isinstance(ins, RawGate) for ins in distinct)
        assert 0 < gates < len(distinct) < len(schedule.instructions)
        counts.update(layer=0)
        run_schedule(StateVector.zero_state(4), schedule, ErrorModel(*ETAS, seed=2))
        assert counts == {"layer": len(distinct) - gates}


def count_calls(monkeypatch):
    """Calls of the state-sized kernels and of the per-pass builds.
    Execution applies a block as one np.matmul and a kept-row diagonal as
    one np.multiply, each into `out` ("block", "zz"), a diagonal whose sign
    rows it makes as one _apply_zz ("made"); a pass builds blocks with
    _fused_block ("build") and a diagonal's phases with _zz_phases
    ("phases")."""
    counts = dict.fromkeys(("block", "zz", "made", "single", "build", "phases"), 0)

    def spy(owner, name, key, into_out=False):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += not into_out or "out" in kwargs
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(np, "matmul", "block", into_out=True)
    spy(np, "multiply", "zz", into_out=True)
    spy(engine, "_apply_zz", "made")
    spy(kernels, "apply_single_qubit", "single")
    spy(engine, "_fused_block", "build")
    spy(engine, "_zz_phases", "phases")
    return counts


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("err", [None, ErrorModel(0.002, 0.001, seed=1)])
def test_repeated_trap_chain_cycles_make_four_kernel_calls_each(monkeypatch, err, header):
    # the trotter-uqs2 shape: on 8 ions a cycle is a field layer, 14 one-ion
    # echo pulses and 7 one-pair gates, and ZZ(3, 4) is the one gate across
    # the two 4-qubit groups. The executor finds the cycles itself, so a
    # schedule without its cycle fields runs the same
    schedule, cost = trotter_schedule(ising_chain(8), t_prime=0.6, epsilon=0.01, hw=trap_chain(8))
    # a pass holds 3 (2^4, 2^4) blocks and the (2^8,) phases per cycle
    cycles, per_pass = cost.num_gates, engine._CHUNK_BLOCKS // 4
    assert schedule.cycle_length == 22 and cycles > per_pass
    if not header:
        schedule = dataclasses.replace(schedule, cycle_length=None, num_cycles=None)
    counts = count_calls(monkeypatch)
    run_schedule(StateVector.zero_state(8), schedule, err)
    assert counts["block"] + counts["zz"] + counts["made"] + counts["single"] <= 4 * cycles
    assert counts["single"] == counts["made"] == 0 and counts["zz"] == cycles
    # 3 blocks per cycle (0..3, 4..7 twice), all unlike, so 3 builds per
    # pass of up to per_pass cycles, and per pass the phases of ZZ(3, 4)
    # and of the 6 one-pair gates inside the blocks; noiseless, each is
    # built once
    passes = 1 if err is None else -(-cycles // per_pass)
    assert counts["build"] == 3 * passes and counts["phases"] == 7 * passes


@pytest.mark.parametrize("n, initial, rows, blocks", [(7, "zz", 10, 6), (9, "xx", 1, 12)])
def test_adiabatic_template_cycles_build_two_block_shapes_per_pass(monkeypatch, n, initial, rows,
                                                                    blocks):
    # the fig4b-cell (7 sites, 10 rows) and fig5 (9 sites) template cycles:
    # their blocks are one layer's 2x2s over groups of 4 and 3 qubits, or
    # over three groups of 3, in 2 shapes, so each pass makes 2 builds
    hw = LatticeModel(n_sites=n)
    plans = (plan_for_hamiltonian(nn_chain(initial, n), hw),
             protocol_for_model(NamedModel("dipole", Geometry.chain(n)), hw))
    dt = 0.025 / max(p.max_unit_angle() for p in plans)
    (ins_i, slots_i, _), (ins_t, slots_t, _) = (cycle_template(p, dt, j, [])
                                                for j, p in enumerate(plans))
    err = ErrorModel(0.02, 0.02, seed=1)
    cycle = engine.FusedCycle(ins_i + ins_t, n, err.eta_local, err.eta_int, slots_i + slots_t)
    passes = 2
    count = passes * cycle.per_pass(rows)
    ks = np.linspace(0.99, 0.01, count)
    amps = np.zeros((rows, 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    diagonals = [s[0] for s in cycle.steps].count("zz")
    assert diagonals == 3
    counts = count_calls(monkeypatch)
    cycle.execute(amps, count, [err.rng() for _ in range(rows)], None,
                  np.column_stack([ks, 1.0 - ks]))
    assert counts["build"] == 2 * passes and counts["phases"] == diagonals * passes
    assert counts["block"] == blocks * count and counts["zz"] == diagonals * count
    assert counts["single"] == counts["made"] == 0


def test_an_adiabatic_step_runs_as_one_fused_pass(monkeypatch):
    # an adiabatic step of the same chain, run once, fuses as a repeated
    # cycle does: 3 blocks and the ZZ(3, 4) diagonal, no single-qubit calls,
    # and 7 phase builds (ZZ(3, 4) and the 6 one-pair gates in the blocks)
    plan = plan_for_hamiltonian(ising_chain(8), trap_chain(8))
    err = ErrorModel(0.01, 0.02, seed=3)
    amps = np.zeros((2, 256), dtype=complex)
    amps[:, 0] = 1.0
    counts = count_calls(monkeypatch)
    step = engine.FusedCycle(emit_cycle(plan, 0.1, 0.6), 8, err.eta_local, err.eta_int)
    assert step.execute(amps, 1, [err.rng(), err.rng()], None) == 22
    assert counts == {"block": 3, "zz": 1, "made": 0, "single": 0, "build": 3, "phases": 7}


def test_the_tracer_reads_execute_instructions_by_position():
    # perfbench/spans.py::_execute_work takes n_qubits, instructions and err
    # from the positional arguments of execute_instructions
    params = list(inspect.signature(engine.execute_instructions).parameters)
    assert params[:4] == ["amps", "n_qubits", "instructions", "err"]


def test_run_schedule_goes_through_execute_instructions(monkeypatch):
    calls = []
    real = engine.execute_instructions

    def spy(*args, **kwargs):
        calls.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "execute_instructions", spy)
    schedule, _ = trotter_schedule(ising_chain(3), t_prime=0.2, epsilon=0.05, hw=trap_chain(3))
    run_schedule(StateVector.zero_state(3), schedule, ErrorModel(*ETAS, seed=1))
    assert calls == [len(schedule.instructions)]


def v2_line(first, entries, count=None, draws=None):
    """A version-2 log line of (kind, draws) entries, base64 made here."""
    codes = [(0x8000 if kind == "gate" else 0) | len(values) for kind, values in entries]
    values = [v for _, v in entries for v in v] if draws is None else draws
    b64 = [base64.b64encode(np.array(a, dtype=dtype).tobytes()).decode() or "-"
           for a, dtype in ((codes, "<u2"), (values, "<f8"))]
    return f"{first} {len(codes) if count is None else count} {b64[0]} {b64[1]}\n"


class TestLogText:
    HEAD = "# execution log rng=numpy-PCG64 seed=3\n"
    HEAD2 = "# execution log rng=numpy-PCG64 seed=3 version=2\n"
    ENTRIES = [("local", [0.001, -0.002]), ("gate", []), ("gate", [5e-324])]

    def test_round_trip(self):
        text = self.HEAD2 + v2_line(0, self.ENTRIES)
        log = ExecutionLog.from_text(text)
        assert log.to_text() == text and oracles.log_entries(text) == self.ENTRIES
        parsed = LogDraws(log).take(execlog.log_codes(["local", "gate", "gate"], [2, 0, 1]))
        assert parsed.tolist() == [[0.001, -0.002, 5e-324]]
        assert ExecutionLog.from_text(ExecutionLog().to_text()).seed is None
        # version 1, each draw as %.17g or as its shortest repr, reads as the same values
        for draw in ("4.9406564584124654e-324", "5e-324"):
            older = self.HEAD + f"0 local 0.001,-0.002\n1 gate -\n2 gate {draw}\n"
            assert ExecutionLog.from_text(older).to_text() == text

    def test_draws_round_trip_bit_for_bit(self):
        # signed zero, the least subnormal, the extremes and random draws,
        # over more instructions than a line holds
        special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(7)
        sizes = rng.integers(0, 9, size=execlog._LOG_LINE + 300)
        sizes[0] = len(special)
        kinds = ["gate" if k else "local" for k in rng.integers(0, 2, size=sizes.size)]
        draws = np.concatenate([special, rng.uniform(-0.01, 0.01, size=sizes.sum() - 6)])
        log = ExecutionLog(seed=9)
        log.record(execlog.log_codes(kinds, sizes), draws)
        text = log.to_text()
        assert len(text.splitlines()) == 3  # the header and two lines
        again = LogDraws(ExecutionLog.from_text(text))
        assert again.values.view(np.uint64).tolist() == draws.view(np.uint64).tolist()
        assert again.codes.tolist() == execlog.log_codes(kinds, sizes).tolist()
        assert ExecutionLog.from_text(text).to_text() == text

    @pytest.mark.parametrize("per_pass", [1, 7, 256])
    def test_text_does_not_depend_on_the_passes(self, monkeypatch, per_pass):
        # 150 cycles of 10 instructions: passes of 1, 7 or 150 occurrences,
        # cut across the lines of 1024 instructions in different places
        schedule, _ = trotter_schedule(Hamiltonian.from_text(ISING4), 0.5, 0.05, trap_chain(4),
                                       num_cycles=150)
        err = ErrorModel(*ETAS, seed=SEED)
        _, reference = run_schedule(StateVector.zero_state(4), schedule, err)
        monkeypatch.setattr(engine, "_CHUNK_BLOCKS", per_pass)
        passes, record = [], ExecutionLog.record
        monkeypatch.setattr(ExecutionLog, "record",
                            lambda log, codes, draws: passes.append(len(codes)) or record(
                                log, codes, draws))
        _, log = run_schedule(StateVector.zero_state(4), schedule, err)
        assert passes[0] == 10 * min(per_pass, 150)
        assert log.to_text() == reference.to_text()
        assert [line.split()[:2] for line in log.to_text().splitlines()[1:]] == [
            ["0", "1024"], ["1024", "476"]]

    @pytest.mark.parametrize("text, line", [
        ("0 local -\n", 1),
        ("# pulse schedule n_qubits=2\n0 local -\n", 1),
        ("# execution log rng=numpy-PCG64 seed=x\n", 1),
        ("# execution log rng=numpy-PCG64 seed=-5\n", 1),
        (HEAD + "1 local -\n", 2),
        (HEAD + "0 local -\n0 gate -\n", 3),
        (HEAD + "0 layer -\n", 2),
        (HEAD + "0 gate\n", 2),
        (HEAD + "0 gate 0.1 0.2\n", 2),
        (HEAD + "0 gate 0.1,nan\n", 2),
        (HEAD + "0 gate inf\n", 2),
        (HEAD + "0 gate 0.1,-\n", 2),
        (HEAD + "0 gate 0.1,,0.2\n", 2),
        (HEAD + "0 gate \n", 2),
        (HEAD + "x gate -\n", 2),
        ("", 1),
    ])
    def test_malformed_text_names_the_line(self, text, line):
        with pytest.raises(LogFormatError, match=f"line {line}:"):
            ExecutionLog.from_text(text)
        assert issubclass(LogFormatError, EngineError)

    GOOD = v2_line(0, [("gate", [0.1])])
    FULL = v2_line(0, [("local", [])] * 1024)

    @pytest.mark.parametrize("body, line, why", [
        ("0 1 AQ!A -\n", 2, "codes: bad base64"),
        ("0 1 AQA AAAAAAAA8D8=\n", 2, "codes: bad base64"),
        ("0 1 AQCA AAAAAAAA8D8=\n", 2, "codes: 3 bytes is not a whole number of 2-byte"),
        (GOOD.replace("mpmZmZmZuT8=", "mpmZmZmZuT8A"), 2, "draws: 9 bytes is not"),
        (v2_line(0, [("gate", [0.1])], draws=[0.1, 0.2]), 2, "2 draws, the codes count 1"),
        (v2_line(0, [("gate", [0.1, 0.2])], draws=[0.1]), 2, "1 draws, the codes count 2"),
        (v2_line(0, [("gate", [0.1])], draws=[]), 2, "0 draws, the codes count 1"),
        (v2_line(0, [("gate", [float("nan")])]), 2, "non-finite draw"),
        (v2_line(0, [("gate", [float("-inf")])]), 2, "non-finite draw"),
        (v2_line(1, [("gate", [0.1])]), 2, "expected index 0, got '1'"),
        (FULL + v2_line(1025, [("gate", [0.1])]), 3, "expected index 1024, got '1025'"),
        (GOOD + v2_line(1, [("gate", [0.1])]), 2, "the last 1 to 1024; got '1'"),
        (v2_line(0, [("gate", [0.1])], count=2), 2, "1 codes for 2 instructions"),
        (v2_line(0, [("gate", [0.1])], count="01"), 2, "got '01'"),
        (v2_line(0, [("gate", [0.1])], count=1025), 2, "got '1025'"),
        ("0 1 AEA= -\n", 2, "unknown kind bit"),
        (GOOD.rsplit(" ", 1)[0] + "\n", 2, "expected 'index count codes draws'"),
        ("\n" + GOOD, 2, "expected 'index count codes draws'"),
    ])
    def test_malformed_version_2_names_the_line(self, body, line, why):
        with pytest.raises(LogFormatError, match=f"^line {line}: .*{re.escape(why)}"):
            ExecutionLog.from_text(self.HEAD2 + body)

    @pytest.mark.parametrize("version", ["0", "3", "20"])
    def test_only_versions_1_and_2_read(self, version):
        with pytest.raises(LogFormatError, match=f"^line 1: version={version} is not 1 or 2"):
            ExecutionLog.from_text(self.HEAD2.replace("version=2", f"version={version}")
                                   + self.GOOD)
        text = self.HEAD.replace("\n", " version=1\n") + "0 gate 0.1\n"
        assert ExecutionLog.from_text(text).to_text() == self.HEAD2 + self.GOOD

    def test_replay_is_for_a_batch_of_one(self):
        log = ExecutionLog.from_text(self.HEAD + "0 gate 0.1\n")
        amps = np.zeros((2, 4), dtype=complex)
        with pytest.raises(EngineError, match="batch of one"):
            engine.execute_batch(amps, 2, [RawGate("g", 0.1, ((0, 1, 1.0),))],
                                 ErrorModel(0.0, 0.1, seed=1), engine.LogDraws(log))
