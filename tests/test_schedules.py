"""Compiled schedules through `uqsim simulate`: pinned output bytes, one
lowering per distinct instruction, kernel calls per repeated cycle, the
contract the benchmark's tracer reads, and replay of a run from its
execution log."""
import hashlib
import inspect
import math

import numpy as np
import pytest

import oracles
from uqsim import engine, kernels
from uqsim.cli import main
from uqsim.compiler import RawGate, plan_for_hamiltonian, schedule_from_text, trotter_schedule
from uqsim.engine import (
    EngineError,
    ErrorModel,
    ExecutionLog,
    LogFormatError,
    LoweredLayer,
    LoweredPlan,
    StateVector,
    ZZRun,
    run_schedule,
)
from uqsim.hardware import TrapArrayModel
from uqsim.pauli import Hamiltonian

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
# cycle is one block), which moved its last bits; the log, recorded before
# the engine lowered each distinct instruction once, has not moved since.
STATE_SHA256 = "62b8f9df161d9468aae90cca8aad5bda8e9bedb7683ccd8fa6a9d03d979f4046"
LOG_SHA256 = "8e06a612adf1c557bf185e81f263089a45979accdf82a826ff8e682c4a4c77d8"


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
    assert replayed.entries == log.entries


def test_replay_refuses_a_log_of_another_run(simulated):
    schedule = schedule_from_text((simulated / "compiled" / "schedule.txt").read_text())
    log = ExecutionLog.from_text((simulated / "out" / "execution_log.txt").read_text())
    start = StateVector.zero_state(4)
    with pytest.raises(EngineError, match="do not match the log"):
        run_schedule(start, schedule, ErrorModel(ETAS[0], 0.0, seed=1), replay=log)
    short = type(schedule)(4, schedule.instructions[:-1])
    with pytest.raises(EngineError, match="140 instructions, the run 139"):
        run_schedule(start, short, ErrorModel(*ETAS, seed=1), replay=log)
    longer = type(schedule)(4, schedule.instructions + schedule.instructions[:1])
    with pytest.raises(EngineError, match="do not match the log"):
        run_schedule(start, longer, ErrorModel(*ETAS, seed=1), replay=log)


def trap_chain(n):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), gamma=1.0)


def ising_chain(n):
    text = [f"-0.5 {' '.join('Z' if q in (a, a + 1) else 'I' for q in range(n))}"
            for a in range(n - 1)]
    text += [f"0.4 {' '.join('X' if q == a else 'I' for q in range(n))}" for a in range(n)]
    return Hamiltonian.from_text("\n".join(text) + "\n")


def test_each_distinct_instruction_is_lowered_once(monkeypatch):
    assert not hasattr(engine, "_LAYER_CACHE")
    real_layer, real_gate = LoweredLayer.from_layer, ZZRun.from_gate
    counts = {"layer": 0, "gate": 0}

    def counting_layer(layer, n):
        counts["layer"] += 1
        return real_layer(layer, n)

    def counting_gate(gate, n):
        counts["gate"] += 1
        return real_gate(gate, n)

    monkeypatch.setattr(LoweredLayer, "from_layer", staticmethod(counting_layer))
    monkeypatch.setattr(ZZRun, "from_gate", staticmethod(counting_gate))
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
        counts.update(layer=0, gate=0)
        run_schedule(StateVector.zero_state(4), schedule, ErrorModel(*ETAS, seed=2))
        assert counts == {"layer": len(distinct) - gates, "gate": gates}


def count_calls(monkeypatch):
    """Calls of the state-sized kernels and of the fused-block build."""
    counts = dict.fromkeys(("block", "zz", "single", "build"), 0)

    def spy(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(kernels, "apply_block", "block")
    spy(engine, "_apply_zz", "zz")
    spy(kernels, "apply_single_qubit", "single")
    spy(engine, "_fused_block", "build")
    return counts


@pytest.mark.parametrize("err", [None, ErrorModel(0.002, 0.001, seed=1)])
def test_repeated_trap_chain_cycles_make_four_kernel_calls_each(monkeypatch, err):
    # the trotter-uqs2 shape: on 8 ions a cycle is a field layer, 14 one-ion
    # echo pulses and 7 one-pair gates, and ZZ(3, 4) is the one gate across
    # the two 4-qubit groups
    schedule, cost = trotter_schedule(ising_chain(8), t_prime=0.6, epsilon=0.01, hw=trap_chain(8))
    cycles, per_pass = cost.num_gates, engine._CHUNK_BLOCKS // 3
    assert schedule.cycle_length == 22 and cycles > per_pass
    counts = count_calls(monkeypatch)
    run_schedule(StateVector.zero_state(8), schedule, err)
    assert counts["block"] + counts["zz"] + counts["single"] <= 4 * cycles
    assert counts["single"] == 0 and counts["zz"] == cycles
    # 3 blocks per cycle (0..3, 4..7 twice), built per pass of up to
    # per_pass cycles; noiseless, each is built once
    assert counts["build"] == 3 * (1 if err is None else -(-cycles // per_pass))


def test_an_adiabatic_step_runs_as_one_fused_pass(monkeypatch):
    # a LoweredPlan step of the same chain, run once, fuses as a repeated
    # cycle does: 3 blocks and the ZZ(3, 4) diagonal, no single-qubit calls
    plan = plan_for_hamiltonian(ising_chain(8), trap_chain(8))
    err = ErrorModel(0.01, 0.02, seed=3)
    amps = np.zeros((2, 256), dtype=complex)
    amps[:, 0] = 1.0
    counts = count_calls(monkeypatch)
    step = engine.FusedCycle(LoweredPlan(plan, 0.1, 8).ops(0.6), 8, err.eta_local, err.eta_int)
    assert step.execute(amps, 1, [err.rng(), err.rng()], None, 0) == 22
    assert counts == {"block": 3, "zz": 1, "single": 0, "build": 3}


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


class TestLogText:
    HEAD = "# execution log rng=numpy-PCG64 seed=3\n"

    def test_round_trip(self):
        text = self.HEAD + "0 local 0.001,-0.002\n1 gate -\n2 gate 5e-324\n"
        log = ExecutionLog.from_text(text)
        assert log.to_text() == text
        assert log.entries == [(0, "local", (0.001, -0.002)), (1, "gate", ()),
                               (2, "gate", (5e-324,))]
        assert ExecutionLog.from_text(ExecutionLog().to_text()).seed is None

    def test_entries_are_a_copy(self):
        log = ExecutionLog(entries=[(0, "gate", (0.5,))])
        log.entries.append((1, "gate", ()))
        assert log.entries == [(0, "gate", (0.5,))]

    @pytest.mark.parametrize("text, line", [
        ("0 local -\n", 1),
        ("# pulse schedule n_qubits=2\n0 local -\n", 1),
        ("# execution log rng=numpy-PCG64 seed=x\n", 1),
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

    def test_replay_is_for_a_batch_of_one(self):
        log = ExecutionLog.from_text(self.HEAD + "0 gate 0.1\n")
        amps = np.zeros((2, 4), dtype=complex)
        with pytest.raises(EngineError, match="batch of one"):
            engine.execute_batch(amps, 2, [RawGate("g", 0.1, ((0, 1, 1.0),))],
                                 ErrorModel(0.0, 0.1, seed=1), engine.LogDraws(log))
