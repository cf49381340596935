"""A traced benchmark run end to end, on inputs small enough for tier 1.

perfbench/spans.py rebinds uqsim functions by name, and its counters read
the arguments of the calls they wrap (the text that OutputWriter.write is
given, the instructions that execute_instructions is given).
test_tracer_names only checks that the names exist; this runs
perfbench/child.py in its trace mode on each kind of command the benchmark
runs, so that a signature the tracer no longer fits fails here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
SRC = ROOT / "src"

INPUTS = {
    "target.ham": "# hamiltonian n_qubits=3\n-0.5 Z Z I\n-0.4 I Z Z\n0.3 X I I\n0.5 I I X\n",
    "compile.cfg": "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2\n"
                   "[compile]\nhamiltonian = target.ham\nt_prime = 1.0\nepsilon = 0.1\n",
    "simulate.cfg": "[simulate]\nschedule = compiled/schedule.txt\n"
                    "oracle_hamiltonian = target.ham\nt_prime = 1.0\n"
                    "eta_local = 0.002\neta_int = 0.001\n",
    "adiabatic.cfg": "[hardware]\nplatform = uqs1\nsites = 3\nboundary = open\n"
                     "available_j = all\ngamma = 1.0\n"
                     "[model]\nname = dipole\nj = 1.0\ngeometry = chain:3\n"
                     "[adiabatic]\ninitial = zz_chain\nsteps = 4\ntheta1 = 0.1\n"
                     "eta_local = 0.01\neta_int = 0.005\nrecord_every = 1\nseed = 1\n",
}


def start(tmp_path, name, argv):
    trace = tmp_path / f"{name}.json"
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), str(tmp_path / f"{name}.ready"),
         f"trace:{trace}", *argv],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return proc, trace


def finish(proc, trace):
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    calls = json.loads(trace.read_text())["calls"]
    assert calls.get("cli.output", 0) > 0
    return calls


def test_traced_commands_exit_0_and_count_their_outputs(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    compiled = start(tmp_path, "compile", ["compile", "--config", "compile.cfg",
                                           "--out-dir", "compiled"])
    adiabatic = start(tmp_path, "adiabatic", ["adiabatic", "--config", "adiabatic.cfg",
                                              "--jobs", "1", "--out-dir", "adiabatic"])
    assert finish(*compiled)["compiler.trotter_schedule"] == 1
    simulated = start(tmp_path, "simulate", ["simulate", "--config", "simulate.cfg", "--seed", "3",
                                             "--oracle", "--jobs", "1", "--out-dir", "simulated"])
    simulate_calls = finish(*simulated)
    assert simulate_calls["engine.execute"] >= 1
    # the oracle's functions are traced through the names engine and
    # experiments keep for the tracer, wherever uqsim.oracle calls them
    assert simulate_calls["engine.exact_evolve"] == 1
    adiabatic_calls = finish(*adiabatic)
    assert adiabatic_calls["experiments.adiabatic_run"] == 1
    assert adiabatic_calls["engine.spectrum"] >= 1
    assert adiabatic_calls["engine.ground_state"] == 1
    assert adiabatic_calls["experiments.min_gap"] == 1
