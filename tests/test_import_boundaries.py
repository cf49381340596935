"""Each command compiles only the modules it runs, and the package surface
stays whole while its submodules load on first use.

uqsim registers every submodule at `import uqsim` and runs its source on
first attribute access, and cli.py binds what not every command runs as
modules. A later module-level import could load the executor into
`compile` or the planner into `simulate` again without changing any
output; these fresh-interpreter tests fail instead. An audit hook records
the code objects that `exec` runs, which is how a module's source runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqsim

SRC = Path(__file__).resolve().parents[1] / "src"

RUNNER = """
import json, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
sys.path.insert(0, sys.argv[1])
import uqsim.cli
code = uqsim.cli.main(sys.argv[2:])
package = os.path.dirname(uqsim.cli.__file__)
print(json.dumps({"code": code, "ran": sorted(os.path.basename(f)[:-3] for f in ran
                                              if os.path.dirname(f) == package)}))
"""

INPUTS = {  # a trotter-uqs2-style pipeline on 4 trap ions, and a small adiabatic run
    "target.ham": "# hamiltonian n_qubits=4\n-0.5 Z Z I I\n-0.4 I Z Z I\n-0.6 I I Z Z\n"
                  "0.3 X I I I\n0.5 I X I I\n0.2 I I X I\n0.4 I I I X\n",
    "compile.cfg": "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2 ; 3\n"
                   "[compile]\nhamiltonian = target.ham\nt_prime = 1.0\nepsilon = 0.1\n",
    "simulate.cfg": "[simulate]\nschedule = compiled/schedule.txt\n"
                    "oracle_hamiltonian = target.ham\nt_prime = 1.0\n"
                    "eta_local = 0.002\neta_int = 0.001\n",
    "adiabatic.cfg": "[hardware]\nplatform = uqs1\nsites = 3\nboundary = open\n"
                     "available_j = all\ngamma = 1.0\n"
                     "[model]\nname = dipole\nj = 1.0\ngeometry = chain:3\n"
                     "[adiabatic]\ninitial = zz_chain\nsteps = 4\ntheta1 = 0.1\n",
}

EXECUTOR = {"engine", "execlog", "sectors", "experiments", "svg"}
PLANNER = {"compiler", "hardware", "experiments", "svg"}


def start(cwd, *argv):
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(SRC), *argv], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def finish(proc) -> dict:
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return {**json.loads(out.splitlines()[-1]), "stderr": err}


def test_each_command_executes_only_the_modules_it_runs(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    compiled = start(tmp_path, "compile", "--config", "compile.cfg", "--out-dir", "compiled")
    adiabatic = start(tmp_path, "adiabatic", "--config", "adiabatic.cfg", "--out-dir", "adiabatic")
    compile_run = finish(compiled)
    simulate_run = finish(start(tmp_path, "simulate", "--config", "simulate.cfg", "--seed", "3",
                                "--oracle", "--out-dir", "simulated"))
    adiabatic_run = finish(adiabatic)

    assert compile_run["code"] == 0, compile_run["stderr"]
    assert {"compiler", "hardware", "schedule"} <= set(compile_run["ran"])
    assert not EXECUTOR & set(compile_run["ran"])

    assert simulate_run["code"] == 0, simulate_run["stderr"]
    assert {"engine", "schedule"} <= set(simulate_run["ran"])
    assert not PLANNER & set(simulate_run["ran"])
    assert "oracle_fidelity" in json.loads((tmp_path / "simulated" / "summary.json").read_text())

    assert adiabatic_run["code"] == 0, adiabatic_run["stderr"]
    assert EXECUTOR | PLANNER <= set(adiabatic_run["ran"])
    assert (tmp_path / "adiabatic" / "fidelity.svg").is_file()


@pytest.mark.parametrize("command, config, bad_file, bad_text", [
    ("compile", "compile.cfg", "target.ham", "# hamiltonian n_qubits=4\n1.0 Q Z I I\n"),
    ("simulate", "simulate.cfg", "state.txt", "# state n_qubits=4\nnot an amplitude\n"),
])
def test_an_error_named_in_a_module_not_yet_loaded_keeps_its_exit_code(
        tmp_path, command, config, bad_file, bad_text):
    # main's except clauses name the error classes of every module; they
    # live in uqsim.errors, so the failing command runs only its own modules
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "compiled").mkdir()
    (tmp_path / "compiled" / "schedule.txt").write_text("# pulse schedule version=1 n_qubits=4\n")
    (tmp_path / "simulate.cfg").write_text(INPUTS["simulate.cfg"] + "initial = file:state.txt\n")
    (tmp_path / bad_file).write_text(bad_text)
    run = finish(start(tmp_path, command, "--config", config, "--out-dir", "out"))
    assert run["code"] == 1
    assert run["stderr"].startswith("uqsim: ") and "numeric failure" not in run["stderr"]
    assert not (tmp_path / "out" / "manifest.json").exists()
    assert not (EXECUTOR if command == "compile" else PLANNER) & set(run["ran"])


NO_GENERATED_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import argparse, base64, cmath, concurrent.futures, configparser, dataclasses, functools, hashlib
import importlib, importlib.resources, importlib.util, itertools, json, math, operator, pathlib
import pkgutil, re, typing
import numpy
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>"
                 and compiled.append(str(args[0])[:80]))
import uqsim
for info in pkgutil.iter_modules(uqsim.__path__):
    if info.name != "__main__":
        importlib.import_module(f"uqsim.{info.name}").__name__  # runs a lazy module's source
print(json.dumps(compiled))
"""


def test_no_module_compiles_generated_code():
    # dataclasses.dataclass compiles each method that it adds from source
    # text, six per frozen class, in every process; uqsim.records adds them
    # as closures. The stdlib modules and numpy load before the hook, so only
    # what importing uqsim compiles is counted.
    proc = subprocess.run([sys.executable, "-c", NO_GENERATED_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


EXPORTED = {
    "pauli": "CoeffMatrix Hamiltonian LocalLayer PauliError PauliString SingleQubitUnitary "
             "coeff_matrix commutator commutator_generator conjugate from_coeff_matrix "
             "pauli_multiply",
    "errors": "CompileError EngineError HardwareConstraintError HardwareError "
              "InfeasibleTargetError UnsupportedInteractionError",
    "schedule": "ApplyLocal PulseSchedule RawGate",
    "compiler": "ControlSequence CostReport decoupling_echo effective_hamiltonian "
                "homogeneous_feasibility inhomogeneous_cost protocol_library "
                "synthesize_diagonal three_body_gate trotter_schedule",
    "hardware": "LatticeModel TrapArrayModel beam_compensation crosstalk_report "
                "geometry_remap uqs1_gate uqs2_push",
    "engine": "ErrorModel SpectrumCache StateVector exact_evolve expectation fidelity "
              "ground_state run_schedule",
}
NAMES = sorted((name, module) for module, names in EXPORTED.items() for name in names.split())


@pytest.mark.parametrize("name, module", NAMES)
def test_every_exported_name_is_its_defining_modules_object(name, module):
    scope = {}
    exec(f"from uqsim import {name}", scope)
    defining = sys.modules[f"uqsim.{module}"]
    assert scope[name] is getattr(defining, name) is getattr(uqsim, name)
    assert scope[name].__module__ == defining.__name__


def test_the_package_lists_its_exports_and_refuses_other_names():
    names = {name for name, _ in NAMES}
    assert set(uqsim.__all__) == names
    assert names | {"compiler", "engine", "schedule", "__version__"} <= set(dir(uqsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        uqsim.no_such_name
    with pytest.raises(ImportError):
        exec("from uqsim import no_such_name", {})


@pytest.mark.parametrize("name", [
    "ApplyLocal", "RawGate", "Instruction", "PulseSchedule", "MAX_INSTRUCTIONS", "CompileError",
    "InfeasibleTargetError", "HardwareConstraintError", "UnsupportedInteractionError",
    "schedule_text_chunks", "schedule_to_text", "schedule_from_text", "schedule_from_lines"])
def test_the_compiler_re_exports_the_instruction_set(name):
    from uqsim import compiler, schedule

    assert getattr(compiler, name) is getattr(schedule, name)


RAISED_BY = [  # each class of uqsim.errors, the module that raises it, its exit code and prefix
    ("CompileError", "schedule", 1, "uqsim: "),
    ("InfeasibleTargetError", "schedule", 2, "uqsim: infeasible: "),
    ("HardwareConstraintError", "schedule", 2, "uqsim: infeasible: "),
    ("UnsupportedInteractionError", "schedule", 2, "uqsim: infeasible: "),
    ("EngineError", "engine", 4, "uqsim: numeric failure: "),
    ("StateFormatError", "engine", 1, "uqsim: "),
    ("LogFormatError", "execlog", 1, "uqsim: "),
    ("HardwareError", "hardware", 4, "uqsim: numeric failure: "),
    ("ExperimentError", "experiments", 1, "uqsim: "),
]


@pytest.mark.parametrize("name, module, code, prefix", RAISED_BY)
def test_the_raising_module_re_exports_its_error_class(name, module, code, prefix):
    import importlib

    from uqsim import errors

    assert getattr(importlib.import_module(f"uqsim.{module}"), name) is getattr(errors, name)


@pytest.mark.parametrize("name, module, code, prefix", RAISED_BY)
def test_each_error_class_keeps_its_exit_code(tmp_path, monkeypatch, capsys, name, module, code,
                                              prefix):
    # a subclass is caught before its base: StateFormatError and
    # LogFormatError are EngineErrors that exit 1, and the three infeasible
    # CompileErrors exit 2
    from uqsim import cli, errors

    def fail(*_):
        raise getattr(errors, name)("the reason")

    monkeypatch.setitem(cli.HANDLERS, "cost", (fail,))
    (tmp_path / "c.cfg").write_text("[cost]\n")
    assert cli.main(["cost", "--config", str(tmp_path / "c.cfg")]) == code
    assert capsys.readouterr().err == f"{prefix}the reason\n"
