"""uqsim: compile spin Hamiltonians into raw-ZZ pulse schedules and execute
them on a dense statevector simulator with timing-error injection.

Every submodule but the command-line entry points is in sys.modules from
`import uqsim` on, and loads on first use (importlib.util.LazyLoader): a
`uqsim compile` process never compiles the executor, and `uqsim simulate`
never compiles the planner. The names below resolve through their
modules on first access (PEP 562).
"""
import importlib.util
import sys

__version__ = "0.1.0"

_SUBMODULES = ("errors", "kernels", "pauli", "schedule", "compiler", "hardware", "sectors",
               "records", "execlog", "engine", "experiments", "svg")

_EXPORTS = {name: module for module, names in {
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
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def _register(name: str):
    """uqsim.`name` in sys.modules, its source run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
