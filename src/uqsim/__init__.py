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

_SUBMODULES = ("kernels", "pauli", "schedule", "compiler", "hardware", "sectors", "engine",
               "experiments", "svg")

_EXPORTS = {name: module for module, names in {
    "pauli": "CoeffMatrix Hamiltonian LocalLayer PauliError PauliString SingleQubitUnitary "
             "coeff_matrix commutator commutator_generator conjugate from_coeff_matrix "
             "pauli_multiply",
    "schedule": "ApplyLocal CompileError HardwareConstraintError InfeasibleTargetError "
                "PulseSchedule RawGate UnsupportedInteractionError",
    "compiler": "ControlSequence CostReport decoupling_echo effective_hamiltonian "
                "homogeneous_feasibility inhomogeneous_cost magnetic_field_layer "
                "protocol_library synthesize_diagonal three_body_gate trotter_schedule",
    "hardware": "HardwareError LatticeModel PulseProfile TrapArrayModel beam_compensation "
                "crosstalk_report geometry_remap theta_from_pulse uqs1_gate uqs2_push",
    "engine": "EngineError ErrorModel SpectrumCache StateVector apply_local_layer "
              "apply_zz_gates eigenspace_histogram exact_evolve expectation fidelity "
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
