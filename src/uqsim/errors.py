"""The errors that the command line maps to exit codes (uqsim.cli.main).

They import nothing, so an except clause that names them loads no
planner or executor, and a failing command runs only its own modules.
Each module that raises one re-exports it: uqsim.schedule the compile
errors, uqsim.engine EngineError, StateFormatError and LogFormatError
(which uqsim.execlog raises), uqsim.hardware HardwareError and
uqsim.experiments ExperimentError.
"""


class CompileError(Exception):
    """Base class for compilation failures."""


class InfeasibleTargetError(CompileError):
    """Homogeneous control cannot produce the target (sign condition)."""


class HardwareConstraintError(CompileError):
    """The hardware model cannot realize the requested schedule."""


class UnsupportedInteractionError(CompileError):
    """Interaction matrix outside the synthesizable library."""


class EngineError(Exception):
    pass


class StateFormatError(EngineError):
    """A malformed or unnormalised state dump (a parse error, not a numeric one)."""


class LogFormatError(EngineError):
    """A malformed execution log, or one that does not fit the run that
    replays it (an input error, not a numeric one)."""


class HardwareError(Exception):
    """Invalid hardware description or unsolvable addressing problem."""


class ExperimentError(Exception):
    pass
