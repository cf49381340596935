"""The instruction set of a pulse schedule and its text format.

A PulseSchedule is a time-ordered tuple of instructions: ApplyLocal, a
layer of fast single-qubit unitaries, and RawGate, a raw ZZ interaction on
listed qubit pairs. The compiler (uqsim.compiler) emits them and the
executor (uqsim.engine) runs them; this module holds what both share, so
that running a schedule loads no planner. The schedule text holds a
schedule of L repeats of one cycle as that cycle and L (version 2), and any
other schedule line by line (version 1); MAX_INSTRUCTIONS bounds what a
schedule may hold. CompileError and its subclasses (uqsim.errors) are the
errors of compiling and of reading schedules.
"""
from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (  # noqa: F401  (the compile errors, re-exported)
    CompileError,
    HardwareConstraintError,
    InfeasibleTargetError,
    UnsupportedInteractionError,
)
from .kernels import STATEVECTOR_CAP
from .pauli import LocalLayer, PauliError, SingleQubitUnitary, read_header
from .records import record

if TYPE_CHECKING:
    from .compiler import CostReport


# ---------------------------------------------------------------------------
# Schedule IR
# ---------------------------------------------------------------------------

@record(frozen=True)
class ApplyLocal:
    """Apply a layer of fast single-qubit unitaries."""

    layer: LocalLayer


@record(frozen=True)
class RawGate:
    """exp(-i * theta * sum_targets w * Z_a Z_b) on the listed qubit pairs."""

    gate_id: str
    theta: float
    targets: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise CompileError("gate angle must be finite")
        for a, b, w in self.targets:
            if a == b:
                raise CompileError(f"gate targets identical qubit {a}")
            if not math.isfinite(w):
                raise CompileError(f"gate weight {w!r} on {a}-{b} is not finite")


Instruction = ApplyLocal | RawGate


@record(frozen=True)
class PulseSchedule:
    """Time-ordered instructions ready for execution (first entry acts first)."""

    n_qubits: int
    instructions: tuple[Instruction, ...]
    cost: CostReport | None = None
    cycle_length: int | None = None
    num_cycles: int | None = None


# ---------------------------------------------------------------------------
# Schedule text format
# ---------------------------------------------------------------------------

def _format_unitary(u: SingleQubitUnitary) -> str:
    return " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in u.matrix.ravel())


def _parse_unitary(tokens: list[str], parsed: dict) -> SingleQubitUnitary:
    """The unitary of 8 tokens, taken from `parsed` (tokens -> unitary) when
    they were read before; a SingleQubitUnitary is immutable, so equal
    tokens share one object."""
    key = tuple(tokens)
    hit = parsed.get(key)
    if hit is not None:
        return hit
    if len(tokens) != 8:
        raise CompileError(f"a unitary needs 8 floats, got {len(tokens)}")
    # (real, imag) pairs read as complex: exact, signed zeros included
    m = np.array([float(t) for t in tokens]).view(np.complex128)
    return parsed.setdefault(key, SingleQubitUnitary(m.reshape(2, 2)))


def _format_instruction(ins: Instruction) -> str:
    if isinstance(ins, ApplyLocal):
        layer = ins.layer
        if layer.is_homogeneous:
            return "LOCAL H " + _format_unitary(layer.unitary_at(0))
        return "LOCAL I " + " ".join(_format_unitary(layer.unitary_at(q)) for q in range(layer.n_qubits))
    targets = " ".join(f"{a}-{b}:{w!r}" for a, b, w in ins.targets)
    return f"GATE {ins.gate_id} {ins.theta!r} {targets}"


_PIECE_LINES = 1024
# Most instructions a schedule may hold: trotter_schedule emits no more, and
# a version=2 file may not ask for more by its cycles and cycle_length.
MAX_INSTRUCTIONS = 1 << 24


def _cycle_length(schedule: PulseSchedule) -> int | None:
    """The schedule's cycle_length when its body is the first cycle_length
    instructions repeated num_cycles > 1 times object for object, else None.
    Compared with `is`: an instruction's == compares numpy arrays."""
    m, body = schedule.cycle_length, schedule.instructions
    if (schedule.num_cycles or 0) > 1 and m and len(body) == m * schedule.num_cycles and all(
            map(operator.is_, body[m:], body[:-m])):
        return m
    return None


def schedule_text_chunks(schedule: PulseSchedule):
    """The schedule text format in pieces: the header line, then up to
    _PIECE_LINES instruction lines per piece. A schedule of num_cycles > 1
    repeats of one cycle is written as version=2, with only the lines of
    that cycle; any other as version=1, with every line. An instruction
    object that repeats is formatted once."""
    m = _cycle_length(schedule)
    header = f"# pulse schedule version={1 if m is None else 2} n_qubits={schedule.n_qubits}"
    for key, value in (("cycles", schedule.num_cycles), ("cycle_length", schedule.cycle_length)):
        if value:  # an empty schedule's 0 is no cycle field
            header += f" {key}={value}"
    yield header + "\n"
    line: dict[int, str] = {}  # id of an instruction -> its line
    body = schedule.instructions if m is None else schedule.instructions[:m]
    for start in range(0, len(body), _PIECE_LINES):
        yield "".join([line.get(id(i)) or line.setdefault(id(i), _format_instruction(i) + "\n")
                       for i in body[start:start + _PIECE_LINES]])


def schedule_to_text(schedule: PulseSchedule) -> str:
    """The whole text of schedule_text_chunks."""
    return "".join(schedule_text_chunks(schedule))


def _check_instruction(ins: Instruction, n_qubits: int) -> None:
    if isinstance(ins, RawGate):
        for a, b, _ in ins.targets:
            if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                raise CompileError(f"gate qubits {a}-{b} out of range for {n_qubits} qubits")
    elif not ins.layer.matches(n_qubits):
        raise CompileError(
            f"layer has {ins.layer.n_qubits} unitaries for {n_qubits} qubits"
        )


def _parse_instruction(parts: list[str], unitaries: dict) -> Instruction:
    """The instruction of a line's tokens; `unitaries` as _parse_unitary's."""
    if parts[0] == "LOCAL":
        if parts[1] == "H":
            return ApplyLocal(LocalLayer.homogeneous(_parse_unitary(parts[2:], unitaries)))
        if parts[1] == "I":
            vals = parts[2:]
            if len(vals) % 8:
                raise CompileError("inhomogeneous layer needs 8 floats per qubit")
            units = [_parse_unitary(vals[i : i + 8], unitaries) for i in range(0, len(vals), 8)]
            return ApplyLocal(LocalLayer.inhomogeneous(units))
        raise CompileError(f"unknown layer kind {parts[1]!r}")
    if parts[0] == "GATE":
        targets = []
        for tok in parts[3:]:
            pair, w = tok.split(":")
            a, b = pair.split("-")
            targets.append((int(a), int(b), float(w)))
        return RawGate(parts[1], float(parts[2]), tuple(targets))
    raise CompileError(f"unknown instruction {parts[0]!r}")


def schedule_from_text(text: str) -> PulseSchedule:
    """Parse the schedule text format: schedule_from_lines of the whole text."""
    return schedule_from_lines(text.splitlines(keepends=True))


def schedule_from_lines(lines: Iterable[str]) -> PulseSchedule:
    """Parse the schedule text format from its lines, as
    str.splitlines(keepends=True) gives them; every instruction is checked
    against the header's n_qubits (or, without one, the largest gate
    qubit), which must lie in 1..STATEVECTOR_CAP.

    Each distinct instruction line is parsed and checked once: a line that
    repeats (the cycles of a Trotter schedule) gives the same instruction
    object, and an error names the line of its first occurrence. So is
    each distinct unitary (its 8 tokens), wherever it stands: equal tokens
    give the same SingleQubitUnitary object. The
    header fields version, n_qubits, cycles and cycle_length follow
    read_header; version is 1 (also when it is missing) or 2, and cycles
    and cycle_length are at least 1. In version 1 the body is every
    instruction, and cycles and cycle_length must multiply to its count
    when both are given. In version 2 both are required, the body is one
    cycle of cycle_length instructions, and the schedule is that cycle
    repeated, each repeat the same objects; it may hold at most
    MAX_INSTRUCTIONS, which is checked before the cycle is repeated.
    """
    header: dict[str, int] = {}
    header_line = 1
    instructions: list[Instruction] = []
    parsed: dict[str, tuple[Instruction, int]] = {}
    unitaries: dict[tuple[str, ...], SingleQubitUnitary] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                if read_header(line, ("version", "n_qubits", "cycles", "cycle_length"), header):
                    header_line = lineno
                if header.get("version", 1) not in (1, 2):
                    raise ValueError(f"version={header['version']} is not 1 or 2")
                for key in ("cycles", "cycle_length"):
                    if header.get(key, 1) < 1:
                        raise ValueError(f"{key}={header[key]} is below 1")
                continue
            hit = parsed.get(line)
            if hit is None:
                hit = parsed[line] = (_parse_instruction(line.split(), unitaries), lineno)
        except (ValueError, IndexError, PauliError, CompileError) as exc:
            raise CompileError(f"schedule parse error at line {lineno}: {exc}") from exc
        instructions.append(hit[0])
    n_qubits = header.get("n_qubits")
    if n_qubits is None:
        sites = [q for ins, _ in parsed.values() if isinstance(ins, RawGate)
                 for a, b, _ in ins.targets for q in (a, b)]
        n_qubits = max(sites) + 1 if sites else 1
    if not 1 <= n_qubits <= STATEVECTOR_CAP:
        raise CompileError(f"schedule has n_qubits={n_qubits}, outside 1..{STATEVECTOR_CAP}")
    for ins, lineno in parsed.values():
        try:
            _check_instruction(ins, n_qubits)
        except CompileError as exc:
            raise CompileError(f"schedule parse error at line {lineno}: {exc}") from exc
    cycles, cycle_length = header.get("cycles"), header.get("cycle_length")
    body = tuple(instructions)
    problem = None
    if header.get("version") != 2:
        if cycles is not None and cycle_length is not None and cycles * cycle_length != len(body):
            problem = (f"cycles={cycles} times cycle_length={cycle_length} is not "
                       f"the {len(body)} instructions of the body")
    elif cycles is None or cycle_length is None:
        problem = "version=2 needs cycles= and cycle_length="
    elif cycles * cycle_length > MAX_INSTRUCTIONS:
        problem = (f"cycles={cycles} times cycle_length={cycle_length} is over "
                   f"{MAX_INSTRUCTIONS} instructions")
    elif len(body) != cycle_length:
        problem = f"cycle_length={cycle_length} is not the {len(body)} instructions of the body"
    else:
        body *= cycles
    if problem is not None:
        raise CompileError(f"schedule parse error at line {header_line}: {problem}")
    return PulseSchedule(n_qubits, body, None, cycle_length, cycles)
