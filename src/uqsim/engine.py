"""Dense statevector execution of pulse schedules with timing-error
injection, plus the exact-diagonalization oracle used to validate them.

Amplitudes are indexed little-endian (qubit 0 = least significant bit).

Execution is fused and batched, and FusedCycle is its one executor. It
takes the instructions of uqsim.schedule as they are (ApplyLocal, RawGate)
and turns them into arrays once, when the cycle is built: a local layer
becomes its per-qubit form exp(i*alpha) (cos(theta) I - i sin(theta)
n.sigma) plus the mask of non-identity qubits (LoweredLayer), once per
distinct layer object per call, so a schedule of L repeated cycles pays
for the lines of one cycle, not for each occurrence; a run of consecutive
raw gates becomes one diagonal, theta*w per target beside the +-1 Z_a Z_b
sign rows over the lower half of the basis (Z_a Z_b is the same at x and
at 2^n - 1 - x, so the upper half takes the lower half's phases in
reverse). An adiabatic step is the compiler's emit_cycle of both plans, so
the compiler alone decides what a cycle contains. This module imports the
instruction set from uqsim.schedule, not from uqsim.compiler, so that
running a schedule never loads the planner.

A FusedCycle applies a window of instructions group by group in the manner
of qsim's gate fusion (arXiv:2111.02396). The qubits split into
contiguous groups of at most _GROUP_QUBITS (_group_bounds: 4+3 at n=7,
3+3+3 at n=9); the window's layers and in-group gate runs fuse into one
(2^k, 2^k) block per group between gate runs across groups, each kept as
one multiply by exp(-i * coef @ signs), its phases made in real
arithmetic (_zz_phases). A pass over many occurrences of the window builds
their blocks in one vectorised call per group of like blocks, jitter
rescaling theta in closed form, and each diagonal's phases for all of
them in one call, then applies them: a block as one matmul out of place,
a diagonal as one multiply in place (4 state-sized calls per cycle on the
8-ion trap chain instead of 23). A pass holds at most _CHUNK_BLOCKS
occurrences, and blocks and phases of at most as many (2^4, 2^4) blocks'
entries, 1 MiB, unless one occurrence holds more (FusedCycle.per_pass). _repeats finds repeated
cycles by object id, not from a header; each runs as one FusedCycle over
all its occurrences; every other stretch runs in windows of at most
_CHUNK instructions, one occurrence each. Consecutive adiabatic steps
of the template's shape run as occurrences of the two plans' template
cycle (experiments.cycle_template) with per-occurrence angle scales
(k, 1 - k), recorded steps copied out mid-pass, and any other step as a
cycle of its own (experiments.adiabatic_batch). The state has a leading
batch axis (R, 2^n): the repetitions of a sweep cell advance as one
array, each row with its own seeded PCG64 generator, and a single run is
a batch of one.
The block's reshape rule and the Z_a Z_b sign rows come from
uqsim.kernels.

The oracle decomposes part by part and keeps no process-wide cache.
Sectors (uqsim.sectors) splits the basis states into the invariant blocks
of the Hamiltonians' term tables, decomposes one block per orbit of the
spin flip and the mirror when both endpoints commute with them, and
splits it into symmetry-adapted parts. `_spectrum`, the one
eigendecomposition call, solves the parts of one size as one stacked
array, in real arithmetic when they have no imaginary part, and
SpectrumCache merges every block's eigenvalues, with multiplicity, in
ascending order before grouping them. Its eigenvectors stay per block.
The adiabatic oracle (experiments.GroundPath) reduces both endpoints once
per path and decomposes k*H_initial + (1-k)*H_target on the parts for a
chunk of k values per stacked call (SpectrumCache.from_stacks); its gap
scan asks for eigenvalues only. The start state (ground_state) comes from
the parts of its own Hamiltonian too; its pick among degenerate ground
states still follows the parts' rounding (see ground_vector).

Determinism: each row's jitter is drawn in instruction order, one
rng.random per pass mapped onto [-eta, eta] exactly as per-instruction
rng.uniform calls would. The log (uqsim.execlog.ExecutionLog) keeps the
draws that reach the state, written exactly as base64 of their float64
bytes, and a run replays from it (run_schedule(..., replay=log), `uqsim
simulate --replay`) bit for bit.
The same command and seed give bit-identical results. The fused
arithmetic multiplies in another order than one kernel call per
instruction: it agrees with that per-instruction reference within 1e-12,
not bitwise. A repetition run inside a sweep batch agrees with the same
seed run alone within 1e-12, not bitwise, for two reasons: a block's
later layers are Kronecker products at many rows and multiplied in one
2x2 at a time at one (_fused_block), and numpy sends the coef @ signs
angle sums of one row to gemv and of many rows to gemm, which sum in
another order. So do sign rows made one at a time above
_SIGN_ROW_QUBITS and kept rows: at one row, BLAS sums the kept rows a
few at a time.
"""
from __future__ import annotations

import cmath
import math
import re
from itertools import groupby

import numpy as np

from . import kernels
from .errors import EngineError, LogFormatError, StateFormatError  # noqa: F401 (re-exported)
from .execlog import ExecutionLog, LogDraws, log_codes
from .kernels import STATEVECTOR_CAP
from .schedule import ApplyLocal, PulseSchedule, RawGate
from .pauli import (IDENTITY_TOL, Hamiltonian, LocalLayer, PauliString, SIGMA, TermTable,
                    read_header)
from .records import record
from .sectors import Sectors

NORM_TOL = 1e-9
DENSE_CAP = 12
"""Most qubits of a Hamiltonian the exact oracle decomposes (_check_dense)."""


def _check_dense(n_qubits: int):
    """Refuse an oracle above DENSE_CAP qubits."""
    if n_qubits > DENSE_CAP:
        raise EngineError(f"{n_qubits} qubits exceeds the dense cap {DENSE_CAP}")


@record
class StateVector:
    """2^N complex amplitudes, unit norm, little-endian qubit order."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_qubits > STATEVECTOR_CAP:
            raise EngineError(f"n_qubits must be in 1..{STATEVECTOR_CAP}")
        a = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if a.shape != (2**self.n_qubits,):
            raise EngineError("amplitude array has wrong length")
        self.amps = a

    @staticmethod
    def zero_state(n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def check_norm(self, instructions: int = 1):
        drift = abs(self.norm() - 1.0)
        if not drift <= max(NORM_TOL, 1e-12 * max(1, instructions)):
            raise EngineError(f"state norm drifted by {drift:.3e}")

    # -- dump format: header + "index real imag" per nonzero amplitude -------

    def dump_text(self) -> str:
        """Amplitudes of magnitude above 1e-15 only."""
        lines = [f"# statevector n_qubits={self.n_qubits} endian=little norm={self.norm()!r}"]
        for k, z in enumerate(self.amps):
            if abs(z) > 1e-15:
                lines.append(f"{k} {float(z.real)!r} {float(z.imag)!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def load_text(text: str) -> "StateVector":
        """Parse a dump: a `#` header with n_qubits (read_header), then
        indices distinct and in range, values finite, and the norm within
        NORM_TOL of 1."""
        header: dict[str, int] = {}
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    if read_header(line, ("n_qubits",), header):
                        header_line = lineno
                except ValueError as exc:
                    raise StateFormatError(f"line {lineno}: {exc}") from exc
                continue
            parts = line.split()
            if len(parts) != 3:
                raise StateFormatError(f"line {lineno}: expected 'index real imag'")
            try:
                entry = (int(parts[0]), complex(float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise StateFormatError(f"line {lineno}: {exc}") from exc
            if not cmath.isfinite(entry[1]):
                raise StateFormatError(f"line {lineno}: non-finite amplitude")
            entries.append((lineno, *entry))
        n_qubits = header.get("n_qubits")
        if n_qubits is None:
            raise StateFormatError("missing n_qubits header")
        if not 1 <= n_qubits <= STATEVECTOR_CAP:
            raise StateFormatError(
                f"line {header_line}: n_qubits={n_qubits} outside 1..{STATEVECTOR_CAP}")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        seen = set()
        for lineno, k, z in entries:
            if not 0 <= k < amps.size:
                raise StateFormatError(f"line {lineno}: index {k} outside 0..{amps.size - 1}")
            if k in seen:
                raise StateFormatError(f"line {lineno}: index {k} given twice")
            seen.add(k)
            amps[k] = z
        state = StateVector(n_qubits, amps)
        drift = abs(state.norm() - 1.0)
        if not drift <= NORM_TOL:
            raise StateFormatError(f"dump norm is off from 1 by {drift:.3e}")
        return state


@record(frozen=True)
class ErrorModel:
    """Fractional timing jitter, uniform on [-eta, +eta] per pulse.

    eta_local applies per qubit per local layer, eta_int per gate entry in a
    ZZ gate list. seed is None or a non-negative int, as PCG64 takes it.
    """

    eta_local: float = 0.0
    eta_int: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for eta in (self.eta_local, self.eta_int):
            if not (0.0 <= eta < 1.0):
                raise EngineError(f"jitter fraction {eta} outside [0, 1)")
        if self.seed is not None and not (type(self.seed) is int and self.seed >= 0):
            raise EngineError(f"seed {self.seed!r} is not a non-negative integer")
        if (self.eta_local > 0 or self.eta_int > 0) and self.seed is None:
            raise EngineError("an error model with nonzero jitter needs a seed")

    @property
    def is_noisy(self) -> bool:
        return self.eta_local > 0 or self.eta_int > 0

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


# ---------------------------------------------------------------------------
# Fused execution core
# ---------------------------------------------------------------------------

_SIGN_ROW_QUBITS = 12      # most qubits whose cross-group diagonals keep their sign rows
_CHUNK = 64                # instructions per unrepeated window, raw gates per diagonal
_GROUP_QUBITS = 4          # most qubits per fused local block, a (2^4, 2^4) matrix
_CHUNK_BLOCKS = 256        # most (2^4, 2^4) blocks' entries, and occurrences, per pass
_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def _group_bounds(n_qubits: int):
    """(lo, k) of the ceil(n / _GROUP_QUBITS) contiguous qubit groups of
    near-equal size, larger groups first: 4+3 at n=7, 3+3+3 at n=9."""
    count = -(-n_qubits // _GROUP_QUBITS)
    size, extra = divmod(n_qubits, count)
    lo = 0
    for g in range(count):
        k = size + (g < extra)
        yield lo, k
        lo += k


class LoweredLayer:
    """A local layer as arrays over its qubits.

    Qubit q applies exp(i*alpha_q) (cos(theta_q) I - i sin(theta_q) n_q.sigma).
    `matrices` holds the noiseless 2x2 unitaries and `active` the qubits
    whose unitary is not the identity; only those are applied, with or
    without jitter, since jitter only rescales theta.
    """

    __slots__ = ("theta", "nsigma", "phase", "matrices", "active")

    def __init__(self, alpha, theta, axis, matrices=None):
        self.theta = np.asarray(theta, dtype=float)
        axis = np.asarray(axis, dtype=float)
        self.nsigma = (axis[:, 0, None, None] * SIGMA["X"] + axis[:, 1, None, None] * SIGMA["Y"]
                       + axis[:, 2, None, None] * SIGMA["Z"])
        self.phase = np.exp(1j * np.asarray(alpha, dtype=float))
        self.matrices = (_local_matrices(self.theta, self.nsigma, self.phase, 1.0)
                         if matrices is None else matrices)
        off = np.max(np.abs(self.matrices - _EYE2), axis=(1, 2))
        self.active = tuple(np.flatnonzero(off > IDENTITY_TOL).tolist())

    @staticmethod
    def from_layer(layer: LocalLayer, n_qubits: int) -> "LoweredLayer":
        if not layer.matches(n_qubits):
            raise EngineError(
                f"layer has {layer.n_qubits} unitaries, the state {n_qubits} qubits"
            )
        units = [layer.unitary_at(q) for q in range(n_qubits)]
        return LoweredLayer([u.alpha for u in units], [u.theta for u in units],
                            [u.axis for u in units], np.array([u.matrix for u in units]))


def _local_matrices(theta, nsigma, phase, scale) -> np.ndarray:
    """exp(i*alpha) (cos(theta*scale) I - i sin(theta*scale) n.sigma) for
    theta, phase (..., n) and nsigma (..., n, 2, 2): the closed form of
    SingleQubitUnitary.with_angle_scale, vectorised over qubits or a
    FusedCycle's 2x2s and, through the shape of `scale`, over occurrences
    and batch rows."""
    th = theta * scale
    m = (np.cos(th)[..., None, None] * _EYE2
         - 1j * np.sin(th)[..., None, None] * nsigma)
    return phase[..., None, None] * m


def _zz_phases(angles: np.ndarray) -> np.ndarray:
    """The phases of a ZZ diagonal over a whole basis from its angles
    (..., 2^(n-1)) over the lower half: exp(-i * angles), then the same in
    reverse, since Z_a Z_b is the same at x and at 2^n - 1 - x. Every ZZ
    phase of execution is made here, in real arithmetic: cos into the real
    part and -sin into the imaginary one give the bits of complex np.exp in
    less time. cos and -sin are written straight into both halves of the
    one array returned, each half from one temporary of the lower half's
    size: copying a half of that array into the other would make a second,
    since the two halves' views overlap in memory."""
    h = angles.shape[-1]
    out = np.empty((*angles.shape[:-1], 2 * h), dtype=complex)
    lower, upper = out[..., :h], out[..., h:]
    part = np.cos(angles)
    lower.real = part
    upper.real = part[..., ::-1]
    np.negative(np.sin(angles, out=part), out=part)
    lower.imag = part
    upper.imag = part[..., ::-1]
    return out


def _apply_zz(amps: np.ndarray, pairs, signs: np.ndarray | None, coef: np.ndarray) -> None:
    """exp(-i * coef @ signs) on every row of amps (R, 2^n): `signs` holds
    the +-1 row of Z_a Z_b per pair (a, b) over the lower 2^(n-1) basis
    states (zz_signs(..., half=True)), or is None to make the rows one at a
    time; _zz_phases mirrors their phases onto the upper half."""
    if signs is None:
        n = amps.shape[1].bit_length() - 1
        angles = sum(coef[..., t, None] * kernels.zz_signs(n, a, b, half=True)
                     for t, (a, b) in enumerate(pairs))
    else:
        angles = coef @ signs
    amps *= _zz_phases(angles)


def _mapped_draws(draws, eta, size: int, codes: np.ndarray, used) -> np.ndarray:
    """(R, size) jitter draws, u mapped onto -eta + 2*eta*u with one
    rng.random(size) per row of generators; from a LogDraws, zeros (1, size)
    with its next values at `used`, which must be of the log codes `codes`."""
    if isinstance(draws, LogDraws):
        d = np.zeros((1, size))
        d[:, used] = draws.take(codes)
        return d
    if not size:
        return np.empty((len(draws), 0))
    if any(rng is None for rng in draws):
        raise EngineError("jitter needs a random generator for every state")
    u = np.array([rng.random(size) for rng in draws])
    return -eta + (eta + eta) * u


class FusedCycle:
    """The one executor: a window of instructions fused into blocks over
    the qubit groups, run for one or many back-to-back occurrences. A
    repeated schedule cycle, an adiabatic step and an unrepeated stretch of
    instructions (at most _CHUNK of them) all run as one.

    The instructions are taken in order. A local layer is lowered to a
    LoweredLayer once per distinct ApplyLocal object through `lowered`, a
    dict the caller may share between cycles, and each of its active qubits
    joins the open block of its group (_group_bounds) as a 2x2 factor. A run
    of up to _CHUNK consecutive raw gates is one diagonal exp(-i * coef @
    signs), with theta * w per target and the +-1 Z_a Z_b sign rows over the
    lower half of its states built here: a run whose targets all lie
    inside one group joins that group's block as a diagonal factor, and a
    run with a target across groups closes the open blocks of the groups it
    touches and stays one diagonal over the whole state (its rows made as
    it runs above _SIGN_ROW_QUBITS).
    The end of the cycle closes the rest. What other groups' blocks hold
    commutes with such a run, so only the order within each group is kept.
    A trotter-uqs2 cycle on 8 ions (a field layer, 14 one-ion echo pulses
    and 7 one-pair gates) becomes 4 ops: the block of ions 0..3, that of
    4..7, the ZZ(3,4) diagonal and another block of 4..7. A fig5 adiabatic
    step (9 sites in groups of 3, five layers between three runs across
    groups) becomes 12 blocks and 3 diagonals.

    Occurrences may differ by scales: `slots` gives per instruction the
    column of execute's per-occurrence `scales` that multiplies its angles
    (each 2x2's theta, each gate's theta), or None for an instruction every
    occurrence applies as it is. An adiabatic step is emit_cycle(plan, dt,
    k) of one plan and emit_cycle(plan, dt, 1 - k) of the other, so
    consecutive steps of one shape run as the two plans'
    experiments.cycle_template with scales (k, 1 - k).

    A layer draws one value per qubit when eta_l > 0 and a gate one per
    target when eta_i > 0, in instruction order, so a pass over C
    occurrences takes one rng.random per row for all of them and logs
    those at at_u and at_g as one chunk. Each pass builds its blocks for all
    (C, R) occurrences at once, a few broadcast operations per factor, and
    the phases of each diagonal that keeps its sign rows in one call; a
    cycle without draws or scales builds them once. Blocks of one k whose
    factors match one by one (a layer's 2x2s on the same bits, a diagonal
    with the same sign rows), at any lo, are like and share one build of
    `like`, a block without a like as a stack of one: fig4b-cell's 6 blocks
    and fig5's 12 make 2 builds each.
    """

    def __init__(self, instructions, n_qubits: int, eta_l: float, eta_i: float, slots=None,
                 lowered: dict | None = None):
        lowered = {} if lowered is None else lowered
        home = [(lo, k) for lo, k in _group_bounds(n_qubits) for _ in range(k)]
        kinds, sizes = [], []  # per instruction its kind and logged count
        theta, nsigma, phase, mats, at_u, slot_u = [], [], [], [], [], []
        theta_g, weight, at_g, slot_g, eta = [], [], [], [], []
        open_blocks: dict[tuple[int, int], list] = {}
        # ("block", lo, k, factors), then ("block", lo, like group, index in
        # it), and ("zz", pairs, sign rows, coef slice) in apply order
        self.steps = []

        def close(group):
            factors = open_blocks.pop(group, None)
            if factors:
                self.steps.append(("block", *group, factors))

        # -1: execute's column of ones
        columns = ([-1] * len(instructions) if slots is None
                   else [-1 if slot is None else slot for slot in slots])
        items = zip(instructions, columns)
        for is_gate, run in groupby(items, lambda item: isinstance(item[0], RawGate)):
            run = list(run)
            if not is_gate:
                for ins, column in run:
                    if not isinstance(ins, ApplyLocal):
                        raise EngineError(f"unknown instruction {type(ins).__name__}")
                    hit = lowered.get(id(ins))
                    if hit is None:  # kept with the object, so that its id stays its own
                        hit = lowered[id(ins)] = (ins, LoweredLayer.from_layer(ins.layer, n_qubits))
                    op, start = hit[1], len(eta)  # start: the layer's first draw
                    kinds.append("local")
                    sizes.append(len(op.active) if eta_l > 0 else 0)  # logged
                    eta += [eta_l] * (n_qubits if eta_l > 0 else 0)  # drawn
                    layer: dict[tuple[int, int], list] = {}
                    for q in op.active:
                        lo, k = home[q]
                        # a 2x2: (its index, its bit in the block)
                        layer.setdefault((lo, k), []).append((len(theta), q - lo))
                        theta.append(op.theta[q])
                        nsigma.append(op.nsigma[q])
                        phase.append(op.phase[q])
                        mats.append(op.matrices[q])
                        at_u.append(start + q)
                        slot_u.append(column)
                    for group, pairs in layer.items():  # a layer factor: (its 2x2s, None)
                        open_blocks.setdefault(group, []).append((tuple(pairs), None))
                continue
            for at in range(0, len(run), _CHUNK):
                first, pairs = len(theta_g), []
                for gate, column in run[at:at + _CHUNK]:
                    start, size = len(eta), len(gate.targets)
                    for a, b, w in gate.targets:
                        if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                            raise EngineError(
                                f"gate qubits {(a, b)} out of range for {n_qubits} qubits")
                        pairs.append((a, b))
                        weight.append(w)
                    kinds.append("gate")
                    sizes.append(size if eta_i > 0 else 0)
                    eta += [eta_i] * sizes[-1]
                    theta_g += [gate.theta] * size
                    at_g.extend(range(start, start + size))
                    slot_g += [column] * size
                span = slice(first, len(theta_g))
                touched = sorted({home[q] for pair in pairs for q in pair})
                if len(touched) == 1:
                    (lo, k), = touched
                    # a diagonal factor: (its targets' coefs, its sign rows in the block)
                    signs = np.array([kernels.zz_signs(k, a - lo, b - lo, half=True)
                                      for a, b in pairs])
                    open_blocks.setdefault((lo, k), []).append((range(first, span.stop), signs))
                elif touched:
                    for group in touched:
                        close(group)
                    signs = (None if n_qubits > _SIGN_ROW_QUBITS
                             else np.array([kernels.zz_signs(n_qubits, a, b, half=True)
                                            for a, b in pairs]))
                    self.steps.append(("zz", pairs, signs, span))
        for group in sorted(open_blocks):
            close(group)
        # like blocks: the same k and, factor by factor, the same bits or sign rows
        like: dict[tuple, list] = {}
        for s, step in enumerate(self.steps):
            if step[0] == "block":
                key = (step[2], *(tuple(bit for _, bit in a) if b is None else b.tobytes()
                                  for a, b in step[3]))
                members = like.setdefault(key, [])
                self.steps[s] = ("block", step[1], list(like).index(key), len(members))
                members.append(step[3])
        self.like = [(key[0], [_stacked(parts) for parts in zip(*members)])
                     for key, members in like.items()]
        self.codes = log_codes(kinds, sizes)
        self.width = len(eta)
        # a pass holds each block (2^k, 2^k) and each kept-row diagonal's
        # phases (2^n,) per occurrence and row
        self.entries = sum(4 ** self.like[b][0] if kind == "block" else 1 << n_qubits
                           for kind, _, b, _ in self.steps if b is not None)
        self.eta = np.array(eta, dtype=float)
        self.theta, self.phase = np.array(theta, dtype=float), np.array(phase, dtype=complex)
        self.nsigma = np.array(nsigma, dtype=complex).reshape(-1, 2, 2)
        self.mats = np.array(mats, dtype=complex).reshape(-1, 2, 2)
        # per target its gate's theta and its weight: coef = theta * w
        self.theta_g, self.weight = np.array(theta_g, dtype=float), np.array(weight, dtype=float)
        self.coef = self.theta_g * self.weight
        self.slot_u = np.array(slot_u, dtype=np.intp)
        self.slot_g = np.array(slot_g, dtype=np.intp)
        # where the draws of the factors' 2x2s and of the targets' coefs sit
        self.at_u = np.array(at_u if eta_l > 0 else [], dtype=np.intp)
        self.at_g = np.array(at_g if eta_i > 0 else [], dtype=np.intp)
        self._static = None

    def per_pass(self, rows: int) -> int:
        """The most occurrences of one pass over `rows` batch rows: at most
        _CHUNK_BLOCKS, whose blocks and kept-row diagonal phases (entries)
        hold the entries of at most _CHUNK_BLOCKS (2^4, 2^4) blocks (1 MiB),
        or one occurrence if a single one holds more."""
        budget = _CHUNK_BLOCKS * 4 ** _GROUP_QUBITS
        return max(1, min(_CHUNK_BLOCKS, budget // (rows * max(1, self.entries))))

    def _build(self, d: np.ndarray | None, scales: np.ndarray | None) -> list:
        """Per step what execute applies, for the draws d (C, R, width) and
        the scales (C, slots + 1), the last column ones: a block's operand
        (kernels.block_operand of its (2^k, 2^k) matrix), a diagonal's
        phases (2^n,) when it keeps its sign rows, else its coefs
        (targets,). Each has a leading (C, R or 1) where a draw or a scale
        reaches it; where none does, it is the same for every occurrence
        and broadcast to a leading _CHUNK_BLOCKS.

        A diagonal's phases for the whole pass come from one coef @ signs,
        whose cores are the (R or 1, targets) products one occurrence would
        take alone, so they keep its bits."""
        theta, mats, coef, mult = self.theta, self.mats, self.coef, 1.0
        if scales is not None:
            theta = theta * scales[:, None, self.slot_u]
            coef = (self.theta_g * scales[:, None, self.slot_g]) * self.weight
        if self.at_u.size:
            mult = 1.0 + d[..., self.at_u]
        if scales is not None or self.at_u.size:
            mats = _local_matrices(theta, self.nsigma, self.phase, mult)
        if self.at_g.size:
            coef = coef * (1.0 + d[..., self.at_g])
        blocks = [_fused_block(k, factors, mats, coef) for k, factors in self.like]
        built = []
        for kind, a, b, c in self.steps:
            if kind == "block":
                u = blocks[b][..., c, :, :]
                x, fixed = kernels.block_operand(u, a), u.ndim == 2
            else:
                x, fixed = coef[..., c], coef.ndim == 1
                if b is not None:
                    x = _zz_phases(x @ b)
            built.append(np.broadcast_to(x, (_CHUNK_BLOCKS, *x.shape)) if fixed else x)
        return built

    def execute(self, amps: np.ndarray, count: int, draws, log: ExecutionLog | None,
                scales: np.ndarray | None = None, after=None) -> int:
        """`count` occurrences of the cycle on amps (R, 2^n) in place, in
        passes of per_pass(R) occurrences; occurrence j with the scales[j]
        (count, slots) of its ops' slots when the cycle has any. A block
        writes the state into the other of amps and a scratch state, which
        is copied back into amps, if needed, before `after(j)` and on
        return. `after(j)`, when given, is called once occurrence j has run,
        so that a caller can copy amps out mid-pass. Returns the number of
        instructions run.

        Both buffers' views (kernels.block_view) are made once per call and
        each pass's operands and phases once per pass (_build), so an
        occurrence is one np.matmul(..., out=) per block and one in-place
        multiply per diagonal, or per made-row diagonal one _apply_zz.

        `draws` is the jitter source. Given a sequence of generators, row r
        draws one rng.random(c * width) from draws[r] per pass of c
        occurrences and maps each value u onto -eta + 2*eta*u: bit for bit
        what one rng.uniform(-eta, eta) per instruction gives, since PCG64
        splits one call into consecutive ones exactly, so seeds and logs
        keep their meaning. A LogDraws gives each pass the logged draws,
        0.0 elsewhere. `log` records the draws that act.
        """
        rows = amps.shape[0]
        per_pass = self.per_pass(rows)
        bufs, at = (amps, np.empty_like(amps)), 0  # bufs[at] holds the state
        # per step its kind, the state's views in both buffers and, for a
        # diagonal that makes its sign rows, its pairs
        plan = []
        for kind, a, b, _ in self.steps:
            if kind == "block":
                views = [kernels.block_view(buf, a, self.like[b][0]) for buf in bufs]
                plan.append(("view @ u" if a == 0 else "u @ view", views, None))
            else:
                plan.append(("phases", bufs, None) if b is not None else ("made", bufs, a))
        if scales is not None:
            scales = np.column_stack([scales, np.ones(count)])
        # the logged places: at_u and at_g are sorted and disjoint (np.union1d
        # would import numpy.ma through np.unique)
        keep = (np.sort(np.concatenate([self.at_u, self.at_g]))
                if log is not None or isinstance(draws, LogDraws) else None)
        for first in range(0, count, per_pass):
            c = min(per_pass, count - first)
            codes = None if keep is None else np.tile(self.codes, c)
            used = None if keep is None else (keep + self.width * np.arange(c)[:, None]).ravel()
            d = _mapped_draws(draws, np.tile(self.eta, c), c * self.width, codes, used)
            if self.width or scales is not None:
                built = self._build(d.reshape(rows, c, self.width).transpose(1, 0, 2),
                                    None if scales is None else scales[first:first + c])
            else:
                built = self._static = self._static or self._build(None, None)
            for j in range(c):
                for (kind, views, pairs), x in zip(plan, built):
                    if kind == "view @ u":
                        np.matmul(views[at], x[j], out=views[1 - at])
                        at = 1 - at
                    elif kind == "u @ view":
                        np.matmul(x[j], views[at], out=views[1 - at])
                        at = 1 - at
                    elif kind == "phases":
                        np.multiply(views[at], x[j], out=views[at])
                    else:
                        _apply_zz(views[at], pairs, None, x[j])
                if after is not None:
                    if at:
                        amps[...], at = bufs[1], 0
                    after(first + j)
            if log is not None:
                log.record(codes, d[0][used])
        if at:
            amps[...] = bufs[1]
        return count * len(self.codes)


def _stacked(parts):
    """One factor of a group of like blocks from each block's own: per 2x2
    of a layer its index in each block (G,), for a diagonal its targets in
    each (G, targets)."""
    _, b = parts[0]
    if b is None:
        return tuple((np.array([i for i, _ in col]), col[0][1])
                     for col in zip(*(part[0] for part in parts))), None
    return np.array([part[0] for part in parts]), b


def _fused_block(k: int, factors, mats: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The (..., 2^k, 2^k) product of a block's factors, the first applied
    first: for (((i, b), ...), None) one layer's 2x2s mats[..., i] on bits b
    of the row index, and for (targets, signs) exp(-i * coef[..., targets]
    @ signs) on the rows, `signs` over the lower 2^(k-1) rows (_zz_phases).

    For G like blocks (FusedCycle.like), each i is an index array (G,) and
    each `targets` one (G, t): block g of the (..., G, 2^k, 2^k) result is
    bit for bit what its own indices give alone.

    The block's first layer is the Kronecker product of its 2x2s (an exact
    identity on each other bit) at any batch size, so each row of a
    one-layer block built for many rows is its build alone bit for bit. A
    later layer's 2x2s are
    multiplied into the block one at a time with one batch row; with many
    (mats (C, R, ...), R > 1) each such product is a loop over C * R *
    2^(k-1) tiny matrices, so a later layer of more than one 2x2 is their
    Kronecker product times the block, much faster for fig4b-cell's 10
    rows.
    """
    dim = 1 << k
    rows = mats.shape[-4] if mats.ndim > 4 else 1
    block = None  # the identity so far
    for a, b in factors:
        if b is not None:
            # one (1, targets) row per product: numpy sums M rows (gemm) in
            # another order than one (gemv), so a stack rounds as alone
            phases = _zz_phases((coef[..., a][..., None, :] @ b)[..., 0, :])[..., :, None]
            block = phases * (np.eye(dim) if block is None else block)
        elif block is None or (rows > 1 and len(a) > 1):
            at = {bit: i for i, bit in a}
            kron = mats[..., at[0], :, :] if 0 in at else _EYE2
            for q in range(1, k):
                m = mats[..., at[q], :, :] if q in at else _EYE2
                # kron(m, kron): bit q is the new high bit
                prod = m[..., :, None, :, None] * kron[..., None, :, None, :]
                kron = prod.reshape(*prod.shape[:-4], 2 * prod.shape[-3], 2 * prod.shape[-1])
            block = kron if block is None else kron @ block
        else:
            for i, bit in a:
                view = block.reshape(*block.shape[:-2], dim >> (bit + 1), 2, -1)
                prod = mats[..., i, None, :, :] @ view
                block = prod.reshape(*prod.shape[:-3], dim, dim)
    return np.eye(dim, dtype=complex) if block is None else block


def _repeats(instructions):
    """The stream as (instructions, count) pieces in order, found by object
    identity: count >= 2 is a window that the next count - 1 windows
    repeat, over at least _CHUNK instructions (a shorter repeat saves no
    build); count 1 a window of at most _CHUNK others. At an object's next
    occurrence, the distance p back to its last one is the least period a
    repeat through both can have. It holds if the next p objects are the p
    before them, and then runs back to its first instruction and on while
    they are. A failed guess of p keeps where it failed: no later guess of
    p compares those again."""
    seq, last, failed = tuple(instructions), {}, {}
    n, start, j = len(seq), 0, 0  # start: the end of the last piece
    while j < n:
        prev, last[id(seq[j])] = last.get(id(seq[j]), -1), j
        p = j - prev
        if prev >= start and failed.get(p, -1) < j:
            e = j
            while e < n and seq[e] is seq[e - p]:
                e += 1
            if e - j >= p and e - prev >= _CHUNK:
                while prev > start and seq[prev - 1] is seq[prev - 1 + p]:
                    prev -= 1
                yield from ((seq[at:min(at + _CHUNK, prev)], 1)
                            for at in range(start, prev, _CHUNK))
                yield seq[prev:prev + p], (e - prev) // p
                start = j = e - (e - prev) % p
                continue
            failed[p] = e
        j += 1
    yield from ((seq[at:at + _CHUNK], 1) for at in range(start, n, _CHUNK))


def execute_batch(
    amps: np.ndarray,
    n_qubits: int,
    instructions,
    err: ErrorModel | None,
    draws,
    log: ExecutionLog | None = None,
) -> int:
    """Apply instructions to the batch `amps` (R, 2^n) in place, row r drawing
    its jitter from the generator draws[r], or a batch of one replaying the
    draws of a LogDraws.

    Each distinct layer object is lowered once per call, and each window's
    gates are read once, when its FusedCycle is built (a schedule of
    repeated cycles pays per line of its cycle, not per occurrence). Every
    piece of _repeats runs as one FusedCycle: a repeat found in the stream
    itself, for all its occurrences; anything else (unrepeated stretches,
    short repeats, a trailing partial cycle) in windows of at most _CHUNK
    instructions, one occurrence each. Returns the number of instructions
    run.
    """
    if (amps.ndim != 2 or amps.shape[1] != 1 << n_qubits or amps.dtype != np.complex128
            or not amps.flags.c_contiguous):
        raise EngineError(f"amplitudes must be a C-contiguous complex (R, {1 << n_qubits}) array")
    if isinstance(draws, LogDraws):
        if amps.shape[0] != 1:
            raise EngineError("a replayed log draws for a batch of one state")
    elif len(draws) != amps.shape[0]:
        raise EngineError(f"{len(draws)} generators for {amps.shape[0]} states")
    if log is not None and amps.shape[0] != 1:
        raise EngineError("an execution log records a batch of one state")
    eta_l = err.eta_local if err is not None else 0.0
    eta_i = err.eta_int if err is not None else 0.0
    lowered, run = {}, 0
    for piece, count in _repeats(instructions):
        run += FusedCycle(piece, n_qubits, eta_l, eta_i, lowered=lowered).execute(
            amps, count, draws, log)
    return run


def execute_instructions(
    amps: np.ndarray,
    n_qubits: int,
    instructions,
    err: ErrorModel | None,
    rng: "np.random.Generator | LogDraws | None",
    log: ExecutionLog | None = None,
) -> int:
    """Apply instructions to `amps` in place, drawing jitter from `rng`, a
    generator or a LogDraws replaying a log.

    A batch of one through execute_batch, repeats found as there. Returns
    the number of instructions run; noise draws are strictly sequential in
    instruction order so runs replay exactly.
    """
    amps = np.asarray(amps)
    if amps.shape != (1 << n_qubits,):
        raise EngineError(f"amplitude array has shape {amps.shape}, expected ({1 << n_qubits},)")
    draws = rng if isinstance(rng, LogDraws) else [rng]
    return execute_batch(amps[None, :], n_qubits, instructions, err, draws, log)


def run_schedule(
    state: StateVector,
    schedule: PulseSchedule,
    err: ErrorModel | None = None,
    replay: ExecutionLog | None = None,
) -> tuple[StateVector, ExecutionLog]:
    """Execute instructions in order; the log records every jitter draw.

    With `replay`, the log of an earlier run of this schedule from this
    state under an error model with the same nonzero etas, every draw comes
    from that log instead of err's generator, and the run repeats the
    earlier one bit for bit. A log that does not fit the run raises
    LogFormatError.
    """
    if schedule.n_qubits != state.n_qubits:
        raise EngineError(
            f"schedule is for {schedule.n_qubits} qubits, state has {state.n_qubits}"
        )
    if replay is not None:
        log = ExecutionLog(replay.rng_algorithm, replay.seed)
        rng = LogDraws(replay)
    else:
        log = ExecutionLog(seed=err.seed if err is not None else None)
        rng = err.rng() if err is not None and err.is_noisy else None
    out = state.copy()
    execute_instructions(out.amps, out.n_qubits, schedule.instructions, err, rng, log)
    if replay is not None:
        rng.close()
    out.check_norm(len(schedule.instructions) + 1)
    return out, log


# ---------------------------------------------------------------------------
# Exact oracle: dense evolution, spectra, ground states
# ---------------------------------------------------------------------------

def exact_evolve(h: Hamiltonian, t: float, state: StateVector) -> StateVector:
    """exp(-i h t) |state> through the block eigendecomposition of h."""
    if h.n_qubits != state.n_qubits:
        raise EngineError("Hamiltonian and state size mismatch")
    if not math.isfinite(t):
        raise EngineError(f"evolution time {t!r} is not finite")
    return StateVector(state.n_qubits, SpectrumCache.from_hamiltonian(h).evolve(state.amps, t))


def _spectrum(stacks, vectors: bool = True):
    """The oracle's one eigendecomposition call: for each (m, d, d) stack of
    equal-size blocks, one stacked LAPACK call giving ascending eigenvalues
    (m, d) and eigenvector columns (m, d, d), or None with vectors=False. A
    real stack is decomposed in real arithmetic, a complex one in complex."""
    if vectors:
        return [np.linalg.eigh(m) for m in stacks]
    return [(np.linalg.eigvalsh(m), None) for m in stacks]


@record
class SpectrumCache:
    """A grouped spectrum, decomposed part by part.

    `stacks` holds every block's basis states as Sectors.stacks does, and
    per stack `levels` the blocks' eigenvalues (m, d) and, unless the
    spectrum was built from eigenvalues alone, `eigenvectors` their
    eigenvector columns (m, d, d) over those states, real for a real
    stack; copies of one block under a symmetry share its eigenpairs.
    `eigenvalues` merges all blocks' eigenvalues, with multiplicity, in
    ascending order, `order` gives the flat position in the stacks of each,
    and `groups` the (near-)degenerate groups of the merged list, so group
    energies and gaps mean what they mean for the full spectrum.
    Eigenvectors stay per block: bases, weights, histograms and evolution
    work block by block. from_stacks builds the spectra of many values of
    k at once, and they share its arrays.

    A spectrum without vectors answers group energies and gaps only; asking
    it for a basis, weight or evolution raises EngineError. It caches
    nothing; the name stays because perfbench/spans.py wraps its methods by
    name.
    """

    eigenvalues: np.ndarray
    groups: tuple[tuple[int, int], ...]  # [start, stop) index ranges
    tol: float
    stacks: tuple[np.ndarray, ...]
    levels: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...] | None
    order: np.ndarray

    @staticmethod
    def from_hamiltonian(h: Hamiltonian) -> "SpectrumCache":
        _check_dense(h.n_qubits)
        sectors = Sectors(h.n_qubits, (h,))
        (spec,) = SpectrumCache.from_stacks(sectors, [m[None] for m in sectors.parts(h)])
        return spec

    @staticmethod
    def from_stacks(sectors: Sectors, mats, vectors: bool = True) -> list["SpectrumCache"]:
        """The spectra of K sets of part matrices, one (K, p, d, d) array per
        entry of sectors.part_sizes, decomposed in one stacked call per size
        and merged and grouped for all K at once. Merged eigenvalues less
        than 1e-8 * max(1, spread) apart share a group. vectors=False
        decomposes eigenvalues only. A non-finite entry, a failed
        decomposition or a non-finite eigenvalue or spread raises
        EngineError. The K spectra share the arrays of the call."""
        if not all(np.isfinite(m).all() for m in mats):
            raise EngineError("the Hamiltonian has a non-finite matrix entry")
        try:
            parts = _spectrum(mats, vectors)
        except np.linalg.LinAlgError as exc:
            raise EngineError(f"eigendecomposition failed: {exc}") from exc
        levels, vecs = sectors.expand(parts, vectors)
        flat = np.concatenate([w.reshape(w.shape[0], -1) for w in levels], axis=1)
        order = np.argsort(flat, axis=1, kind="stable")
        evals = np.take_along_axis(flat, order, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # not finite if either end is not
            spread = evals[:, -1] - evals[:, 0]
        if not np.isfinite(spread).all():
            raise EngineError("the spectrum is not finite")
        out = []
        for k, tol in enumerate((1e-8 * np.maximum(1.0, spread)).tolist()):
            cuts = (np.flatnonzero(np.diff(evals[k]) >= tol) + 1).tolist()
            groups = tuple(zip([0] + cuts, cuts + [evals.shape[1]]))
            vectors_k = None if vecs is None else tuple(v[k] for v in vecs)
            out.append(SpectrumCache(evals[k], groups, tol, sectors.stacks,
                                     tuple(w[k] for w in levels), vectors_k, order[k]))
        return out

    def _vectors(self) -> tuple[np.ndarray, ...]:
        if self.eigenvectors is None:
            raise EngineError("this spectrum holds eigenvalues only, no eigenvectors")
        return self.eigenvectors

    def _coefficients(self, amps: np.ndarray) -> list[np.ndarray]:
        """Per stack, (..., m, d): the components <v|psi> of one state
        (2^n,) or of each row of a batch (R, 2^n) along the stack's
        eigenvectors."""
        return [(amps[..., idx][..., None, :] @ v.conj())[..., 0, :]
                for idx, v in zip(self.stacks, self._vectors())]

    def group_energy(self, g: int) -> float:
        start, stop = self.groups[g]
        energy = float(np.mean(self.eigenvalues[start:stop]))
        if not math.isfinite(energy):
            raise EngineError(f"the energy of eigenvalue group {g} is not finite")
        return energy

    def group_energies(self) -> list[float]:
        """group_energy of every group, in order."""
        return [self.group_energy(g) for g in range(len(self.groups))]

    def group_basis(self, g: int) -> np.ndarray:
        """Orthonormal columns (2^n, size) spanning group g, each an
        eigenvector embedded from its block."""
        start, stop = self.groups[g]
        vecs = self._vectors()
        ends = np.cumsum([idx.size for idx in self.stacks])
        out = np.zeros((self.eigenvalues.size, stop - start), dtype=complex)
        for col, p in enumerate(self.order[start:stop].tolist()):
            s = int(np.searchsorted(ends, p, side="right"))
            idx = self.stacks[s]
            b, j = divmod(p - int(ends[s]) + idx.size, idx.shape[1])
            out[idx[b], col] = vecs[s][b, :, j]
        return out

    def level_weights(self, amps: np.ndarray) -> np.ndarray:
        """|<v_j|psi>|^2 for every eigenvector v_j in merged order: (2^n,)
        for one state, (R, 2^n) for each row of a batch."""
        lead = amps.shape[:-1]
        parts = [np.abs(c.reshape(*lead, -1)) ** 2 for c in self._coefficients(amps)]
        return np.concatenate(parts, axis=-1)[..., self.order]

    def weights(self, amps: np.ndarray) -> np.ndarray:
        """The weight of one state, or of each row of a batch, in every group."""
        starts = [start for start, _ in self.groups]
        return np.add.reduceat(self.level_weights(amps), starts, axis=-1)

    def group_weight(self, g: int, state: StateVector) -> float:
        return float(self.weights(state.amps)[g])

    def histogram(self, state: StateVector,
                  energies: list[float] | None = None) -> list[tuple[float, float]]:
        """(energy, weight) of the state in each eigenvalue group; `energies`,
        when given, is group_energies() taken once for many states."""
        energies = self.group_energies() if energies is None else energies
        return list(zip(energies, self.weights(state.amps).tolist()))

    def ground_vector(self) -> np.ndarray:
        """A unit vector of the ground space, the same on every call with
        the same eigenvectors.

        With P the projector onto the (possibly degenerate) ground space,
        this is P|e_k>/||P|e_k>|| for the computational basis state k whose
        computed diagonal weight <e_k|P|e_k> is largest; its k-th amplitude
        is then real positive by construction. Only an exact float tie
        breaks to the lowest index. Weights that are equal in exact
        arithmetic but differ in rounding pick k by that rounding, which can
        change with the eigensolver, its arithmetic, its thread count and
        the blocks it is given. On the 9-site XX chain all 512 weights are
        1/256: its parts (ground_state) pick k = 254, an odd Z-parity
        state, at one and at two OpenBLAS threads, where complex eigh of
        the whole matrix picked k = 11 at one thread and 261 at two. The
        pinned fig5 ground weight depends on that pick; a rule that does
        not depend on rounding, and the weight it re-pins, wait for the
        next change to the benchmark.
        """
        basis = self.group_basis(0)
        k = int(np.argmax(np.sum(np.abs(basis) ** 2, axis=1)))
        vec = basis @ basis[k, :].conj()
        return vec / np.linalg.norm(vec)

    def evolve(self, amps: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied to one state (2^n,) or to each row of a batch
        (R, 2^n), block by block."""
        out = np.empty(amps.shape, dtype=complex)
        for idx, w, v, c in zip(self.stacks, self.levels, self._vectors(),
                                self._coefficients(amps)):
            c = c * np.exp(-1j * w * t)
            out[..., idx] = (c[..., None, :] @ np.swapaxes(v, -1, -2))[..., 0, :]
        return out


@record
class GroundState:
    """The lowest energy of a Hamiltonian, a ground vector and the ground degeneracy."""
    energy: float
    state: StateVector
    degeneracy: int


def ground_state(h: Hamiltonian) -> GroundState:
    """Lowest eigenvalue of h with SpectrumCache.ground_vector as its state.

    This is also the start vector of every adiabatic run (GroundPath.start).
    h is decomposed part by part (SpectrumCache.from_hamiltonian), like
    every other oracle answer, never as one dense matrix, so the vector is
    exactly zero outside the block of its pick k. When the ground space is
    degenerate, k follows the parts' rounding (see ground_vector).
    """
    spec = SpectrumCache.from_hamiltonian(h)
    return GroundState(energy=float(spec.eigenvalues[0]), degeneracy=spec.groups[0][1],
                       state=StateVector(h.n_qubits, spec.ground_vector()))


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 (phase invariant, symmetric)."""
    if psi.n_qubits != phi.n_qubits:
        raise EngineError("size mismatch in fidelity")
    return float(abs(np.vdot(psi.amps, phi.amps)) ** 2)


def subspace_fidelity(psi: StateVector, basis: np.ndarray) -> float:
    """||P psi||^2 for the projector P onto the spanned (orthonormal) columns."""
    overlaps = basis.conj().T @ psi.amps
    return float(np.real(np.vdot(overlaps, overlaps)))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

_OBS_TOKEN = re.compile(r"([XYZ])(\d+)")


def parse_observable(spec: str, n_qubits: int) -> PauliString:
    """'Z0' or 'X0X1' style requests into a PauliString."""
    tokens = _OBS_TOKEN.findall(spec.replace(" ", ""))
    if not tokens or "".join(c + q for c, q in tokens) != spec.replace(" ", ""):
        raise EngineError(f"bad observable spec {spec!r}")
    sites = {}
    for char, qs in tokens:
        q = int(qs) if len(qs) < 5 else n_qubits  # 5 digits or more: out of range, unparsed
        if not (0 <= q < n_qubits):
            raise EngineError(f"observable site {qs} out of range")
        if q in sites:
            raise EngineError(f"observable {spec!r} repeats site {q}")
        sites[q] = char
    return PauliString.on(n_qubits, sites)


def _term_values(amps: np.ndarray, table: TermTable) -> np.ndarray:
    """coeff * <psi|P|psi> of every string of `table`: one gather and one
    sign per string."""
    cols = np.arange(amps.size)
    out = np.empty(len(table.coeff), dtype=complex)
    for t, (x_mask, imaginary, values) in enumerate(table.entries(cols)):
        value = np.vdot(amps[cols ^ x_mask], values * amps)
        out[t] = 1j * value if imaginary else value
    bad = np.flatnonzero(np.abs(out.imag) > 1e-10)
    if bad.size:
        raise EngineError(f"expectation came out complex ({out[bad[0]]})")
    return out.real


def expectation(state: StateVector, op: PauliString) -> float:
    """<psi| P |psi> for a Pauli string; real within numerical noise."""
    if op.n_qubits != state.n_qubits:
        raise EngineError("operator size mismatch")
    return float(_term_values(state.amps, TermTable.of([op]))[0])


def expectation_energy(state: StateVector, h: Hamiltonian) -> float:
    """<psi| H |psi> accumulated term by term (no dense matrix needed)."""
    if h.n_qubits != state.n_qubits:
        raise EngineError("operator size mismatch")
    return float(sum(_term_values(state.amps, h.table).tolist()))
