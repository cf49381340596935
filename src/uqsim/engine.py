"""Dense statevector execution of pulse schedules with timing-error
injection, plus the exact-diagonalization oracle used to validate them.

Amplitudes are indexed little-endian (qubit 0 = least significant bit).

Execution is lowered, fused and batched. One lowering turns instructions
into arrays before they run: a local layer becomes its per-qubit form
exp(i*alpha) (cos(theta) I - i sin(theta) n.sigma) plus the mask of
non-identity qubits and its fused groups, and a raw gate a one-gate ZZRun,
its theta*w per target beside references to the shared +-1 Z_a Z_b sign
rows. Each distinct instruction object is lowered once per call, so a
schedule of L repeated cycles pays for the lines of one cycle, not for
each occurrence; a run of consecutive raw gates is joined from their
lowered parts as it occurs and applied as a single multiply by
exp(-i * coef @ signs).
A cycle plan goes through the same lowering once, as the compiler's
cycle_body; each adiabatic step then adds the compiler's field_angles layer
and scales the body's runs (LoweredPlan), so the compiler alone decides
what a cycle contains. Lowered ops run in chunks of _CHUNK: jitter
rescales theta in closed form, and the jittered 2x2s of all a chunk's local
layers are built in one vectorised pass. A local layer runs group by group:
its qubits are split once, at lowering, into contiguous groups of at most
_GROUP_QUBITS (4+3 at n=7, 3+3+3 at n=9). A group with two or more
non-identity qubits is applied as one (2^k, 2^k) Kronecker block of its
2x2s, an exact identity in place of each identity qubit, in the manner of
qsim's gate fusion (arXiv:2111.02396); a group with one is a single-qubit
kernel call, which is cheaper than the same qubit padded with identities; a
group with none is skipped. The state has a leading batch axis (R, 2^n): the repetitions of a
sweep cell advance as one array, each row with its own seeded PCG64
generator, and a single run is a batch of one. The single-qubit and block
kernels and the Z_a Z_b sign rows come from uqsim.kernels, which the
observables below call too.

The oracle has one eigendecomposition call, `_spectrum`, on a dense matrix,
and keeps no process-wide cache. Asked for eigenvalues only, it uses real
arithmetic when the matrix is real. The adiabatic oracle
(experiments.GroundPath) decomposes k*H_initial + (1-k)*H_target from two
matrices built once per path; its gap scan asks for eigenvalues only.

Determinism: each row's jitter is drawn in instruction order, one
rng.random per chunk of instructions mapped onto [-eta, eta] exactly as
per-instruction rng.uniform calls would. The log keeps each chunk's mapped
draws as one array and writes them per instruction; a run replays from its
log (run_schedule(..., replay=log)). The same command and seed give
bit-identical results. A repetition run inside a sweep batch agrees with
the same seed run alone within 1e-12, not bitwise, since BLAS blocking
depends on the batch size.
"""
from __future__ import annotations

import cmath
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import STATEVECTOR_CAP
from .compiler import ApplyLocal, CyclePlan, PulseSchedule, RawGate, cycle_body, field_angles
from .pauli import Hamiltonian, LocalLayer, PauliString, SIGMA

RNG_ALGORITHM = "numpy-PCG64"
NORM_TOL = 1e-9


class EngineError(Exception):
    pass


class StateFormatError(EngineError):
    """A malformed or unnormalised state dump (a parse error, not a numeric one)."""


def _check_dense(n_qubits: int):
    """Refuse dense matrices above the qubit cap: 12, or UQS_DENSE_CAP when set."""
    raw = os.environ.get("UQS_DENSE_CAP", "").strip() or "12"
    try:
        cap = int(raw)
    except ValueError as exc:
        raise EngineError(f"bad UQS_DENSE_CAP value {raw!r}") from exc
    if n_qubits > cap:
        raise EngineError(f"{n_qubits} qubits exceeds the dense cap {cap}")


@dataclass
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

    @staticmethod
    def from_amplitudes(amps) -> "StateVector":
        a = np.asarray(amps, dtype=np.complex128)
        n = int(round(math.log2(a.size)))
        if 2**n != a.size:
            raise EngineError("amplitude count is not a power of 2")
        return StateVector(n, a.copy())

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
        """Parse a dump; indices must be distinct and in range, values
        finite, and the norm within NORM_TOL of 1."""
        n_qubits = None
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = re.search(r"n_qubits=(\d+)", line)
                if m:
                    try:
                        n_qubits = int(m.group(1))
                    except ValueError as exc:  # beyond int's digit limit
                        raise StateFormatError(f"line {lineno}: bad n_qubits") from exc
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
        if n_qubits is None:
            raise StateFormatError("missing n_qubits header")
        if not 1 <= n_qubits <= STATEVECTOR_CAP:
            raise StateFormatError(f"n_qubits={n_qubits} outside 1..{STATEVECTOR_CAP}")
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


@dataclass(frozen=True)
class ErrorModel:
    """Fractional timing jitter, uniform on [-eta, +eta] per pulse.

    eta_local applies per qubit per local layer, eta_int per gate entry in a
    ZZ gate list.
    """

    eta_local: float = 0.0
    eta_int: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for eta in (self.eta_local, self.eta_int):
            if not (0.0 <= eta < 1.0):
                raise EngineError(f"jitter fraction {eta} outside [0, 1)")
        if (self.eta_local > 0 or self.eta_int > 0) and self.seed is None:
            raise EngineError("an error model with nonzero jitter needs a seed")

    @property
    def is_noisy(self) -> bool:
        return self.eta_local > 0 or self.eta_int > 0

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


class LogFormatError(EngineError):
    """A malformed execution log text (a parse error, not a numeric one)."""


_LOG_HEADER = re.compile(r"# execution log rng=(\S+) seed=(None|-?\d+)")
_LOG_KINDS = ("local", "gate")


class ExecutionLog:
    """Per-instruction jitter draws, sufficient to replay a run.

    The draws are kept per chunk of instructions, as execute_lowered makes
    them: the index of its first instruction, each instruction's kind
    ("local" or "gate") and draw count, and one float array of the chunk's
    mapped draws in instruction order. `entries` is a fresh list of
    (index, kind, draws) per instruction; `to_text` writes one line per
    instruction, which `from_text` reads back exactly. Replaying a log
    needs only the reader and a draw source: run_schedule(..., replay=log)
    takes every draw from the log (LogDraws) instead of the generator.
    """

    def __init__(self, rng_algorithm: str = RNG_ALGORITHM, seed: int | None = None,
                 entries=()):
        self.rng_algorithm, self.seed = rng_algorithm, seed
        self._chunks: list[tuple[int, list[str], list[int], np.ndarray]] = []
        for index, kind, draws in entries:
            self.record(index, [kind], [len(draws)], np.array(draws, dtype=float))

    def record(self, index: int, kinds: list[str], sizes: list[int], draws: np.ndarray):
        """Instruction index + i has kind kinds[i] and the next sizes[i]
        values of the flat `draws`, in order."""
        self._chunks.append((index, kinds, sizes, draws))

    def _rows(self):
        for index, kinds, sizes, draws in self._chunks:
            values, pos = draws.tolist(), 0
            for i, (kind, k) in enumerate(zip(kinds, sizes)):
                yield index + i, kind, values[pos:pos + k]
                pos += k

    @property
    def entries(self) -> list[tuple[int, str, tuple[float, ...]]]:
        return [(index, kind, tuple(values)) for index, kind, values in self._rows()]

    def to_text(self) -> str:
        lines = [f"# execution log rng={self.rng_algorithm} seed={self.seed}"]
        for index, kind, values in self._rows():
            payload = ",".join(map(repr, values)) if values else "-"
            lines.append(f"{index} {kind} {payload}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExecutionLog":
        """Parse what to_text writes: the header line, then `index kind
        draws` per instruction with indices 0, 1, 2, ..., kind `local` or
        `gate`, and draws a comma list of finite floats or `-` for none.
        Anything else raises LogFormatError naming the line."""
        lines = text.splitlines()
        head = _LOG_HEADER.fullmatch(lines[0].strip()) if lines else None
        if head is None:
            raise LogFormatError("line 1: expected the header "
                                 "'# execution log rng=<name> seed=<int or None>'")
        try:
            seed = None if head.group(2) == "None" else int(head.group(2))
        except ValueError as exc:  # beyond int's digit limit
            raise LogFormatError("line 1: bad seed") from exc
        kinds, sizes, draws = [], [], []
        for lineno, raw in enumerate(lines[1:], start=2):
            parts = raw.split()
            if len(parts) != 3:
                raise LogFormatError(f"line {lineno}: expected 'index kind draws'")
            index, kind, payload = parts
            if index != str(len(kinds)):
                raise LogFormatError(f"line {lineno}: expected index {len(kinds)}, got {index!r}")
            if kind not in _LOG_KINDS:
                raise LogFormatError(f"line {lineno}: kind {kind!r} is not local or gate")
            values = [] if payload == "-" else payload.split(",")
            try:
                values = [float(v) for v in values]
            except ValueError as exc:
                raise LogFormatError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise LogFormatError(f"line {lineno}: non-finite draw")
            kinds.append(kind)
            sizes.append(len(values))
            draws.extend(values)
        log = ExecutionLog(head.group(1), seed)
        if kinds:
            log.record(0, kinds, sizes, np.array(draws, dtype=float))
        return log


class LogDraws:
    """A draw source that hands out a log's mapped draws in order: the
    jitter of the run the log recorded, for a batch of one state.

    Each chunk must ask for the kinds and draw counts that the log holds
    for its instructions; `close` checks that the run used every one.
    """

    def __init__(self, log: ExecutionLog):
        chunks = log._chunks
        self.kinds = [k for c in chunks for k in c[1]]
        self.sizes = [k for c in chunks for k in c[2]]
        self.values = np.concatenate([c[3] for c in chunks]) if chunks else np.empty(0)
        self.index = self.pos = 0

    def take(self, kinds: list[str], sizes: list[int]) -> np.ndarray:
        """The next (1, sum(sizes)) draws."""
        stop = self.index + len(kinds)
        if self.kinds[self.index:stop] != kinds or self.sizes[self.index:stop] != sizes:
            raise EngineError(f"instructions {self.index}..{stop - 1} do not match the log")
        size = sum(sizes)
        out = self.values[None, self.pos:self.pos + size]
        self.index, self.pos = stop, self.pos + size
        return out

    def close(self):
        if self.index != len(self.kinds):
            raise EngineError(
                f"the log holds {len(self.kinds)} instructions, the run {self.index}")


# ---------------------------------------------------------------------------
# Lowered execution core
# ---------------------------------------------------------------------------

_IDENTITY_TOL = 1e-14      # as SingleQubitUnitary.is_identity
_SHARED_SIGN_QUBITS = 12   # sign rows up to 32 KiB are shared per gate, stacked per run
_CHUNK = 64                # lowered ops per draw-and-apply pass, raw gates per fused run
_GROUP_QUBITS = 4          # most qubits per fused local block, a (2^4, 2^4) matrix
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

    `groups` fixes at lowering how the layer is applied: the qubits split
    into contiguous groups of at most _GROUP_QUBITS (_group_bounds), each
    kept as (lo, k, its active qubits) when it has any. A group with one
    active qubit is one single-qubit kernel call; one with more is one
    (2^k, 2^k) Kronecker block, an exact identity standing for each inactive
    qubit in it.
    """

    __slots__ = ("theta", "nsigma", "phase", "matrices", "active", "groups")

    def __init__(self, alpha, theta, axis, matrices=None):
        self.theta = np.asarray(theta, dtype=float)
        axis = np.asarray(axis, dtype=float)
        self.nsigma = (axis[:, 0, None, None] * SIGMA["X"] + axis[:, 1, None, None] * SIGMA["Y"]
                       + axis[:, 2, None, None] * SIGMA["Z"])
        self.phase = np.exp(1j * np.asarray(alpha, dtype=float))
        self.matrices = (_local_matrices(self.theta, self.nsigma, self.phase, 1.0)
                         if matrices is None else matrices)
        off = np.max(np.abs(self.matrices - _EYE2), axis=(1, 2))
        self.active = tuple(np.flatnonzero(off > _IDENTITY_TOL).tolist())
        groups = ((lo, k, tuple(q for q in self.active if lo <= q < lo + k))
                  for lo, k in _group_bounds(len(self.theta)))
        self.groups = tuple(g for g in groups if g[2])

    @staticmethod
    def from_layer(layer: LocalLayer, n_qubits: int) -> "LoweredLayer":
        if not layer.matches(n_qubits):
            raise EngineError(
                f"layer has {layer.n_qubits} unitaries, the state {n_qubits} qubits"
            )
        units = [layer.unitary_at(q) for q in range(n_qubits)]
        return LoweredLayer([u.alpha for u in units], [u.theta for u in units],
                            [u.axis for u in units], np.array([u.matrix for u in units]))

    def apply(self, amps: np.ndarray, mats: np.ndarray) -> None:
        """The layer with unitaries `mats` (n, 2, 2), or (R, n, 2, 2) one set
        per row, on the batch amps (R, 2^n) in place, group by group."""
        for lo, k, live in self.groups:
            if len(live) == 1:
                kernels.apply_single_qubit(amps, live[0], mats[..., live[0], :, :])
                continue
            block = mats[..., lo, :, :] if lo in live else _EYE2
            for q in range(lo + 1, lo + k):
                m = mats[..., q, :, :] if q in live else _EYE2
                # kron(m, block): qubit q is the block's new high bit
                prod = m[..., :, None, :, None] * block[..., None, :, None, :]
                block = prod.reshape(*prod.shape[:-4], 2 * prod.shape[-3], 2 * prod.shape[-1])
            kernels.apply_block(amps, lo, block)


def _local_matrices(theta, nsigma, phase, scale) -> np.ndarray:
    """exp(i*alpha) (cos(theta*scale) I - i sin(theta*scale) n.sigma) for
    theta, phase (..., n) and nsigma (..., n, 2, 2): the closed form of
    SingleQubitUnitary.with_angle_scale, vectorised over qubits, over the
    stacked layers of a chunk and, through the shape of `scale`, over batch
    rows."""
    th = theta * scale
    m = (np.cos(th)[..., None, None] * _EYE2
         - 1j * np.sin(th)[..., None, None] * nsigma)
    return phase[..., None, None] * m


class ZZRun:
    """Consecutive raw gates as one diagonal exp(-i * coef @ signs).

    `thetas` holds each gate's angle and `sizes` its target count (its
    jitter draws); `weights`, `pairs` and `coef` = theta*w have one entry
    per target in gate order, and `signs` the +-1 eigenvalue of Z_a Z_b on
    every basis state, one row per target: a tuple of the shared read-only
    rows of kernels.shared_zz_signs, stacked when the run is applied, or one
    (targets, 2^n) array (`stacked`). Above _SHARED_SIGN_QUBITS `signs` is
    None and the rows are made one at a time.
    """

    __slots__ = ("thetas", "sizes", "weights", "pairs", "coef", "signs")

    def __init__(self, thetas, sizes, weights, pairs, coef, signs):
        self.thetas, self.sizes, self.weights = thetas, sizes, weights
        self.pairs, self.coef, self.signs = pairs, coef, signs

    @staticmethod
    def from_gate(gate: RawGate, n_qubits: int) -> "ZZRun":
        """One raw gate, its sign rows shared rather than copied."""
        pairs = tuple((a, b) for a, b, _ in gate.targets)
        for a, b in pairs:
            if not (0 <= a < n_qubits and 0 <= b < n_qubits):
                raise EngineError(f"gate qubits {(a, b)} out of range for {n_qubits} qubits")
        weights = np.array([w for _, _, w in gate.targets], dtype=float)
        signs = (None if n_qubits > _SHARED_SIGN_QUBITS
                 else tuple(kernels.shared_zz_signs(n_qubits, a, b) for a, b in pairs))
        return ZZRun((gate.theta,), (len(pairs),), weights, pairs, gate.theta * weights, signs)

    @staticmethod
    def join(runs) -> "ZZRun":
        """The gates of `runs` in order as one run."""
        if len(runs) == 1:
            return runs[0]
        signs = None if runs[0].signs is None else tuple(s for r in runs for s in r.signs)
        return ZZRun(tuple(t for r in runs for t in r.thetas),
                     tuple(k for r in runs for k in r.sizes),
                     np.concatenate([r.weights for r in runs]),
                     tuple(p for r in runs for p in r.pairs),
                     np.concatenate([r.coef for r in runs]), signs)

    def stacked(self, dim: int) -> "ZZRun":
        """This run with its sign rows stacked into one (targets, dim) array,
        for a run applied many times."""
        signs = None if self.signs is None else np.reshape(self.signs, (len(self.signs), dim))
        return ZZRun(self.thetas, self.sizes, self.weights, self.pairs, self.coef, signs)

    def scaled(self, scale: float) -> "ZZRun | None":
        """This run with every gate angle times `scale`, or None when none is left.

        Gates whose angle is then exactly zero are left out, as emit_cycle
        leaves them out, so the jitter draws line up with its instructions.
        The sign rows must be stacked (`stacked`).
        """
        thetas = np.asarray(self.thetas) * scale
        sizes, weights = np.asarray(self.sizes), np.asarray(self.weights)
        coef = np.repeat(thetas, sizes) * weights
        live = thetas != 0.0
        if live.all():
            return ZZRun(thetas, sizes, weights, self.pairs, coef, self.signs)
        if not live.any():
            return None
        keep = np.repeat(live, sizes)
        return ZZRun(thetas[live], sizes[live], weights[keep],
                     [p for p, k in zip(self.pairs, keep) if k], coef[keep],
                     None if self.signs is None else self.signs[keep])


def _lower(instructions, n_qubits: int):
    """Lowered ops of an instruction stream, in order: a LoweredLayer per
    local layer and a ZZRun per run of up to _CHUNK consecutive raw gates.

    Each distinct ApplyLocal and RawGate object is lowered once per call and
    kept, with the object so that its id stays its own, until the stream
    ends; a run of gates is joined from their lowered parts.
    """
    lowered: dict[int, tuple[object, LoweredLayer | ZZRun]] = {}
    gates = []
    for ins in instructions:
        hit = lowered.get(id(ins))
        if hit is None:
            if isinstance(ins, RawGate):
                op = ZZRun.from_gate(ins, n_qubits)
            elif isinstance(ins, ApplyLocal):
                op = LoweredLayer.from_layer(ins.layer, n_qubits)
            else:
                raise EngineError(f"unknown instruction {type(ins).__name__}")
            hit = lowered[id(ins)] = (ins, op)
        op = hit[1]
        if isinstance(op, ZZRun):
            gates.append(op)
            if len(gates) < _CHUNK:
                continue
        if gates:
            yield ZZRun.join(gates)
            gates = []
        if isinstance(op, LoweredLayer):
            yield op
    if gates:
        yield ZZRun.join(gates)


def _apply_zz(amps: np.ndarray, run: ZZRun, coef: np.ndarray) -> None:
    signs = run.signs
    if signs is None:
        n = amps.shape[1].bit_length() - 1
        angles = sum(coef[..., t, None] * kernels.zz_signs(n, a, b)
                     for t, (a, b) in enumerate(run.pairs))
    else:
        if not isinstance(signs, np.ndarray):  # shared rows: one as a view, more stacked
            dim = amps.shape[1]
            signs = signs[0][None] if len(signs) == 1 else np.reshape(signs, (len(signs), dim))
        angles = coef @ signs
    amps *= np.exp(-1j * angles)


def execute_lowered(
    amps: np.ndarray,
    ops,
    err: ErrorModel | None,
    draws,
    log: ExecutionLog | None = None,
    base_index: int = 0,
) -> int:
    """Apply lowered ops (LoweredLayer, ZZRun) to the batch amps (R, 2^n) in place.

    `draws` is the jitter source. Given a sequence of generators, row r
    draws one rng.random(size) from draws[r] for all ops and maps each
    value u onto -eta + 2*eta*u: bit for bit what one rng.uniform(-eta, eta)
    per instruction gives, so seeds and logs keep their meaning. Given a
    LogDraws, the ops take the mapped draws a log recorded. A layer draws
    one value per qubit when eta_local > 0, a gate one per target when
    eta_int > 0. The jittered 2x2s of all the ops' layers are built in one
    pass, (R, layers, n, 2, 2). Returns the next instruction index.
    """
    n = amps.shape[1].bit_length() - 1
    eta_l = err.eta_local if err is not None else 0.0
    eta_i = err.eta_int if err is not None else 0.0
    # per op its first draw; per instruction, for a log or a replay, its
    # kind and draw count
    record = log is not None or isinstance(draws, LogDraws)
    starts, kinds, sizes = [], [], []
    size = count = 0
    for op in ops:
        starts.append(size)
        if isinstance(op, LoweredLayer):
            k = n if eta_l > 0 else 0
            count += 1
            if record:
                kinds.append("local")
                sizes.append(k)
        else:
            k = len(op.coef) if eta_i > 0 else 0
            count += len(op.sizes)
            if record:
                kinds += ["gate"] * len(op.sizes)
                sizes.extend(op.sizes if eta_i > 0 else [0] * len(op.sizes))
        size += k
    layers = [(op, s) for op, s in zip(ops, starts) if isinstance(op, LoweredLayer)]
    # the draws of layer j are d[:, at[j]]
    at = np.add.outer([s for _, s in layers], np.arange(n)) if eta_l > 0 and layers else None
    if isinstance(draws, LogDraws):
        d = draws.take(kinds, sizes)
    elif size:
        if any(rng is None for rng in draws):
            raise EngineError("jitter needs a random generator for every state")
        u = np.array([rng.random(size) for rng in draws])
        eta = eta_l if eta_i == 0 else eta_i
        if at is not None and 0 < eta_i != eta_l:
            eta = np.full(size, eta_i)
            eta[at] = eta_l
        d = -eta + (eta + eta) * u
    else:
        d = np.empty((len(draws), 0))
    if at is not None:
        mats = _local_matrices(np.array([op.theta for op, _ in layers]),
                               np.array([op.nsigma for op, _ in layers]),
                               np.array([op.phase for op, _ in layers]), 1.0 + d[:, at])
    j = 0
    for op, start in zip(ops, starts):
        if isinstance(op, LoweredLayer):
            op.apply(amps, op.matrices if at is None else mats[:, j])
            j += 1
            continue
        coef = op.coef
        if eta_i > 0:
            coef = coef * (1.0 + d[:, start:start + len(coef)])
        _apply_zz(amps, op, coef)
    if log is not None and kinds:
        log.record(base_index, kinds, sizes, d[0])
    return base_index + count


class LoweredPlan:
    """A CyclePlan lowered once for a fixed dt; each cycle only rescales angles.

    `ops(scale)` stands for emit_cycle(plan, dt, scale): the field layer of
    field_angles(plan, dt * scale), then cycle_body(plan, dt) lowered once
    with its gate runs scaled, so the layers, gates, angles and jitter draws
    line up one for one without building instruction objects.
    """

    def __init__(self, plan: CyclePlan, dt: float, n_qubits: int):
        if plan.n_qubits != n_qubits:
            raise EngineError(f"plan is for {plan.n_qubits} qubits, the state has {n_qubits}")
        self.plan, self.dt, self.n_qubits = plan, dt, n_qubits
        # stacked(...).scaled(1.0) gives each run the arrays that every later
        # scaled() reuses
        body = (op if isinstance(op, LoweredLayer) else op.stacked(1 << n_qubits).scaled(1.0)
                for op in _lower(cycle_body(plan, dt), n_qubits))
        self.body = [op for op in body if op is not None]

    def ops(self, scale: float) -> list:
        if scale == 0.0 or self.dt == 0.0:
            return []
        out = []
        field = field_angles(self.plan, self.dt * scale)
        if field is not None:
            out.append(LoweredLayer(np.zeros(self.n_qubits), *field))
        for op in self.body:
            op = op if isinstance(op, LoweredLayer) else op.scaled(scale)
            if op is not None:
                out.append(op)
        return out


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

    Instructions are lowered as they arrive and run in chunks of _CHUNK ops.
    Each distinct instruction object is lowered once per call (a schedule of
    repeated cycles pays per line of its cycle, not per occurrence), and
    each run of consecutive raw gates becomes one diagonal. Returns the
    number of instructions run.
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
    ops, index = [], 0
    for op in _lower(instructions, n_qubits):
        ops.append(op)
        if len(ops) >= _CHUNK:
            index = execute_lowered(amps, ops, err, draws, log, index)
            ops = []
    return execute_lowered(amps, ops, err, draws, log, index)


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

    A batch of one through execute_batch. Returns the number of
    instructions run; noise draws are strictly sequential in instruction
    order so runs replay exactly.
    """
    amps = np.asarray(amps)
    if amps.shape != (1 << n_qubits,):
        raise EngineError(f"amplitude array has shape {amps.shape}, expected ({1 << n_qubits},)")
    draws = rng if isinstance(rng, LogDraws) else [rng]
    return execute_batch(amps[None, :], n_qubits, instructions, err, draws, log)


def apply_local_layer(
    state: StateVector,
    layer: LocalLayer,
    err: ErrorModel | None = None,
    rng: np.random.Generator | None = None,
) -> StateVector:
    """Apply one layer of single-qubit unitaries (pure; returns a new state)."""
    if err is not None and err.eta_local > 0 and rng is None:
        rng = err.rng()
    out = state.copy()
    execute_instructions(out.amps, out.n_qubits, [ApplyLocal(layer)], err, rng)
    out.check_norm()
    return out


def apply_zz_gates(
    state: StateVector,
    gates,
    err: ErrorModel | None = None,
    rng: np.random.Generator | None = None,
) -> StateVector:
    """Apply a list of (a, b, theta) diagonal ZZ gates (pure)."""
    for a, b, _ in gates:
        if a == b:
            raise EngineError(f"ZZ gate with identical qubits {a}")
    if err is not None and err.eta_int > 0 and rng is None:
        rng = err.rng()
    out = state.copy()
    gate = RawGate("zz", 1.0, tuple((a, b, theta) for a, b, theta in gates))
    execute_instructions(out.amps, out.n_qubits, [gate], err, rng)
    out.check_norm()
    return out


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
    EngineError.
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
    """exp(-i h t) |state> through eigendecomposition of the dense matrix."""
    if h.n_qubits != state.n_qubits:
        raise EngineError("Hamiltonian and state size mismatch")
    return StateVector(state.n_qubits, SpectrumCache.from_hamiltonian(h).evolve(state.amps, t))


def _spectrum(m: np.ndarray, vectors: bool = True):
    """The oracle's one eigendecomposition: ascending eigenvalues and
    eigenvector columns. With vectors=False, the eigenvalues alone, from
    real arithmetic when m has no imaginary part."""
    if vectors:
        return np.linalg.eigh(m)
    return np.linalg.eigvalsh(m if m.imag.any() else m.real)


@dataclass
class SpectrumCache:
    """A grouped spectrum: sorted eigenvalues, their (near-)degenerate
    groups and, unless it was built from eigenvalues alone, the eigenvectors.

    A spectrum without vectors answers group energies and gaps only; asking
    it for a basis, weight or evolution raises EngineError. It caches
    nothing; the name stays because perfbench/spans.py wraps its methods by
    name.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # columns
    groups: tuple[tuple[int, int], ...]  # [start, stop) index ranges
    tol: float

    @staticmethod
    def from_hamiltonian(h: Hamiltonian) -> "SpectrumCache":
        _check_dense(h.n_qubits)
        return SpectrumCache.from_matrix(h.to_matrix())

    @staticmethod
    def from_matrix(m: np.ndarray, vectors: bool = True) -> "SpectrumCache":
        """Eigenvalues less than 1e-8 * max(1, spread) apart share a group.
        vectors=False decomposes eigenvalues only (see _spectrum)."""
        evals, evecs = _spectrum(m) if vectors else (_spectrum(m, vectors=False), None)
        spread = float(evals[-1] - evals[0]) if evals.size > 1 else 1.0
        tol = 1e-8 * max(1.0, spread)
        cuts = (np.flatnonzero(np.diff(evals) >= tol) + 1).tolist()
        groups = tuple(zip([0] + cuts, cuts + [evals.size]))
        return SpectrumCache(evals, evecs, groups, tol)

    def _vectors(self) -> np.ndarray:
        if self.eigenvectors is None:
            raise EngineError("this spectrum holds eigenvalues only, no eigenvectors")
        return self.eigenvectors

    def group_energy(self, g: int) -> float:
        start, stop = self.groups[g]
        return float(np.mean(self.eigenvalues[start:stop]))

    def group_basis(self, g: int) -> np.ndarray:
        start, stop = self.groups[g]
        return self._vectors()[:, start:stop]

    def group_weight(self, g: int, state: StateVector) -> float:
        return subspace_fidelity(state, self.group_basis(g))

    def histogram(self, state: StateVector) -> list[tuple[float, float]]:
        """(energy, weight) of the state in each eigenvalue group."""
        return [(self.group_energy(g), self.group_weight(g, state)) for g in range(len(self.groups))]

    def ground_vector(self) -> np.ndarray:
        """A unit vector of the ground space, the same on every call with
        the same eigenvectors.

        With P the projector onto the (possibly degenerate) ground space,
        this is P|e_k>/||P|e_k>|| for the computational basis state k whose
        computed diagonal weight <e_k|P|e_k> is largest; its k-th amplitude
        is then real positive by construction. Only an exact float tie
        breaks to the lowest index. Weights that are equal in exact
        arithmetic but differ in rounding pick k by that rounding, which can
        change with the eigensolver, its arithmetic and its thread count: on
        the 9-site XX chain all 512 weights are 1/256, and with one OpenBLAS
        thread complex eigh picks k = 11 and real eigh k = 263, whose
        vectors lie in different Z-parity sectors.
        """
        basis = self.group_basis(0)
        k = int(np.argmax(np.sum(np.abs(basis) ** 2, axis=1)))
        vec = basis @ basis[k, :].conj()
        return vec / np.linalg.norm(vec)

    def evolve(self, amps: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied to one state (2^n,) or to each row of a batch (R, 2^n)."""
        v = self._vectors()
        phases = np.exp(-1j * self.eigenvalues * t)[:, None]
        # states as columns: a single state then takes the matrix-vector path
        out = v @ (phases * (v.conj().T @ np.atleast_2d(amps).T))
        return out.T.reshape(amps.shape)


@dataclass
class GroundState:
    energy: float
    state: StateVector
    degeneracy: int


def ground_state(h: Hamiltonian) -> GroundState:
    """Lowest eigenvalue of h with SpectrumCache.ground_vector as its state."""
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


def eigenspace_histogram(state: StateVector, h: Hamiltonian) -> list[tuple[float, float]]:
    """Weights of the state in each (possibly degenerate) eigenspace of h."""
    out = SpectrumCache.from_hamiltonian(h).histogram(state)
    total = sum(w for _, w in out)
    if abs(total - 1.0) > 1e-9:
        raise EngineError(f"histogram weights sum to {total}, expected 1")
    return out


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

_OBS_TOKEN = re.compile(r"([XYZ])(\d+)")


def parse_observable(spec: str, n_qubits: int) -> PauliString:
    """'Z0' or 'X0X1' style requests into a PauliString."""
    tokens = _OBS_TOKEN.findall(spec.replace(" ", ""))
    if not tokens or "".join(c + q for c, q in tokens) != spec.replace(" ", ""):
        raise EngineError(f"bad observable spec {spec!r}")
    ops = ["I"] * n_qubits
    for char, qs in tokens:
        q = int(qs)
        if not (0 <= q < n_qubits):
            raise EngineError(f"observable site {q} out of range")
        if ops[q] != "I":
            raise EngineError(f"observable {spec!r} repeats site {q}")
        ops[q] = char
    return PauliString("".join(ops))


def expectation(state: StateVector, op: PauliString) -> float:
    """<psi| P |psi> for a Pauli string; real within numerical noise."""
    if op.n_qubits != state.n_qubits:
        raise EngineError("operator size mismatch")
    work = state.amps.copy()
    for q, c in enumerate(op.ops):
        if c != "I":
            kernels.apply_single_qubit(work, q, SIGMA[c])
    val = np.vdot(state.amps, work) * op.coeff
    if abs(val.imag) > 1e-10:
        raise EngineError(f"expectation came out complex ({val})")
    return float(val.real)


def expectation_energy(state: StateVector, h: Hamiltonian) -> float:
    """<psi| H |psi> accumulated term by term (no dense matrix needed)."""
    return sum(expectation(state, t) for t in h.terms)


def observables(state: StateVector, specs) -> list[tuple[str, float]]:
    return [(s, expectation(state, parse_observable(s, state.n_qubits))) for s in specs]
