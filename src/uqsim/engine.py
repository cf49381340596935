"""Dense statevector execution of pulse schedules with timing-error
injection, plus the exact-diagonalization oracle used to validate them.

Amplitudes are indexed little-endian (qubit 0 = least significant bit).

Execution is lowered, fused and batched. One lowering turns instructions
into arrays before they run: a local layer becomes its per-qubit form
exp(i*alpha) (cos(theta) I - i sin(theta) n.sigma) plus the mask of
non-identity qubits, and each run of consecutive raw gates one ZZRun, a
vector of theta*w over its targets with a +-1 Z_a Z_b sign row per target.
Schedules go through it as they run. A cycle plan goes through it once, as
the compiler's cycle_body; each adiabatic step then adds the compiler's
field_angles layer and scales the body's runs (LoweredPlan), so the
compiler alone decides what a cycle contains. Jitter rescales theta in
closed form, vectorised over qubits, and a gate run is a single multiply by
exp(-i * coef @ signs). The state has a leading batch axis (R, 2^n): the
repetitions of a sweep cell advance as one array, each row with its own
seeded PCG64 generator, and a single run is a batch of one. The
single-qubit kernel and the Z_a Z_b sign rows come from uqsim.kernels,
which the observables below call too.

The oracle has one eigendecomposition call, `_spectrum`, on a dense matrix,
and keeps no process-wide cache. Asked for eigenvalues only, it uses real
arithmetic when the matrix is real. The adiabatic oracle
(experiments.GroundPath) decomposes k*H_initial + (1-k)*H_target from two
matrices built once per path; its gap scan asks for eigenvalues only.

Determinism: each row's jitter is drawn in instruction order, one
rng.random per chunk of instructions mapped onto [-eta, eta] exactly as
per-instruction rng.uniform calls would, and logged per instruction. The
same command and seed give bit-identical results. A repetition run inside
a sweep batch agrees with the same seed run alone within 1e-12, not
bitwise, since BLAS blocking depends on the batch size.
"""
from __future__ import annotations

import cmath
import math
import os
import re
from dataclasses import dataclass, field

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
                    n_qubits = int(m.group(1))
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


@dataclass
class ExecutionLog:
    """Per-instruction jitter draws, sufficient to replay a run."""

    rng_algorithm: str = RNG_ALGORITHM
    seed: int | None = None
    entries: list[tuple[int, str, tuple[float, ...]]] = field(default_factory=list)

    def record(self, index: int, kind: str, draws: tuple[float, ...]):
        self.entries.append((index, kind, draws))

    def to_text(self) -> str:
        lines = [f"# execution log rng={self.rng_algorithm} seed={self.seed}"]
        for index, kind, draws in self.entries:
            payload = ",".join(repr(float(d)) for d in draws) if draws else "-"
            lines.append(f"{index} {kind} {payload}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Lowered execution core
# ---------------------------------------------------------------------------

_IDENTITY_TOL = 1e-14      # as SingleQubitUnitary.is_identity
_SHARED_SIGN_QUBITS = 12   # sign rows up to 32 KiB are cached and stacked per run
_CHUNK = 64                # lowered ops per draw-and-apply pass, raw gates per fused run
_LAYER_CACHE = 256         # lowered local layers kept per execute_batch call


class LoweredLayer:
    """A local layer as arrays over its qubits.

    Qubit q applies exp(i*alpha_q) (cos(theta_q) I - i sin(theta_q) n_q.sigma).
    `matrices` holds the noiseless 2x2 unitaries and `active` the qubits
    whose unitary is not the identity; only those reach a kernel, with or
    without jitter, since jitter only rescales theta.
    """

    __slots__ = ("theta", "nsigma", "phase", "matrices", "active")

    def __init__(self, alpha, theta, axis, matrices=None):
        self.theta = np.asarray(theta, dtype=float)
        axis = np.asarray(axis, dtype=float)
        self.nsigma = (axis[:, 0, None, None] * SIGMA["X"] + axis[:, 1, None, None] * SIGMA["Y"]
                       + axis[:, 2, None, None] * SIGMA["Z"])
        self.phase = np.exp(1j * np.asarray(alpha, dtype=float))
        self.matrices = self.jittered(1.0) if matrices is None else matrices
        off = np.max(np.abs(self.matrices - np.eye(2)), axis=(1, 2))
        self.active = tuple(np.flatnonzero(off > _IDENTITY_TOL).tolist())

    @staticmethod
    def from_layer(layer: LocalLayer, n_qubits: int) -> "LoweredLayer":
        if not layer.matches(n_qubits):
            raise EngineError(
                f"layer has {layer.n_qubits} unitaries, the state {n_qubits} qubits"
            )
        units = [layer.unitary_at(q) for q in range(n_qubits)]
        return LoweredLayer([u.alpha for u in units], [u.theta for u in units],
                            [u.axis for u in units], np.array([u.matrix for u in units]))

    def jittered(self, scale) -> np.ndarray:
        """The (..., n, 2, 2) matrices with each angle theta_q times `scale`.

        The closed form of SingleQubitUnitary.with_angle_scale, vectorised
        over qubits and, through the shape of `scale`, over batch rows.
        """
        th = self.theta * scale
        m = (np.cos(th)[..., None, None] * np.eye(2)
             - 1j * np.sin(th)[..., None, None] * self.nsigma)
        return self.phase[:, None, None] * m


class ZZRun:
    """Consecutive raw gates as one diagonal exp(-i * coef @ signs).

    `thetas` holds each gate's angle and `sizes` its target count (its
    jitter draws); `weights`, `pairs` and `coef` = theta*w have one entry
    per target in gate order, and `signs` the +-1 eigenvalue of Z_a Z_b on
    every basis state, one row per target. Above _SHARED_SIGN_QUBITS the
    rows are not stacked (`signs` is None) but made one at a time.
    """

    __slots__ = ("thetas", "sizes", "weights", "pairs", "coef", "signs")

    def __init__(self, thetas, sizes, weights, pairs, coef, signs):
        self.thetas, self.sizes, self.weights = thetas, sizes, weights
        self.pairs, self.coef, self.signs = pairs, coef, signs

    @staticmethod
    def from_gates(gates, n_qubits: int) -> "ZZRun":
        thetas, sizes, weights, pairs, coef = [], [], [], [], []
        for g in gates:
            thetas.append(g.theta)
            sizes.append(len(g.targets))
            for a, b, w in g.targets:
                weights.append(w)
                pairs.append((a, b))
                coef.append(g.theta * w)
        return ZZRun(thetas, sizes, weights, pairs, np.array(coef, dtype=float),
                     _sign_matrix(pairs, n_qubits))

    def scaled(self, scale: float) -> "ZZRun | None":
        """This run with every gate angle times `scale`, or None when none is left.

        Gates whose angle is then exactly zero are left out, as emit_cycle
        leaves them out, so the jitter draws line up with its instructions.
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


def _sign_matrix(pairs, n_qubits: int) -> np.ndarray | None:
    for a, b in pairs:
        if not (0 <= a < n_qubits and 0 <= b < n_qubits):
            raise EngineError(f"gate qubits {(a, b)} out of range for {n_qubits} qubits")
    if n_qubits > _SHARED_SIGN_QUBITS:
        return None
    rows = [kernels.shared_zz_signs(n_qubits, a, b) for a, b in pairs]
    return np.array(rows).reshape(len(rows), 1 << n_qubits)


def _lower(instructions, n_qubits: int):
    """Lowered ops of an instruction stream, in order: a LoweredLayer per
    local layer (an ApplyLocal object that repeats is lowered once) and a
    ZZRun per run of up to _CHUNK consecutive raw gates."""
    layers: dict[int, tuple[ApplyLocal, LoweredLayer]] = {}
    gates = []
    for ins in instructions:
        if isinstance(ins, RawGate):
            gates.append(ins)
            if len(gates) < _CHUNK:
                continue
        elif not isinstance(ins, ApplyLocal):
            raise EngineError(f"unknown instruction {type(ins).__name__}")
        if gates:
            yield ZZRun.from_gates(gates, n_qubits)
            gates = []
        if isinstance(ins, ApplyLocal):
            hit = layers.get(id(ins))
            if hit is None:
                if len(layers) >= _LAYER_CACHE:
                    layers.clear()
                hit = layers[id(ins)] = (ins, LoweredLayer.from_layer(ins.layer, n_qubits))
            yield hit[1]
    if gates:
        yield ZZRun.from_gates(gates, n_qubits)


def _apply_zz(amps: np.ndarray, run: ZZRun, coef: np.ndarray) -> None:
    n = amps.shape[1].bit_length() - 1
    if run.signs is not None:
        angles = coef @ run.signs
    else:
        angles = sum(coef[..., t, None] * kernels.zz_signs(n, a, b)
                     for t, (a, b) in enumerate(run.pairs))
    amps *= np.exp(-1j * angles)


def execute_lowered(
    amps: np.ndarray,
    ops,
    err: ErrorModel | None,
    rngs,
    log: ExecutionLog | None = None,
    base_index: int = 0,
) -> int:
    """Apply lowered ops (LoweredLayer, ZZRun) to the batch amps (R, 2^n) in place.

    Row r draws its jitter from rngs[r], one rng.random(size) for all ops,
    and maps each value u onto -eta + 2*eta*u: bit for bit what one
    rng.uniform(-eta, eta) per instruction gives, so seeds and logs keep
    their meaning. A layer draws one value per qubit when eta_local > 0, a
    gate one per target when eta_int > 0. Returns the next instruction
    index.
    """
    n = amps.shape[1].bit_length() - 1
    eta_l = err.eta_local if err is not None else 0.0
    eta_i = err.eta_int if err is not None else 0.0
    size = sum(
        (n if eta_l > 0 else 0) if isinstance(op, LoweredLayer)
        else (len(op.coef) if eta_i > 0 else 0)
        for op in ops
    )
    if size and any(rng is None for rng in rngs):
        raise EngineError("jitter needs a random generator for every state")
    u = np.array([rng.random(size) for rng in rngs]) if size else np.empty((len(rngs), 0))
    pos = 0
    index = base_index
    for op in ops:
        if isinstance(op, LoweredLayer):
            mats, draws = op.matrices, ()
            if eta_l > 0:
                d = -eta_l + (eta_l + eta_l) * u[:, pos:pos + n]
                pos += n
                mats, draws = op.jittered(1.0 + d), d[0]
            for q in op.active:
                kernels.apply_single_qubit(amps, q, mats[..., q, :, :])
            if log is not None:
                log.record(index, "local", tuple(draws))
            index += 1
            continue
        coef, d = op.coef, None
        if eta_i > 0:
            d = -eta_i + (eta_i + eta_i) * u[:, pos:pos + len(coef)]
            pos += len(coef)
            coef = coef * (1.0 + d)
        _apply_zz(amps, op, coef)
        if log is None:
            index += len(op.sizes)
            continue
        start = 0
        for k in op.sizes:
            log.record(index, "gate", tuple(d[0, start:start + k]) if d is not None else ())
            start += k
            index += 1
    return index


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
        # scaled(1.0) gives each run the arrays that every later scaled() reuses
        body = (op if isinstance(op, LoweredLayer) else op.scaled(1.0)
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
    rngs,
    log: ExecutionLog | None = None,
) -> int:
    """Apply instructions to the batch `amps` (R, 2^n) in place, row r drawing
    its jitter from rngs[r].

    Instructions are lowered as they arrive and run in chunks of _CHUNK ops;
    a local layer object that repeats (a schedule of repeated cycles) is
    lowered once per call, and each run of consecutive raw gates becomes one
    diagonal. Returns the number of instructions run.
    """
    if (amps.ndim != 2 or amps.shape[1] != 1 << n_qubits or amps.dtype != np.complex128
            or not amps.flags.c_contiguous):
        raise EngineError(f"amplitudes must be a C-contiguous complex (R, {1 << n_qubits}) array")
    if len(rngs) != amps.shape[0]:
        raise EngineError(f"{len(rngs)} generators for {amps.shape[0]} states")
    if log is not None and amps.shape[0] != 1:
        raise EngineError("an execution log records a batch of one state")
    ops, index = [], 0
    for op in _lower(instructions, n_qubits):
        ops.append(op)
        if len(ops) >= _CHUNK:
            index = execute_lowered(amps, ops, err, rngs, log, index)
            ops = []
    return execute_lowered(amps, ops, err, rngs, log, index)


def execute_instructions(
    amps: np.ndarray,
    n_qubits: int,
    instructions,
    err: ErrorModel | None,
    rng: np.random.Generator | None,
    log: ExecutionLog | None = None,
) -> int:
    """Apply instructions to `amps` in place, drawing jitter from `rng`.

    A batch of one through execute_batch. Returns the number of
    instructions run; noise draws are strictly sequential in instruction
    order so runs replay exactly.
    """
    amps = np.asarray(amps)
    if amps.shape != (1 << n_qubits,):
        raise EngineError(f"amplitude array has shape {amps.shape}, expected ({1 << n_qubits},)")
    return execute_batch(amps[None, :], n_qubits, instructions, err, [rng], log)


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
) -> tuple[StateVector, ExecutionLog]:
    """Execute instructions in order; the log records every jitter draw."""
    if schedule.n_qubits != state.n_qubits:
        raise EngineError(
            f"schedule is for {schedule.n_qubits} qubits, state has {state.n_qubits}"
        )
    log = ExecutionLog(seed=err.seed if err is not None else None)
    rng = err.rng() if err is not None and err.is_noisy else None
    out = state.copy()
    execute_instructions(out.amps, out.n_qubits, schedule.instructions, err, rng, log)
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
