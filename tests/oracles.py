"""Independent dense-matrix oracles used to check the symbolic code paths.

Everything here is built directly from 2x2 constants with numpy/scipy, on
purpose not reusing the package's own matrix builders.
"""
import numpy as np
import scipy.linalg

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
MAT = {"I": I2, "X": SX, "Y": SY, "Z": SZ, "+": SPLUS, "-": SMINUS}


def kron_string(ops: str, coeff=1.0) -> np.ndarray:
    """Dense matrix of a Pauli string with qubit 0 as least significant bit."""
    m = np.array([[coeff]], dtype=complex)
    for c in ops:
        m = np.kron(MAT[c], m)
    return m


def frobenius_coeff_norm(h) -> float:
    """2-norm of a Hamiltonian's Pauli coefficient vector (orthogonal basis)."""
    return float(np.sqrt(sum(t.coeff**2 for t in h.terms)))


def dense_hamiltonian(n: int, terms) -> np.ndarray:
    """terms: iterable of (coeff, ops)."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        assert len(ops) == n
        h += kron_string(ops, coeff)
    return h


class DenseSpectrum:
    """numpy eigh of one whole dense matrix, with eigenvalues less than
    1e-8 * max(1, spread) apart in one group, as the package groups its
    merged spectrum: the dense reference for SpectrumCache's groups, bases,
    weights and histograms."""

    def __init__(self, m: np.ndarray):
        self.eigenvalues, self.vectors = np.linalg.eigh(m)
        w = self.eigenvalues
        cuts = (np.flatnonzero(np.diff(w) >= 1e-8 * max(1.0, w[-1] - w[0])) + 1).tolist()
        self.groups = tuple(zip([0] + cuts, cuts + [w.size]))

    def group_basis(self, g: int) -> np.ndarray:
        return self.vectors[:, slice(*self.groups[g])]

    def level_weights(self, amps: np.ndarray) -> np.ndarray:
        return np.abs(amps @ self.vectors.conj()) ** 2

    def weights(self, amps: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.level_weights(amps), [s for s, _ in self.groups], axis=-1)

    def histogram(self, state) -> list[tuple[float, float]]:
        energies = [float(np.mean(self.eigenvalues[slice(*g)])) for g in self.groups]
        return list(zip(energies, self.weights(state.amps).tolist()))


def expm(m: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(m)


def evolve(h_dense: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * t * h_dense)


def op_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral-norm distance."""
    return float(np.linalg.norm(a - b, ord=2))


def pauli_coefficients(m: np.ndarray, n: int) -> dict[str, complex]:
    """Project a 2^n x 2^n matrix onto the Pauli-string basis."""
    import itertools

    out = {}
    for ops in itertools.product("IXYZ", repeat=n):
        s = "".join(ops)
        basis = kron_string(s)
        c = np.trace(basis.conj().T @ m) / 2**n
        if abs(c) > 1e-13:
            out[s] = c
    return out


def local_layer_matrix(unitaries) -> np.ndarray:
    """Dense matrix of per-qubit 2x2 unitaries, qubit 0 least significant."""
    m = np.array([[1.0]], dtype=complex)
    for u in unitaries:
        m = np.kron(np.asarray(u, dtype=complex), m)
    return m


def apply_block(amps, lo, u):
    """u (2^k, 2^k), or one per row (R, 2^k, 2^k), on qubits lo..lo+k-1 of
    amps (2^n,) or of every row of amps (R, 2^n), in place. Qubit lo + j is
    bit j of the block's row and column index. The product of
    kernels.block_view and kernels.block_operand that FusedCycle.execute
    makes per block."""
    from uqsim import kernels

    k = u.shape[-1].bit_length() - 1
    view, op = kernels.block_view(amps, lo, k), kernels.block_operand(u, lo)
    view[...] = view @ op if lo == 0 else op @ view


# ---------------------------------------------------------------------------
# Reference execution: the per-instruction loop the lowered engine replaced
# ---------------------------------------------------------------------------

def reference_execute(amps, n_qubits, instructions, err, rng, log=None):
    """Apply instructions one at a time: per qubit a jittered
    SingleQubitUnitary and a kernel call, per gate target one ZZ kernel
    call, jitter drawn by one rng.uniform per instruction. `log`, an
    ExecutionLog, records each instruction's log code (kind and count) and the draws that reach
    the state: a local layer's at the qubits whose noiseless unitary is not
    the identity, in qubit order, and a gate's at every target."""
    from uqsim import kernels
    from uqsim.compiler import ApplyLocal
    from uqsim.execlog import log_codes

    for ins in instructions:
        deltas = logged = None
        if isinstance(ins, ApplyLocal):
            if err is not None and err.eta_local > 0:
                deltas = rng.uniform(-err.eta_local, err.eta_local, size=n_qubits)
                logged = deltas[[q for q in range(n_qubits)
                                 if not ins.layer.unitary_at(q).is_identity()]]
            for q in range(n_qubits):
                u = ins.layer.unitary_at(q)
                if deltas is not None and deltas[q] != 0.0:
                    u = u.with_angle_scale(1.0 + deltas[q])
                if not u.is_identity():
                    kernels.apply_single_qubit(amps, q, u.matrix)
        else:
            if err is not None and err.eta_int > 0:
                deltas = logged = rng.uniform(-err.eta_int, err.eta_int, size=len(ins.targets))
            for i, (a, b, w) in enumerate(ins.targets):
                theta = ins.theta * w
                if deltas is not None:
                    theta = theta * (1.0 + deltas[i])
                if theta != 0.0:
                    kernels.apply_zz_phase(amps, a, b, theta)
        if log is not None:
            draws = logged if logged is not None else np.empty(0)
            kind = "local" if isinstance(ins, ApplyLocal) else "gate"
            log.record(log_codes([kind], [len(draws)]), draws)


def log_entries(text):
    """Per instruction of an execution log text, its kind and its logged
    draws, read through ExecutionLog.from_text and LogDraws: a code holds
    the kind in bit 15 (set for a gate) and the count in bits 0-13."""
    from uqsim.execlog import ExecutionLog, LogDraws

    draws = LogDraws(ExecutionLog.from_text(text))
    values, at, entries = draws.values.tolist(), 0, []
    for code in draws.codes.tolist():
        count = code & 0x3FFF
        entries.append(("gate" if code & 0x8000 else "local", values[at:at + count]))
        at += count
    return entries


def reference_adiabatic_amps(config, plan_initial, plan_target):
    """Final amplitudes of an adiabatic Trotter run built step by step from
    emit_cycle and reference_execute."""
    from uqsim.compiler import emit_cycle
    from uqsim.experiments import RAMPS
    from uqsim.oracle import ground_state

    n = config.h_initial.n_qubits
    peak = max(plan_initial.max_unit_angle(), plan_target.max_unit_angle())
    dt = config.theta1 / peak if peak > 0 else config.theta1
    ramp = RAMPS[config.ramp]
    err = config.error_model
    rng = err.rng() if err is not None and err.is_noisy else None
    amps = ground_state(config.h_initial).state.amps.copy()
    for s in range(1, config.steps + 1):
        k = ramp(s / config.steps)
        cycle = emit_cycle(plan_initial, dt, k) + emit_cycle(plan_target, dt, 1.0 - k)
        reference_execute(amps, n, cycle, err, rng)
    return amps


def schedule_header(text: str) -> dict[str, int]:
    """The key=value fields of a schedule text's first line, as integers."""
    return {key: int(value) for key, value in
            (field.split("=") for field in text.split("\n", 1)[0].split() if "=" in field)}


def version_1_text(schedule) -> str:
    """The version=1 text of a schedule, every instruction a line: its
    written text with the header's cycles and cycle_length dropped and the
    cycle's lines written that many times."""
    from uqsim.schedule import schedule_to_text

    text = schedule_to_text(schedule)
    header = schedule_header(text)
    return (f"# pulse schedule version=1 n_qubits={header['n_qubits']}\n"
            + text.split("\n", 1)[1] * header.get("cycles", 1))
