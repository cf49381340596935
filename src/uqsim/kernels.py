"""Statevector gate kernels in numpy.

Schedule execution multiplies each fused block into the state as one
matmul of `block_view` and `block_operand`, the one home of the block's
reshape rule, and builds its ZZ diagonals from the sign rows of
`zz_signs` over the lower half of the basis (half=True), mirrored onto the
upper half.
`apply_single_qubit` and `apply_zz_phase` apply one instruction's unitary
as it stands: they are the kernels of the per-instruction reference that
the tests compare execution against, and the benchmark's tracer
(perfbench/spans.py) wraps them by name, so they stay.

Amplitudes are indexed little-endian (qubit 0 = least significant bit) and
come as one state (2^n,) or a batch of states (R, 2^n); the kernels mutate
them in place. Z_a Z_b has eigenvalue +1 on basis states where bits a and b
agree and -1 where they differ; `zz_signs` is the one place that rule lives.
"""
from __future__ import annotations

import numpy as np

# The most qubits a dense statevector may hold (256 MiB of amplitudes)
STATEVECTOR_CAP = 24


def active_backend() -> str:
    """The kernel implementation in use; there is only numpy."""
    return "numpy"


def apply_single_qubit(amps: np.ndarray, q: int, u: np.ndarray) -> None:
    """u (2, 2) on qubit q of amps (2^n,) or of every row of amps (R, 2^n),
    or u (R, 2, 2), one per row."""
    view = amps.reshape(*amps.shape[:-1], -1, 2, 1 << q)
    if u.ndim == 3:
        u = u[:, None, None]
    lo = view[..., 0, :].copy()
    hi = view[..., 1, :]
    view[..., 0, :] = u[..., 0, 0] * lo + u[..., 0, 1] * hi
    view[..., 1, :] = u[..., 1, 0] * lo + u[..., 1, 1] * hi


def block_view(amps: np.ndarray, lo: int, k: int) -> np.ndarray:
    """amps (2^n,) or (R, 2^n) as a block on qubits lo..lo+k-1 multiplies
    it: (..., 2^(n-k), 2^k) at qubit 0, (..., 2^(n-lo-k), 2^k, 2^lo) above."""
    if lo == 0:
        return amps.reshape(*amps.shape[:-1], -1, 1 << k)
    return amps.reshape(*amps.shape[:-1], -1, 1 << k, 1 << lo)


def block_operand(u: np.ndarray, lo: int) -> np.ndarray:
    """A block u (..., 2^k, 2^k) as its product with block_view takes it:
    u^T on the right at qubit 0 (view @ u^T), above it u on the left with
    an axis for the view's slices (u @ view)."""
    return np.swapaxes(u, -1, -2) if lo == 0 else u[..., None, :, :]


def zz_signs(n_qubits: int, a: int, b: int, half: bool = False) -> np.ndarray:
    """The +-1 eigenvalue of Z_a Z_b on every basis state of n qubits, or
    with `half` on the lower 2^(n-1) only. Flipping every bit keeps Z_a Z_b,
    so the value at 2^n - 1 - x is the value at x: the lower half fixes the
    rest."""
    k = np.arange(1 << (n_qubits - half))
    return 1.0 - 2.0 * (((k >> a) ^ (k >> b)) & 1)


def apply_zz_phase(amps: np.ndarray, a: int, b: int, theta: float) -> None:
    """exp(-i theta Z_a Z_b) on amps (2^n,) or on every row of amps (R, 2^n)."""
    n = amps.shape[-1].bit_length() - 1
    amps *= np.exp(-1j * theta * zz_signs(n, a, b))
