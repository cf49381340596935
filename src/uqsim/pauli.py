"""Exact symbolic algebra of Pauli strings and Hamiltonians over N qubits.

Conventions used throughout the package:

* A Pauli string is written left to right in qubit order, so ``"XYZ"`` means
  X on qubit 0, Y on qubit 1, Z on qubit 2.
* Qubit 0 is the least significant bit of a statevector index (little-endian),
  so the dense matrix of a string is ``kron(op[N-1], ..., op[0])``.
* hbar = 1; coefficients are dimensionless energies and always real, which is
  enough for Hermitian Hamiltonians.
"""
from __future__ import annotations

import math
import re
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .records import record

PAULI_CHARS = "IXYZ"

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Sitewise product table: (a, b) -> (phase, a*b) with phase in {1, -1, i, -i}.
_MUL: dict[tuple[str, str], tuple[complex, str]] = {}
for _p in PAULI_CHARS:
    _MUL[("I", _p)] = (1.0 + 0.0j, _p)
    _MUL[(_p, "I")] = (1.0 + 0.0j, _p)
    _MUL[(_p, _p)] = (1.0 + 0.0j, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _MUL[(_a, _b)] = (1.0j, _c)
    _MUL[(_b, _a)] = (-1.0j, _c)

# Coefficients below this are dropped when a Hamiltonian is canonicalized.
COEFF_PRUNE_TOL = 1e-14
UNITARITY_TOL = 1e-12
IDENTITY_TOL = 1e-14  # a 2x2 unitary this close to I, entry by entry, is I


class PauliError(ValueError):
    """Raised on malformed Pauli-algebra input (size mismatch, bad ops, ...)."""


_HEADER_INT = re.compile(r"-?[0-9]{1,18}")


def read_header(line: str, keys: Sequence[str], fields: dict[str, int]) -> bool:
    """Read into `fields` each whole `key=value` token of the `#` comment
    `line` whose key is in `keys` (so `max_n_qubits=1` is no `n_qubits`),
    and say whether there was one: the header rule of every text reader.
    The value is up to 18 ASCII digits with an optional `-`, and a key
    already in `fields` must repeat its value; anything else raises
    ValueError."""
    found = False
    for key, sep, value in (tok.partition("=") for tok in line[1:].split()):
        if sep and key in keys:
            if not _HEADER_INT.fullmatch(value):
                raise ValueError(f"bad {key} {value[:24]!r}")
            if fields.setdefault(key, int(value)) != int(value):
                raise ValueError(f"{key}={value}, expected {fields[key]}")
            found = True
    return found


@record(frozen=True)
class PauliString:
    """A weighted tensor product of single-qubit Paulis, e.g. ``0.5 * XZI``."""

    ops: str
    coeff: float = 1.0

    def __post_init__(self):
        if not self.ops or any(c not in PAULI_CHARS for c in self.ops):
            raise PauliError(f"invalid Pauli ops {self.ops!r}")
        if not math.isfinite(self.coeff):
            raise PauliError(f"non-finite coefficient {self.coeff!r}")
        object.__setattr__(self, "coeff", float(self.coeff))

    @staticmethod
    def on(n_qubits: int, sites: dict[int, str], coeff: float = 1.0) -> "PauliString":
        """coeff * sites[q] ("X", "Y" or "Z") on each site q, I elsewhere; a site
        outside 0..n_qubits-1 (a negative one would wrap) raises PauliError."""
        ops = ["I"] * n_qubits
        for q, op in sites.items():
            if not (0 <= q < n_qubits and op in ("X", "Y", "Z")):
                raise PauliError(f"cannot put {op!r} on site {q} of {n_qubits} qubits")
            ops[q] = op
        return PauliString("".join(ops), coeff)

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for c in self.ops if c != "I")

    def sites(self) -> tuple[int, ...]:
        """Indices of non-identity sites."""
        return tuple(q for q, c in enumerate(self.ops) if c != "I")

    def scaled(self, factor: float) -> "PauliString":
        return PauliString(self.ops, self.coeff * factor)

    def __repr__(self):
        return f"PauliString({self.ops!r}, {self.coeff!r})"


def pauli_multiply(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Sitewise product p*q, returned as (phase, string).

    The phase is one of {1, -1, i, -i}; the result string carries
    ``p.coeff * q.coeff``.
    """
    if p.n_qubits != q.n_qubits:
        raise PauliError(f"length mismatch: {p.n_qubits} vs {q.n_qubits}")
    phase = 1.0 + 0.0j
    out = []
    for a, b in zip(p.ops, q.ops):
        ph, c = _MUL[(a, b)]
        phase *= ph
        out.append(c)
    return phase, PauliString("".join(out), p.coeff * q.coeff)


@record(frozen=True)
class Hamiltonian:
    """A Hermitian operator as a canonical list of real-weighted Pauli strings.

    Terms are sorted lexicographically on ops (I < X < Y < Z), merged, and
    pruned below ``COEFF_PRUNE_TOL``, so equality of canonical forms is
    meaningful.
    """

    n_qubits: int
    terms: tuple[PauliString, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise PauliError("n_qubits must be positive")
        for t in self.terms:
            if t.n_qubits != self.n_qubits:
                raise PauliError(f"term {t.ops} does not act on {self.n_qubits} qubits")

    @staticmethod
    def from_terms(n_qubits: int, terms: Iterable[tuple[float, str] | PauliString]) -> "Hamiltonian":
        strings = []
        for t in terms:
            if isinstance(t, PauliString):
                strings.append(t)
            else:
                coeff, ops = t
                strings.append(PauliString(ops, coeff))
        return Hamiltonian(n_qubits, _canonicalize(n_qubits, strings))

    @staticmethod
    def zero(n_qubits: int) -> "Hamiltonian":
        return Hamiltonian(n_qubits, ())

    def coefficient(self, ops: str) -> float:
        for t in self.terms:
            if t.ops == ops:
                return t.coeff
        return 0.0

    def scaled(self, factor: float) -> "Hamiltonian":
        if factor == 0.0:
            return Hamiltonian.zero(self.n_qubits)
        return Hamiltonian(self.n_qubits, tuple(t.scaled(factor) for t in self.terms))

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if self.n_qubits != other.n_qubits:
            raise PauliError("size mismatch in Hamiltonian sum")
        return Hamiltonian.from_terms(self.n_qubits, list(self.terms) + list(other.terms))

    def __sub__(self, other: "Hamiltonian") -> "Hamiltonian":
        return self + other.scaled(-1.0)

    def __rmul__(self, factor: float) -> "Hamiltonian":
        return self.scaled(float(factor))

    @cached_property
    def table(self) -> "TermTable":
        """The terms as bitmasks, in term order (see TermTable)."""
        return TermTable.of(self.terms)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix with qubit 0 as the least significant bit.

        Each term adds its TermTable.entries; terms are added in order,
        which gives the same floats as summing the kron products of the
        strings.
        """
        dim = 2**self.n_qubits
        m = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for x_mask, imaginary, values in self.table.entries(cols):
            part = m.imag if imaginary else m.real
            part[cols ^ x_mask, cols] += values
        return m

    def to_text(self) -> str:
        lines = [f"# hamiltonian n_qubits={self.n_qubits}"]
        for t in self.terms:
            lines.append(f"{t.coeff!r} " + " ".join(t.ops))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Hamiltonian":
        """Parse the one-term-per-line format ``coeff op_1 op_2 ... op_N``.

        A comment line with ``n_qubits=N`` (read_header), the header to_text
        writes, fixes the size: every term must agree with it, and a header
        alone is the zero Hamiltonian on N qubits.
        """
        terms = []
        header: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("#"):
                try:
                    read_header(line, ("n_qubits",), header)
                except ValueError as exc:
                    raise PauliError(f"line {lineno}: {exc}") from exc
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise PauliError(f"line {lineno}: expected 'coeff op_1 ... op_N'")
            try:
                coeff = float(parts[0])
            except ValueError as exc:
                raise PauliError(f"line {lineno}: bad coefficient {parts[0]!r}") from exc
            ops = "".join(parts[1:])
            n = header.setdefault("n_qubits", len(ops))
            if len(ops) != n:
                raise PauliError(f"line {lineno}: expected {n} ops, got {len(ops)}")
            terms.append((coeff, ops))
        n = header.get("n_qubits")
        if n is None:
            raise PauliError("no terms and no n_qubits header")
        return Hamiltonian.from_terms(n, terms)

    def __repr__(self):
        body = " + ".join(f"{t.coeff:g}*{t.ops}" for t in self.terms) or "0"
        return f"Hamiltonian({self.n_qubits}, {body})"


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2, elementwise, for entries below 2^32."""
    for shift in (16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


@record(frozen=True)
class TermTable:
    """Pauli strings as bitmasks, one entry per string in order.

    A string has X or Y on the sites of x_mask, Y or Z on those of z_mask,
    and n_y factors Y. It maps basis state c to c ^ x_mask with the factor
    coeff * i^n_y * (-1)^popcount(c & z_mask): the one home of that rule,
    which the dense matrix, the oracle's symmetry blocks and the
    observables all read.
    """

    x_mask: np.ndarray
    z_mask: np.ndarray
    n_y: np.ndarray
    coeff: np.ndarray

    @staticmethod
    def of(strings: Iterable[PauliString]) -> "TermTable":
        strings = tuple(strings)
        return TermTable(
            np.array([sum(1 << q for q, c in enumerate(t.ops) if c in "XY") for t in strings],
                     dtype=np.int64),
            np.array([sum(1 << q for q, c in enumerate(t.ops) if c in "YZ") for t in strings],
                     dtype=np.int64),
            np.array([t.ops.count("Y") for t in strings], dtype=np.int64),
            np.array([t.coeff for t in strings], dtype=float),
        )

    def entries(self, cols: np.ndarray):
        """Per string, (x_mask, imaginary, values): column c of its matrix
        holds i * values[c] when `imaginary`, else values[c], in row
        c ^ x_mask, for each basis state c of the integer array `cols`."""
        for x_mask, z_mask, n_y, coeff in zip(self.x_mask.tolist(), self.z_mask.tolist(),
                                              self.n_y.tolist(), self.coeff.tolist()):
            signs = 1 - 2 * _parity(cols & z_mask)
            yield x_mask, n_y % 2 == 1, (coeff if n_y % 4 < 2 else -coeff) * signs


def _canonicalize(n_qubits: int, strings: Sequence[PauliString]) -> tuple[PauliString, ...]:
    acc: dict[str, float] = {}
    for s in strings:
        if s.n_qubits != n_qubits:
            raise PauliError(f"term {s.ops} does not act on {n_qubits} qubits")
        acc[s.ops] = acc.get(s.ops, 0.0) + s.coeff
    out = [
        PauliString(ops, coeff)
        for ops, coeff in sorted(acc.items())
        if abs(coeff) >= COEFF_PRUNE_TOL
    ]
    return tuple(out)


# ---------------------------------------------------------------------------
# Single-qubit unitaries and local layers
# ---------------------------------------------------------------------------

def _su2_decompose(m: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Write a 2x2 unitary as exp(i*alpha) * exp(-i*theta*(n.sigma)).

    Returns (alpha, theta, n) with theta in [0, pi] and |n| = 1. For m close
    to a phase times the identity, theta is 0 and n defaults to z.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    alpha = 0.5 * math.atan2(det.imag, det.real)
    w = m * np.exp(-1j * alpha)
    c = 0.5 * (w[0, 0] + w[1, 1]).real
    sn = np.array(
        [-(w[0, 1].imag + w[1, 0].imag) * 0.5,
         (w[1, 0].real - w[0, 1].real) * 0.5,
         (w[1, 1].imag - w[0, 0].imag) * 0.5]
    )
    s = float(np.linalg.norm(sn))
    theta = math.atan2(s, c)
    n = sn / s if s > 1e-14 else np.array([0.0, 0.0, 1.0])
    return alpha, theta, n


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """SO(3) rotation by `angle` about `axis` (Rodrigues formula)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class SingleQubitUnitary:
    """A 2x2 unitary together with its action on the Pauli vector.

    ``adjoint`` is the SO(3) matrix A with u sigma_j u^dag = sum_i A[i, j] sigma_i.
    Constructors for quarter turns and Pauli flips supply A exactly (integer
    entries), which keeps symbolic conjugation of Hamiltonians exact.
    """

    __slots__ = ("matrix", "adjoint", "alpha", "theta", "axis")

    def __init__(self, matrix: np.ndarray, adjoint: np.ndarray | None = None,
                 exp_form: tuple[float, float, np.ndarray] | None = None):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise PauliError("single-qubit unitary must be 2x2")
        err = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        if not err <= UNITARITY_TOL:  # also rejects NaN entries
            raise PauliError(f"matrix is not unitary (deviation {err:.2e})")
        m.setflags(write=False)
        self.matrix = m
        if exp_form is None:
            exp_form = _su2_decompose(m)
        self.alpha, self.theta, self.axis = exp_form
        if adjoint is None:
            adjoint = _rotation_matrix(self.axis, 2.0 * self.theta)
        a = np.asarray(adjoint, dtype=float)
        a.setflags(write=False)
        self.adjoint = a

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity() -> "SingleQubitUnitary":
        return SingleQubitUnitary(np.eye(2, dtype=complex), np.eye(3),
                                  (0.0, 0.0, np.array([0.0, 0.0, 1.0])))

    @staticmethod
    def rot(axis: Sequence[float], angle: float) -> "SingleQubitUnitary":
        """exp(-i*angle*(n.sigma)) for unit vector n; identity() at angle 0."""
        n = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-10:
            raise PauliError(f"rotation axis must be a unit vector (|n|={norm})")
        if angle == 0.0:
            return SingleQubitUnitary.identity()
        n = n / norm
        nsigma = n[0] * SIGMA["X"] + n[1] * SIGMA["Y"] + n[2] * SIGMA["Z"]
        m = math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * nsigma
        return SingleQubitUnitary(m, _rotation_matrix(n, 2.0 * angle), (0.0, angle, n))

    @staticmethod
    def quarter_turn(axis: str, inverse: bool = False) -> "SingleQubitUnitary":
        """(1 -+ i*sigma_axis)/sqrt(2): the fast control pulses of the protocols.

        The Pauli-vector action is supplied exactly.
        """
        sign = 1.0 if inverse else -1.0
        m = (np.eye(2, dtype=complex) + 1j * sign * SIGMA[axis.upper()]) / math.sqrt(2.0)
        exact = {
            "X": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float),
            "Y": np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=float),
            "Z": np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
        }[axis.upper()]
        adj = exact.T if inverse else exact
        unit = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}[axis.upper()]
        angle = -math.pi / 4 if inverse else math.pi / 4
        return SingleQubitUnitary(m, adj, (0.0, angle, np.array(unit)))

    @staticmethod
    def pauli_flip(axis: str) -> "SingleQubitUnitary":
        """i*sigma_axis; a pi rotation, used by the decoupling echo."""
        ax = axis.upper()
        adj = np.diag([1.0 if c == ax else -1.0 for c in "XYZ"])
        unit = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}[ax]
        # i*sigma = cos(-pi/2) - i*sin(-pi/2)*sigma, so theta = -pi/2 here.
        return SingleQubitUnitary(1j * SIGMA[ax], adj, (0.0, -math.pi / 2, np.array(unit)))

    # -- operations ---------------------------------------------------------

    def dagger(self) -> "SingleQubitUnitary":
        return SingleQubitUnitary(
            self.matrix.conj().T, self.adjoint.T,
            (-self.alpha, -self.theta, self.axis),
        )

    def compose(self, other: "SingleQubitUnitary") -> "SingleQubitUnitary":
        """Matrix product self @ other (other acts first)."""
        return SingleQubitUnitary(self.matrix @ other.matrix, self.adjoint @ other.adjoint)

    def is_identity(self) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(2))) <= IDENTITY_TOL)

    def with_angle_scale(self, scale: float) -> "SingleQubitUnitary":
        """Replace exp(-i*theta*(n.sigma)) by exp(-i*theta*scale*(n.sigma)).

        The global phase exp(i*alpha) is left untouched; used for timing
        jitter, where only the pulse duration fluctuates.
        """
        if scale == 1.0:
            return self
        th = self.theta * scale
        n = self.axis
        nsigma = n[0] * SIGMA["X"] + n[1] * SIGMA["Y"] + n[2] * SIGMA["Z"]
        m = np.exp(1j * self.alpha) * (math.cos(th) * np.eye(2) - 1j * math.sin(th) * nsigma)
        return SingleQubitUnitary(m, None, (self.alpha, th, n))

    def __repr__(self):
        return f"SingleQubitUnitary(theta={self.theta:.6g}, axis={np.round(self.axis, 6)})"


class LocalLayer:
    """One layer of fast single-qubit unitaries, homogeneous or per-qubit."""

    __slots__ = ("_hom", "_units")

    def __init__(self, homogeneous: SingleQubitUnitary | None = None,
                 unitaries: Sequence[SingleQubitUnitary] | None = None):
        if (homogeneous is None) == (unitaries is None):
            raise PauliError("exactly one of homogeneous/unitaries must be given")
        self._hom = homogeneous
        self._units = tuple(unitaries) if unitaries is not None else None

    @staticmethod
    def homogeneous(u: SingleQubitUnitary) -> "LocalLayer":
        return LocalLayer(homogeneous=u)

    @staticmethod
    def inhomogeneous(units: Sequence[SingleQubitUnitary]) -> "LocalLayer":
        if not units:
            raise PauliError("empty inhomogeneous layer")
        return LocalLayer(unitaries=units)

    @staticmethod
    def identity() -> "LocalLayer":
        return LocalLayer(homogeneous=SingleQubitUnitary.identity())

    @property
    def is_homogeneous(self) -> bool:
        return self._hom is not None

    @property
    def n_qubits(self) -> int | None:
        """Fixed size for inhomogeneous layers, None (any) for homogeneous."""
        return None if self._hom is not None else len(self._units)

    def matches(self, n_qubits: int) -> bool:
        return self._hom is not None or len(self._units) == n_qubits

    def unitary_at(self, q: int) -> SingleQubitUnitary:
        return self._hom if self._hom is not None else self._units[q]

    def dagger(self) -> "LocalLayer":
        if self._hom is not None:
            return LocalLayer(homogeneous=self._hom.dagger())
        return LocalLayer(unitaries=[u.dagger() for u in self._units])

    def compose(self, other: "LocalLayer") -> "LocalLayer":
        """Layer applying `other` first, then self (sitewise matrix product)."""
        if self._hom is not None and other._hom is not None:
            return LocalLayer(homogeneous=self._hom.compose(other._hom))
        n = self.n_qubits or other.n_qubits
        if other.n_qubits is not None and self.n_qubits is not None and self.n_qubits != other.n_qubits:
            raise PauliError("layer size mismatch in compose")
        return LocalLayer(unitaries=[self.unitary_at(q).compose(other.unitary_at(q)) for q in range(n)])

    def is_identity(self) -> bool:
        if self._hom is not None:
            return self._hom.is_identity()
        return all(u.is_identity() for u in self._units)

    def __repr__(self):
        if self._hom is not None:
            return f"LocalLayer(homogeneous {self._hom!r})"
        return f"LocalLayer(inhomogeneous, {len(self._units)} qubits)"


def conjugate(h: Hamiltonian, layer: LocalLayer) -> Hamiltonian:
    """V h V^dag re-expanded in the Pauli basis (real coefficients).

    Each non-identity site of each term is rotated by the layer's SO(3)
    Pauli-vector action, so a weight-k string expands into at most 3^k terms.
    """
    if not layer.matches(h.n_qubits):
        raise PauliError("layer does not match Hamiltonian size")
    out: list[PauliString] = []
    for term in h.terms:
        partial: list[tuple[float, list[str]]] = [(term.coeff, [])]
        for q, c in enumerate(term.ops):
            if c == "I":
                for _, ops in partial:
                    ops.append("I")
                continue
            a = layer.unitary_at(q).adjoint
            j = "XYZ".index(c)
            col = a[:, j]
            grown: list[tuple[float, list[str]]] = []
            for coeff, ops in partial:
                for i, cij in enumerate(col):
                    if cij == 0.0:
                        continue
                    grown.append((coeff * cij, ops + ["XYZ"[i]]))
            partial = grown
        for coeff, ops in partial:
            out.append(PauliString("".join(ops), coeff))
    return Hamiltonian.from_terms(h.n_qubits, out)


def commutator(h1: Hamiltonian, h2: Hamiltonian) -> list[tuple[complex, PauliString]]:
    """[h1, h2] expanded in the Pauli basis; coefficients purely imaginary."""
    if h1.n_qubits != h2.n_qubits:
        raise PauliError("size mismatch in commutator")
    acc: dict[str, complex] = {}
    for p in h1.terms:
        for q in h2.terms:
            ph_pq, r = pauli_multiply(p, q)
            ph_qp, _ = pauli_multiply(q, p)
            delta = (ph_pq - ph_qp) * r.coeff
            if delta != 0.0:
                acc[r.ops] = acc.get(r.ops, 0.0) + delta
    out = []
    for ops in sorted(acc):
        c = acc[ops]
        if abs(c) >= COEFF_PRUNE_TOL:
            out.append((c, PauliString(ops, 1.0)))
    return out


def commutator_generator(h1: Hamiltonian, h2: Hamiltonian) -> Hamiltonian:
    """The Hermitian generator -i[h1, h2] as a canonical Hamiltonian."""
    terms = [(c.imag, p.ops) for c, p in commutator(h1, h2)]
    return Hamiltonian.from_terms(h1.n_qubits, terms)


# ---------------------------------------------------------------------------
# Two-qubit coefficient matrices
# ---------------------------------------------------------------------------

@record(frozen=True)
class CoeffMatrix:
    """The real 3x3 matrix M of a two-qubit interaction sum M_ij sigma_i x sigma_j."""

    m: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.m, dtype=float)
        if mat.shape != (3, 3) or not np.all(np.isfinite(mat)):
            raise PauliError("coefficient matrix must be a finite 3x3 real matrix")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "m", mat)

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.m - self.m.T)) <= tol)

    def is_diagonal(self, tol: float = 0.0) -> bool:
        off = self.m - np.diag(np.diag(self.m))
        return bool(np.max(np.abs(off)) <= tol)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of a symmetric M, ascending. Exact for diagonal input."""
        if self.is_diagonal():
            return np.sort(np.diag(self.m))
        return np.linalg.eigvalsh(0.5 * (self.m + self.m.T))

    def singular_values(self) -> np.ndarray:
        if self.is_diagonal():
            return np.sort(np.abs(np.diag(self.m)))[::-1]
        return np.linalg.svd(self.m, compute_uv=False)

    def __repr__(self):
        return f"CoeffMatrix({self.m.tolist()})"


def coeff_matrix(h: Hamiltonian) -> tuple[CoeffMatrix, Hamiltonian]:
    """Split a two-qubit Hamiltonian into its 3x3 interaction matrix and the rest.

    Terms involving the identity on either site (local terms and a constant
    offset) are returned separately as the second element.
    """
    if h.n_qubits != 2:
        raise PauliError("coeff_matrix is defined for 2-qubit Hamiltonians")
    m = np.zeros((3, 3))
    rest = []
    for t in h.terms:
        a, b = t.ops[0], t.ops[1]
        if a != "I" and b != "I":
            m["XYZ".index(a), "XYZ".index(b)] = t.coeff
        else:
            rest.append(t)
    return CoeffMatrix(m), Hamiltonian(2, tuple(rest))


def from_coeff_matrix(m: CoeffMatrix | np.ndarray) -> Hamiltonian:
    """Inverse of :func:`coeff_matrix` (no local part)."""
    mat = m.m if isinstance(m, CoeffMatrix) else np.asarray(m, dtype=float)
    terms = []
    for i, a in enumerate("XYZ"):
        for j, b in enumerate("XYZ"):
            if mat[i, j] != 0.0:
                terms.append((float(mat[i, j]), a + b))
    return Hamiltonian.from_terms(2, terms)
