"""The exact-diagonalization oracle that executed schedules are checked
against: spectra, ground states, exact evolution and the gap scan of an
adiabatic path.

The oracle decomposes part by part and keeps no process-wide cache.
Sectors splits the basis states into the invariant blocks of the
Hamiltonians' term tables, decomposes one block per orbit of the spin flip
and the mirror when both endpoints commute with them, and splits it into
symmetry-adapted parts; it refuses more than DENSE_CAP qubits, so every
answer below does. `_spectrum`, the one eigendecomposition call, solves the
parts of one size as one stacked array, in real arithmetic when they have
no imaginary part, and SpectrumCache merges every block's eigenvalues, with
multiplicity, in ascending order before grouping them. Its eigenvectors
stay per block. The adiabatic oracle (GroundPath) reduces both endpoints
once per path and decomposes k*H_initial + (1-k)*H_target on the parts for
a chunk of k values per stacked call (SpectrumCache.from_stacks); its gap
scan (min_gap) asks for eigenvalues only. The start state (ground_state)
comes from the parts of its own Hamiltonian too; its pick among degenerate
ground states still follows the parts' rounding (see ground_vector).

uqsim.engine imports names of this module, so this one binds engine as a
module and reads engine.StateVector at call time.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import engine
from .errors import EngineError, ExperimentError
from .pauli import COEFF_PRUNE_TOL, Hamiltonian, TermTable, _parity
from .records import record

DENSE_CAP = 12
"""Most qubits of a Hamiltonian the oracle decomposes (Sectors refuses more)."""


# ---------------------------------------------------------------------------
# Symmetry blocks and their adapted parts
# ---------------------------------------------------------------------------

def _reversed_bits(v: np.ndarray, n_qubits: int) -> np.ndarray:
    """Each entry of v with its n_qubits low bits in reverse order."""
    out = np.zeros_like(v)
    for q in range(n_qubits):
        out |= ((v >> q) & 1) << (n_qubits - 1 - q)
    return out


def _conserves_popcount(n_qubits: int, table: TermTable) -> bool:
    """Whether the terms commute with sum_q Z_q, to pauli.commutator's pruning.

    A term c P = c i^n_y X^x Z^z with q in x anticommutes with Z_q, and
    Z_q c P = -c i^n_y X^x Z^(z ^ 2^q). So [H, sum_q Z_q] has, per string
    (x, z ^ 2^q), twice the sum of c i^n_y over the terms reaching it, up
    to a phase of that string; commutator drops one below COEFF_PRUNE_TOL.
    """
    phase = table.coeff * np.array([1, 1j, -1, -1j])[table.n_y % 4]
    keys, values = [], []
    for q in range(n_qubits):
        flips = (table.x_mask >> q) & 1 == 1
        keys.append((table.x_mask[flips] << n_qubits) | (table.z_mask[flips] ^ (1 << q)))
        values.append(phase[flips])
    _, at = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.zeros(at.size, dtype=complex)
    np.add.at(sums, at, np.concatenate(values))
    return bool(np.all(np.abs(sums) < COEFF_PRUNE_TOL / 2))


def _symmetries(n_qubits: int, hamiltonians) -> list[tuple[np.ndarray, tuple[int, int]]]:
    """The group that the spin flip F = X^n and the mirror M (site q to
    n-1-q) generate, as far as every Hamiltonian commutes with them: per
    element, its permutation of the basis states and its exponents (i, j)
    of F^i M^j, the identity first.

    F X_q F = X_q and F Y_q F = -Y_q, F Z_q F = -Z_q, so F commutes with a
    Hamiltonian whose every term has an even number of Y and Z factors
    (z_mask of even popcount). M commutes when it maps the term table onto
    itself, each string onto its mirror image with a bit-identical
    coefficient.
    """
    states = np.arange(1 << n_qubits)
    flip = all(not _parity(h.table.z_mask).any() for h in hamiltonians)
    mirror = n_qubits > 1 and all(
        sorted(zip(t.x_mask.tolist(), t.z_mask.tolist(), t.coeff.tolist()))
        == sorted(zip(_reversed_bits(t.x_mask, n_qubits).tolist(),
                      _reversed_bits(t.z_mask, n_qubits).tolist(), t.coeff.tolist()))
        for t in (h.table for h in hamiltonians))
    group = [(states, (0, 0))]
    if flip:
        group.append((states ^ states[-1], (1, 0)))
    if mirror:
        group.append((_reversed_bits(states, n_qubits), (0, 1)))
    if flip and mirror:
        group.append((group[2][0] ^ states[-1], (1, 1)))
    return group


def _adapted(states: np.ndarray, stabilizer) -> tuple[list | None, list[int]]:
    """The symmetry-adapted parts of the block of ascending `states` under
    its stabilizer S (elements as _symmetries gives them), one per
    character chi of S that has a sum, and their sizes; None, [d] when the
    block stays one part.

    A part's basis vectors are the normalised sums sum_s chi(s)|s c>, one
    per S-orbit of the block whose stabilizer chi fixes, each c the
    orbit's least state. A part is kept as (at, coef), both (|S|, size):
    vector j has coef[s, j] at block position at[s, j] for every s, and
    entries at one position add up. The dense basis is never built.
    """
    d = states.size
    if len(stabilizer) == 1 or d == 1:
        return None, [d]
    images = np.array([perm[states] for perm, _ in stabilizer])
    heads = np.flatnonzero(images.min(axis=0) == states)  # one state per S-orbit
    at = np.searchsorted(states, images[:, heads])
    fixes = at == heads  # s fixes the head
    stab = fixes.sum(axis=0)
    # |Stab| equal terms chi(s)/(|Stab| sqrt|orbit|) land on each orbit state
    scale = 1.0 / (stab * np.sqrt(len(stabilizer) / stab))
    characters = dict.fromkeys(tuple(a ** i * b ** j for _, (i, j) in stabilizer)
                               for a in (1, -1) for b in (1, -1))
    parts = []
    for chi in characters:
        chi = np.array(chi, dtype=float)[:, None]
        keep = np.all((chi == 1.0) | ~fixes, axis=0)  # otherwise the sum is 0
        if keep.any():
            parts.append((at[:, keep], chi * scale[keep]))
    if len(parts) == 1:
        return None, [d]
    return parts, [a.shape[1] for a, _ in parts]


class Sectors:
    """The invariant blocks shared by Hamiltonians on n qubits, split into
    symmetry-adapted parts.

    A string with x_mask x maps basis state c to c ^ x, so the cosets of the
    GF(2) span of all the strings' x_masks are invariant blocks: the
    Z-string symmetries of the symplectic picture (Aaronson & Gottesman,
    quant-ph/0406196). When every Hamiltonian commutes with sum_q Z_q, as
    _conserves_popcount decides from the term tables, each coset splits
    further by popcount (`magnetization`).

    The spin flip and the mirror (`flip`, `mirror`; _symmetries finds them
    from the term tables, nothing switches them) permute these blocks. Only
    one block per orbit of the group G they generate is decomposed: every
    other block of the orbit is its image g(B), an exact copy under the
    index map, and reuses its eigenvalues and eigenvectors. The stabilizer
    of B in G splits it by character into orthonormal symmetry-adapted sums
    of basis states (_adapted), as exact-diagonalization codes do for spin
    inversion and reflection (Sandvik, arXiv:1101.3281; Weinberg & Bukov,
    QuSpin, arXiv:1610.03042). fig5's path (XX chain to dipole, n = 9)
    becomes one 136 and one 120 part instead of two 256 blocks, fig4a's
    (n = 7) parts of 1, 4+3, 12+9 and 19+16 instead of 1+1+7+7+21+21+35+35.

    `stacks` groups every block by size: per size d, ascending, one (m, d)
    array of the basis states of m blocks, a decomposed block ascending and
    an image g(B) as g of B's row, so that eigenvectors carry over row for
    row. `part_sizes` lists the sizes of the parts, ascending: `parts`
    returns one (p, d, d) stack of part matrices per size, decomposed in
    one stacked call, and `expand` turns their eigenpairs back into
    per-block eigenvalues and eigenvectors over basis states, for one k of
    a path or a chunk of them on a leading axis.

    Every oracle answer builds a Sectors, so its refusal of more than
    DENSE_CAP qubits (EngineError) is the oracle's one size check.
    """

    def __init__(self, n_qubits: int, hamiltonians: tuple[Hamiltonian, ...]):
        if n_qubits > DENSE_CAP:
            raise EngineError(f"{n_qubits} qubits exceeds the dense cap {DENSE_CAP}")
        basis: list[int] = []  # an echelon basis of the span, leading bits descending
        for h in hamiltonians:
            for x in h.table.x_mask.tolist():
                for b in basis:
                    x = min(x, x ^ b)
                if x:
                    basis = sorted(basis + [x], reverse=True)
        states = np.arange(1 << n_qubits)
        key = states
        for b in basis:  # clears every leading bit: one label per coset
            key = np.minimum(key, key ^ b)
        self.magnetization = all(_conserves_popcount(n_qubits, h.table) for h in hamiltonians)
        if self.magnetization:
            key = key * (n_qubits + 1) + sum((states >> q) & 1 for q in range(n_qubits))
        group = _symmetries(n_qubits, hamiltonians)
        exponents = {e for _, e in group}
        self.flip, self.mirror = (1, 0) in exponents, (0, 1) in exponents
        self._key = key
        by_key = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(key[by_key]) != 0])
        blocks = np.split(by_key, starts[1:])
        block_of = np.empty_like(key)
        block_of[by_key] = np.repeat(np.arange(len(blocks)), np.diff(np.r_[starts, key.size]))
        # images[g, b]: the block that element g maps block b onto
        images = np.array([block_of[perm[by_key[starts]]] for perm, _ in group])
        home = images.min(axis=0).tolist()  # per block, the decomposed block of its orbit
        maps = np.argmax(images[:, home] == np.arange(len(blocks)), axis=0).tolist()
        by_size: dict[int, list[int]] = {}
        for b, states in enumerate(blocks):
            by_size.setdefault(states.size, []).append(b)
        sizes = sorted(by_size)
        # block b's row is g(home's row) for the g with g(home) = b
        self.stacks = tuple(np.array([group[maps[b]][0][blocks[home[b]]] for b in by_size[d]])
                            for d in sizes)
        # per stack, its decomposed blocks and, per row, which of them it copies
        self._homes = [sorted({home[b] for b in by_size[d]}) for d in sizes]
        self._copies = [np.searchsorted(homes, [home[b] for b in by_size[d]])
                        for homes, d in zip(self._homes, sizes)]
        # per decomposed block: its stack and row, adapted parts and their sizes
        adapted = {}
        for s, d in enumerate(sizes):
            for i, b in enumerate(by_size[d]):
                if home[b] == b:
                    stabilizer = [g for g, image in zip(group, images[:, b]) if image == b]
                    adapted[b] = (s, i, *_adapted(blocks[b], stabilizer))
        self.part_sizes = sorted({k for *_, ks in adapted.values() for k in ks})
        # ... and (part stack, index in it) per part, in the order `parts` fills them
        count = dict.fromkeys(self.part_sizes, 0)
        self._home_rows = {}
        for b, (s, i, sums, ks) in adapted.items():
            slots = []
            for k in ks:
                slots.append((self.part_sizes.index(k), count[k]))
                count[k] += 1
            self._home_rows[b] = (s, i, sums, ks, slots)
        # entry (r, c) of c's block lies at _column_at[c] + _row_at[r] in the
        # stacks' entries laid end to end
        self._column_at = np.empty_like(key)
        self._row_at = np.empty_like(key)
        offset = 0
        for idx in self.stacks:
            m, d = idx.shape
            self._column_at[idx] = offset + d * d * np.arange(m)[:, None] + np.arange(d)
            self._row_at[idx] = d * np.arange(d)
            offset += m * d * d

    def blocks(self, h: Hamiltonian) -> list[np.ndarray]:
        """h's matrix on every block, one (m, d, d) array per stack, rows
        and columns in the order of the stack's rows, real when no block of
        the stack has an imaginary part.

        Entries are summed term by term as in Hamiltonian.to_matrix, so
        each equals the dense entry. A term's entries that leave a block
        (only under the popcount split) are left out: they cancel in the sum
        over terms, exactly up to rounding in the dense matrix.
        """
        size = sum(idx.size * idx.shape[1] for idx in self.stacks)
        real = np.zeros(size)
        imag = np.zeros(size) if np.any(h.table.n_y % 2) else real  # real: no term writes it
        cols = np.arange(self._key.size)
        with np.errstate(over="ignore"):  # SpectrumCache.from_blocks rejects what overflows
            for x_mask, imaginary, values in h.table.entries(cols):
                rows = cols ^ x_mask
                keep = self._key[rows] == self._key
                (imag if imaginary else real)[self._column_at[keep] + self._row_at[rows[keep]]] \
                    += values[keep]
        out, offset = [], 0
        for idx in self.stacks:
            m, d = idx.shape
            part = slice(offset, offset + m * d * d)
            offset = part.stop
            block = real[part].reshape(m, d, d)
            if imag is not real and imag[part].any():
                block = np.empty((m, d, d), dtype=complex)
                block.real, block.imag = real[part].reshape(m, d, d), imag[part].reshape(m, d, d)
            out.append(block)
        return out

    def parts(self, h: Hamiltonian) -> list[np.ndarray]:
        """h's matrix on the symmetry-adapted parts of the decomposed blocks,
        one (p, d, d) stack per entry of part_sizes, real when no part of
        the stack has an imaginary part: U^T B U per character for a block
        matrix B and the part's basis U, by gathers over U's entries."""
        blocks = self.blocks(h)
        stacked = [[] for _ in self.part_sizes]
        for s, i, sums, _, slots in self._home_rows.values():
            block = blocks[s][i]
            if sums is None:
                stacked[slots[0][0]].append(block)
                continue
            for (at, coef), (p, _) in zip(sums, slots):
                with np.errstate(over="ignore", invalid="ignore"):  # as in blocks
                    right = block[:, at[0]] * coef[0]  # B U
                    for a, c in zip(at[1:], coef[1:]):
                        right += block[:, a] * c
                    part = coef[0][:, None] * right[at[0]]  # U^T (B U)
                    for a, c in zip(at[1:], coef[1:]):
                        part += c[:, None] * right[a]
                stacked[p].append(part)
        out = [np.array(parts) for parts in stacked]
        return [p.real if np.iscomplexobj(p) and not p.imag.any() else p for p in out]

    def expand(self, solved, vectors: bool = True):
        """Per stack, the eigenvalues (..., m, d) of every block and, with
        vectors, its eigenvector columns (..., m, d, d) over the block's
        basis states, from `solved`: per part stack, the eigenvalues
        (..., p, d) and eigenvectors (..., p, d, d) of its parts, with the
        same leading axes throughout (one per k of a path's chunk). A block
        copies the eigenpairs of the decomposed block of its orbit; each
        part's eigenvectors are mapped through the block's adapted basis.
        vectors=False gives None for the eigenvectors."""
        levels, vecs = {}, {}
        for b, (_, _, sums, sizes, slots) in self._home_rows.items():
            levels[b] = np.concatenate([solved[p][0][..., j, :] for p, j in slots], axis=-1)
            if not vectors:
                continue
            parts = [solved[p][1][..., j, :, :] for p, j in slots]
            if sums is None:
                vecs[b] = parts[0]
                continue
            d = sum(sizes)
            vecs[b] = np.zeros((*parts[0].shape[:-2], d, d), dtype=np.result_type(*parts))
            lo = 0
            for (at, coef), v in zip(sums, parts):
                for a, c in zip(at, coef):  # U v, the positions of one s distinct
                    vecs[b][..., a, lo:lo + v.shape[-1]] += c[:, None] * v
                lo += v.shape[-1]
        out_levels = tuple(self._per_row(levels, s, 1) for s in range(len(self.stacks)))
        if not vectors:
            return out_levels, None
        return out_levels, tuple(self._per_row(vecs, s, 2) for s in range(len(self.stacks)))

    def _per_row(self, per_home: dict, s: int, tail: int) -> np.ndarray:
        """The arrays of stack s's decomposed blocks, each with `tail`
        trailing axes, one per row of the stack on a new axis before them:
        a read-only view when the stack copies one block."""
        homes, copies = self._homes[s], self._copies[s]
        if len(homes) == 1:
            one = np.expand_dims(per_home[homes[0]], -1 - tail)
            return np.broadcast_to(one, (*one.shape[:-1 - tail], len(copies), *one.shape[-tail:]))
        return np.stack([per_home[b] for b in homes], axis=-1 - tail).take(copies, axis=-1 - tail)


# ---------------------------------------------------------------------------
# Spectra, ground states and exact evolution
# ---------------------------------------------------------------------------

def exact_evolve(h: Hamiltonian, t: float, state: engine.StateVector) -> engine.StateVector:
    """exp(-i h t) |state> through the block eigendecomposition of h."""
    if h.n_qubits != state.n_qubits:
        raise EngineError("Hamiltonian and state size mismatch")
    if not math.isfinite(t):
        raise EngineError(f"evolution time {t!r} is not finite")
    return engine.StateVector(state.n_qubits,
                              SpectrumCache.from_hamiltonian(h).evolve(state.amps, t))


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

    def group_weight(self, g: int, state: engine.StateVector) -> float:
        return float(self.weights(state.amps)[g])

    def histogram(self, state: engine.StateVector,
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
    state: engine.StateVector
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
                       state=engine.StateVector(h.n_qubits, spec.ground_vector()))


# ---------------------------------------------------------------------------
# The interpolation path and its exact oracle
# ---------------------------------------------------------------------------

_CHUNK_ENTRIES = 1 << 16  # most matrix or state entries one chunk of k values holds


class GroundPath:
    """The exact oracle of the path H(k) = k*H_initial + (1-k)*H_target.

    The path is split once into the symmetry blocks and adapted parts both
    endpoints share (Sectors: cosets, popcount, and the spin flip and
    mirror when both endpoints commute with them), and each endpoint is
    reduced onto the parts once; H(k) is then k*A + (1-k)*B part by part,
    real wherever it has no imaginary part. fig5's path decomposes a 136
    and a 120 part per k instead of two 256 blocks.

    The spectra do not depend on any state, so `spectra` decomposes many
    values of k at once: one stacked call per part size per chunk of k,
    each chunk as large as keeps its part matrices (and, with vectors, the
    eigenvectors mapped onto the blocks) within _CHUNK_ENTRIES entries.
    `spectrum` is its one-k case. The spectra of the two endpoints are
    kept, so runs sharing a path decompose each endpoint once. The start
    vector of every run is ground_state(h_initial), taken once per path
    from the parts of h_initial alone.
    """

    def __init__(self, h_initial: Hamiltonian, h_target: Hamiltonian):
        if h_initial.n_qubits != h_target.n_qubits:
            raise ExperimentError("size mismatch")
        self.h_initial, self.h_target = h_initial, h_target
        self.sectors = Sectors(h_initial.n_qubits, (h_initial, h_target))
        self._initial = self.sectors.parts(h_initial)
        self._target = self.sectors.parts(h_target)
        self._spectra: dict[float, SpectrumCache] = {}

    @cached_property
    def start(self) -> np.ndarray:
        """The amplitudes of ground_state(h_initial), where every run starts."""
        return ground_state(self.h_initial).state.amps

    def blocks(self, k) -> list[np.ndarray]:
        """The part matrices of H(k), one (p, d, d) array per entry of
        self.sectors.part_sizes, or (K, p, d, d) for a 1-D array of K
        values of k; real when the stack has no imaginary part."""
        k = np.asarray(k, dtype=float)[..., None, None, None]
        out = []
        for a, b in zip(self._initial, self._target):
            m = k * a + (1.0 - k) * b
            out.append(m.real if np.iscomplexobj(m) and not m.imag.any() else m)
        return out

    def chunk(self, vectors: bool = True) -> int:
        """How many values of k one stacked decomposition takes."""
        entries = sum(a.size for a in self._initial)
        if vectors:
            entries += sum(idx.size * idx.shape[1] for idx in self.sectors.stacks)
        return max(1, _CHUNK_ENTRIES // entries)

    def spectra(self, ks, vectors: bool = True):
        """The SpectrumCache of H(k) for each k of ks in order, decomposed
        in chunks of self.chunk(vectors) values; only one chunk is held."""
        ks = np.asarray(ks, dtype=float)
        size = self.chunk(vectors)
        for at in range(0, ks.size, size):
            yield from SpectrumCache.from_stacks(self.sectors, self.blocks(ks[at:at + size]),
                                                 vectors)

    def spectrum(self, k: float) -> SpectrumCache:
        spec = self._spectra.get(k)
        if spec is None:
            (spec,) = self.spectra([k])
            if k in (0.0, 1.0):
                self._spectra[k] = spec
        return spec

    def ground_basis(self, k: float) -> np.ndarray:
        """Orthonormal columns spanning the ground space of H(k)."""
        return self.spectrum(k).group_basis(0)


@record(frozen=True)
class MinGapResult:
    """The smallest gap between the two lowest levels on a k grid, its k, and the time 1/gap."""
    min_gap: float
    argmin_k: float
    recommended_time: float
    gapless: bool


def min_gap(path: GroundPath, samples: int = 101) -> MinGapResult:
    """Smallest gap between the two lowest eigenvalue groups of H(k) on a
    uniform k grid, plus the adiabatic-time recommendation 1/gap. The grid
    is decomposed for eigenvalues only, in chunks (GroundPath.spectra)."""
    best = math.inf
    best_k = 0.0
    all_gapless = True
    ks = np.linspace(0.0, 1.0, samples)
    for k, spec in zip(ks.tolist(), path.spectra(ks, vectors=False)):
        if len(spec.groups) < 2:
            continue
        gap = spec.group_energy(1) - spec.group_energy(0)
        if gap >= spec.tol:
            all_gapless = False
        if gap < best:
            best = gap
            best_k = k
    if not math.isfinite(best):
        return MinGapResult(0.0, 0.0, math.inf, True)
    return MinGapResult(best, best_k, math.inf if all_gapless else 1.0 / best, all_gapless)


