"""The oracle's symmetry blocks: the basis states of n qubits split into the
invariant blocks that Hamiltonians share, each block decomposed once per
orbit of the spin flip and the mirror, in symmetry-adapted parts.

engine.SpectrumCache decomposes the parts (`Sectors.parts`) and maps their
eigenpairs back onto basis states (`Sectors.expand`).
"""
from __future__ import annotations

import numpy as np

from .pauli import COEFF_PRUNE_TOL, Hamiltonian, TermTable, _parity


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
    """

    def __init__(self, n_qubits: int, hamiltonians: tuple[Hamiltonian, ...]):
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
        self._layout(key, _symmetries(n_qubits, hamiltonians))

    @staticmethod
    def whole(n_qubits: int) -> "Sectors":
        """All 2^n basis states as one block, without symmetries."""
        sectors = Sectors.__new__(Sectors)
        sectors.magnetization = False
        states = np.arange(1 << n_qubits)
        sectors._layout(np.zeros_like(states), [(states, (0, 0))])
        return sectors

    def _layout(self, key: np.ndarray, group):
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
