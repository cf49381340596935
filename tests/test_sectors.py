"""The oracle's symmetry blocks against dense matrices.

GroundPath splits H(k) into the cosets of the GF(2) span of its strings'
x_masks, and by popcount when both endpoints commute with sum_q Z_q; the
spin flip and the mirror, when both endpoints commute with them, map blocks
onto each other and split each decomposed block into symmetry-adapted
parts. These tests check the split, the merged spectra, the ground-space
projectors and the evolution against the dense forms built by
tests/oracles.py and numpy.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_experiments import random_hamiltonian
from uqsim.engine import StateVector
from uqsim.experiments import Geometry, NamedModel, build_model, nn_chain
from uqsim.oracle import GroundPath, Sectors, SpectrumCache, _conserves_popcount, ground_state
from uqsim.pauli import Hamiltonian, commutator


def conserving_hamiltonian(rng, n):
    """Random Z strings plus flip-flops c (X_a X_b + Y_a Y_b): commutes with sum_q Z_q."""
    terms = [(float(rng.normal()), "".join(rng.choice(list("IZ"), size=n))) for _ in range(n)]
    for _ in range(n if n > 1 else 0):
        a, b = rng.choice(n, size=2, replace=False)
        c = float(rng.normal())
        for axis in "XY":
            ops = ["I"] * n
            ops[a] = ops[b] = axis
            terms.append((c, "".join(ops)))
    return Hamiltonian.from_terms(n, terms)


def parity_hamiltonian(rng, n):
    """Random Z strings plus two-site X/Y strings: every x_mask has even weight,
    so the Z-parity cosets split without the popcount."""
    terms = [(float(rng.normal()), "".join(rng.choice(list("IZ"), size=n))) for _ in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        ops = list(rng.choice(list("IZ"), size=n))
        for q in rng.choice(n, size=2, replace=False):
            ops[q] = rng.choice(list("XY"))
        terms.append((float(rng.normal()), "".join(ops)))
    return Hamiltonian.from_terms(n, terms)


def dense(h):
    return oracles.dense_hamiltonian(h.n_qubits, [(t.coeff, t.ops) for t in h.terms])


def random_pair(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    make = (conserving_hamiltonian, parity_hamiltonian, random_hamiltonian)[seed % 3]
    return rng, make(rng, n), make(rng, n)


def mirrored(ops):
    return ops[::-1]


def symmetric_hamiltonian(rng, n, flip, mirror):
    """Random strings with real and imaginary entries (odd Y counts
    included) that commute with the spin flip X^n when `flip` and with the
    mirror when `mirror`, and (for n >= 2) with neither otherwise."""
    terms = []
    while len(terms) < 2 * n:
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        odd = sum(c in "YZ" for c in ops) % 2
        if set(ops) == {"I"} or (flip and odd):
            continue
        c = float(rng.normal())
        terms.append((c, ops))
        if mirror and mirrored(ops) != ops:
            terms.append((c, mirrored(ops)))
    if not flip:  # Z fields anticommute with the flip
        terms.append((0.7, "Z" + "I" * (n - 1)))
        if mirror:
            terms.append((0.7, "I" * (n - 1) + "Z"))
    if not mirror:  # YZ and its mirror image ZY with other coefficients
        terms.append((0.4, "YZ" + "I" * (n - 2)))
        terms.append((-1.3, "I" * (n - 2) + "ZY"))
    return Hamiltonian.from_terms(n, terms)


SYMMETRY_CASES = [(flip, mirror) for flip in (True, False) for mirror in (True, False)]


def symmetric_pair(seed):
    """A seeded pair on 2..7 qubits with the flip and the mirror of
    SYMMETRY_CASES[seed % 4]."""
    rng = np.random.default_rng(1000 + seed)
    n = 2 + seed % 6
    flip, mirror = SYMMETRY_CASES[seed % 4]
    return rng, *(symmetric_hamiltonian(rng, n, flip, mirror) for _ in range(2))


def commutes(m, perm):
    return np.max(np.abs(m[perm][:, perm] - m)) < 1e-12


def block_mask(path):
    dim = 1 << path.h_initial.n_qubits
    mask = np.zeros((dim, dim), dtype=bool)
    for idx in path.sectors.stacks:
        mask[idx[:, :, None], idx[:, None, :]] = True
    return mask


@pytest.mark.parametrize("seed", range(15))
def test_blocks_hold_every_entry_of_the_dense_path(seed):
    rng, h_i, h_t = random_pair(seed)
    path = GroundPath(h_i, h_t)
    sectors = path.sectors
    states = np.concatenate([idx.ravel() for idx in sectors.stacks])
    assert sorted(states.tolist()) == list(range(1 << h_i.n_qubits))
    mask = block_mask(path)
    for h in (h_i, h_t):
        m = h.to_matrix()
        assert np.all(m[~mask] == 0.0)
        for idx, block in zip(sectors.stacks, sectors.blocks(h)):
            np.testing.assert_array_equal(block, m[idx[:, :, None], idx[:, None, :]])
            assert np.iscomplexobj(block) == bool(m[idx[:, :, None], idx[:, None, :]].imag.any())
    for k in (0.0, 1.0, *rng.random(2)):
        for d, part in zip(sectors.part_sizes, path.blocks(k)):
            assert part.shape[1:] == (d, d)
            assert np.iscomplexobj(part) == bool(np.imag(part).any())


@pytest.mark.parametrize("seed", range(15))
def test_merged_spectrum_projector_and_evolution_match_dense(seed):
    rng, h_i, h_t = random_pair(seed)
    path = GroundPath(h_i, h_t)
    dim = 1 << h_i.n_qubits
    for k in rng.random(2):
        m = k * dense(h_i) + (1.0 - k) * dense(h_t)
        whole = oracles.DenseSpectrum(m)
        levels, spec = next(path.spectra([k], vectors=False)), path.spectrum(k)
        np.testing.assert_allclose(levels.eigenvalues, np.linalg.eigvalsh(m), rtol=0, atol=1e-12)
        assert levels.groups == spec.groups == whole.groups
        basis, full = spec.group_basis(0), whole.group_basis(0)
        np.testing.assert_allclose(basis @ basis.conj().T, full @ full.conj().T,
                                   rtol=0, atol=1e-10)
        amps = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        t = float(rng.uniform(0.1, 2.0))
        expect = amps @ oracles.evolve(m, t).T
        np.testing.assert_allclose(spec.evolve(amps, t), expect, rtol=0, atol=1e-10)
        np.testing.assert_allclose(spec.evolve(amps[0], t), expect[0], rtol=0, atol=1e-10)
        weights = spec.weights(amps)
        np.testing.assert_allclose(weights[:, 0], np.sum(np.abs(amps @ full.conj()) ** 2, axis=1),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def commutes_with_total_z(h):
    n = h.n_qubits
    sz = sum(oracles.kron_string("I" * q + "Z" + "I" * (n - q - 1)) for q in range(n))
    m = dense(h)
    return np.max(np.abs(m @ sz - sz @ m)) < 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_popcount_split_exactly_when_both_endpoints_conserve(seed):
    _, h_i, h_t = random_pair(seed)
    conserving = commutes_with_total_z(h_i) and commutes_with_total_z(h_t)
    assert GroundPath(h_i, h_t).sectors.magnetization == conserving


COEFFS = st.sampled_from([1.0, -1.0, 0.5, -0.75])


@st.composite
def popcount_candidates(draw):
    """Random strings on 1 to 5 qubits (some of I and Z only), mixed with pairs
    c X_a X_b + c' Y_a Y_b that conserve the popcount when c' = c, and to
    commutator's pruning when c' = c + 1e-15."""
    n = draw(st.integers(1, 5))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        c = draw(COEFFS)
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c_y = c + draw(st.sampled_from([0.0, 1e-15, 1e-14, -2 * c]))
            for axis, coeff in (("X", c), ("Y", c_y)):
                ops = ["I"] * n
                ops[a] = ops[b] = axis
                terms.append((coeff, "".join(ops)))
        else:
            letters = st.sampled_from(draw(st.sampled_from(["IZ", "IXYZ"])))
            terms.append((c, "".join(draw(st.lists(letters, min_size=n, max_size=n)))))
    return Hamiltonian.from_terms(n, terms)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(popcount_candidates())
def test_popcount_rule_agrees_with_commutator(h):
    n = h.n_qubits
    total_z = Hamiltonian.from_terms(n, [(1.0, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)])
    assert _conserves_popcount(n, h.table) == (not commutator(h, total_z))


def test_bundled_paths_split_as_measured():
    fig4a = GroundPath(nn_chain("zz", 7), build_model(NamedModel("dipole", Geometry.chain(7))))
    assert fig4a.sectors.magnetization
    assert sorted(b.size for idx in fig4a.sectors.stacks for b in idx) == [1, 1, 7, 7, 21, 21,
                                                                          35, 35]
    assert fig4a.sectors.flip and fig4a.sectors.mirror
    assert fig4a.sectors.part_sizes == [1, 3, 4, 9, 12, 16, 19]
    assert [b.shape[0] for b in fig4a.blocks(0.5)] == [1] * 7
    fig5 = GroundPath(nn_chain("xx", 9), build_model(NamedModel("dipole", Geometry.chain(9))))
    assert not fig5.sectors.magnetization
    assert fig5.sectors.flip and fig5.sectors.mirror
    assert [idx.shape for idx in fig5.sectors.stacks] == [(2, 256)]
    assert [b.shape for b in fig5.blocks(0.5)] == [(1, 120, 120), (1, 136, 136)]
    x_field = Hamiltonian.from_terms(3, [(1.0, "XII"), (1.0, "IXI"), (1.0, "IIX")])
    assert not GroundPath(nn_chain("zz", 3), x_field).sectors.magnetization


def test_diagonal_hamiltonian_is_one_stacked_call():
    spec = SpectrumCache.from_hamiltonian(nn_chain("zz", 12))
    assert [idx.shape for idx in spec.stacks] == [(4096, 1)]
    assert spec.eigenvalues[0] == -11.0 and spec.groups[0] == (0, 2)


@pytest.mark.parametrize("h_initial", [nn_chain("zz", 5), nn_chain("xx", 5)])
def test_start_vector_is_the_ground_state(h_initial):
    path = GroundPath(h_initial, build_model(NamedModel("dipole", Geometry.chain(5))))
    np.testing.assert_array_equal(path.start, ground_state(h_initial).state.amps)
    assert path.start is path.start


XX9_AMPS = ("import sys; from uqsim.oracle import ground_state; "
            "from uqsim.experiments import nn_chain; "
            "sys.stdout.write(ground_state(nn_chain('xx', 9)).state.amps.tobytes().hex())")


def test_xx_chain_start_lies_in_one_odd_parity_block(monkeypatch):
    # fig5's start: decomposed part by part, never as one dense matrix
    def refuse(self):
        raise AssertionError("ground_state built a dense matrix")

    monkeypatch.setattr(Hamiltonian, "to_matrix", refuse)
    h = nn_chain("xx", 9)
    amps = ground_state(h).state.amps
    (idx,) = Sectors(9, (h,)).stacks
    rows = [row for row in idx if np.any(amps[row] != 0.0)]
    assert len(rows) == 1
    outside = np.ones(amps.size, dtype=bool)
    outside[rows[0]] = False
    assert np.all(amps[outside] == 0.0)
    assert {bin(c).count("1") % 2 for c in rows[0].tolist()} == {1}


def test_xx_chain_start_is_bit_identical_at_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", XX9_AMPS], env=env, capture_output=True,
                              text=True, check=True)
        out.append(proc.stdout)
    assert len(out[0]) == 2 * 16 * 512 and out[0] == out[1]


def flip_and_mirror(n):
    states = np.arange(1 << n)
    reverse = sum(((states >> q) & 1) << (n - 1 - q) for q in range(n))
    return states ^ ((1 << n) - 1), reverse


@pytest.mark.parametrize("seed", range(12))
def test_symmetries_found_exactly_when_present(seed):
    _, h_i, h_t = symmetric_pair(seed)
    flip, mirror = SYMMETRY_CASES[seed % 4]
    sectors = GroundPath(h_i, h_t).sectors
    assert (sectors.flip, sectors.mirror) == (flip, mirror)
    f, m = flip_and_mirror(h_i.n_qubits)
    for h in (h_i, h_t):
        assert commutes(dense(h), f) == flip
        assert commutes(dense(h), m) == mirror


@pytest.mark.parametrize("seed", range(12))
def test_adapted_parts_match_dense(seed):
    rng, h_i, h_t = symmetric_pair(seed)
    path = GroundPath(h_i, h_t)
    n, dim = h_i.n_qubits, 1 << h_i.n_qubits
    decomposed = sum(d * b.shape[0] for d, b in zip(path.sectors.part_sizes, path.blocks(0.5)))
    largest = max(idx.shape[1] for idx in path.sectors.stacks)
    if path.sectors.flip or path.sectors.mirror:  # fewer states, or smaller parts, to decompose
        assert decomposed < dim or max(path.sectors.part_sizes) < largest
    for h in (h_i, h_t):
        full = h.to_matrix()
        for idx, block in zip(path.sectors.stacks, path.sectors.blocks(h)):
            np.testing.assert_array_equal(block, full[idx[:, :, None], idx[:, None, :]])
    for k in (1.0, float(rng.random())):
        m = k * dense(h_i) + (1.0 - k) * dense(h_t)
        w, v = np.linalg.eigh(m)
        levels, spec = next(path.spectra([k], vectors=False)), path.spectrum(k)
        np.testing.assert_allclose(levels.eigenvalues, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalues, w, rtol=0, atol=1e-12)
        whole = oracles.DenseSpectrum(m)
        assert spec.groups == whole.groups
        for g in range(min(3, len(spec.groups))):
            basis, full = spec.group_basis(g), whole.group_basis(g)
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(basis @ basis.conj().T, full @ full.conj().T,
                                       rtol=0, atol=1e-10)
        amps = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        np.testing.assert_allclose(spec.weights(amps), whole.weights(amps), rtol=0, atol=1e-10)
        single = [start for start, stop in spec.groups if stop - start == 1]
        np.testing.assert_allclose(spec.level_weights(amps)[:, single],
                                   whole.level_weights(amps)[:, single], rtol=0, atol=1e-10)
        state = StateVector(n, amps[0])
        for (e, p), (e_ref, p_ref) in zip(spec.histogram(state), whole.histogram(state)):
            assert abs(e - e_ref) <= 1e-12 and abs(p - p_ref) <= 1e-10
        t = float(rng.uniform(0.1, 2.0))
        propagator = (v * np.exp(-1j * w * t)) @ v.conj().T  # exp(-i m t) from dense eigh
        np.testing.assert_allclose(spec.evolve(amps, t), amps @ propagator.T, rtol=0, atol=1e-10)


def test_mirror_needs_bit_identical_coefficients():
    c = 0.3
    twin = np.nextafter(c, 1.0)  # differs from c in the last bit
    pair = Hamiltonian.from_terms(4, [(c, "XXII"), (c, "IIXX"), (1.0, "IZZI")])
    off = Hamiltonian.from_terms(4, [(c, "XXII"), (twin, "IIXX"), (1.0, "IZZI")])
    target = nn_chain("zz", 4)
    assert GroundPath(pair, target).sectors.mirror
    sectors = GroundPath(off, target).sectors
    assert sectors.flip and not sectors.mirror


def test_trap_chain_oracle_splits_by_the_flip_only():
    # the trotter-uqs2 target: a random Ising chain with X fields on 8 ions
    rng = np.random.default_rng(1)
    n = 8
    terms = [(float(-0.5 * rng.uniform(0.5, 1.5)), "I" * a + "ZZ" + "I" * (n - a - 2))
             for a in range(n - 1)]
    terms += [(float(rng.uniform(0.2, 0.8)), "I" * q + "X" + "I" * (n - q - 1)) for q in range(n)]
    h = Hamiltonian.from_terms(n, terms)
    sectors = Sectors(n, (h,))
    assert sectors.flip and not sectors.mirror
    assert [idx.shape for idx in sectors.stacks] == [(1, 256)]
    assert [b.shape for b in sectors.parts(h)] == [(2, 128, 128)]
    spec = SpectrumCache.from_hamiltonian(h)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(dense(h)), rtol=0, atol=1e-12)


def field(n, axis):
    return Hamiltonian.from_terms(n, [(1.0, "I" * q + axis + "I" * (n - q - 1)) for q in range(n)])


BATCHED_PATHS = {
    "fig4a": lambda: (nn_chain("zz", 7), build_model(NamedModel("dipole", Geometry.chain(7)))),
    "fig5": lambda: (nn_chain("xx", 9), build_model(NamedModel("dipole", Geometry.chain(9)))),
    # one Y per target term: complex parts
    "odd-y": lambda: (field(4, "X"), field(4, "Y")),
    # a transverse field does not conserve the magnetization
    "no-magnetization": lambda: (nn_chain("zz", 5), field(5, "X")),
}


@pytest.mark.parametrize("case", sorted(BATCHED_PATHS))
def test_batched_spectra_match_one_k_spectra(monkeypatch, case):
    h_i, h_t = BATCHED_PATHS[case]()
    path = GroundPath(h_i, h_t)
    if case == "odd-y":
        assert any(np.iscomplexobj(m) for m in path.blocks(0.5))
    if case == "no-magnetization":
        assert not path.sectors.magnetization
    ks = np.array([0.0, 0.2, 0.45, 0.5, 0.9, 1.0] if case != "fig5" else [0.0, 0.3, 1.0])
    rng = np.random.default_rng(len(case))
    dim = 1 << h_i.n_qubits
    amps = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    # chunks of two and of every k: the cut between chunks changes nothing
    for chunk in (2, len(ks)):
        monkeypatch.setattr(GroundPath, "chunk", lambda self, vectors=True, c=chunk: c)
        for vectors in (True, False):
            batched = list(path.spectra(ks, vectors))
            assert len(batched) == ks.size
            for k, spec in zip(ks.tolist(), batched):
                (one,) = SpectrumCache.from_stacks(path.sectors, path.blocks([k]), vectors)
                assert spec.groups == one.groups
                assert abs(spec.tol - one.tol) <= 1e-12
                np.testing.assert_allclose(spec.eigenvalues, one.eigenvalues, rtol=0, atol=1e-12)
                if not vectors:
                    assert spec.eigenvectors is None
                    continue
                w, w_one = spec.level_weights(amps), one.level_weights(amps)
                np.testing.assert_allclose(spec.weights(amps)[:, 0], one.weights(amps)[:, 0],
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(w @ spec.eigenvalues, w_one @ one.eigenvalues,
                                           rtol=0, atol=1e-12)
