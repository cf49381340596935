"""The oracle's symmetry blocks against dense matrices.

GroundPath splits H(k) into the cosets of the GF(2) span of its strings'
x_masks, and by popcount when both endpoints commute with sum_q Z_q. These
tests check the split, the merged spectra, the ground-space projectors and
the evolution against the dense forms built by tests/oracles.py and numpy.
"""
import numpy as np
import pytest

import oracles
from test_experiments import random_hamiltonian
from uqsim.engine import SpectrumCache, ground_state
from uqsim.experiments import Geometry, GroundPath, NamedModel, build_model, nn_chain
from uqsim.pauli import Hamiltonian


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
    states = np.concatenate([idx.ravel() for idx in path.sectors.stacks])
    assert sorted(states.tolist()) == list(range(1 << h_i.n_qubits))
    mask = block_mask(path)
    a, b = h_i.to_matrix(), h_t.to_matrix()
    for k in (0.0, 1.0, *rng.random(2)):
        m = k * a + (1.0 - k) * b
        assert np.all(m[~mask] == 0.0)
        for idx, block in zip(path.sectors.stacks, path.blocks(k)):
            np.testing.assert_array_equal(block, m[idx[:, :, None], idx[:, None, :]])
            assert np.iscomplexobj(block) == bool(m[idx[:, :, None], idx[:, None, :]].imag.any())


@pytest.mark.parametrize("seed", range(15))
def test_merged_spectrum_projector_and_evolution_match_dense(seed):
    rng, h_i, h_t = random_pair(seed)
    path = GroundPath(h_i, h_t)
    dim = 1 << h_i.n_qubits
    for k in rng.random(2):
        m = k * dense(h_i) + (1.0 - k) * dense(h_t)
        whole = SpectrumCache.from_blocks((np.arange(dim)[None],), [m[None]])
        levels, spec = path.levels(k), path.spectrum(k)
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


def test_bundled_paths_split_as_measured():
    fig4a = GroundPath(nn_chain("zz", 7), build_model(NamedModel("dipole", Geometry.chain(7))))
    assert fig4a.sectors.magnetization
    assert sorted(b.size for idx in fig4a.sectors.stacks for b in idx) == [1, 1, 7, 7, 21, 21,
                                                                          35, 35]
    fig5 = GroundPath(nn_chain("xx", 9), build_model(NamedModel("dipole", Geometry.chain(9))))
    assert not fig5.sectors.magnetization
    assert [idx.shape for idx in fig5.sectors.stacks] == [(2, 256)]
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
