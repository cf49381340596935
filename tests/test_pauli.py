import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uqsim.pauli import (
    Hamiltonian,
    LocalLayer,
    PauliError,
    PauliString,
    SingleQubitUnitary,
    coeff_matrix,
    commutator,
    commutator_generator,
    conjugate,
    from_coeff_matrix,
    pauli_multiply,
)


def ops_strings(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


class TestPauliMultiply:
    def test_involution(self):
        phase, r = pauli_multiply(PauliString("X"), PauliString("X"))
        assert phase == 1 and r.ops == "I"

    def test_xy_gives_iz(self):
        phase, r = pauli_multiply(PauliString("X"), PauliString("Y"))
        assert phase == 1j and r.ops == "Z"

    def test_two_qubit_example(self):
        # (Z x I) * (X x X) -> derived from sitewise 2x2 matrix multiplication
        p, q = PauliString("ZI"), PauliString("XX")
        phase, r = pauli_multiply(p, q)
        dense = oracles.kron_string("ZI") @ oracles.kron_string("XX")
        np.testing.assert_allclose(phase * oracles.kron_string(r.ops), dense, atol=1e-14)
        assert phase == 1j and r.ops == "YX"

    def test_length_mismatch(self):
        with pytest.raises(PauliError):
            pauli_multiply(PauliString("X"), PauliString("XX"))

    @settings(max_examples=60)
    @given(ops_strings(3), ops_strings(3), ops_strings(3))
    def test_associative_and_phase_consistent(self, a, b, c):
        pa, pb, pc = PauliString(a), PauliString(b), PauliString(c)
        ph1, ab = pauli_multiply(pa, pb)
        ph2, ab_c = pauli_multiply(ab, pc)
        ph3, bc = pauli_multiply(pb, pc)
        ph4, a_bc = pauli_multiply(pa, bc)
        assert ab_c.ops == a_bc.ops
        assert ph1 * ph2 == ph3 * ph4
        dense = oracles.kron_string(a) @ oracles.kron_string(b) @ oracles.kron_string(c)
        np.testing.assert_allclose(ph1 * ph2 * oracles.kron_string(ab_c.ops), dense, atol=1e-12)


class TestHamiltonianCanonical:
    def test_merge_and_prune(self):
        h = Hamiltonian.from_terms(2, [(0.5, "XZ"), (0.5, "XZ"), (1e-16, "YY"), (-1.0, "IZ")])
        assert [t.ops for t in h.terms] == ["IZ", "XZ"]
        assert h.coefficient("XZ") == 1.0

    def test_ordering_is_lexicographic(self):
        h = Hamiltonian.from_terms(1, [(1.0, "Z"), (1.0, "X"), (1.0, "I"), (1.0, "Y")])
        assert [t.ops for t in h.terms] == ["I", "X", "Y", "Z"]

    def test_text_round_trip(self):
        h = Hamiltonian.from_terms(3, [(0.25, "XYZ"), (-1.5, "ZZI"), (1 / 3, "IIX")])
        again = Hamiltonian.from_text(h.to_text())
        assert again == h

    def test_text_parse_errors(self):
        with pytest.raises(PauliError):
            Hamiltonian.from_text("0.5 X Q\n")
        with pytest.raises(PauliError):
            Hamiltonian.from_text("0.5 X X\n1.0 X X X\n")

    def test_comments_and_blanks(self):
        h = Hamiltonian.from_text("# c\n\n1.0 Z Z\n")
        assert h.n_qubits == 2 and h.coefficient("ZZ") == 1.0

    @pytest.mark.parametrize("text, n_qubits, message", [
        ("# hamiltonian n_qubits=3\n1 ZZ\n", None, "expected 3 ops, got 2"),
        ("# hamiltonian n_qubits=3\n1 ZZZ\n", 2, "line 1: n_qubits=3, expected 2"),
        ("# hamiltonian n_qubits=3\n# n_qubits=2\n", None, "line 2: n_qubits=2, expected 3"),
        ("1 ZZ\n# n_qubits=3\n", None, "line 2: n_qubits=3, expected 2"),
        ("# hamiltonian n_qubits=0\n", None, "positive"),
        ("# hamiltonian n_qubits=" + "9" * 5000 + "\n", None, "bad n_qubits"),
        ("# a comment\n", None, "no terms and no n_qubits header"),
    ], ids=["short-term", "argument", "two-headers", "header-after-term", "zero", "digits",
            "nothing"])
    def test_header_is_checked(self, text, n_qubits, message):
        with pytest.raises(PauliError, match=message):
            Hamiltonian.from_text(text, n_qubits)

    def test_header_only_is_the_zero_hamiltonian(self):
        zero = Hamiltonian.zero(3)
        assert zero.to_text() == "# hamiltonian n_qubits=3\n"
        assert Hamiltonian.from_text(zero.to_text()) == zero
        assert Hamiltonian.from_text(zero.to_text(), 3) == zero
        assert Hamiltonian.from_text("# hamiltonian n_qubits=3\n0.5 X I Z\n").coefficient("XIZ") == 0.5


HAM_FUZZ = settings(max_examples=80)
HAM_TOKENS = st.sampled_from([
    "#", "# hamiltonian", "n_qubits=2", "n_qubits=3", "n_qubits=0", "n_qubits=x", "1.0", "-0.5",
    "0.0", "1e-300", "nan", "inf", "-inf", "1e999", "X", "Y", "Z", "I", "XX", "ZZ", "IZ", "Q",
    "x", "", "=",
]) | st.text(max_size=5)


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 5))
    coeffs = st.floats(-1e300, 1e300)  # merged duplicates stay finite
    terms = draw(st.lists(st.tuples(coeffs, ops_strings(n)), max_size=6))
    return Hamiltonian.from_terms(n, terms)


class TestHamiltonianTextFuzz:
    @HAM_FUZZ
    @given(hamiltonians())
    def test_valid_text_round_trips(self, h):
        text = h.to_text()
        again = Hamiltonian.from_text(text)
        assert again == h
        assert again.to_text() == text

    @HAM_FUZZ
    @given(st.data())
    def test_mutated_text_raises_only_pauli_error(self, data):
        base = Hamiltonian.from_terms(3, [(0.5, "XYZ"), (-1.25, "ZZI")]).to_text()
        lines = [line.split(" ") for line in base.splitlines()]
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.integers(0, len(lines) - 1))
            words = lines[row]
            action = data.draw(st.sampled_from(["replace", "insert", "delete", "line"]))
            at = data.draw(st.integers(0, len(words)))
            if action == "replace" and at < len(words):
                words[at] = data.draw(HAM_TOKENS)
            elif action == "delete" and at < len(words):
                del words[at]
            elif action == "line":
                lines.insert(row, data.draw(st.lists(HAM_TOKENS, max_size=4)))
            else:
                words.insert(at, data.draw(HAM_TOKENS))
        n_qubits = data.draw(st.sampled_from([None, 2, 3]))
        try:
            Hamiltonian.from_text("\n".join(" ".join(w) for w in lines) + "\n", n_qubits)
        except PauliError:
            pass

    @HAM_FUZZ
    @given(st.text(max_size=60))
    def test_garbage_raises_only_pauli_error(self, text):
        try:
            Hamiltonian.from_text(text)
        except PauliError:
            pass


class TestToMatrix:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kron_oracle_exactly(self, n, seed):
        # every letter appears, and terms are summed in canonical order on both sides
        rng = np.random.default_rng(100 * n + seed)
        strings = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(2 * n + 2)]
        strings += [c * n for c in "IXYZ"]
        h = Hamiltonian.from_terms(n, [(float(rng.normal()), ops) for ops in strings])
        dense = oracles.dense_hamiltonian(n, [(t.coeff, t.ops) for t in h.terms])
        assert np.array_equal(h.to_matrix(), dense)


class TestCommutator:
    def test_standard_identity(self):
        h1 = Hamiltonian.from_terms(1, [(1.0, "Z")])
        h2 = Hamiltonian.from_terms(1, [(1.0, "X")])
        out = commutator(h1, h2)
        assert len(out) == 1
        coeff, p = out[0]
        assert p.ops == "Y" and coeff == 2j

    def test_self_commutation(self):
        h = Hamiltonian.from_terms(2, [(0.7, "XY"), (-0.2, "ZZ")])
        assert commutator(h, h) == []

    def test_three_body_generator(self):
        h1 = Hamiltonian.from_terms(3, [(1.0, "IZZ")])
        h2 = Hamiltonian.from_terms(3, [(1.0, "XXI")])
        gen = commutator_generator(h1, h2)
        assert len(gen.terms) == 1
        assert gen.terms[0].ops == "XYZ"
        assert gen.terms[0].coeff == pytest.approx(2.0, abs=1e-14)
        # dense 8x8 oracle for -i[h1, h2]
        a = oracles.kron_string("IZZ")
        b = oracles.kron_string("XXI")
        dense = -1j * (a @ b - b @ a)
        np.testing.assert_allclose(gen.to_matrix(), dense, atol=1e-12)

    @settings(max_examples=30)
    @given(
        st.lists(st.tuples(st.floats(-2, 2), ops_strings(3)), min_size=1, max_size=3),
        st.lists(st.tuples(st.floats(-2, 2), ops_strings(3)), min_size=1, max_size=3),
    )
    def test_matches_dense_commutator(self, t1, t2):
        h1 = Hamiltonian.from_terms(3, t1)
        h2 = Hamiltonian.from_terms(3, t2)
        d1 = oracles.dense_hamiltonian(3, [(t.coeff, t.ops) for t in h1.terms])
        d2 = oracles.dense_hamiltonian(3, [(t.coeff, t.ops) for t in h2.terms])
        expect = d1 @ d2 - d2 @ d1
        got = np.zeros_like(expect)
        for c, p in commutator(h1, h2):
            got = got + c * oracles.kron_string(p.ops)
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestConjugate:
    def test_identity_layer(self):
        h = Hamiltonian.from_terms(2, [(0.3, "XY"), (1.0, "ZZ")])
        assert conjugate(h, LocalLayer.identity()) == h

    def test_homogeneous_x_layer_flips_z(self):
        # X Z X = -Z sitewise
        h = Hamiltonian.from_terms(3, [(1.0, "ZII"), (1.0, "IZI"), (1.0, "IIZ")])
        layer = LocalLayer.homogeneous(SingleQubitUnitary.pauli_flip("X"))
        out = conjugate(h, layer)
        assert out == h.scaled(-1.0)

    def test_quarter_x_turn_takes_zz_to_yy(self):
        gamma = 0.8
        h = Hamiltonian.from_terms(2, [(gamma, "ZZ")])
        layer = LocalLayer.homogeneous(SingleQubitUnitary.quarter_turn("X"))
        out = conjugate(h, layer)
        assert len(out.terms) == 1
        assert out.terms[0].ops == "YY"
        assert out.terms[0].coeff == gamma  # exact: integer adjoint action
        # sitewise rotation oracle
        u = (oracles.I2 - 1j * oracles.SX) / math.sqrt(2)
        v = oracles.local_layer_matrix([u, u])
        dense = v @ (gamma * oracles.kron_string("ZZ")) @ v.conj().T
        np.testing.assert_allclose(out.to_matrix(), dense, atol=1e-12)

    def test_non_unitary_layer_rejected(self):
        with pytest.raises(PauliError):
            SingleQubitUnitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.floats(-2, 2), ops_strings(2)), min_size=1, max_size=4),
        st.floats(-math.pi, math.pi),
        st.floats(0.05, math.pi / 2),
        st.floats(-math.pi, math.pi),
    )
    def test_conjugation_preserves_spectrum_and_norm(self, terms, phi, polar, angle):
        h = Hamiltonian.from_terms(2, terms)
        axis = (
            math.sin(polar) * math.cos(phi),
            math.sin(polar) * math.sin(phi),
            math.cos(polar),
        )
        layer = LocalLayer.homogeneous(SingleQubitUnitary.rot(axis, angle))
        out = conjugate(h, layer)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.to_matrix()),
            np.linalg.eigvalsh(h.to_matrix()),
            atol=1e-10,
        )
        assert out.frobenius_coeff_norm() == pytest.approx(h.frobenius_coeff_norm(), abs=1e-10)

    def test_inhomogeneous_layer(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ")])
        layer = LocalLayer.inhomogeneous(
            [SingleQubitUnitary.quarter_turn("X"), SingleQubitUnitary.identity()]
        )
        out = conjugate(h, layer)
        assert out.coefficient("YZ") == -1.0

    def test_four_qubit_spectrum_preserved(self):
        h = Hamiltonian.from_terms(
            4, [(0.4, "ZZII"), (-0.7, "IXXI"), (0.2, "YIIY"), (0.5, "XIII")]
        )
        layer = LocalLayer.inhomogeneous([
            SingleQubitUnitary.rot((0.8, 0.0, 0.6), 0.3),
            SingleQubitUnitary.quarter_turn("Y"),
            SingleQubitUnitary.identity(),
            SingleQubitUnitary.rot((0.0, 1.0, 0.0), -1.1),
        ])
        out = conjugate(h, layer)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.to_matrix()),
            np.linalg.eigvalsh(h.to_matrix()),
            atol=1e-10,
        )

    def test_layer_size_mismatch(self):
        h = Hamiltonian.from_terms(3, [(1.0, "ZZZ")])
        layer = LocalLayer.inhomogeneous([SingleQubitUnitary.identity()] * 2)
        with pytest.raises(PauliError):
            conjugate(h, layer)


class TestCoeffMatrix:
    def test_zz_definition(self):
        m, rest = coeff_matrix(Hamiltonian.from_terms(2, [(0.7, "ZZ")]))
        np.testing.assert_array_equal(m.m, np.diag([0.0, 0.0, 0.7]))
        assert rest.terms == ()

    def test_heisenberg_is_identity_matrix(self):
        j = 1.3
        h = Hamiltonian.from_terms(2, [(j, "XX"), (j, "YY"), (j, "ZZ")])
        m, _ = coeff_matrix(h)
        np.testing.assert_array_equal(m.m, j * np.eye(3))

    def test_antisymmetric_example(self):
        j = 0.4
        h = Hamiltonian.from_terms(2, [(j, "ZY"), (-j, "YZ")])
        m, _ = coeff_matrix(h)
        expect = np.zeros((3, 3))
        expect[2, 1] = j
        expect[1, 2] = -j
        np.testing.assert_array_equal(m.m, expect)
        assert not m.is_symmetric()

    def test_local_part_reported_separately(self):
        h = Hamiltonian.from_terms(2, [(1.0, "ZZ"), (0.5, "XI"), (0.25, "IY")])
        m, rest = coeff_matrix(h)
        assert rest.coefficient("XI") == 0.5 and rest.coefficient("IY") == 0.25
        np.testing.assert_array_equal(m.m, np.diag([0.0, 0.0, 1.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(3, 3))
        m2, rest = coeff_matrix(from_coeff_matrix(mat))
        np.testing.assert_array_equal(m2.m, mat)
        assert rest.terms == ()

    def test_wrong_size_rejected(self):
        with pytest.raises(PauliError):
            coeff_matrix(Hamiltonian.from_terms(3, [(1.0, "ZZZ")]))


class TestSingleQubitUnitary:
    def test_rot_matches_expm(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis = axis / np.linalg.norm(axis)
        angle = 0.37
        u = SingleQubitUnitary.rot(axis, angle)
        nsig = axis[0] * oracles.SX + axis[1] * oracles.SY + axis[2] * oracles.SZ
        np.testing.assert_allclose(u.matrix, oracles.expm(-1j * angle * nsig), atol=1e-12)

    def test_adjoint_action_consistency(self):
        u = SingleQubitUnitary.rot((0.0, 1.0, 0.0), 0.81)
        for j, s in enumerate((oracles.SX, oracles.SY, oracles.SZ)):
            img = u.matrix @ s @ u.matrix.conj().T
            expect = sum(
                u.adjoint[i, j] * m for i, m in enumerate((oracles.SX, oracles.SY, oracles.SZ))
            )
            np.testing.assert_allclose(img, expect, atol=1e-12)

    def test_quarter_turns_are_exact(self):
        u = SingleQubitUnitary.quarter_turn("Y")
        assert u.adjoint.dtype == float
        np.testing.assert_array_equal(u.adjoint, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]])
        np.testing.assert_array_equal(
            u.dagger().adjoint, np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]]).T
        )

    def test_angle_scaling(self):
        u = SingleQubitUnitary.rot((1.0, 0.0, 0.0), 0.2)
        v = u.with_angle_scale(1.5)
        np.testing.assert_allclose(v.matrix, oracles.expm(-1j * 0.3 * oracles.SX), atol=1e-12)
        assert u.with_angle_scale(1.0) is u

    def test_flip_scaled_recomposes(self):
        u = SingleQubitUnitary.pauli_flip("X")
        np.testing.assert_allclose(u.with_angle_scale(1.0 + 1e-16).matrix, u.matrix, atol=1e-12)
