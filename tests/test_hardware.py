import math

import numpy as np
import pytest

import oracles
from uqsim.hardware import (
    HardwareError,
    LatticeModel,
    TrapArrayModel,
    beam_compensation,
    compensation_angles,
    crosstalk_report,
    displacement_classes,
    gaussian_beam,
    geometry_remap,
    parse_hardware_text,
    push_gate,
    uqs1_gate,
    uqs2_push,
)
from uqsim.pauli import Hamiltonian


def hardware_to_text(model) -> str:
    """The hardware text format of a model, which parse_hardware_text reads back."""
    if isinstance(model, LatticeModel):
        lines = [
            "platform uqs1",
            f"shape {' '.join(str(s) for s in model.shape)}",  # its product is the sites
            f"boundary {model.boundary}",
            f"available_j {' '.join(str(j) for j in sorted(model.available_j))}",
            f"gamma {model.gamma!r}",
        ]
        return "\n".join(lines) + "\n"
    if isinstance(model, TrapArrayModel):
        lines = [
            "platform uqs2",
            f"gamma {model.gamma!r}",
            f"crosstalk_threshold {model.crosstalk_threshold!r}",
            "positions",
        ]
        lines += [" ".join(repr(x) for x in p) for p in model.positions]
        return "\n".join(lines) + "\n"
    raise HardwareError(f"unknown hardware model {type(model).__name__}")


def chain_trap(n, **kw):
    return TrapArrayModel(positions=tuple((float(i),) for i in range(n)), **kw)


class TestUqs1Gate:
    def test_open_chain_first_neighbor(self):
        model = LatticeModel(n_sites=3)
        gen, gate = uqs1_gate(model, 1, 0.2)
        assert gen == Hamiltonian.from_terms(3, [(1.0, "ZZI"), (1.0, "IZZ")])
        assert gate.targets == ((0, 1, 1.0), (1, 2, 1.0))

    def test_periodic_wraps(self):
        model = LatticeModel(n_sites=3, boundary="periodic")
        gen, _ = uqs1_gate(model, 1, 0.2)
        assert gen == Hamiltonian.from_terms(3, [(1.0, "ZZI"), (1.0, "IZZ"), (1.0, "ZIZ")])

    def test_angle_periodicity_dense(self):
        # U_j at theta and theta+pi differ by at most a sign on 3 sites
        model = LatticeModel(n_sites=3)
        gen, _ = uqs1_gate(model, 1, 0.0)
        dense = gen.to_matrix()
        theta = 0.37
        u1 = oracles.evolve(dense, theta)
        u2 = oracles.evolve(dense, theta + math.pi)
        assert oracles.op_distance(u1, u2) < 1e-12  # two pairs: (-1)^2 = +1

    def test_unavailable_j_rejected(self):
        model = LatticeModel(n_sites=4, available_j=frozenset({1}))
        with pytest.raises(HardwareError):
            uqs1_gate(model, 2, 0.1)

    def test_2d_axis_displacements(self):
        model = LatticeModel(n_sites=4, shape=(2, 2))
        gen_row, _ = uqs1_gate(model, (0, 1), 0.1)
        assert gen_row == Hamiltonian.from_terms(4, [(1.0, "ZZII"), (1.0, "IIZZ")])
        gen_col, _ = uqs1_gate(model, (1, 0), 0.1)
        assert gen_col == Hamiltonian.from_terms(4, [(1.0, "ZIZI"), (1.0, "IZIZ")])

    def test_periodic_half_ring_double_collision(self):
        # displacing by n/2 on a ring drives every pair twice
        model = LatticeModel(n_sites=4, boundary="periodic")
        gen, gate = uqs1_gate(model, 2, 0.1)
        assert gen.coefficient("ZIZI") == 2.0
        assert gen.coefficient("IZIZ") == 2.0
        weights = {(a, b): w for a, b, w in gate.targets}
        assert weights == {(0, 2): 2.0, (1, 3): 2.0}

    @pytest.mark.parametrize("model, disp", [
        (LatticeModel(n_sites=5), 2),
        (LatticeModel(n_sites=5, boundary="periodic"), 2),
        (LatticeModel(n_sites=6, shape=(2, 3)), (1, 1)),
        (LatticeModel(n_sites=9, shape=(3, 3), boundary="periodic"), (1, -1)),
    ])
    def test_opposite_displacements_reach_the_same_pairs(self, model, disp):
        # one loop over sites for every dimension: -disp drives the pairs of +disp
        minus = -disp if isinstance(disp, int) else tuple(-x for x in disp)
        gen, gate = uqs1_gate(model, disp, 0.1)
        gen_minus, gate_minus = uqs1_gate(model, minus, 0.1)
        assert gen_minus == gen and gate_minus.targets == gate.targets
        assert all(0 <= q < model.n_sites for a, b, _ in gate.targets for q in (a, b))

    def test_generator_is_the_gates_targets(self):
        model = LatticeModel(n_sites=4, boundary="periodic")
        gen, gate = uqs1_gate(model, 2, 0.3)
        assert gen == Hamiltonian.from_terms(
            4, [(w, "".join("Z" if q in (a, b) else "I" for q in range(4)))
                for a, b, w in gate.targets])

    def test_translation_invariance_periodic(self):
        model = LatticeModel(n_sites=5, boundary="periodic")
        gen, _ = uqs1_gate(model, 2, 0.1)
        shifted_terms = []
        for t in gen.terms:
            ops = list("I" * 5)
            for q, c in enumerate(t.ops):
                ops[(q + 1) % 5] = c
            shifted_terms.append((t.coeff, "".join(ops)))
        assert Hamiltonian.from_terms(5, shifted_terms) == gen


class TestUqs2Push:
    def test_cube_law_full_chain(self):
        model = chain_trap(4)
        gen = uqs2_push(model, range(4), 1.0)
        assert gen.coefficient("ZZII") == pytest.approx(1.0)
        assert gen.coefficient("ZIZI") == pytest.approx(1.0 / 8.0)
        assert gen.coefficient("ZIIZ") == pytest.approx(1.0 / 27.0)
        for t in gen.terms:
            sites = t.sites()
            d = abs(sites[0] - sites[1])
            assert t.coeff * d**3 == pytest.approx(1.0, rel=1e-15)

    def test_distant_blocks_weakly_coupled(self):
        model = chain_trap(13)
        gen = uqs2_push(model, [0, 1, 11, 12], 1.0)
        intended = gen.coefficient("Z" + "Z" + "I" * 11)
        cross = max(
            abs(t.coeff) for t in gen.terms if set(t.sites()) & {0, 1} and set(t.sites()) & {11, 12}
        )
        assert cross / intended <= 1e-3

    def test_two_ions_single_term(self):
        model = chain_trap(3)
        gen = uqs2_push(model, [0, 2], 0.5)
        assert len(gen.terms) == 1
        assert gen.coefficient("ZIZ") == pytest.approx(0.5 / 8.0)

    def test_push_gate_instruction_matches_generator(self):
        model = chain_trap(3)
        gate = push_gate(model, [0, 1, 2], 0.4)
        weights = {(a, b): w for a, b, w in gate.targets}
        assert weights == {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0 / 8.0}
        assert gate.theta == 0.4

    def test_displacement_classes_cover_available_j(self):
        model = LatticeModel(n_sites=4, available_j=frozenset({1, 3}))
        classes = dict(displacement_classes(model))
        assert set(classes) == {(1,), (3,)}
        assert classes[(3,)] == ((0, 3, 1),)

    def test_needs_two_ions(self):
        with pytest.raises(HardwareError):
            uqs2_push(chain_trap(3), [1], 1.0)

    @pytest.mark.parametrize("ions, named", [
        ([1], "at least 2"), ([2, 2], "at least 2"), ([0, 4], "ion 4 outside"),
        ([-1, 0], "ion -1 outside"),
    ])
    @pytest.mark.parametrize("push", [
        lambda model, ions: uqs2_push(model, ions, 1.0),
        lambda model, ions: push_gate(model, ions, 1.0),
        lambda model, ions: crosstalk_report(model, [{0, 1} if 0 not in ions else {2, 3}, ions]),
    ], ids=["uqs2_push", "push_gate", "crosstalk_report"])
    def test_every_push_checks_one_ion_set(self, push, ions, named):
        with pytest.raises(HardwareError, match=named):
            push(chain_trap(4), ions)

    def test_push_generator_is_theta_times_the_gates(self):
        model = TrapArrayModel(positions=((0.0, 0.0), (1.0, 0.0), (0.0, 2.5), (3.0, 1.0)))
        gate = push_gate(model, [3, 0, 2], 0.7)
        assert uqs2_push(model, [0, 2, 3], 0.7) == Hamiltonian.from_terms(
            4, [(0.7 * w, "".join("Z" if q in (a, b) else "I" for q in range(4)))
                for a, b, w in gate.targets])

    @pytest.mark.parametrize("kw, named", [
        (dict(positions=((0.0,), (math.nan,))), "position 1 is not finite"),
        (dict(positions=((0.0,), (-math.inf,))), "position 1 is not finite"),
        (dict(positions=((0.0,), (2e100,))), "separations must lie in"),
        (dict(positions=((0.0,), (1.0,)), crosstalk_threshold=math.inf), "crosstalk_threshold"),
    ])
    def test_trap_values_must_be_finite(self, kw, named):
        with pytest.raises(HardwareError, match=named):
            TrapArrayModel(**kw)

    def test_min_spacing_enforced(self):
        with pytest.raises(HardwareError):
            TrapArrayModel(positions=((0.0,), (0.5,)))


class TestCrosstalkReport:
    def test_ten_site_separation_ratio(self):
        model = chain_trap(13, crosstalk_threshold=2e-3)
        report = crosstalk_report(model, [{0, 1}, {11, 12}])
        assert report.max_ratio == pytest.approx(1e-3, rel=1e-15)
        assert report.concurrent

    def test_adjacent_pairs_serialized(self):
        model = chain_trap(4)
        report = crosstalk_report(model, [{0, 1}, {2, 3}])
        assert report.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert not report.concurrent

    def test_single_group_trivially_concurrent(self):
        report = crosstalk_report(chain_trap(3), [{0, 1}])
        assert report.concurrent and report.ratios == ()

    def test_overlap_rejected(self):
        with pytest.raises(HardwareError):
            crosstalk_report(chain_trap(4), [{0, 1}, {1, 2}])


class TestGeometryRemap:
    def test_2x2_triangular(self):
        base = LatticeModel(n_sites=4, shape=(2, 2))
        out = geometry_remap("triangular", base)
        assert len(out.families["row"]) + len(out.families["col"]) == 4
        assert out.families["diag"] == ((0, 3),)

    def test_3x3_triangular(self):
        base = LatticeModel(n_sites=9, shape=(3, 3))
        out = geometry_remap("triangular", base)
        rect = len(out.families["row"]) + len(out.families["col"])
        assert rect == 12
        assert len(out.families["diag"]) == 4

    def test_rectangular_passthrough(self):
        base = LatticeModel(n_sites=6, shape=(2, 3))
        out = geometry_remap("rectangular", base)
        assert set(out.families) == {"row", "col"}
        assert len(out.pairs) == 2 * 2 + 3  # 4 row edges + 3 col edges

    def test_triangular_interior_degree_six(self):
        base = LatticeModel(n_sites=25, shape=(5, 5))
        out = geometry_remap("triangular", base)
        degree = {}
        for a, b in out.pairs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        interior = base.site_index(2, 2)
        assert degree[interior] == 6

    def test_hexagonal_degree_at_most_three(self):
        base = LatticeModel(n_sites=24, shape=(4, 6))
        out = geometry_remap("hexagonal", base)
        degree = {}
        for a, b in out.pairs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert max(degree.values()) == 3

    def test_1d_rejected(self):
        with pytest.raises(HardwareError):
            geometry_remap("triangular", LatticeModel(n_sites=4))


class TestBeamCompensation:
    def test_negligible_overlap_diagonal_solution(self):
        positions = [0.0, 1.0, 2.0]
        f = gaussian_beam(0.05)  # essentially no overlap beyond one site
        tau, nu0 = 0.8, 1.0
        sol = beam_compensation(positions, f, target=1, tau=tau, nu0=nu0)
        assert sol.durations[1] == pytest.approx(-tau / nu0, abs=1e-12)
        assert abs(sol.durations[0]) < 1e-12 and abs(sol.durations[2]) < 1e-12
        assert sol.has_negative

    def test_three_atoms_gaussian_residual(self):
        positions = [0.0, 1.0, 2.0]
        sol = beam_compensation(positions, gaussian_beam(1.5), target=0, tau=0.5)
        assert sol.residual <= 1e-10

    def test_five_atoms_reconstruction_operator_norm(self):
        positions = [float(i) for i in range(5)]
        f = gaussian_beam(1.5)
        tau = 0.7
        target = 2
        sol = beam_compensation(positions, f, target=target, tau=tau)
        angles = compensation_angles(sol, positions, f, target)
        for j, phi in enumerate(angles):
            u = oracles.expm(-1j * phi * oracles.SX)
            expect = oracles.expm(-1j * tau * oracles.SX) if j == target else np.eye(2)
            assert oracles.op_distance(u, expect) <= 1e-8

    def test_angles_are_the_beam_matrix_times_the_durations(self):
        positions = [(0.0, 0.0), (1.0, 0.5), (2.2, 0.0), (3.0, 1.0)]
        f, target, nu0 = gaussian_beam(0.9), 2, 1.3
        sol = beam_compensation(positions, f, target=target, tau=0.4, nu0=nu0)
        loop = [sum(nu0 * t * f(math.dist(p, q)) * (-1.0 if k == target else 1.0)
                    for k, (q, t) in enumerate(zip(positions, sol.durations)))
                for p in positions]
        np.testing.assert_allclose(compensation_angles(sol, positions, f, target, nu0), loop,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(loop, [0.0, 0.0, 0.4, 0.0], rtol=0, atol=1e-12)
        with pytest.raises(HardwareError, match="not finite"):
            beam_compensation([0.0, math.nan, 2.0], f, target=0, tau=0.1)

    def test_coincident_atoms_singular(self):
        with pytest.raises(HardwareError):
            beam_compensation([0.0, 0.0, 1.0], gaussian_beam(1.0), target=0, tau=0.1)

    def test_profile_validation(self):
        with pytest.raises(HardwareError):
            beam_compensation([0.0, 1.0], lambda r: 0.5, target=0, tau=0.1)
        with pytest.raises(HardwareError):
            beam_compensation([0.0, 1.0, 2.0], lambda r: r, target=0, tau=0.1)


class TestHardwareText:
    def test_uqs1_round_trip(self):
        model = LatticeModel(n_sites=7, available_j=frozenset({1, 2, 3}), gamma=0.5)
        again = parse_hardware_text(hardware_to_text(model))
        assert again == model

    def test_uqs2_round_trip(self):
        model = TrapArrayModel(
            positions=((0.0, 0.0), (1.0, 0.0), (0.0, 1.5)),
            crosstalk_threshold=5e-4,
        )
        again = parse_hardware_text(hardware_to_text(model))
        assert again == model

    def test_unknown_platform(self):
        with pytest.raises(HardwareError):
            parse_hardware_text("platform uqs9\n")

    @pytest.mark.parametrize("block", ["positions\n0\n1\n", "positions\n"])
    def test_positions_on_uqs1_is_rejected(self, block):
        with pytest.raises(HardwareError, match="platform uqs1 has no key positions"):
            parse_hardware_text("platform uqs1\nsites 2\n" + block)

    def test_sites_or_shape_not_both(self):
        assert parse_hardware_text("platform uqs1\nshape 2 3\n") == LatticeModel(6, (2, 3))
        assert parse_hardware_text("platform uqs1\nsites 6\n") == LatticeModel(6, (6,))
        for keys in ("", "sites 6\nshape 2 3\n", "sites 6\nshape 6\n"):
            with pytest.raises(HardwareError, match="'sites' or a 'shape' line, not both"):
                parse_hardware_text(f"platform uqs1\n{keys}gamma 1.0\n")

    @pytest.mark.parametrize("shape", ["-2 -2", "0 4", "2 2 2"])
    def test_a_shape_needs_1_or_2_sizes_of_at_least_1(self, shape):
        with pytest.raises(HardwareError, match="is not 1 or 2 sizes of at least 1"):
            parse_hardware_text(f"platform uqs1\nshape {shape}\n")

    def test_all_j_shorthand(self):
        model = parse_hardware_text("platform uqs1\nsites 5\navailable_j all\n")
        assert model.available_j == frozenset({1, 2, 3, 4})
