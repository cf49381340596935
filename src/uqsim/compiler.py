"""Compilation of target spin Hamiltonians into pulse schedules of raw ZZ
gates interleaved with fast local-unitary layers.

The raw hardware resource is a switchable ZZ interaction (coupling ``gamma``);
interleaving short evolutions under it with local layers V_i of weight p_i
produces the average Hamiltonian sum_i p_i V_i H0 V_i^dag. Feasibility and
time cost follow the eigenvalue/singular-value rules for homogeneous and
per-qubit control, and long evolutions are Trotterized into L identical
cycles with a quadratic gate-count/error trade-off. plan_for_hamiltonian is
the one planner: it picks the native gates (lattice displacement classes,
sharing a wrap where their sequences agree; one push of all trap ions for a
1/d^3 target, else one push per pair).

The instructions it emits and the schedule text format live in
uqsim.schedule, which the executor reads without this planner; they and
CompileError (uqsim.errors) are re-exported here.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .pauli import (
    CoeffMatrix,
    Hamiltonian,
    LocalLayer,
    SingleQubitUnitary,
    commutator_generator,
    conjugate,
)
from .records import record
from .schedule import (  # noqa: F401  (the instruction set and its text format, re-exported)
    MAX_INSTRUCTIONS,
    ApplyLocal,
    CompileError,
    HardwareConstraintError,
    InfeasibleTargetError,
    Instruction,
    PulseSchedule,
    RawGate,
    UnsupportedInteractionError,
    schedule_from_lines,
    schedule_from_text,
    schedule_text_chunks,
    schedule_to_text,
)

WEIGHT_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Control sequences
# ---------------------------------------------------------------------------

@record(frozen=True)
class ControlSequence:
    """Ordered (weight, layer) steps with weights p_i in (0, 1] summing to 1."""

    steps: tuple[tuple[float, LocalLayer], ...]

    def __post_init__(self):
        if not self.steps:
            raise CompileError("empty control sequence")
        for p, _ in self.steps:
            if not (0.0 < p <= 1.0):
                raise CompileError(f"step weight {p} outside (0, 1]")
        if len({layer.n_qubits for _, layer in self.steps} - {None}) > 1:
            raise CompileError("layers in a sequence must share n_qubits")
        total = sum(p for p, _ in self.steps)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise CompileError(f"step weights sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def n_qubits(self) -> int | None:
        return next((layer.n_qubits for _, layer in self.steps if layer.n_qubits is not None), None)


def effective_hamiltonian(seq: ControlSequence, h0: Hamiltonian) -> Hamiltonian:
    """The average Hamiltonian sum_i p_i V_i h0 V_i^dag in canonical form.

    The first-order remainder of the short-gate expansion is not included;
    it is what the Trotter error budget accounts for.
    """
    fixed = seq.n_qubits
    if fixed is not None and fixed != h0.n_qubits:
        raise CompileError(f"sequence is for {fixed} qubits, Hamiltonian for {h0.n_qubits}")
    acc = Hamiltonian.zero(h0.n_qubits)
    for p, layer in seq.steps:
        acc = acc + conjugate(h0, layer).scaled(p)
    return acc


def protocol_library(name: str) -> ControlSequence:
    """Library control sequences, keyed by what they synthesize from raw ZZ.

    * ``identity``: single trivial step, leaves ZZ as is.
    * ``heisenberg3``: three equal steps mapping gamma*ZZ to (gamma/3)(XX+YY+ZZ).
    * ``xy2``: two equal steps mapping gamma*ZZ to (gamma/2)(XX+YY).
    * ``antisym2``: two inhomogeneous steps mapping gamma*ZZ to
      (gamma/2)(ZY - YZ) on two qubits.
    """
    hom = LocalLayer.homogeneous
    qt = SingleQubitUnitary.quarter_turn
    ident = SingleQubitUnitary.identity()
    if name == "identity":
        return ControlSequence(((1.0, LocalLayer.identity()),))
    if name == "heisenberg3":
        third = 1.0 / 3.0
        return ControlSequence((
            (third, LocalLayer.identity()),
            (third, hom(qt("X"))),
            (third, hom(qt("Y"))),
        ))
    if name == "xy2":
        return ControlSequence((
            (0.5, hom(qt("X"))),
            (0.5, hom(qt("Y"))),
        ))
    if name == "antisym2":
        return ControlSequence((
            (0.5, LocalLayer.inhomogeneous([ident, qt("X", inverse=True)])),
            (0.5, LocalLayer.inhomogeneous([qt("X"), ident])),
        ))
    raise CompileError(f"unknown protocol {name!r}")


# ---------------------------------------------------------------------------
# Feasibility and cost
# ---------------------------------------------------------------------------

@record(frozen=True)
class FeasibilityResult:
    """Whether homogeneous control can reach a target, its time cost if so, and why not."""
    feasible: bool
    time_cost: float | None
    eigenvalues: tuple[float, ...]
    message: str = ""


# An eigenvalue counts as non-vanishing when above this times the largest.
EIGENVALUE_REL_TOL = 1e-10


def check_gamma(gamma: float, error: type[Exception] = CompileError) -> float:
    """gamma, if it is finite and nonzero; else `error` is raised."""
    if not (math.isfinite(gamma) and gamma != 0.0):
        raise error(f"gamma must be finite and nonzero, got {gamma}")
    return gamma


def homogeneous_feasibility(m: CoeffMatrix, gamma: float) -> FeasibilityResult:
    """Sign rule for simulating a symmetric interaction with homogeneous control.

    Feasible iff every non-vanishing eigenvalue of M has the sign of gamma;
    the minimal time cost is then (sum of eigenvalues) / gamma.
    """
    check_gamma(gamma)
    if not m.is_symmetric(1e-10):
        raise CompileError("asymmetric interaction matrix cannot arise from homogeneous control")
    evals = m.eigenvalues()
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    if scale == 0.0:
        return FeasibilityResult(True, 0.0, tuple(evals), "zero target")
    bad = [mu for mu in evals if abs(mu) > EIGENVALUE_REL_TOL * scale and mu * gamma < 0.0]
    if bad:
        msg = (
            "infeasible under homogeneous control: eigenvalues "
            f"{[round(float(b), 12) for b in bad]} have sign opposite to gamma={gamma}"
        )
        return FeasibilityResult(False, None, tuple(evals), msg)
    cost = float(np.sum(evals)) / gamma
    return FeasibilityResult(True, cost, tuple(evals))


def inhomogeneous_cost(m: CoeffMatrix, gamma: float) -> float:
    """Optimal time cost with per-qubit control: sum of singular values / |gamma|."""
    check_gamma(gamma)
    return float(np.sum(m.singular_values())) / abs(gamma)


# ---------------------------------------------------------------------------
# Sequence synthesis for a single two-qubit interaction
# ---------------------------------------------------------------------------

# Homogeneous quarter-turn steps: layer axis -> (target axis it feeds, sign).
# A homogeneous x quarter turn maps ZZ to YY; a y quarter turn maps ZZ to XX.

def synthesize_diagonal(target: CoeffMatrix, gamma: float) -> tuple[ControlSequence, float]:
    """Homogeneous sequence realizing a diagonal target diag(dx, dy, dz).

    Returns (sequence, rescale) with
    ``rescale * effective_hamiltonian(sequence, gamma*ZZ) == target`` and
    rescale equal to the optimal cost (dx+dy+dz)/gamma.
    """
    if not target.is_diagonal(1e-12):
        raise UnsupportedInteractionError("synthesize_diagonal requires a diagonal target")
    feas = homogeneous_feasibility(target, gamma)
    if not feas.feasible:
        raise InfeasibleTargetError(feas.message)
    dx, dy, dz = (float(target.m[i, i]) for i in range(3))
    cost = feas.time_cost
    if cost == 0.0:
        return protocol_library("identity"), 0.0
    hom = LocalLayer.homogeneous
    qt = SingleQubitUnitary.quarter_turn
    steps = []
    # Step order mirrors the three-step isotropic protocol: identity first,
    # then the x turn (feeds YY), then the y turn (feeds XX).
    for weight, layer in (
        (dz / (gamma * cost), LocalLayer.identity()),
        (dy / (gamma * cost), hom(qt("X"))),
        (dx / (gamma * cost), hom(qt("Y"))),
    ):
        if weight > 0.0:
            steps.append((weight, layer))
    return ControlSequence(tuple(steps)), cost


def _z_to_axis(axis: str, sign: int) -> SingleQubitUnitary:
    """A unitary with u Z u^dag = sign * sigma_axis (sign flips on Z use iX)."""
    qt = SingleQubitUnitary.quarter_turn
    table = {
        ("X", +1): lambda: qt("Y"),
        ("X", -1): lambda: qt("Y", inverse=True),
        ("Y", +1): lambda: qt("X", inverse=True),
        ("Y", -1): lambda: qt("X"),
        ("Z", +1): SingleQubitUnitary.identity,
        ("Z", -1): lambda: SingleQubitUnitary.pauli_flip("X"),
    }
    return table[(axis, sign)]()


def synthesize_diagonal_signed(target: CoeffMatrix, gamma: float) -> tuple[ControlSequence, float]:
    """Per-qubit (inhomogeneous) sequence for a diagonal target of any signs.

    Each axis is fed by one step whose two sites are rotated independently so
    that Z maps to +axis on one site and to (sign) * axis on the other. Cost
    is the singular-value optimum sum(|d_i|)/|gamma|.
    """
    if not target.is_diagonal(1e-12):
        raise UnsupportedInteractionError("diagonal target required")
    diag = [float(target.m[i, i]) for i in range(3)]
    cost = sum(abs(d) for d in diag) / abs(gamma)
    if cost == 0.0:
        return protocol_library("identity"), 0.0
    steps = []
    for axis, d in zip("XYZ", diag):
        if d == 0.0:
            continue
        weight = abs(d) / (abs(gamma) * cost)
        sign = 1 if d * gamma > 0 else -1
        u0 = _z_to_axis(axis, +1)
        u1 = _z_to_axis(axis, sign)
        steps.append((weight, LocalLayer.inhomogeneous([u0, u1])))
    return ControlSequence(tuple(steps)), cost


def _antisym_zy_component(m: CoeffMatrix) -> float | None:
    """J when M = J*(E_zy - E_yz) within 1e-12, else None."""
    mat = m.m
    j = mat[2, 1]
    pattern = np.zeros((3, 3))
    pattern[2, 1] = j
    pattern[1, 2] = -j
    if np.max(np.abs(mat - pattern)) <= 1e-12 * max(1.0, abs(j)):
        return float(j)
    return None


def compile_pair_interaction(
    m: CoeffMatrix, gamma: float, homogeneous_only: bool
) -> tuple[ControlSequence, float]:
    """Sequence + cost for one two-qubit interaction matrix.

    Supported targets: diagonal M (sign-matched for homogeneous control, any
    signs otherwise) and the antisymmetric ZY - YZ pattern (per-qubit control
    only). General dense M synthesis is out of scope.
    """
    if m.is_diagonal(1e-12):
        try:
            return synthesize_diagonal(m, gamma)
        except InfeasibleTargetError:
            if homogeneous_only:
                raise
            return synthesize_diagonal_signed(m, gamma)
    j = _antisym_zy_component(m)
    if j is not None and j != 0.0:
        if homogeneous_only:
            raise InfeasibleTargetError(
                "antisymmetric interaction requires per-qubit control "
                "(homogeneous layers only produce exchange-symmetric targets)"
            )
        cost = 2.0 * abs(j) / abs(gamma)
        if j * gamma > 0:
            return protocol_library("antisym2"), cost
        qt = SingleQubitUnitary.quarter_turn
        ident = SingleQubitUnitary.identity()
        mirrored = ControlSequence((
            (0.5, LocalLayer.inhomogeneous([qt("X", inverse=True), ident])),
            (0.5, LocalLayer.inhomogeneous([ident, qt("X")])),
        ))
        return mirrored, cost
    if m.is_symmetric(1e-10):
        raise UnsupportedInteractionError(
            "general symmetric interaction synthesis is not implemented; "
            "only diagonal targets are supported"
        )
    raise UnsupportedInteractionError(
        "interaction matrix outside the supported library (diagonal or ZY-YZ)"
    )


@record(frozen=True)
class CostReport:
    """Resource accounting of one compiled schedule.

    c = T/T' is the time overhead; L cycles of physical length step_t realize
    the run, with L = ceil(c^2 T'^2 / eps) so the first-order error stays
    inside the budget; chi = n*L/T counts control operations per unit of
    physical time.
    """

    time_cost: float
    n_controls: int
    num_gates: int
    step_t: float
    chi: float
    epsilon: float
    t_prime: float
    total_time: float

    def as_dict(self) -> dict:
        return {
            "c": self.time_cost,
            "n": self.n_controls,
            "L": self.num_gates,
            "step_t": self.step_t,
            "chi": self.chi,
            "epsilon": self.epsilon,
            "t_prime": self.t_prime,
            "T": self.total_time,
        }

    def to_text(self) -> str:
        return "".join(f"{k}={v!r}\n" for k, v in self.as_dict().items())


# ---------------------------------------------------------------------------
# Cycle plans and Trotter scheduling
# ---------------------------------------------------------------------------

@record(frozen=True)
class RawGateSpec:
    """One hardware gate inside a cycle: angle per unit simulated time."""

    gate_id: str
    targets: tuple[tuple[int, int, float], ...]
    unit_angle: float


@record(frozen=True)
class PlannedFamily:
    """A group of raw gates driven inside one control-sequence wrap."""

    gates: tuple[RawGateSpec, ...]
    sequence: ControlSequence
    cost: float  # raw-interaction time per unit simulated time


@record(frozen=True)
class CyclePlan:
    """Everything needed to emit one Trotter cycle for any simulated dt."""

    n_qubits: int
    families: tuple[PlannedFamily, ...]
    local_fields: tuple[tuple[float, float, float], ...] | None  # per-site (bx, by, bz)
    homogeneous_locals: bool = True

    @property
    def time_cost(self) -> float:
        return sum(f.cost for f in self.families)

    @cached_property
    def field_axes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-site field norm |b_q| and unit axis b_q/|b_q| (axis z where
        b = 0), read-only and computed once per plan; None without fields."""
        if self.local_fields is None:
            return None
        norms = np.array([math.sqrt(bx * bx + by * by + bz * bz)
                          for bx, by, bz in self.local_fields])
        axes = np.array([
            (bx / nm, by / nm, bz / nm) if nm > 0 else (0.0, 0.0, 1.0)
            for (bx, by, bz), nm in zip(self.local_fields, norms)
        ])
        norms.flags.writeable = axes.flags.writeable = False
        return norms, axes

    def max_unit_angle(self) -> float:
        """Largest |theta|*weight of any emitted gate per unit simulated time."""
        out = 0.0
        for fam in self.families:
            for p, _ in fam.sequence.steps:
                for g in fam.gates:
                    wmax = max((abs(w) for _, _, w in g.targets), default=0.0)
                    out = max(out, abs(p * g.unit_angle) * wmax)
        return out


# A site whose field rotation |b|*dt is below this stays at the identity.
FIELD_ANGLE_FLOOR = 1e-300


def field_angles(plan: CyclePlan, dt: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-site angle and unit axis of the local-field layer for time dt, or
    None when a cycle has no such layer.

    Site q rotates by |b_q|*dt about b_q/|b_q| (axis z where b = 0); a site
    below FIELD_ANGLE_FLOOR gets angle 0, and with every site below it there
    is no layer. A homogeneous plan applies site 0's rotation everywhere.
    """
    if plan.field_axes is None:
        return None
    norms, axes = plan.field_axes
    live = norms * abs(dt) >= FIELD_ANGLE_FLOOR
    if not live.any():
        return None
    theta = np.where(live, norms * dt, 0.0)
    if plan.homogeneous_locals:
        theta = np.full(plan.n_qubits, theta[0])
        axes = np.broadcast_to(axes[0], axes.shape)
    return theta, axes


def _local_layer_for(plan: CyclePlan, dt: float) -> ApplyLocal | None:
    angles = field_angles(plan, dt)
    if angles is None:
        return None
    units = [SingleQubitUnitary.rot(axis, theta) for theta, axis in zip(*angles)]
    if plan.homogeneous_locals:
        return ApplyLocal(LocalLayer.homogeneous(units[0]))
    return ApplyLocal(LocalLayer.inhomogeneous(units))


def cycle_body(plan: CyclePlan, dt: float) -> list[Instruction]:
    """One cycle for time dt without its local-field layer, in emission order.

    Each family emits its opening control layer, then per sequence step its
    gates at angle p * unit_angle * dt followed by the merged bridge to the
    next step; identity control layers are dropped. Gates of angle zero are
    kept (emit_cycle drops them after scaling).
    """
    out: list[Instruction] = []
    for fam in plan.families:
        steps = fam.sequence.steps
        opening = steps[0][1].dagger()
        if not opening.is_identity():
            out.append(ApplyLocal(opening))
        for i, (p, layer) in enumerate(steps):
            out.extend(RawGate(g.gate_id, p * g.unit_angle * dt, g.targets) for g in fam.gates)
            if i + 1 < len(steps):
                bridge = steps[i + 1][1].dagger().compose(layer)
            else:
                bridge = layer
            if not bridge.is_identity():
                out.append(ApplyLocal(bridge))
    return out


def emit_cycle(plan: CyclePlan, dt: float, scale: float = 1.0) -> list[Instruction]:
    """Instructions of one Trotter cycle simulating `scale * H` for time dt.

    The local-field layer for time dt * scale comes first, then
    cycle_body(plan, dt) with every gate angle times `scale`; adjacent local
    layers inside a wrap are merged, so an n-step sequence emits n local
    layers per cycle. Gates whose angle is exactly zero are left out.
    """
    if scale == 0.0 or dt == 0.0:
        return []
    local = _local_layer_for(plan, dt * scale)
    out: list[Instruction] = [local] if local is not None else []
    for ins in cycle_body(plan, dt):
        if isinstance(ins, ApplyLocal):
            out.append(ins)
        elif ins.theta * scale != 0.0:
            out.append(RawGate(ins.gate_id, ins.theta * scale, ins.targets))
    return out


def split_target(target: Hamiltonian):
    """Split into per-site field vectors and per-pair coefficient matrices."""
    fields = [[0.0, 0.0, 0.0] for _ in range(target.n_qubits)]
    pairs: dict[tuple[int, int], np.ndarray] = {}
    for term in target.terms:
        sites = term.sites()
        if len(sites) == 0:
            raise CompileError("constant (identity) terms are not representable")
        if len(sites) == 1:
            q = sites[0]
            fields[q]["XYZ".index(term.ops[q])] = term.coeff
        elif len(sites) == 2:
            a, b = sites
            m = pairs.setdefault((a, b), np.zeros((3, 3)))
            m["XYZ".index(term.ops[a]), "XYZ".index(term.ops[b])] = term.coeff
        else:
            raise CompileError(
                f"term {term.ops} involves {len(sites)} qubits; only 1- and 2-qubit "
                "terms are schedulable (see the commutator gate for 3-body terms)"
            )
    any_field = any(any(v != 0.0 for v in f) for f in fields)
    return (tuple(tuple(f) for f in fields) if any_field else None), pairs


def plan_for_hamiltonian(target: Hamiltonian, hw) -> CyclePlan:
    """Build a cycle plan for a 1-/2-qubit-term target on hardware with as
    many sites as the target has qubits."""
    from . import hardware as hwmod

    if isinstance(hw, hwmod.LatticeModel):
        planner, size = _plan_uqs1, hw.n_sites
    elif isinstance(hw, hwmod.TrapArrayModel):
        planner, size = _plan_uqs2, hw.n_ions
    else:
        raise CompileError(f"unknown hardware model {type(hw).__name__}")
    if target.n_qubits != size:
        raise HardwareConstraintError(
            f"the target acts on {target.n_qubits} qubits, the hardware has {size} sites")
    return planner(target.n_qubits, *split_target(target), hw)


def _plan_uqs1(n_qubits, fields, pairs, hw) -> CyclePlan:
    """One displacement gate per translation class. Classes whose control
    sequences are equal share one wrap, in class order: every gate is
    diagonal ZZ, so the average Hamiltonian is the same."""
    from . import hardware as hwmod

    if fields is not None:
        first = fields[0]
        if any(f != first for f in fields):
            raise HardwareConstraintError(
                "site-dependent local terms require single qubit addressability"
            )
    classes = hwmod.displacement_classes(hw)
    remaining = dict(pairs)
    families: list[PlannedFamily] = []
    for disp, class_pairs in classes:
        keys = [(a, b) for a, b, _ in class_pairs]
        missing = [k for k in keys if k not in remaining]
        if len(missing) == len(keys):
            continue
        if missing:
            raise HardwareConstraintError(
                f"translation class {disp} is incomplete (missing pairs {missing}); "
                "non-translation-invariant targets require single qubit addressability"
            )
        # Per-pair interaction must be the class multiplicity times a common
        # unit matrix (multiplicity > 1 only for periodic wrap-around classes).
        unit_m = remaining[keys[0]] / class_pairs[0][2]
        for (a, b, mult) in class_pairs[1:]:
            if not np.allclose(remaining[(a, b)] / mult, unit_m, atol=1e-14, rtol=0.0):
                raise HardwareConstraintError(
                    f"pairs in translation class {disp} carry different interactions; "
                    "requires single qubit addressability"
                )
        seq, cost = compile_pair_interaction(CoeffMatrix(unit_m), hw.gamma, homogeneous_only=True)
        gate = RawGateSpec(
            gate_id=hwmod.displacement_gate_id(disp),
            targets=tuple((a, b, float(mult)) for a, b, mult in class_pairs),
            unit_angle=hw.gamma * cost,
        )
        for i, fam in enumerate(families):
            if fam.sequence == seq:
                families[i] = PlannedFamily(fam.gates + (gate,), fam.sequence, fam.cost + cost)
                break
        else:
            families.append(PlannedFamily((gate,), seq, cost))
        for k in keys:
            del remaining[k]
    if remaining:
        raise HardwareConstraintError(
            f"pairs {sorted(remaining)} are not lattice displacement classes "
            f"(available j: {sorted(hw.available_j)})"
        )
    return CyclePlan(n_qubits, tuple(families), fields, homogeneous_locals=True)


def _embed_pair_sequence(seq: ControlSequence, a: int, b: int, n: int) -> ControlSequence:
    """Lift a two-qubit pair sequence onto qubits (a, b) of an n-qubit array."""
    if n == 2 and (a, b) == (0, 1):
        return seq
    ident = SingleQubitUnitary.identity()
    steps = []
    for p, layer in seq.steps:
        units = [ident] * n
        units[a] = layer.unitary_at(0)
        units[b] = layer.unitary_at(1)
        steps.append((p, LocalLayer.inhomogeneous(units)))
    return ControlSequence(tuple(steps))


def _global_push(n_qubits, pairs, hw) -> PlannedFamily | None:
    """One push of all ions, weighted by the 1/d^3 law, when the target
    couples every pair of at least 3 ions by one unit matrix times the pair's
    inv_cube_distance (to 1e-14) that homogeneous control realizes; else None."""
    if n_qubits < 3 or len(pairs) != n_qubits * (n_qubits - 1) // 2:
        return None
    weights = {k: hw.inv_cube_distance(*k) for k in sorted(pairs)}
    unit_m = pairs[(0, 1)] / weights[(0, 1)]
    if not all(np.allclose(pairs[k] / w, unit_m, atol=1e-14, rtol=0.0) for k, w in weights.items()):
        return None
    try:
        seq, cost = compile_pair_interaction(CoeffMatrix(unit_m), hw.gamma, homogeneous_only=True)
    except (InfeasibleTargetError, UnsupportedInteractionError):
        return None
    targets = tuple((a, b, w) for (a, b), w in weights.items())
    return PlannedFamily((RawGateSpec("push:all", targets, hw.gamma * cost),), seq, cost)


def _plan_uqs2(n_qubits, fields, pairs, hw) -> CyclePlan:
    """One push of all ions when the target follows the 1/d^3 law (see
    _global_push); otherwise one push and one per-qubit wrap per pair."""
    push = _global_push(n_qubits, pairs, hw)
    if push is not None:
        return CyclePlan(n_qubits, (push,), fields, homogeneous_locals=False)
    families = []
    for (a, b), m in sorted(pairs.items()):
        gamma_ab = hw.gamma * hw.inv_cube_distance(a, b)
        seq, cost = compile_pair_interaction(CoeffMatrix(m), gamma_ab, homogeneous_only=False)
        gate = RawGateSpec(f"push:{a}-{b}", ((a, b, 1.0),), gamma_ab * cost)
        families.append(PlannedFamily((gate,), _embed_pair_sequence(seq, a, b, n_qubits), cost))
    return CyclePlan(n_qubits, tuple(families), fields, homogeneous_locals=False)


def check_budget(t_prime: float, epsilon: float) -> None:
    """A CompileError naming t_prime or epsilon unless t_prime >= 0 and epsilon > 0."""
    if t_prime < 0:
        raise CompileError(f"t_prime must be at least 0, got {t_prime!r}")
    if epsilon <= 0:
        raise CompileError(f"epsilon must be positive, got {epsilon!r}")


def trotter_cycles(time_cost: float, t_prime: float, epsilon: float) -> int:
    """The Trotter cycle count L = ceil(c^2 t'^2 / eps), at least 1.

    The fewest identical cycles that keep the first-order error of
    simulating time t' at time cost c inside the budget eps. A guard of 1e-9
    keeps float fuzz from pushing an exact integer over the next ceiling.
    """
    check_budget(t_prime, epsilon)
    ratio = time_cost * time_cost * t_prime * t_prime / epsilon
    if not math.isfinite(ratio):
        raise CompileError(f"L = c^2 t'^2 / eps is {ratio} at eps={epsilon!r}")
    return max(1, math.ceil(ratio - 1e-9))


def cost_report(time_cost: float, n_controls: int, num_cycles: int,
                t_prime: float, epsilon: float) -> CostReport:
    """Report of L = num_cycles cycles of n local layers each: T = c*t',
    step_t = T/L and chi = n*L/T (0 when T is 0); all zero without cycles."""
    if num_cycles == 0:
        return CostReport(time_cost, 0, 0, 0.0, 0.0, epsilon, t_prime, 0.0)
    total = time_cost * t_prime
    chi = n_controls * num_cycles / total if total > 0 else 0.0
    return CostReport(time_cost, n_controls, num_cycles, total / num_cycles, chi, epsilon, t_prime, total)


def trotter_schedule(
    target: Hamiltonian,
    t_prime: float,
    epsilon: float,
    hw,
    *,
    num_cycles: int | None = None,
) -> tuple[PulseSchedule, CostReport]:
    """Compile `target` for simulated time t_prime within error budget epsilon.

    Emits L identical Trotter cycles with L = ceil(c^2 t'^2 / eps) (or the
    explicit `num_cycles`); each cycle realizes every two-qubit term through
    its control sequence around the raw hardware gate and every one-qubit
    term as a local layer. More than MAX_INSTRUCTIONS instructions raise
    CompileError.
    """
    check_budget(t_prime, epsilon)
    plan = plan_for_hamiltonian(target, hw)
    c = plan.time_cost
    if num_cycles is not None:
        num = int(num_cycles)
    elif (plan.families or plan.local_fields) and t_prime > 0:
        num = trotter_cycles(c, t_prime, epsilon)
    else:
        num = 0
    if num > MAX_INSTRUCTIONS:  # before emit_cycle divides by it
        raise CompileError(f"L={num:.4g} cycles are over MAX_INSTRUCTIONS={MAX_INSTRUCTIONS}")
    cycle = emit_cycle(plan, t_prime / num) if num else []
    if num * len(cycle) > MAX_INSTRUCTIONS:
        raise CompileError(f"L={num} cycles of {len(cycle)} instructions are over "
                           f"MAX_INSTRUCTIONS={MAX_INSTRUCTIONS}")
    n_controls = sum(1 for ins in cycle if isinstance(ins, ApplyLocal))
    report = cost_report(c, n_controls, num, t_prime, epsilon)
    return PulseSchedule(target.n_qubits, tuple(cycle) * num, report, len(cycle), num), report


# ---------------------------------------------------------------------------
# Commutator (three-body) gate and decoupling echo
# ---------------------------------------------------------------------------

@record(frozen=True)
class ThreeBodyGate:
    """Four-segment commutator gate; segments are (generator, angle), applied
    first to last as exp(-i*h*angle)."""

    segments: tuple[tuple[Hamiltonian, float], ...]
    generator: Hamiltonian
    effective_time: float


def three_body_gate(h1: Hamiltonian, h2: Hamiltonian, theta: float) -> ThreeBodyGate:
    """Concatenate four short two-body gates whose net effect is the
    commutator generator -i[h1, h2] for effective time theta^2 (plus an
    O(theta^3) remainder).

    Segments execute first to last: exp(-i h1 t), exp(-i h2 t), then their
    inverses; the composite is expm([H1, H2] * theta^2) + O(theta^3), i.e.
    expm(i * generator * theta^2).
    """
    if h1.n_qubits != h2.n_qubits:
        raise CompileError("size mismatch")
    for h in (h1, h2):
        if any(t.weight > 2 for t in h.terms):
            raise CompileError("commutator gate inputs must be two-body Hamiltonians")
    segments = (
        (h1, theta),
        (h2, theta),
        (h1, -theta),
        (h2, -theta),
    )
    return ThreeBodyGate(segments, commutator_generator(h1, h2), theta * theta)


@record(frozen=True)
class EchoSequence:
    """Gate, homogeneous pi flip, gate, inverse flip: cancels single-qubit Z
    phases of the raw generator exactly while doubling its ZZ part."""

    raw: Hamiltonian
    theta: float
    flip: LocalLayer
    zz_part: Hamiltonian

    @property
    def segments(self):
        return (
            ("evolve", self.raw, self.theta),
            ("layer", self.flip.dagger()),
            ("evolve", self.raw, self.theta),
            ("layer", self.flip),
        )

    def to_schedule(self) -> PulseSchedule:
        """Expand into engine instructions (ZZ gates + diagonal local layers)."""
        n = self.raw.n_qubits
        instructions: list[Instruction] = []
        for kind, *payload in self.segments:
            if kind == "layer":
                instructions.append(ApplyLocal(payload[0]))
                continue
            h, theta = payload
            z_fields = [0.0] * n
            zz_targets = []
            for t in h.terms:
                sites = t.sites()
                if len(sites) == 1:
                    z_fields[sites[0]] += t.coeff
                else:
                    zz_targets.append((sites[0], sites[1], t.coeff))
            if zz_targets:
                instructions.append(RawGate("echo-zz", theta, tuple(zz_targets)))
            if any(z_fields):
                units = [SingleQubitUnitary.rot((0.0, 0.0, 1.0), g * theta) for g in z_fields]
                instructions.append(ApplyLocal(LocalLayer.inhomogeneous(units)))
        return PulseSchedule(n, tuple(instructions))


def decoupling_echo(raw: Hamiltonian, theta: float) -> EchoSequence:
    """Echo sequence for a raw generator of Z and ZZ terms only.

    The composite unitary equals exp(-i * 2*theta * sum gamma_ab Z_a Z_b)
    exactly (all generators commute and the flip negates every single Z).
    """
    zz_terms = []
    for t in raw.terms:
        chars = set(t.ops) - {"I"}
        if chars - {"Z"}:
            raise CompileError(f"echo guarantee void: term {t.ops} is not Z/ZZ")
        if t.weight == 2:
            zz_terms.append(t)
        elif t.weight > 2:
            raise CompileError(f"echo raw generator must be at most two-body, got {t.ops}")
    flip = LocalLayer.homogeneous(SingleQubitUnitary.pauli_flip("X"))
    return EchoSequence(raw, theta, flip, Hamiltonian(raw.n_qubits, tuple(zz_terms)))
