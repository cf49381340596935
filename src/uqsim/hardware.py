"""The two physical platforms as gate generators and constraint sets.

UQS1: neutral atoms in a double optical lattice. Displacing one lattice by j
periods makes every atom interact with its j-th neighbor, so the raw gates
are translation-invariant ZZ classes and all local control is homogeneous.

UQS2: ions in an array of microtraps. A state-dependent push force acts on a
chosen set of ions; every pushed pair picks up a ZZ phase falling off as the
cube of its distance, which both enables a native long-range gate and sets
the crosstalk law for parallel scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .compiler import (
    ApplyLocal,
    HardwareConstraintError,
    PulseSchedule,
    RawGate,
)
from .pauli import Hamiltonian


class HardwareError(Exception):
    """Invalid hardware description or unsolvable addressing problem."""


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _check_gamma(gamma: float):
    if not (math.isfinite(gamma) and gamma != 0.0):
        raise HardwareError(f"gamma must be finite and nonzero, got {gamma}")


@dataclass(frozen=True)
class LatticeModel:
    """Optical-lattice platform: homogeneous control, displacement gates."""

    n_sites: int
    dims: int = 1
    shape: tuple[int, ...] | None = None
    boundary: str = "open"
    available_j: frozenset[int] = field(default_factory=frozenset)
    gamma: float = 1.0

    def __post_init__(self):
        _check_gamma(self.gamma)
        if self.n_sites < 2:
            raise HardwareError("need at least 2 sites")
        if self.dims not in (1, 2):
            raise HardwareError("dims must be 1 or 2")
        if self.boundary not in ("open", "periodic"):
            raise HardwareError(f"unknown boundary {self.boundary!r}")
        shape = self.shape
        if shape is None:
            if self.dims != 1:
                raise HardwareError("2D lattice needs an explicit shape")
            shape = (self.n_sites,)
        if int(np.prod(shape)) != self.n_sites or len(shape) != self.dims:
            raise HardwareError(f"shape {shape} does not match n_sites={self.n_sites}")
        object.__setattr__(self, "shape", tuple(shape))
        js = frozenset(int(j) for j in self.available_j) or frozenset(
            range(1, max(self.shape))
        )
        for j in js:
            if j < 1 or j >= max(self.shape):
                raise HardwareError(f"displacement j={j} outside 1..{max(self.shape) - 1}")
        object.__setattr__(self, "available_j", js)

    def site_index(self, *coords: int) -> int:
        if self.dims == 1:
            return coords[0]
        return coords[0] * self.shape[1] + coords[1]


@dataclass(frozen=True)
class TrapArrayModel:
    """Microtrap platform: per-qubit control, pair pushes, 1/d^3 crosstalk."""

    positions: tuple[tuple[float, ...], ...]
    kappa: float = 1.0
    crosstalk_threshold: float = 1e-3
    gamma: float = 1.0

    def __post_init__(self):
        _check_gamma(self.gamma)
        pos = tuple(
            (float(p),) if np.isscalar(p) else tuple(float(x) for x in p)
            for p in self.positions
        )
        if len(pos) < 2:
            raise HardwareError("need at least 2 traps")
        ndim = len(pos[0])
        if any(len(p) != ndim for p in pos):
            raise HardwareError("positions must share dimensionality")
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                d = math.dist(pos[a], pos[b])
                if d < 1.0 - 1e-12:
                    raise HardwareError(
                        f"traps {a} and {b} are {d} apart; separations must be >= 1"
                    )
        object.__setattr__(self, "positions", pos)

    @property
    def n_ions(self) -> int:
        return len(self.positions)

    def distance(self, a: int, b: int) -> float:
        return math.dist(self.positions[a], self.positions[b])

    def inv_cube_distance(self, a: int, b: int) -> float:
        d = self.distance(a, b)
        return 1.0 / (d * d * d)


@dataclass(frozen=True)
class PulseProfile:
    """Sampled push-force envelope f(t) in [0, 1], zero at both ends."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise HardwareError("profile needs at least 2 samples")
        if np.min(s) < -1e-12 or np.max(s) > 1.0 + 1e-12:
            raise HardwareError("profile values must lie in [0, 1]")
        if abs(s[0]) > 1e-12 or abs(s[-1]) > 1e-12:
            raise HardwareError("profile must start and end at 0 (push and return)")
        if self.dt <= 0:
            raise HardwareError("dt must be positive")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


# ---------------------------------------------------------------------------
# UQS1 displacement gates
# ---------------------------------------------------------------------------

def _normalize_displacement(model: LatticeModel, displacement) -> tuple[int, ...]:
    if isinstance(displacement, int):
        disp = (displacement,) if model.dims == 1 else None
        if disp is None:
            raise HardwareError("2D lattice needs a displacement vector")
    else:
        disp = tuple(int(x) for x in displacement)
    if len(disp) != model.dims:
        raise HardwareError(f"displacement {disp} has wrong dimensionality")
    mags = {abs(x) for x in disp if x != 0}
    if not mags:
        raise HardwareError("zero displacement")
    if len(mags) > 1:
        raise HardwareError(f"displacement {disp} mixes magnitudes")
    j = mags.pop()
    if j not in model.available_j:
        raise HardwareError(f"displacement distance {j} unavailable (have {sorted(model.available_j)})")
    return disp


def displacement_gate_id(disp: tuple[int, ...]) -> str:
    return "uqs1:" + ",".join(str(x) for x in disp)


def _class_pairs(model: LatticeModel, disp: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Distinct unordered pairs (a, b, multiplicity) reached by a displacement."""
    counts: dict[tuple[int, int], int] = {}
    if model.dims == 1:
        (j,) = disp
        rng = range(model.n_sites) if model.boundary == "periodic" else range(model.n_sites - j)
        for a in rng:
            b = (a + j) % model.n_sites
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    else:
        rows, cols = model.shape
        dr, dc = disp
        for r in range(rows):
            for c in range(cols):
                r2, c2 = r + dr, c + dc
                if model.boundary == "periodic":
                    r2 %= rows
                    c2 %= cols
                elif not (0 <= r2 < rows and 0 <= c2 < cols):
                    continue
                a, b = model.site_index(r, c), model.site_index(r2, c2)
                if a == b:
                    continue
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
    return tuple((a, b, m) for (a, b), m in sorted(counts.items()))


def displacement_classes(model: LatticeModel):
    """All (displacement, pairs-with-multiplicity) classes the model offers."""
    out = []
    if model.dims == 1:
        disps = [(j,) for j in sorted(model.available_j)]
    else:
        disps = []
        for j in sorted(model.available_j):
            disps.extend([(0, j), (j, 0), (j, j), (j, -j)])
    for disp in disps:
        pairs = _class_pairs(model, disp)
        if pairs:
            out.append((disp, pairs))
    return out


def uqs1_gate(model: LatticeModel, displacement, theta: float) -> tuple[Hamiltonian, RawGate]:
    """Generator and instruction for one lattice-displacement gate.

    The generator is sum_a Z_a Z_(a+disp); open boundaries truncate the sum,
    periodic ones wrap. The instruction realizes exp(-i * theta * generator).
    """
    disp = _normalize_displacement(model, displacement)
    pairs = _class_pairs(model, disp)
    if not pairs:
        raise HardwareError(f"displacement {disp} reaches no pairs on this lattice")
    terms = []
    for a, b, mult in pairs:
        ops = ["I"] * model.n_sites
        ops[a] = "Z"
        ops[b] = "Z"
        terms.append((float(mult), "".join(ops)))
    generator = Hamiltonian.from_terms(model.n_sites, terms)
    gate = RawGate(
        displacement_gate_id(disp),
        theta,
        tuple((a, b, float(mult)) for a, b, mult in pairs),
    )
    return generator, gate


# ---------------------------------------------------------------------------
# UQS2 pushes
# ---------------------------------------------------------------------------

def uqs2_push(model: TrapArrayModel, pushed: Iterable[int], theta_base: float) -> Hamiltonian:
    """Generator of a simultaneous push: theta_base * sum_{a<b} d_ab^-3 Z_a Z_b.

    Every pair of pushed ions couples -- crosstalk is physical, not optional.
    """
    ions = sorted(set(int(i) for i in pushed))
    if len(ions) < 2:
        raise HardwareError("need at least 2 pushed ions")
    for i in ions:
        if not (0 <= i < model.n_ions):
            raise HardwareError(f"ion index {i} out of range")
    terms = []
    for ia, a in enumerate(ions):
        for b in ions[ia + 1 :]:
            ops = ["I"] * model.n_ions
            ops[a] = "Z"
            ops[b] = "Z"
            terms.append((theta_base * model.inv_cube_distance(a, b), "".join(ops)))
    return Hamiltonian.from_terms(model.n_ions, terms)


def push_gate(model: TrapArrayModel, pushed: Iterable[int], theta_base: float) -> RawGate:
    """Instruction form of :func:`uqs2_push` (weights carry the 1/d^3 law)."""
    ions = sorted(set(int(i) for i in pushed))
    if len(ions) < 2:
        raise HardwareError("need at least 2 pushed ions")
    targets = []
    for ia, a in enumerate(ions):
        for b in ions[ia + 1 :]:
            targets.append((a, b, model.inv_cube_distance(a, b)))
    return RawGate("push:" + ",".join(str(i) for i in ions), theta_base, tuple(targets))


def theta_from_pulse(
    fa: PulseProfile, fb: PulseProfile, model: TrapArrayModel, dist: float
) -> float:
    """ZZ phase from two push envelopes: -kappa * d^-3 * integral fA*fB dt."""
    if fa.samples.size != fb.samples.size or fa.dt != fb.dt:
        raise HardwareError("pulse profiles must share sample count and dt")
    if dist <= 0:
        raise HardwareError("distance must be positive")
    overlap = float(np.trapezoid(fa.samples * fb.samples, dx=fa.dt))
    return -model.kappa * overlap / (dist * dist * dist)


# ---------------------------------------------------------------------------
# Crosstalk-aware scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosstalkReport:
    ratios: tuple[tuple[int, int, float], ...]  # (group_i, group_j, parasitic/intended)
    max_ratio: float
    threshold: float
    concurrent: bool


def crosstalk_report(model: TrapArrayModel, pair_groups: Sequence[Iterable[int]]) -> CrosstalkReport:
    """Strongest parasitic-to-intended coupling ratio for each pair of groups.

    A set of simultaneously pushed groups is scheduled concurrently only when
    every cross-group ratio stays below the model threshold.
    """
    groups = [sorted(set(int(i) for i in g)) for g in pair_groups]
    seen: set[int] = set()
    for g in groups:
        if len(g) < 2:
            raise HardwareError("each pushed group needs at least 2 ions")
        overlap = seen.intersection(g)
        if overlap:
            raise HardwareError(f"groups overlap on ions {sorted(overlap)}")
        seen.update(g)
    ratios = []
    max_ratio = 0.0
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            intended = min(
                model.inv_cube_distance(a, b)
                for grp in (groups[gi], groups[gj])
                for ia, a in enumerate(grp)
                for b in grp[ia + 1 :]
            )
            parasitic = max(
                model.inv_cube_distance(a, b) for a in groups[gi] for b in groups[gj]
            )
            ratio = parasitic / intended
            ratios.append((gi, gj, ratio))
            max_ratio = max(max_ratio, ratio)
    concurrent = max_ratio < model.crosstalk_threshold
    return CrosstalkReport(tuple(ratios), max_ratio, model.crosstalk_threshold, concurrent)


# ---------------------------------------------------------------------------
# Lattice-geometry remapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemapResult:
    pairs: tuple[tuple[int, int], ...]
    families: dict


def geometry_remap(pattern: str, base: LatticeModel) -> RemapResult:
    """Nearest-neighbor pair list of a triangular/hexagonal pattern on a
    rectangular array (rows, columns, and for triangular one diagonal family)."""
    if base.dims != 2:
        raise HardwareError("geometry remap needs a 2D base lattice")
    if base.boundary != "open":
        raise HardwareError("geometry remap is defined for open boundaries")
    rows, cols = base.shape
    idx = base.site_index
    row_pairs = [(idx(r, c), idx(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    col_pairs = [(idx(r, c), idx(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    if pattern == "rectangular":
        families = {"row": tuple(row_pairs), "col": tuple(col_pairs)}
    elif pattern == "triangular":
        diag = [(idx(r, c), idx(r + 1, c + 1)) for r in range(rows - 1) for c in range(cols - 1)]
        families = {"row": tuple(row_pairs), "col": tuple(col_pairs), "diag": tuple(diag)}
    elif pattern == "hexagonal":
        rungs = [
            (idx(r, c), idx(r + 1, c))
            for r in range(rows - 1)
            for c in range(cols)
            if (r + c) % 2 == 0
        ]
        families = {"row": tuple(row_pairs), "col": tuple(rungs)}
    else:
        raise HardwareError(f"unknown pattern {pattern!r}")
    pairs = tuple(p for fam in families.values() for p in fam)
    return RemapResult(pairs, families)


# ---------------------------------------------------------------------------
# Beam compensation (focused-beam addressability)
# ---------------------------------------------------------------------------

def gaussian_beam(width: float) -> Callable[[float], float]:
    return lambda r: math.exp(-(r * r) / (2.0 * width * width))


@dataclass(frozen=True)
class BeamSolution:
    durations: np.ndarray
    condition_number: float
    residual: float
    has_negative: bool


def beam_compensation(
    positions: Sequence,
    f: Callable[[float], float],
    target: int,
    tau: float,
    nu0: float = 1.0,
) -> BeamSolution:
    """Per-beam durations so overlapping beams rotate only atom `target`.

    Solves A t = tau*e_target with A_jk = nu0 * f(|r_j - r_k|) * (-1)^(k==target);
    the sign convention means the target's own beam duration comes out
    negative (flagged, see `has_negative`).
    """
    pos = [(p,) if np.isscalar(p) else tuple(p) for p in positions]
    n = len(pos)
    if not (0 <= target < n):
        raise HardwareError("target index out of range")
    f0 = f(0.0)
    if abs(f0 - 1.0) > 1e-9:
        raise HardwareError(f"beam profile must have f(0)=1, got {f0}")
    dists = sorted({math.dist(pos[j], pos[k]) for j in range(n) for k in range(j + 1, n)})
    last = 1.0
    for d in dists:
        val = f(d)
        if val > last + 1e-12:
            raise HardwareError("beam profile must be monotone decreasing in distance")
        last = val
    a = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            a[j, k] = nu0 * f(math.dist(pos[j], pos[k]))
            if k == target:
                a[j, k] = -a[j, k]
    cond = float(np.linalg.cond(a))
    if not math.isfinite(cond) or cond > 1e12:
        raise HardwareError(
            f"beam-compensation system is singular or ill-conditioned (cond={cond:.3e}); "
            "atoms may be coincident or the beam too wide"
        )
    rhs = np.zeros(n)
    rhs[target] = tau
    t = np.linalg.solve(a, rhs)
    residual = float(np.linalg.norm(a @ t - rhs))
    return BeamSolution(t, cond, residual, bool(np.any(t < 0)))


def compensation_angles(solution: BeamSolution, positions, f, target, nu0=1.0) -> np.ndarray:
    """Reconstructed per-atom rotation angles from the solved durations."""
    pos = [(p,) if np.isscalar(p) else tuple(p) for p in positions]
    n = len(pos)
    out = np.zeros(n)
    for j in range(n):
        for k in range(n):
            sgn = -1.0 if k == target else 1.0
            out[j] += nu0 * solution.durations[k] * f(math.dist(pos[j], pos[k])) * sgn
    return out


# ---------------------------------------------------------------------------
# Schedule realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizedSchedule:
    """Hardware-level schedule plus concurrency groups of instruction indices."""

    schedule: PulseSchedule
    concurrent_groups: tuple[tuple[int, ...], ...]


def realize_schedule(abstract: PulseSchedule, hw, include_crosstalk: bool = False) -> RealizedSchedule:
    """Bind an abstract schedule to a hardware model.

    UQS1 requires homogeneous layers and complete translation classes and maps
    every gate to its displacement id. UQS2 greedily packs runs of adjacent
    pair gates into concurrent groups that pass the crosstalk check; with
    `include_crosstalk` the dropped parasitic couplings are appended as an
    explicit coherent-error gate per group.
    """
    if isinstance(hw, LatticeModel):
        return _realize_uqs1(abstract, hw)
    if isinstance(hw, TrapArrayModel):
        return _realize_uqs2(abstract, hw, include_crosstalk)
    raise HardwareError(f"unknown hardware model {type(hw).__name__}")


def _realize_uqs1(abstract: PulseSchedule, hw: LatticeModel) -> RealizedSchedule:
    class_index = {
        frozenset((a, b) for a, b, _ in pairs): disp
        for disp, pairs in displacement_classes(hw)
    }
    out = []
    for ins in abstract.instructions:
        if isinstance(ins, ApplyLocal):
            if not ins.layer.is_homogeneous:
                raise HardwareConstraintError(
                    "inhomogeneous layer on the lattice platform requires "
                    "single qubit addressability"
                )
            out.append(ins)
            continue
        key = frozenset((a, b) for a, b, _ in ins.targets)
        disp = class_index.get(key)
        if disp is None:
            raise HardwareConstraintError(
                f"gate targets {sorted(key)} do not form a realizable translation class"
            )
        out.append(RawGate(displacement_gate_id(disp), ins.theta, ins.targets))
    groups = tuple((i,) for i in range(len(out)))
    return RealizedSchedule(
        PulseSchedule(abstract.n_qubits, tuple(out), abstract.cost,
                      abstract.cycle_length, abstract.num_cycles),
        groups,
    )


def _gate_ions(gate: RawGate) -> tuple[int, ...]:
    return tuple(sorted({q for a, b, _ in gate.targets for q in (a, b)}))


def _realize_uqs2(abstract: PulseSchedule, hw: TrapArrayModel,
                  include_crosstalk: bool) -> RealizedSchedule:
    out: list = []
    groups: list[tuple[int, ...]] = []
    run: list[RawGate] = []

    def flush_run():
        if not run:
            return
        # Greedy packing: sort by leftmost ion, grow groups while every
        # cross-pair ratio stays under threshold.
        pending = sorted(run, key=lambda g: _gate_ions(g)[0])
        while pending:
            current = [pending.pop(0)]
            rest = []
            for g in pending:
                candidate = [_gate_ions(x) for x in current] + [_gate_ions(g)]
                try:
                    report = crosstalk_report(hw, candidate)
                except HardwareError:
                    rest.append(g)
                    continue
                if report.concurrent:
                    current.append(g)
                else:
                    rest.append(g)
            pending = rest
            start = len(out)
            out.extend(current)
            groups.append(tuple(range(start, len(out))))
            if include_crosstalk and len(current) > 1:
                parasitic = _parasitic_gate(current, hw)
                if parasitic is not None:
                    out.append(parasitic)
        run.clear()

    for ins in abstract.instructions:
        if isinstance(ins, RawGate):
            for a, b, _ in ins.targets:
                if not (0 <= a < hw.n_ions and 0 <= b < hw.n_ions):
                    raise HardwareConstraintError(f"gate touches ion outside the array: {(a, b)}")
            run.append(ins)
        else:
            flush_run()
            out.append(ins)
    flush_run()
    return RealizedSchedule(
        PulseSchedule(abstract.n_qubits, tuple(out), abstract.cost,
                      abstract.cycle_length, abstract.num_cycles),
        tuple(groups),
    )


# ---------------------------------------------------------------------------
# Hardware description files
# ---------------------------------------------------------------------------

def parse_hardware_text(text: str):
    """Parse the line-oriented hardware description format.

    Keys one per line (``platform uqs1|uqs2`` first), then for uqs1:
    sites/dims/shape/boundary/available_j/gamma; for uqs2: kappa, gamma,
    crosstalk_threshold, and a ``positions`` block with one coordinate line
    per ion.
    """
    fields: dict[str, str] = {}
    positions: list[tuple[float, ...]] = []
    in_positions = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_positions:
            try:
                positions.append(tuple(float(x) for x in line.split()))
                continue
            except ValueError as exc:
                raise HardwareError(f"line {lineno}: bad position {line!r}") from exc
        key, _, value = line.partition(" ")
        if key == "positions":
            in_positions = True
            continue
        fields[key] = value.strip()
    platform = fields.get("platform")
    if platform == "uqs1":
        try:
            n_sites = int(fields["sites"])
        except KeyError as exc:
            raise HardwareError("uqs1 description needs a 'sites' line") from exc
        dims = int(fields.get("dims", "1"))
        shape = None
        if "shape" in fields:
            shape = tuple(int(x) for x in fields["shape"].split())
        avail = fields.get("available_j", "all")
        if avail == "all":
            js: frozenset[int] = frozenset()
        else:
            js = frozenset(int(x) for x in avail.split())
        return LatticeModel(
            n_sites=n_sites,
            dims=dims,
            shape=shape,
            boundary=fields.get("boundary", "open"),
            available_j=js,
            gamma=float(fields.get("gamma", "1.0")),
        )
    if platform == "uqs2":
        if not positions:
            raise HardwareError("uqs2 description needs a 'positions' block")
        return TrapArrayModel(
            positions=tuple(positions),
            kappa=float(fields.get("kappa", "1.0")),
            crosstalk_threshold=float(fields.get("crosstalk_threshold", "1e-3")),
            gamma=float(fields.get("gamma", "1.0")),
        )
    raise HardwareError(f"unknown or missing platform {platform!r}")


def hardware_to_text(model) -> str:
    if isinstance(model, LatticeModel):
        lines = [
            "platform uqs1",
            f"sites {model.n_sites}",
            f"dims {model.dims}",
            f"shape {' '.join(str(s) for s in model.shape)}",
            f"boundary {model.boundary}",
            f"available_j {' '.join(str(j) for j in sorted(model.available_j))}",
            f"gamma {model.gamma!r}",
        ]
        return "\n".join(lines) + "\n"
    if isinstance(model, TrapArrayModel):
        lines = [
            "platform uqs2",
            f"kappa {model.kappa!r}",
            f"gamma {model.gamma!r}",
            f"crosstalk_threshold {model.crosstalk_threshold!r}",
            "positions",
        ]
        lines += [" ".join(repr(x) for x in p) for p in model.positions]
        return "\n".join(lines) + "\n"
    raise HardwareError(f"unknown hardware model {type(model).__name__}")


def _parasitic_gate(group: list[RawGate], hw: TrapArrayModel) -> RawGate | None:
    """Coherent crosstalk between concurrently pushed gates.

    Each gate's push duration tau follows from its longest-driven pair
    (theta*w = gamma * d^-3 * tau); ions of different gates then accrue ZZ
    phase over the shorter of the two durations at their own 1/d^3 coupling.
    """
    durations = []
    for g in group:
        tau = 0.0
        for a, b, w in g.targets:
            coupling = hw.gamma * hw.inv_cube_distance(a, b)
            tau = max(tau, abs(g.theta * w) / abs(coupling))
        durations.append(tau)
    targets = []
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            tau = min(durations[i], durations[j])
            if tau == 0.0:
                continue
            for qa in _gate_ions(group[i]):
                for qb in _gate_ions(group[j]):
                    targets.append((qa, qb, hw.gamma * hw.inv_cube_distance(qa, qb) * tau))
    if not targets:
        return None
    return RawGate("crosstalk", 1.0, tuple(targets))
