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

import itertools
import math
from dataclasses import field
from typing import Callable, Iterable, Sequence

import numpy as np

from .compiler import check_gamma
from .errors import HardwareError
from .pauli import Hamiltonian, PauliString
from .records import record
from .schedule import RawGate


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _points(positions) -> tuple[tuple[float, ...], ...]:
    """Positions as coordinate tuples (a scalar is a 1D point), all finite."""
    pos = tuple((float(p),) if np.isscalar(p) else tuple(float(x) for x in p) for p in positions)
    for i, p in enumerate(pos):
        if not all(math.isfinite(x) for x in p):
            raise HardwareError(f"position {i} is not finite: {p}")
    return pos


def inv_cube(p: Sequence[float], q: Sequence[float]) -> float:
    """The 1/d^3 law of the dipole coupling and the push phase."""
    d = math.dist(p, q)
    return 1.0 / (d * d * d)


@record(frozen=True)
class LatticeModel:
    """Optical-lattice platform: homogeneous control, displacement gates."""

    n_sites: int
    dims: int = 1
    shape: tuple[int, ...] | None = None
    boundary: str = "open"
    available_j: frozenset[int] = field(default_factory=frozenset)
    gamma: float = 1.0

    def __post_init__(self):
        check_gamma(self.gamma, HardwareError)
        if self.n_sites < 2:
            raise HardwareError(f"sites must be at least 2, got {self.n_sites}")
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
        """Row-major index of the site at `coords`."""
        index = 0
        for c, size in zip(coords, self.shape):
            index = index * size + c
        return index


@record(frozen=True)
class TrapArrayModel:
    """Microtrap platform: per-qubit control, pair pushes, 1/d^3 crosstalk."""

    positions: tuple[tuple[float, ...], ...]
    kappa: float = 1.0
    crosstalk_threshold: float = 1e-3
    gamma: float = 1.0

    def __post_init__(self):
        check_gamma(self.gamma, HardwareError)
        for name in ("kappa", "crosstalk_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise HardwareError(f"{name} must be finite, got {getattr(self, name)}")
        pos = _points(self.positions)
        if len(pos) < 2:
            raise HardwareError("need at least 2 traps")
        ndim = len(pos[0])
        if any(len(p) != ndim for p in pos):
            raise HardwareError("positions must share dimensionality")
        for a, b in itertools.combinations(range(len(pos)), 2):
            d = math.dist(pos[a], pos[b])
            if not 1.0 - 1e-12 <= d <= 1e100:  # so that every 1/d^3 is a normal float
                raise HardwareError(
                    f"traps {a} and {b} are {d} apart; separations must lie in [1, 1e100]")
        object.__setattr__(self, "positions", pos)

    @property
    def n_ions(self) -> int:
        return len(self.positions)

    def inv_cube_distance(self, a: int, b: int) -> float:
        return inv_cube(self.positions[a], self.positions[b])

    def pushed_ions(self, ions: Iterable[int]) -> tuple[int, ...]:
        """The distinct ions of a push, ascending: at least 2, each in the array."""
        out = tuple(sorted(set(int(i) for i in ions)))
        if len(out) < 2:
            raise HardwareError(f"a push needs at least 2 distinct ions, got {list(out)}")
        for i in out:
            if not 0 <= i < self.n_ions:
                raise HardwareError(f"ion {i} outside the array 0..{self.n_ions - 1}")
        return out

    def pushed_groups(self, groups: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
        """pushed_ions of each group; no ion may be pushed by two groups."""
        out, seen = [self.pushed_ions(g) for g in groups], set()
        for g in out:
            overlap = seen.intersection(g)
            if overlap:
                raise HardwareError(f"groups overlap on ions {sorted(overlap)}")
            seen.update(g)
        return out


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
    periodic = model.boundary == "periodic"
    for site in itertools.product(*(range(size) for size in model.shape)):
        moved = [x + dx for x, dx in zip(site, disp)]
        if periodic:
            moved = [x % size for x, size in zip(moved, model.shape)]
        elif not all(0 <= x < size for x, size in zip(moved, model.shape)):
            continue
        a, b = model.site_index(*site), model.site_index(*moved)
        if a != b:
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return tuple((a, b, m) for (a, b), m in sorted(counts.items()))


def displacement_classes(model: LatticeModel):
    """All (displacement, pairs-with-multiplicity) classes the model offers."""
    out = []
    for j in sorted(model.available_j):
        for disp in [(j,)] if model.dims == 1 else [(0, j), (j, 0), (j, j), (j, -j)]:
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
    gate = RawGate(displacement_gate_id(disp), theta,
                   tuple((a, b, float(mult)) for a, b, mult in pairs))
    return _zz_generator(model.n_sites, gate.targets), gate


def _zz_generator(n_qubits: int, targets) -> Hamiltonian:
    """sum_(a, b, w) w Z_a Z_b over a gate's targets."""
    return Hamiltonian.from_terms(n_qubits, [PauliString.on(n_qubits, {a: "Z", b: "Z"}, w)
                                             for a, b, w in targets])


# ---------------------------------------------------------------------------
# UQS2 pushes
# ---------------------------------------------------------------------------

def uqs2_push(model: TrapArrayModel, pushed: Iterable[int], theta_base: float) -> Hamiltonian:
    """Generator of a simultaneous push: theta_base * sum_{a<b} d_ab^-3 Z_a Z_b.

    Every pair of pushed ions couples -- crosstalk is physical, not optional.
    """
    targets = push_gate(model, pushed, theta_base).targets
    return _zz_generator(model.n_ions, ((a, b, theta_base * w) for a, b, w in targets))


def push_gate(model: TrapArrayModel, pushed: Iterable[int], theta_base: float) -> RawGate:
    """Instruction form of :func:`uqs2_push` (weights carry the 1/d^3 law)."""
    ions = model.pushed_ions(pushed)
    targets = tuple((a, b, model.inv_cube_distance(a, b))
                    for a, b in itertools.combinations(ions, 2))
    return RawGate("push:" + ",".join(str(i) for i in ions), theta_base, targets)


# ---------------------------------------------------------------------------
# Crosstalk between pushed groups
# ---------------------------------------------------------------------------

@record(frozen=True)
class CrosstalkReport:
    """Parasitic-to-intended ratios between pushed groups, and whether they may run together."""
    ratios: tuple[tuple[int, int, float], ...]  # (group_i, group_j, parasitic/intended)
    max_ratio: float
    threshold: float
    concurrent: bool


def crosstalk_report(model: TrapArrayModel, pair_groups: Sequence[Iterable[int]]) -> CrosstalkReport:
    """Strongest parasitic-to-intended coupling ratio for each pair of groups.

    A set of simultaneously pushed groups is scheduled concurrently only when
    every cross-group ratio stays below the model threshold.
    """
    groups = model.pushed_groups(pair_groups)
    ratios = []
    max_ratio = 0.0
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            intended = min(model.inv_cube_distance(a, b)
                           for grp in (groups[gi], groups[gj])
                           for a, b in itertools.combinations(grp, 2))
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

@record(frozen=True)
class RemapResult:
    """The nearest-neighbour pairs of a remapped pattern, grouped into pair families."""
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


@record(frozen=True)
class BeamSolution:
    """Per-beam durations that rotate one atom only, with the solve's condition and residual."""
    durations: np.ndarray
    condition_number: float
    residual: float
    has_negative: bool


def _beam_matrix(pos, f, target: int, nu0: float) -> np.ndarray:
    """A_jk = nu0 * f(|r_j - r_k|) * (-1)^(k==target): beam k's rotation rate on atom j."""
    a = np.array([[nu0 * f(math.dist(p, q)) for q in pos] for p in pos])
    a[:, target] = -a[:, target]
    return a


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
    pos = _points(positions)
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
    a = _beam_matrix(pos, f, target, nu0)
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
    return _beam_matrix(_points(positions), f, target, nu0) @ solution.durations


# ---------------------------------------------------------------------------
# Hardware description files
# ---------------------------------------------------------------------------

# The keys of each platform's description, besides platform and the positions block.
HARDWARE_KEYS = {"uqs1": "sites dims shape boundary available_j gamma",
                 "uqs2": "kappa gamma crosstalk_threshold positions"}


def parse_hardware_text(text: str):
    """Parse the line-oriented hardware description format.

    Keys one per line (``platform uqs1|uqs2`` first), then for uqs1:
    sites/dims/shape/boundary/available_j/gamma; for uqs2: kappa, gamma,
    crosstalk_threshold, and a ``positions`` block with one coordinate line
    per ion. A key the platform does not have (HARDWARE_KEYS) raises
    HardwareError naming it; the CLI's INI [hardware] section is read
    through this format too.
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
        fields[key] = value.strip()
        in_positions = key == "positions"
    platform = fields.get("platform")
    unknown = sorted(set(fields) - {"platform", *HARDWARE_KEYS.get(platform, "").split()})
    if platform in HARDWARE_KEYS and unknown:
        raise HardwareError(f"platform {platform} has no key {', '.join(unknown)}")

    def converted(key, convert, default=None):
        """fields[key] through `convert` (`default` when absent), naming the key on failure."""
        if key not in fields:
            return default
        try:
            return convert(fields[key])
        except ValueError as exc:
            raise HardwareError(f"{key} = {fields[key]!r}: {exc}") from exc

    if platform == "uqs1":
        if "sites" not in fields:
            raise HardwareError("uqs1 description needs a 'sites' line")
        return LatticeModel(
            n_sites=converted("sites", int),
            dims=converted("dims", int, 1),
            shape=converted("shape", lambda text: tuple(int(x) for x in text.split())),
            boundary=fields.get("boundary", "open"),
            available_j=converted("available_j", lambda text: frozenset(
                () if text == "all" else (int(x) for x in text.split())), frozenset()),
            gamma=converted("gamma", float, 1.0),
        )
    if platform == "uqs2":
        if not positions:
            raise HardwareError("uqs2 description needs a 'positions' block")
        return TrapArrayModel(
            positions=tuple(positions),
            kappa=converted("kappa", float, 1.0),
            crosstalk_threshold=converted("crosstalk_threshold", float, 1e-3),
            gamma=converted("gamma", float, 1.0),
        )
    raise HardwareError(f"unknown or missing platform {platform!r}")
