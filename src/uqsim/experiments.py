"""End-to-end spin-model protocols: model builders, the rules a model adds
to the compiler's plan, and adiabatic ground-state preparation with timing
errors and its sweeps (the experiments behind the figures). The exact
oracle of a run's path is uqsim.oracle.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .compiler import (
    CyclePlan,
    HardwareConstraintError,
    RawGate,
    emit_cycle,
    field_angles,
    plan_for_hamiltonian,
)
from .engine import ErrorModel, FusedCycle, LoweredLayer, StateVector
from .errors import ExperimentError
from .hardware import LatticeModel, TrapArrayModel, displacement_classes, inv_cube
# min_gap is bound here only because perfbench/spans.py looks it up under experiments
from .oracle import _CHUNK_ENTRIES, GroundPath, min_gap  # noqa: F401
from .pauli import Hamiltonian, PauliString
from .records import record


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

@record(frozen=True)
class Geometry:
    """Site positions plus the nearest-neighbor adjacency used by the models."""

    positions: tuple[tuple[float, ...], ...]
    nn_pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def chain(n: int) -> "Geometry":
        if n < 2:
            raise ExperimentError("chain needs at least 2 sites")
        return Geometry(
            positions=tuple((float(i),) for i in range(n)),
            nn_pairs=tuple((a, a + 1) for a in range(n - 1)),
        )

    @staticmethod
    def grid(rows: int, cols: int, pattern: str = "rectangular") -> "Geometry":
        from .hardware import geometry_remap

        base = LatticeModel(n_sites=rows * cols, dims=2, shape=(rows, cols))
        remap = geometry_remap(pattern, base)
        positions = tuple(
            (float(r), float(c)) for r in range(rows) for c in range(cols)
        )
        return Geometry(positions=positions, nn_pairs=remap.pairs)

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    def inv_cube(self, a: int, b: int) -> float:
        return inv_cube(self.positions[a], self.positions[b])

    def all_pairs(self):
        n = self.n_sites
        return [(a, b) for a in range(n) for b in range(a + 1, n)]


# ---------------------------------------------------------------------------
# Named models
# ---------------------------------------------------------------------------

MODEL_NAMES = ("dipole", "ising", "heisenberg", "random_ising")


@record(frozen=True)
class NamedModel:
    """Parameters of one of the library spin models.

    dipole: all-pairs (J/d^3) flip-flop interaction.
    ising: -(J/2) ZZ on nearest neighbors.
    heisenberg: -(J/2)(XX+YY+ZZ) on nearest neighbors.
    random_ising: -(J_ab/2) ZZ on nearest neighbors plus site fields B_a X_a;
    only it takes b_list, j_map, j_range and seed.
    An optional uniform field B along `direction` can be added to any model;
    `direction` is 3 finite values forming a unit vector, whatever B is.
    """

    name: str
    geometry: Geometry
    j: float = 1.0
    b: float = 0.0
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    b_list: tuple[float, ...] | None = None
    j_map: tuple[tuple[tuple[int, int], float], ...] | None = None
    j_range: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ExperimentError(f"unknown model {self.name!r} (have {MODEL_NAMES})")
        if self.name == "random_ising":
            if self.j_map is None and self.j_range is None:
                raise ExperimentError("random_ising needs j_map or j_range")
            if self.j_range is not None and self.seed is None:
                raise ExperimentError("random_ising with j_range needs a seed")
        else:
            unread = [k for k in ("b_list", "j_map", "j_range", "seed")
                      if getattr(self, k) is not None]
            if unread:
                raise ExperimentError(f"{self.name} takes no {', '.join(unread)} "
                                      "(only random_ising reads them)")
        d = self.direction
        if not (len(d) == 3 and all(map(math.isfinite, d))
                and abs(math.sqrt(sum(c * c for c in d)) - 1.0) <= 1e-10):
            raise ExperimentError(f"direction {d!r} is not 3 finite values forming a unit vector")
        n = self.geometry.n_sites
        for (a, b), _ in self.j_map or ():
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise ExperimentError(
                    f"j_map pair {a}-{b} is not two distinct sites of the {n}-site geometry")


def random_couplings(model: NamedModel) -> dict[tuple[int, int], float]:
    if model.j_map is not None:
        return {tuple(k): v for k, v in model.j_map}
    lo, hi = model.j_range
    rng = np.random.Generator(np.random.PCG64(model.seed))
    return {pair: float(rng.uniform(lo, hi)) for pair in model.geometry.nn_pairs}


def build_model(model: NamedModel) -> Hamiltonian:
    """Canonical Hamiltonian of a named model on its geometry."""
    geo = model.geometry
    n = geo.n_sites
    terms = []
    if model.name == "dipole":
        for a, b in geo.all_pairs():
            coeff = 0.5 * model.j * geo.inv_cube(a, b)
            terms += [PauliString.on(n, {a: axis, b: axis}, coeff) for axis in "XY"]
    elif model.name == "ising":
        for a, b in geo.nn_pairs:
            terms.append(PauliString.on(n, {a: "Z", b: "Z"}, -0.5 * model.j))
    elif model.name == "heisenberg":
        for a, b in geo.nn_pairs:
            terms += [PauliString.on(n, {a: axis, b: axis}, -0.5 * model.j) for axis in "XYZ"]
    elif model.name == "random_ising":
        couplings = random_couplings(model)
        for (a, b), j_ab in couplings.items():
            terms.append(PauliString.on(n, {a: "Z", b: "Z"}, -0.5 * j_ab))
        terms += [PauliString.on(n, {q: "X"}, ba)
                  for q, ba in enumerate(model.b_list or ()) if ba != 0.0]
    if model.b != 0.0:
        field = [(axis, model.b * c) for axis, c in zip("XYZ", model.direction)]
        terms += [PauliString.on(n, {q: axis}, c)
                  for q in range(n) for axis, c in field if c != 0.0]
    return Hamiltonian.from_terms(n, terms)


# Figure-style initial Hamiltonians: nearest-neighbor ZZ or XX chains.

def nn_chain(kind: str, n: int) -> Hamiltonian:
    axis = {"zz": "Z", "xx": "X"}.get(kind)
    if axis is None:
        raise ExperimentError(f"unknown chain kind {kind!r}")
    return Hamiltonian.from_terms(n, [PauliString.on(n, {a: axis, a + 1: axis})
                                      for a in range(n - 1)])


# ---------------------------------------------------------------------------
# Per-cycle gate plans for the named models
# ---------------------------------------------------------------------------

def protocol_for_model(model: NamedModel, hw) -> CyclePlan:
    """The compiler's plan of build_model(model) under two model rules.

    A lattice dipole is 1D-only and simulates the pairs that displacement
    classes reach. Random Ising is trap-only; each pair's gate splits into
    max(1, round(|J_ab|/J_ref)) equal gates, J_ref the least nonzero |J_ab|.
    """
    target = build_model(model)
    if model.name == "dipole" and isinstance(hw, LatticeModel):
        if hw.dims != 1:
            raise HardwareConstraintError(
                "dipole protocol on the lattice platform is defined for 1D chains "
                "(displacement classes cannot reach off-axis pairs)"
            )
        reached = {(a, b) for _, pairs in displacement_classes(hw) for a, b, _ in pairs}
        target = Hamiltonian(target.n_qubits, tuple(
            t for t in target.terms if len(t.sites()) < 2 or t.sites() in reached))
    if model.name == "random_ising" and not isinstance(hw, TrapArrayModel):
        raise HardwareConstraintError(
            "random-coefficient Ising requires single qubit addressability: "
            "use the trap-array platform (or beam compensation on the lattice)"
        )
    plan = plan_for_hamiltonian(target, hw)
    if model.name != "random_ising":
        return plan
    strength = {tuple(sorted(pair)): abs(j) for pair, j in random_couplings(model).items()}
    j_ref = min((j for j in strength.values() if j != 0.0), default=1.0)

    def split(g):
        reps = max(1, round(strength[g.targets[0][:2]] / j_ref)) if len(g.targets) == 1 else 1
        return [replace(g, unit_angle=g.unit_angle / reps)] * reps

    return replace(plan, families=tuple(
        replace(f, gates=tuple(h for g in f.gates for h in split(g))) for f in plan.families))


# ---------------------------------------------------------------------------
# Adiabatic ground-state preparation
# ---------------------------------------------------------------------------

RAMPS: dict[str, Callable[[float], float]] = {
    "linear": lambda x: 1.0 - x,
    "cosine": lambda x: 0.5 * (1.0 + math.cos(math.pi * x)),
}


@record(frozen=True)
class AdiabaticConfig:
    """One interpolation run H(k) = k*H_initial + (1-k)*H_target.

    `theta1` fixes the largest raw-gate angle per step; the simulated time
    per step is theta1 divided by the plan's largest angle-per-unit-time, so
    steps*dt is the total simulated time.
    """

    h_initial: Hamiltonian
    h_target: Hamiltonian
    steps: int
    theta1: float
    ramp: str | Callable[[float], float] = "linear"
    error_model: ErrorModel | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ExperimentError(f"steps must be at least 1, got {self.steps}")
        if not (math.isfinite(self.theta1) and self.theta1 > 0):
            raise ExperimentError(f"theta1 must be finite and positive, got {self.theta1}")
        if self.record_every < 0:
            raise ExperimentError(f"record_every must be at least 0, got {self.record_every}")
        if not (callable(self.ramp) or self.ramp in RAMPS):
            raise ExperimentError(f"unknown ramp {self.ramp!r} (have {tuple(RAMPS)})")

    def ramp_fn(self) -> Callable[[float], float]:
        fn = RAMPS[self.ramp] if isinstance(self.ramp, str) else self.ramp
        if abs(fn(0.0) - 1.0) > 1e-12 or abs(fn(1.0)) > 1e-12:
            raise ExperimentError("ramp must go from 1 to 0")
        return fn


@record
class AdiabaticResult:
    """One adiabatic run: its per-step trajectory, final histogram and ground weight."""
    trajectory: list[tuple[int, float, float, float]]  # step, k, fidelity, energy
    histogram: list[tuple[float, float]]
    ground_weight: float
    final_state: StateVector
    dt: float
    t_sim: float


def cycle_template(plan: CyclePlan, dt: float, slot: int,
                   scales) -> tuple[list, list, np.ndarray]:
    """The template of a run of adiabatic steps: emit_cycle(plan, dt), per
    instruction its FusedCycle slot, and per scale s whether
    emit_cycle(plan, dt, s) is that template with its angles times s.

    The slot is `slot` for the field layer and the gates, whose angles
    emit_cycle scales by s, and None for cycle_body's layers, which it
    leaves alone. A scale keeps the template's shape when it is nonzero, no
    gate angle becomes exactly zero, and the field layer acts on the same
    qubits (a site can cross FIELD_ANGLE_FLOOR or the identity tolerance).
    """
    template = emit_cycle(plan, dt)
    scales = np.asarray(scales, dtype=float)
    regular = scales != 0.0
    thetas = [ins.theta for ins in template if isinstance(ins, RawGate)]
    if thetas:
        regular &= np.all(np.multiply.outer(scales, thetas) != 0.0, axis=1)
    field = None
    if plan.field_axes is not None:
        fields = [field_angles(plan, dt * s) for s in [1.0, *scales.tolist()]]
        # LoweredLayer's identity test, once over every (scale, site)
        none = (np.zeros(plan.n_qubits), np.zeros((plan.n_qubits, 3)))
        theta, axes = (np.concatenate(a) for a in zip(*(f or none for f in fields)))
        active = np.zeros(theta.size, dtype=bool)
        active[list(LoweredLayer(np.zeros(theta.size), theta, axes).active)] = True
        shape = np.c_[[f is not None for f in fields], active.reshape(len(fields), -1)]
        regular &= np.all(shape[1:] == shape[0], axis=1)
        field = template[0] if fields[0] else None
    slots = [slot if isinstance(ins, RawGate) or ins is field else None for ins in template]
    return template, slots, regular


def adiabatic_run(
    config: AdiabaticConfig,
    hw,
    *,
    plan_target: CyclePlan | None = None,
    ground_path: GroundPath | None = None,
) -> AdiabaticResult:
    """Interpolate from the ground state of h_initial toward h_target.

    Each step runs one Trotter cycle of H(k_s) (initial plan scaled by k_s,
    target plan by 1-k_s) with timing errors; fidelity is tracked against
    the instantaneous ground space. A batch of one of adiabatic_batch.
    """
    err = config.error_model
    (result,) = adiabatic_batch(
        config, hw, [err.seed if err is not None else None],
        plan_target=plan_target, ground_path=ground_path,
    )
    return result


def adiabatic_batch(
    config: AdiabaticConfig,
    hw,
    seeds: Sequence[int | None],
    *,
    plan_target: CyclePlan | None = None,
    ground_path: GroundPath | None = None,
) -> list[AdiabaticResult]:
    """One run of `config` per seed, advanced in lockstep as one batch.

    Run r draws its jitter from config.error_model with seed seeds[r] and
    gives what adiabatic_run gives at that seed, within 1e-12 (the block
    builds and the angle sums of execution depend on the batch size, see
    uqsim.engine). Step k runs emit_cycle(plan_initial, dt, k)
    followed by emit_cycle(plan_target, dt, 1 - k).

    Both plans' cycles at scale 1 (cycle_template) form one template
    FusedCycle, built once. Each run of consecutive steps that keep the
    template's shape is its occurrences with scales (k, 1 - k), run in
    passes of many steps; a recorded step does not end a pass, the pass
    copies the states out after it. Any other step, such as the final
    k = 0 of both ramps or one where a field site or a gate angle drops
    out, runs as a FusedCycle of its own emit_cycle instructions, built
    where it runs. The copied states wait until a chunk of them is held
    (GroundPath.chunk, and at most _CHUNK_ENTRIES amplitudes) or the run
    ends; their spectra are then decomposed as one chunk of k
    (GroundPath.spectra) and the trajectory sampled from them.
    """
    h_i, h_t = config.h_initial, config.h_target
    if not seeds:
        raise ExperimentError("need at least one run")
    path = ground_path or GroundPath(h_i, h_t)
    if (path.h_initial, path.h_target) != (h_i, h_t):
        raise ExperimentError("ground_path is for other Hamiltonians than the config's")
    n = h_i.n_qubits
    plan_initial = plan_for_hamiltonian(h_i, hw)
    plan_target = plan_target or plan_for_hamiltonian(h_t, hw)
    peak = max(plan_initial.max_unit_angle(), plan_target.max_unit_angle())
    dt = config.theta1 / peak if peak > 0 else config.theta1
    ramp = config.ramp_fn()
    err = config.error_model
    noisy = err is not None and err.is_noisy
    rngs = [replace(err, seed=seed).rng() if noisy else None for seed in seeds]
    amps = np.tile(path.start, (len(seeds), 1))
    trajectories = [[] for _ in seeds]
    ks = np.array([ramp(s / config.steps) for s in range(1, config.steps + 1)], dtype=float)
    recorded = np.array([config.record_every > 0 and (s % config.record_every == 0
                                                      or s == config.steps)
                         for s in range(1, config.steps + 1)], dtype=bool)

    def sample(s, spec, states):
        """The trajectory at step s from the spectrum of H(k_s)."""
        weights = spec.level_weights(states)
        fidelities = weights[:, slice(*spec.groups[0])].sum(axis=1).tolist()
        energies = (weights @ spec.eigenvalues).tolist()
        for trajectory, fid, energy in zip(trajectories, fidelities, energies):
            trajectory.append((s, float(ks[s - 1]), fid, energy))

    executed = 0
    # recorded states are copied out mid-pass into `kept`, and sampled
    # from one chunk of spectra once it is full or the run ends
    kept = np.empty((min(int(recorded.sum()), path.chunk(),
                         max(1, _CHUNK_ENTRIES // amps.size)), *amps.shape), dtype=complex)
    held = []  # the steps whose states `kept` holds

    def keep(s):
        """Step s has run on amps."""
        if recorded[s - 1]:
            kept[len(held)] = amps
            held.append(s)
        if held and (len(held) == len(kept) or s == config.steps):
            for step, spec, states in zip(held, path.spectra(ks[np.array(held) - 1]), kept):
                sample(step, spec, states)
            held.clear()

    etas = (err.eta_local, err.eta_int) if err is not None else (0.0, 0.0)
    (ins_i, slots_i, regular_i), (ins_t, slots_t, regular_t) = (
        cycle_template(plan_initial, dt, 0, ks), cycle_template(plan_target, dt, 1, 1.0 - ks))
    regular = regular_i & regular_t
    if regular.any():
        cycle = FusedCycle(ins_i + ins_t, n, *etas, slots_i + slots_t)
    s = 0  # steps 1..s have run
    while s < config.steps:
        stop = s + 1
        if regular[s]:
            while stop < config.steps and regular[stop]:
                stop += 1
            run = ks[s:stop]
            after = (lambda j, s=s: keep(s + j + 1)) if len(kept) else None
            executed += cycle.execute(amps, stop - s, rngs, None,
                                      np.column_stack([run, 1.0 - run]), after)
        else:
            k = float(ks[s])
            ins = emit_cycle(plan_initial, dt, k) + emit_cycle(plan_target, dt, 1.0 - k)
            executed += FusedCycle(ins, n, *etas).execute(amps, 1, rngs, None)
            keep(stop)
        s = stop
    final = path.spectrum(0.0)
    energies = final.group_energies()  # weights stay per row: a batched call rounds otherwise
    results = []
    for row, trajectory in zip(amps, trajectories):
        state = StateVector(n, row.copy())
        state.check_norm(max(executed, 1))
        histogram = final.histogram(state, energies)
        results.append(AdiabaticResult(trajectory=trajectory, histogram=histogram,
                                       ground_weight=histogram[0][1], final_state=state,
                                       dt=dt, t_sim=dt * config.steps))
    return results


# ---------------------------------------------------------------------------
# Error sweeps (the figure-4b style grid)
# ---------------------------------------------------------------------------

@record(frozen=True)
class SweepRow:
    """One (eta, steps) cell of a sweep: the ground weights' mean, spread and error."""
    eta: float
    steps: int
    repetitions: int
    mean_fidelity: float
    std_fidelity: float
    stderr: float


def error_sweep(
    config: AdiabaticConfig,
    hw,
    eta_list: Sequence[float],
    steps_list: Sequence[int],
    repetitions: int,
    base_seed: int = 0,
    plan_target: CyclePlan | None = None,
) -> list[SweepRow]:
    """Full factorial (eta, steps) grid of final ground-space fidelities.

    eta applies to both error channels. Repetition r reuses seed base+r in
    every grid cell (common random numbers across cells); the repetitions of
    a cell run as one adiabatic_batch. eta = 0 cells are deterministic so
    they run once.
    """
    if repetitions < 1:
        raise ExperimentError("need at least one repetition")
    # every step count is checked before any cell runs
    configs = {steps: replace(config, steps=int(steps), record_every=0) for steps in steps_list}
    plan_target = plan_target or plan_for_hamiltonian(config.h_target, hw)
    path = GroundPath(config.h_initial, config.h_target)
    rows = []
    for eta in eta_list:
        for steps in steps_list:
            if eta > 0.0:
                err = ErrorModel(eta_local=eta, eta_int=eta, seed=base_seed)
                seeds = [base_seed + r for r in range(repetitions)]
            else:
                err, seeds = None, [None]
            results = adiabatic_batch(
                replace(configs[steps], error_model=err), hw, seeds,
                plan_target=plan_target, ground_path=path,
            )
            values = [result.ground_weight for result in results]
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            rows.append(SweepRow(eta, int(steps), len(values),
                                 mean, std, std / math.sqrt(len(values))))
    return rows


def sweep_table_csv(rows: Sequence[SweepRow]) -> str:
    out = ["eta,steps,repetitions,mean_fidelity,std_fidelity,stderr"]
    for r in rows:
        out.append(
            f"{r.eta!r},{r.steps},{r.repetitions},{r.mean_fidelity!r},"
            f"{r.std_fidelity!r},{r.stderr!r}"
        )
    return "\n".join(out) + "\n"
