"""Command-line front end: compile, simulate, adiabatic, cost, crosstalk.

Configs are INI files (sections/keys documented in --help and the bundled
fig4a/fig4b/fig5 examples); results land in --out-dir as CSV/JSON plus
static SVG plots, with a manifest recording content hashes for reruns.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible target,
3 config policy violation (e.g. noise without a seed), 4 numeric failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, svg
from .compiler import (
    CompileError,
    HardwareConstraintError,
    InfeasibleTargetError,
    UnsupportedInteractionError,
    cost_report,
    homogeneous_feasibility,
    inhomogeneous_cost,
    schedule_from_lines,
    schedule_text_chunks,
    trotter_cycles,
    trotter_schedule,
)
from .engine import (
    EngineError,
    ErrorModel,
    StateFormatError,
    StateVector,
    exact_evolve,
    expectation,
    fidelity,
    parse_observable,
    run_schedule,
)
from .experiments import (
    AdiabaticConfig,
    ExperimentError,
    Geometry,
    GroundPath,
    NamedModel,
    adiabatic_run,
    build_model,
    error_sweep,
    min_gap,
    nn_chain,
    protocol_for_model,
    sweep_table_csv,
)
from .hardware import HardwareError, TrapArrayModel, parse_hardware_text
from .pauli import CoeffMatrix, Hamiltonian, PauliError

CONFIG_DIALECT = "ini-1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_POLICY = 3
EXIT_NUMERIC = 4


class PolicyError(Exception):
    pass


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqsim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"uqsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI config (bundled names resolve too)")
        p.add_argument("--out-dir", default=".", help="output directory")
        return p

    def seeded(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--jobs", type=_jobs, default=1,
                       help="parallel workers for sweep grids (per-run seeds keep results deterministic)")
        return p

    common(sub.add_parser("compile", help="compile a Hamiltonian file into a pulse schedule"))
    p_sim = seeded(common(sub.add_parser("simulate",
                                         help="execute a pulse schedule on a statevector")))
    p_sim.add_argument("--oracle", action="store_true",
                       help="also compare against exact dense evolution")
    p_adia = seeded(common(sub.add_parser("adiabatic",
                                          help="adiabatic ground-state preparation runs")))
    p_adia.add_argument("--steps", type=int, default=None, help="override step count")
    p_adia.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="json also writes a sweep's rows to sweep.json")
    common(sub.add_parser("cost", help="time cost / control complexity of a target"))
    common(sub.add_parser("crosstalk", help="crosstalk report for pushed ion groups"))
    return parser


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def resolve_config_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("uqsim") / "configs" / name
    if bundled.is_file():
        return Path(str(bundled))
    raise UsageError(f"config {name!r} not found (and no bundled config of that name)")


# The keys of each section uqsim reads. parse_hardware_text checks those of
# [hardware]; sections that uqsim does not read, such as [run], may hold any.
CONFIG_KEYS = {
    "compile": "hamiltonian t_prime epsilon",
    "simulate": "schedule initial seed eta_local eta_int observables oracle_hamiltonian t_prime",
    "adiabatic": "initial steps seed theta1 ramp record_every eta_local eta_int",
    "sweep": "etas steps_list repetitions",
    "model": "name geometry j b direction b_values j_values j_range seed",
    "cost": "mode gamma matrix t_prime epsilon n_controls",
    "crosstalk": "groups",
    "output": "dir",
}


def load_config(path: Path) -> configparser.ConfigParser:
    """The parsed config; a key its section does not take is a UsageError."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for name, keys in CONFIG_KEYS.items():
        unknown = sorted(set(cfg[name]) - set(keys.split())) if cfg.has_section(name) else ()
        if unknown:
            raise UsageError(f"[{name}] has no key {', '.join(unknown)} (it takes {keys})")
    return cfg


def _lines(fh, size: int = 1 << 16):
    """The lines of a text file opened with newline="", as its whole text's
    str.splitlines(keepends=True) gives them: the file's own lines, which
    end at CR, LF or CRLF only, split again about `size` characters at a time."""
    while batch := fh.readlines(size):
        yield from "".join(batch).splitlines(keepends=True)


def _read_input(path: Path, parse=None):
    """The text of an input file named by a config, or `parse` of its
    _lines; a file that is not UTF-8 text is a UsageError naming it."""
    try:
        if parse is None:
            return path.read_text(encoding="utf-8")
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(_lines(fh))
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def config_value(section, key: str, convert, fallback=None):
    """section[key] read through `convert`, or `fallback` when the key is
    absent; a value that does not convert is a UsageError naming the key
    (a grid geometry is converted through the hardware's lattice checks)."""
    if key not in section:
        return fallback
    raw = section[key]
    try:
        return convert(raw)
    except (ValueError, HardwareError) as exc:
        raise UsageError(f"[{section.name}] {key} = {raw!r}: {exc}") from exc


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split())


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _nonzero_finite_float(text: str) -> float:
    if (value := _finite_float(text)) == 0.0:
        raise ValueError("must be nonzero")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _run_seed(args, section) -> int | None:
    """--seed, else the section's seed=, else None; a negative seed is a
    UsageError naming where it came from."""
    if args.seed is None:
        return config_value(section, "seed", _non_negative_int)
    if args.seed < 0:
        raise UsageError(f"--seed {args.seed}: a seed must be a non-negative integer")
    return args.seed


def _ints(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split())
    if not values:
        raise ValueError("needs at least one value")
    return values


def _relative(path_str: str, config_path: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else config_path.parent / p


def load_hardware(cfg, config_path):
    if not cfg.has_section("hardware"):
        raise UsageError("config needs a [hardware] section")
    section = cfg["hardware"]
    if "file" in section:
        if len(section) > 1:
            others = ", ".join(k for k in section if k != "file")
            raise UsageError(f"[hardware] file = takes no other keys, got {others}")
        text = _read_input(_relative(section["file"], config_path))
    else:
        lines = [f"{k} {v}" for k, v in section.items() if k != "positions"]
        if "positions" in section:
            lines.append("positions")
            lines += [chunk.strip() for chunk in section["positions"].split(";") if chunk.strip()]
        text = "\n".join(lines) + "\n"
    try:
        return parse_hardware_text(text)
    except (HardwareError, ValueError) as exc:
        raise UsageError(f"bad hardware description: {exc}") from exc


def parse_geometry(spec: str) -> Geometry:
    parts = spec.split(":")
    if parts[0] == "chain" and len(parts) == 2:
        return Geometry.chain(int(parts[1]))
    if parts[0] == "grid" and len(parts) in (2, 3):
        rows, cols = (int(x) for x in parts[1].split("x"))
        pattern = parts[2] if len(parts) == 3 else "rectangular"
        return Geometry.grid(rows, cols, pattern)
    raise ValueError("use chain:N or grid:RxC[:pattern]")


def _j_map(text: str) -> tuple:
    j_map = []
    for chunk in text.split(","):
        pair, value = chunk.strip().split(":")
        a, b = pair.split("-")
        j_map.append(((int(a), int(b)), float(value)))
    return tuple(j_map)


def _j_range(text: str) -> tuple[float, float]:
    lo, hi = _floats(text)
    return lo, hi


def load_named_model(cfg) -> NamedModel:
    if not cfg.has_section("model"):
        raise UsageError("config needs a [model] section")
    section = cfg["model"]
    kwargs = dict(
        name=section.get("name", "ising"),
        geometry=config_value(section, "geometry", parse_geometry, Geometry.chain(2)),
        j=config_value(section, "j", float, 1.0),
        b=config_value(section, "b", float, 0.0),
    )
    optional = (("direction", "direction", _floats), ("b_values", "b_list", _floats),
                ("j_values", "j_map", _j_map), ("j_range", "j_range", _j_range),
                ("seed", "seed", _non_negative_int))
    for key, name, convert in optional:
        if key in section:
            kwargs[name] = config_value(section, key, convert)
    try:
        return NamedModel(**kwargs)
    except ExperimentError as exc:
        message = str(exc)
        for key, name, _ in optional:  # name the config keys, not NamedModel's fields
            message = message.replace(name, key)
        raise UsageError(message) from exc


def load_hamiltonian_source(spec: str, n: int, config_path: Path) -> Hamiltonian:
    if spec in ("zz_chain", "xx_chain"):
        return nn_chain(spec.split("_")[0], n)
    if spec.startswith("file:"):
        return Hamiltonian.from_text(_read_input(_relative(spec[5:], config_path)))
    raise UsageError(f"unknown Hamiltonian source {spec!r}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

class OutputWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}

    def write(self, name: str, content: str) -> Path:
        return self.write_chunks(name, (content,))

    def write_chunks(self, name: str, chunks) -> Path:
        """Write an iterable of text chunks to `name` as UTF-8, hashing them
        as they go; a stream that raises leaves no file behind."""
        path, digest = self.out_dir / name, hashlib.sha256()
        try:
            with open(path, "wb") as fh:
                for chunk in chunks:
                    data = chunk.encode()
                    digest.update(data)
                    fh.write(data)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        self.files[name] = digest.hexdigest()
        return path

    def manifest(self, command, config_path, seed=None, extra=None):
        doc = {
            "command": command,
            "config": str(config_path),
            "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
            "config_dialect": CONFIG_DIALECT,
            "seed": seed,
            "version": __version__,
            "outputs": dict(sorted(self.files.items())),
        }
        if extra:
            doc.update(extra)
        content = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (self.out_dir / "manifest.json").write_text(content)
        return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args, cfg, config_path) -> int:
    if not cfg.has_section("compile"):
        raise UsageError("config needs a [compile] section")
    section = cfg["compile"]
    hw = load_hardware(cfg, config_path)
    if "hamiltonian" in section:
        target = Hamiltonian.from_text(_read_input(_relative(section["hamiltonian"], config_path)))
    elif cfg.has_section("model"):
        target = build_model(load_named_model(cfg))
    else:
        raise UsageError("[compile] needs hamiltonian= or a [model] section")
    t_prime = config_value(section, "t_prime", _finite_float, 1.0)
    epsilon = config_value(section, "epsilon", _finite_float, 0.01)
    schedule, report = trotter_schedule(target, t_prime, epsilon, hw)
    writer = OutputWriter(Path(args.out_dir))
    writer.write_chunks("schedule.txt", schedule_text_chunks(schedule))
    writer.write("cost.txt", report.to_text())
    doc = {
        "cost": report.as_dict(),
        "schedule": {
            "n_qubits": schedule.n_qubits,
            "num_cycles": schedule.num_cycles,
            "cycle_length": schedule.cycle_length,
            "num_instructions": len(schedule.instructions),
        },
    }
    writer.write("compile.json", json.dumps(doc, indent=2) + "\n")
    writer.manifest("compile", config_path)
    print(f"compiled {len(schedule.instructions)} instructions "
          f"(L={report.num_gates}, c={report.time_cost:g}, chi={report.chi:g})")
    return EXIT_OK


def _jitter_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise ValueError("outside [0, 1)")
    return value


def _jitter_fractions(text: str) -> tuple[float, ...]:
    values = tuple(_jitter_fraction(x) for x in text.split())
    if not values:
        raise ValueError("needs at least one value")
    return values


def _error_model_from(section, seed) -> ErrorModel | None:
    eta_local = config_value(section, "eta_local", _jitter_fraction, 0.0)
    eta_int = config_value(section, "eta_int", _jitter_fraction, 0.0)
    if eta_local == 0.0 and eta_int == 0.0:
        return None
    if seed is None:
        raise PolicyError(
            "an error model needs a seed for reproducibility: set seed= or pass --seed"
        )
    return ErrorModel(eta_local=eta_local, eta_int=eta_int, seed=seed)


def cmd_simulate(args, cfg, config_path) -> int:
    if not cfg.has_section("simulate"):
        raise UsageError("config needs a [simulate] section")
    section = cfg["simulate"]
    sched_path = _relative(section.get("schedule", "schedule.txt"), config_path)
    schedule = _read_input(sched_path, schedule_from_lines)
    init_spec = section.get("initial", "zeros")
    if init_spec == "zeros":
        state = StateVector.zero_state(schedule.n_qubits)
    elif init_spec.startswith("file:"):
        state = StateVector.load_text(_read_input(_relative(init_spec[5:], config_path)))
    else:
        raise UsageError(f"unknown initial state {init_spec!r}")
    if state.n_qubits != schedule.n_qubits:
        raise UsageError(f"[simulate] initial = {init_spec} holds {state.n_qubits} qubits, "
                         f"the schedule is for {schedule.n_qubits}")
    obs = []
    for spec in [s.strip() for s in section.get("observables", "").split(",") if s.strip()]:
        try:
            obs.append((spec, parse_observable(spec, schedule.n_qubits)))
        except EngineError as exc:
            raise UsageError(f"[simulate] observables entry {spec!r}: {exc}") from exc
    if args.oracle:
        if "oracle_hamiltonian" not in section:
            raise UsageError("--oracle needs oracle_hamiltonian= in [simulate]")
        h = Hamiltonian.from_text(_read_input(_relative(section["oracle_hamiltonian"], config_path)))
        if h.n_qubits != schedule.n_qubits:
            raise UsageError(f"[simulate] oracle_hamiltonian holds {h.n_qubits} qubits, "
                             f"the schedule is for {schedule.n_qubits}")
        t_prime = config_value(section, "t_prime", _finite_float, 1.0)
    seed = _run_seed(args, section)
    err = _error_model_from(section, seed)
    final, log = run_schedule(state, schedule, err)
    writer = OutputWriter(Path(args.out_dir))
    writer.write("state.txt", final.dump_text())
    writer.write_chunks("execution_log.txt", log.text_chunks())
    summary = {"n_qubits": final.n_qubits, "norm": final.norm()}
    if obs:
        values = [(spec, expectation(final, op)) for spec, op in obs]
        lines = ["observable,value"] + [f"{name},{value!r}" for name, value in values]
        writer.write("observables.csv", "\n".join(lines) + "\n")
        summary["observables"] = {name: value for name, value in values}
    if args.oracle:
        reference = exact_evolve(h, t_prime, state)
        fid = fidelity(final, reference)
        summary["oracle_fidelity"] = fid
        print(f"oracle_fidelity={fid!r}")
    writer.write("summary.json", json.dumps(summary, indent=2) + "\n")
    writer.manifest("simulate", config_path, seed)
    print(f"final state written ({final.n_qubits} qubits, norm={final.norm():.12f})")
    return EXIT_OK


def _trajectory_csv(result) -> str:
    lines = ["step,k,fidelity,energy"]
    for step, k, fid, energy in result.trajectory:
        lines.append(f"{step},{k!r},{fid!r},{energy!r}")
    return "\n".join(lines) + "\n"


def _histogram_csv(result) -> str:
    lines = ["group,energy,weight"]
    for g, (energy, weight) in enumerate(result.histogram):
        lines.append(f"{g},{energy!r},{weight!r}")
    return "\n".join(lines) + "\n"


def cmd_adiabatic(args, cfg, config_path) -> int:
    if not cfg.has_section("adiabatic"):
        raise UsageError("config needs an [adiabatic] section")
    section = cfg["adiabatic"]
    hw = load_hardware(cfg, config_path)
    model = load_named_model(cfg)
    target = build_model(model)
    n = model.geometry.n_sites
    initial = load_hamiltonian_source(section.get("initial", "zz_chain"), n, config_path)
    steps = args.steps if args.steps is not None else config_value(section, "steps", int, 100)
    seed = _run_seed(args, section)
    theta1 = config_value(section, "theta1", float, 0.1)
    base = AdiabaticConfig(
        h_initial=initial, h_target=target, steps=steps, theta1=theta1,
        ramp=section.get("ramp", "linear"),
        record_every=config_value(section, "record_every", int, 1),
    )
    writer = OutputWriter(Path(args.out_dir))
    plan_target = protocol_for_model(model, hw)
    extra = {}
    if cfg.has_section("sweep"):
        ignored = [key for key in ("eta_local", "eta_int") if key in section]
        if "record_every" in section and base.record_every != 0:
            ignored.append("record_every")
        if ignored:
            raise UsageError(f"[adiabatic] {', '.join(ignored)} does nothing with [sweep]: "
                             "it sets both etas per cell and records no trajectory")
        sw = cfg["sweep"]
        etas = config_value(sw, "etas", _jitter_fractions, (0.0,))
        steps_list = config_value(sw, "steps_list", _ints, (steps,))
        reps = config_value(sw, "repetitions", int, 20)
        if any(e > 0 for e in etas) and seed is None:
            raise PolicyError("sweep with noise needs a seed (seed= or --seed)")
        rows = _run_sweep(base, hw, etas, steps_list, reps, seed or 0, args.jobs, plan_target)
        writer.write("sweep.csv", sweep_table_csv(rows))
        series = []
        for s in steps_list:
            pts = [(r.eta, r.mean_fidelity) for r in rows if r.steps == s]
            series.append((f"{s} steps", [p[0] for p in pts], [p[1] for p in pts]))
        writer.write("sweep.svg", svg.line_plot(
            series, title="Final fidelity vs timing-error strength",
            xlabel="error fraction", ylabel="mean fidelity"))
        if args.format == "json":
            writer.write("sweep.json", json.dumps([asdict(r) for r in rows], indent=2) + "\n")
        extra["sweep"] = {"etas": etas, "steps_list": steps_list, "repetitions": reps}
        print(f"sweep complete: {len(rows)} rows")
    else:
        run_cfg = replace(base, error_model=_error_model_from(section, seed))
        path = GroundPath(initial, target)
        result = adiabatic_run(run_cfg, hw, plan_target=plan_target, ground_path=path)
        writer.write("trajectory.csv", _trajectory_csv(result))
        writer.write("histogram.csv", _histogram_csv(result))
        traj = result.trajectory
        writer.write("fidelity.svg", svg.line_plot(
            [("", [r[0] for r in traj], [r[2] for r in traj])],
            title="Instantaneous ground-space fidelity",
            xlabel="step", ylabel="fidelity"))
        writer.write("histogram.svg", svg.bar_chart(
            [e for e, _ in result.histogram], [w for _, w in result.histogram],
            title="Final weight per eigenspace", xlabel="energy", ylabel="weight"))
        gap = min_gap(path, samples=41)
        summary = {
            "steps": steps,
            "theta1": theta1,
            "dt": result.dt,
            "t_sim": result.t_sim,
            "ground_weight": result.ground_weight,
            "min_gap": gap.min_gap,
            "recommended_time": gap.recommended_time,
        }
        writer.write("summary.json", json.dumps(summary, indent=2) + "\n")
        extra["ground_weight"] = result.ground_weight
        print(f"adiabatic run: {steps} steps, final ground weight {result.ground_weight:.6f}")
    writer.manifest("adiabatic", config_path, seed, extra)
    return EXIT_OK


def _run_sweep(base, hw, etas, steps_list, reps, seed, jobs, plan_target=None):
    if jobs <= 1 or len(etas) * len(steps_list) <= 1:
        return error_sweep(base, hw, etas, steps_list, reps, base_seed=seed,
                           plan_target=plan_target)
    from concurrent.futures import ProcessPoolExecutor

    cells = [(eta, s) for eta in etas for s in steps_list]
    rows = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        futures = [
            pool.submit(error_sweep, base, hw, [eta], [s], reps, seed,
                        plan_target=plan_target)
            for eta, s in cells
        ]
        for fut in futures:
            rows.extend(fut.result())
    return rows


def _parse_matrix(text: str) -> CoeffMatrix:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if len(rows) != 3:
        raise ValueError("a matrix needs 3 ';'-separated rows")
    return CoeffMatrix(np.array([[float(x) for x in r.split()] for r in rows]))


def cmd_cost(args, cfg, config_path) -> int:
    if not cfg.has_section("cost"):
        raise UsageError("config needs a [cost] section")
    section = cfg["cost"]
    gamma = config_value(section, "gamma", _nonzero_finite_float, 1.0)
    mode = section.get("mode", "homogeneous")
    matrix = config_value(section, "matrix", _parse_matrix, CoeffMatrix(np.diag([0.0, 0.0, 1.0])))
    lines = []
    if mode == "homogeneous":
        res = homogeneous_feasibility(matrix, gamma)
        if not res.feasible:
            sys.stderr.write(res.message + "\n")
            return EXIT_INFEASIBLE
        cost_value = res.time_cost
        lines.append(f"feasible=True")
    elif mode == "inhomogeneous":
        cost_value = inhomogeneous_cost(matrix, gamma)
    else:
        raise UsageError(f"unknown mode {mode!r}")
    lines.append(f"c={cost_value!r}")
    if "t_prime" in section and "epsilon" in section:
        t_prime = config_value(section, "t_prime", _finite_float)
        epsilon = config_value(section, "epsilon", _finite_float)
        n_controls = config_value(section, "n_controls", _non_negative_int, 1)
        report = cost_report(cost_value, n_controls, trotter_cycles(cost_value, t_prime, epsilon),
                             t_prime, epsilon)
        lines.append(f"L={report.num_gates}")
        lines.append(f"chi={report.chi!r}")
    writer = OutputWriter(Path(args.out_dir))
    writer.write("cost.txt", "\n".join(lines) + "\n")
    writer.manifest("cost", config_path)
    print("\n".join(lines))
    return EXIT_OK


def cmd_crosstalk(args, cfg, config_path) -> int:
    from .hardware import crosstalk_report

    if not cfg.has_section("crosstalk"):
        raise UsageError("config needs a [crosstalk] section")
    hw = load_hardware(cfg, config_path)
    if not isinstance(hw, TrapArrayModel):
        raise UsageError("crosstalk needs a uqs2 [hardware] description")
    groups = config_value(cfg["crosstalk"], "groups", lambda text: hw.pushed_groups(
        _ints(chunk) for chunk in text.split(";") if chunk.strip()), [])
    if not groups:
        raise UsageError("[crosstalk] needs groups= (e.g. '0 1; 11 12')")
    report = crosstalk_report(hw, groups)
    lines = [f"threshold={report.threshold!r}",
             f"max_ratio={report.max_ratio!r}",
             f"concurrent={report.concurrent}"]
    for gi, gj, ratio in report.ratios:
        lines.append(f"ratio[{gi},{gj}]={ratio!r}")
    writer = OutputWriter(Path(args.out_dir))
    writer.write("crosstalk.txt", "\n".join(lines) + "\n")
    writer.manifest("crosstalk", config_path)
    print("\n".join(lines))
    return EXIT_OK


HANDLERS = {
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "adiabatic": cmd_adiabatic,
    "cost": cmd_cost,
    "crosstalk": cmd_crosstalk,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = resolve_config_path(args.config)
        cfg = load_config(config_path)
        if args.out_dir == "." and cfg.has_option("output", "dir"):
            args.out_dir = str(_relative(cfg.get("output", "dir"), config_path))
        return HANDLERS[args.command](args, cfg, config_path)
    except UsageError as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_USAGE
    except (PauliError, OSError, StateFormatError) as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_USAGE
    except PolicyError as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_POLICY
    except (InfeasibleTargetError, HardwareConstraintError, UnsupportedInteractionError) as exc:
        sys.stderr.write(f"uqsim: infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (CompileError, ExperimentError) as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_USAGE
    except (EngineError, HardwareError) as exc:
        sys.stderr.write(f"uqsim: numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
