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

# What every command runs is imported by name; the rest is bound as modules,
# which load on first use (see uqsim/__init__.py), so that each command
# compiles only the modules it runs.
from . import __version__, compiler, engine, experiments, hardware, svg
from .errors import (
    CompileError,
    EngineError,
    ExperimentError,
    HardwareConstraintError,
    HardwareError,
    InfeasibleTargetError,
    LogFormatError,
    StateFormatError,
    UnsupportedInteractionError,
)
from .pauli import CoeffMatrix, Hamiltonian, PauliError
from .schedule import schedule_from_lines, schedule_text_chunks

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
    p_sim.add_argument("--replay", metavar="LOG", default=None,
                       help="take every jitter draw from an execution_log.txt of an earlier "
                            "run of this schedule, not from the seed's generator")
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


def _number(kind, ok, why: str):
    """A converter of text into a `kind` number for which ok(number) holds."""
    def convert(text: str):
        if not ok(value := kind(text)):
            raise ValueError(why)
        return value
    return convert


_finite_float = _number(float, math.isfinite, "not a finite number")
_non_negative_int = _number(int, lambda value: value >= 0, "must be a non-negative integer")
_jitter_fraction = _number(float, lambda value: 0.0 <= value < 1.0, "outside [0, 1)")


def _list(item, sep=None, least=1, most=None):
    """A converter of `sep`-separated text (whitespace by default) into the
    tuple of `item` of each non-blank part, with least..most parts."""
    def convert(text: str) -> tuple:
        values = tuple(item(part.strip()) for part in text.split(sep) if part.strip())
        if not least <= len(values) <= (most or len(values)):
            wanted = least if least == most else f"at least {least}"
            raise ValueError(f"needs {wanted} value(s), got {len(values)}")
        return values
    return convert


def _choice(*names, files=False):
    """A converter that takes one of `names`, or file:PATH where `files`."""
    def convert(text: str) -> str:
        if text in names or (files and text.startswith("file:")):
            return text
        raise ValueError("use " + " | ".join(names + ("file:PATH",) * files))
    return convert


def _one_of(names):
    """_choice of the names that names() gives, called at conversion: the
    module that holds them loads only when a file has the key."""
    return lambda text: _choice(*names())(text)


def parse_geometry(spec: str) -> experiments.Geometry:
    parts = spec.split(":")
    if parts[0] == "chain" and len(parts) == 2:
        return experiments.Geometry.chain(int(parts[1]))
    if parts[0] == "grid" and len(parts) in (2, 3):
        rows, cols = (int(x) for x in parts[1].split("x"))
        pattern = parts[2] if len(parts) == 3 else "rectangular"
        return experiments.Geometry.grid(rows, cols, pattern)
    raise ValueError("use chain:N or grid:RxC[:pattern]")


def _coupling(text: str) -> tuple[tuple[int, int], float]:
    pair, value = text.split(":")
    a, b = pair.split("-")
    return (int(a), int(b)), _finite_float(value)


_JITTER = {  # the keys of a run with timing jitter
    "seed": (_non_negative_int, None),
    "eta_local": (_jitter_fraction, None),
    "eta_int": (_jitter_fraction, None),
}

# Each section uqsim reads, but [hardware]: its keys, each with its converter
# and its default (None: unset). load_config converts every key a file has,
# so a value that does not convert exits 1 even where the run would not read
# it. [hardware] stays text for parse_hardware_text, whose HARDWARE_KEYS are
# its keys; sections that uqsim does not read, such as [run], may hold any.
CONFIG_TABLE = {
    "compile": {
        "hamiltonian": (str, None),
        "t_prime": (_finite_float, 1.0),
        "epsilon": (_finite_float, 0.01),
    },
    "simulate": {
        "schedule": (str, "schedule.txt"),
        "initial": (_choice("zeros", files=True), "zeros"),
        **_JITTER,
        "observables": (_list(str, ",", least=0), ()),
        "oracle_hamiltonian": (str, None),
        "t_prime": (_finite_float, 1.0),
    },
    "adiabatic": {
        "initial": (_choice("zz_chain", "xx_chain", files=True), "zz_chain"),
        "steps": (int, 100),
        "theta1": (float, 0.1),
        "ramp": (_one_of(lambda: experiments.RAMPS), "linear"),
        "record_every": (int, None),
        **_JITTER,
    },
    "sweep": {
        "etas": (_list(_jitter_fraction), (0.0,)),
        "steps_list": (_list(int), None),
        "repetitions": (int, 20),
    },
    "model": {
        "name": (_one_of(lambda: experiments.MODEL_NAMES), "ising"),
        "geometry": (parse_geometry, None),  # unset: chain:2 (load_named_model)
        "j": (_finite_float, None),
        "b": (_finite_float, None),
        "direction": (_list(_finite_float, least=3, most=3), None),
        "b_values": (_list(_finite_float), None),
        "j_values": (_list(_coupling, ","), None),
        "j_range": (_list(_finite_float, least=2, most=2), None),
        "seed": (_non_negative_int, None),
    },
    "cost": {
        "mode": (_choice("homogeneous", "inhomogeneous"), "homogeneous"),
        "gamma": (lambda text: compiler.check_gamma(float(text)), 1.0),
        "matrix": (lambda text: CoeffMatrix(np.array(_list(_list(float), ";", 3, 3)(text))),
                   CoeffMatrix(np.diag([0.0, 0.0, 1.0]))),
        "t_prime": (_finite_float, None),
        "epsilon": (_finite_float, None),
        "n_controls": (_non_negative_int, None),
    },
    "crosstalk": {"groups": (_list(_list(int), ";"), None)},
    "output": {"dir": (str, None)},
}


class Config(dict):
    """section name -> {key: value}, as load_config reads them from `parser`."""

    parser: configparser.ConfigParser


def load_config(path: Path) -> Config:
    """Each section of the config that uqsim reads, its keys converted
    through CONFIG_TABLE and its absent keys at their defaults; [hardware]
    as text. A key its section does not take, or a value that does not
    convert, is a UsageError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    cfg = Config()
    cfg.parser = parser
    for name in parser.sections():
        section, table = parser[name], CONFIG_TABLE.get(name)
        if name == "hardware":
            cfg[name] = dict(section)
        if table is None:
            continue
        unknown = sorted(set(section) - set(table))
        if unknown:
            raise UsageError(f"[{name}] has no key {', '.join(unknown)} (it takes {' '.join(table)})")
        cfg[name] = {key: default for key, (_, default) in table.items()}
        for key, raw in section.items():
            cfg[name][key] = _checked(f"[{name}] {key} = {raw!r}:", table[key][0], raw)
    return cfg


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs); an error the library raises on a value is a
    UsageError that starts with `where`, the key or flag that gave it."""
    try:
        return build(*args, **kwargs)
    except (CompileError, EngineError, ExperimentError, HardwareError, OSError,
            ValueError) as exc:
        raise UsageError(f"{where} {exc}") from exc


def _lines(fh, size: int = 1 << 16):
    """The lines of a text file opened with newline="", as its whole text's
    str.splitlines(keepends=True) gives them: the file's own lines, which
    end at CR, LF or CRLF only, split again about `size` characters at a time."""
    while batch := fh.readlines(size):
        yield from "".join(batch).splitlines(keepends=True)


def _read_input(path: Path, parse="".join):
    """`parse` of the _lines of a UTF-8 input file named by a config (by
    default its text)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return parse(_lines(fh))


def _read_log(path: Path) -> tuple[engine.ExecutionLog, str]:
    """The execution log in a file, and the sha256 of its bytes."""
    text = _read_input(path)
    return engine.ExecutionLog.from_text(text), hashlib.sha256(text.encode()).hexdigest()


def _input(cfg, name: str, key: str, config_path: Path, parse="".join):
    """_read_input of the file that [name] key names (a path, or file:PATH),
    relative to the config's directory unless absolute; a file it cannot
    read or parse is a UsageError naming the key."""
    spec = cfg[name][key]
    return _checked(f"[{name}] {key} = {spec!r}:", _read_input,
                    config_path.parent / spec.removeprefix("file:"), parse)


def _run_seed(args, section) -> int | None:
    """--seed, else the section's seed= (None if unset); a negative --seed is
    a UsageError naming the flag."""
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed {args.seed}: a seed must be a non-negative integer")
    return section["seed"] if args.seed is None else args.seed


def load_hardware(cfg, config_path):
    section = cfg["hardware"]
    if "file" in section:
        if len(section) > 1:
            others = ", ".join(k for k in section if k != "file")
            raise UsageError(f"[hardware] file = takes no other keys, got {others}")
        text = _input(cfg, "hardware", "file", config_path)
    else:
        lines = [f"{k} {v}" for k, v in section.items() if k != "positions"]
        if "positions" in section:
            lines.append("positions")
            lines += [chunk.strip() for chunk in section["positions"].split(";") if chunk.strip()]
        text = "\n".join(lines) + "\n"
    return _checked("[hardware]", hardware.parse_hardware_text, text)


MODEL_FIELDS = {"b_values": "b_list", "j_values": "j_map"}  # the [model] keys NamedModel renames


def load_named_model(cfg) -> experiments.NamedModel:
    """The [model] section as a NamedModel, on a 2-site chain unless it
    sets geometry; its errors name the section and the config keys."""
    kwargs = {MODEL_FIELDS.get(k, k): v for k, v in cfg["model"].items() if v is not None}
    kwargs.setdefault("geometry", experiments.Geometry.chain(2))
    try:
        return experiments.NamedModel(**kwargs)
    except ExperimentError as exc:
        message = str(exc)
        for key, name in MODEL_FIELDS.items():  # name the config keys, not NamedModel's fields
            message = message.replace(name, key)
        raise UsageError(f"[model] {message}") from exc


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
                for data in map(str.encode, chunks):
                    digest.update(data)
                    fh.write(data)
                    del data  # not held while the next chunk is built
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
    section = cfg["compile"]
    t_prime, epsilon = section["t_prime"], section["epsilon"]
    _checked("[compile]", compiler.check_budget, t_prime, epsilon)
    hw = load_hardware(cfg, config_path)
    if section["hamiltonian"] is not None:
        target = Hamiltonian.from_text(_input(cfg, "compile", "hamiltonian", config_path))
    elif "model" in cfg:
        target = experiments.build_model(load_named_model(cfg))
    else:
        raise UsageError("[compile] needs hamiltonian= or a [model] section")
    schedule, report = compiler.trotter_schedule(target, t_prime, epsilon, hw)
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


def _error_model_from(section, seed) -> engine.ErrorModel | None:
    eta_local, eta_int = section["eta_local"] or 0.0, section["eta_int"] or 0.0
    if eta_local == 0.0 and eta_int == 0.0:
        return None
    if seed is None:
        raise PolicyError("an error model needs a seed for reproducibility: "
                          "set seed= or pass --seed")
    return engine.ErrorModel(eta_local=eta_local, eta_int=eta_int, seed=seed)


def cmd_simulate(args, cfg, config_path) -> int:
    section = cfg["simulate"]
    schedule = _input(cfg, "simulate", "schedule", config_path, schedule_from_lines)
    if section["initial"] == "zeros":
        state = engine.StateVector.zero_state(schedule.n_qubits)
    else:
        state = engine.StateVector.load_text(_input(cfg, "simulate", "initial", config_path))
    if state.n_qubits != schedule.n_qubits:
        raise UsageError(f"[simulate] initial = {section['initial']} holds {state.n_qubits} "
                         f"qubits, the schedule is for {schedule.n_qubits}")
    obs = [(spec, _checked(f"[simulate] observables entry {spec!r}:", engine.parse_observable,
                           spec, schedule.n_qubits)) for spec in section["observables"]]
    if args.oracle:
        if section["oracle_hamiltonian"] is None:
            raise UsageError("--oracle needs oracle_hamiltonian= in [simulate]")
        h = Hamiltonian.from_text(_input(cfg, "simulate", "oracle_hamiltonian", config_path))
        if h.n_qubits != schedule.n_qubits:
            raise UsageError(f"[simulate] oracle_hamiltonian holds {h.n_qubits} qubits, "
                             f"the schedule is for {schedule.n_qubits}")
    seed, replay, where = _run_seed(args, section), None, f"--replay {args.replay}:"
    if args.replay is not None:  # the run takes its draws and its seed from the log
        replay, digest = _checked(where, _read_log, Path(args.replay))
        if args.seed is not None and args.seed != replay.seed:
            raise UsageError(f"{where} the log is of seed={replay.seed}, not --seed {args.seed}")
        if replay.seed is None and (section["eta_local"] or section["eta_int"]):
            raise UsageError(f"{where} the log is of a run without jitter (seed=None)")
        seed = replay.seed
    err = _error_model_from(section, seed)
    try:
        final, log = engine.run_schedule(state, schedule, err, replay)
    except LogFormatError as exc:  # the log does not fit this schedule and error model
        raise UsageError(f"{where} {exc}") from exc
    writer = OutputWriter(Path(args.out_dir))
    writer.write("state.txt", final.dump_text())
    writer.write_chunks("execution_log.txt", log.text_chunks())
    summary = {"n_qubits": final.n_qubits, "norm": final.norm()}
    if obs:
        values = [(spec, engine.expectation(final, op)) for spec, op in obs]
        lines = ["observable,value"] + [f"{name},{value!r}" for name, value in values]
        writer.write("observables.csv", "\n".join(lines) + "\n")
        summary["observables"] = {name: value for name, value in values}
    if args.oracle:
        reference = engine.exact_evolve(h, section["t_prime"], state)
        fid = engine.fidelity(final, reference)
        summary["oracle_fidelity"] = fid
        print(f"oracle_fidelity={fid!r}")
    writer.write("summary.json", json.dumps(summary, indent=2) + "\n")
    writer.manifest("simulate", config_path, seed,
                    None if replay is None else {"replay": {"log": args.replay, "sha256": digest}})
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
    section = cfg["adiabatic"]
    hw = load_hardware(cfg, config_path)
    model = load_named_model(cfg)
    target = experiments.build_model(model)
    if section["initial"].startswith("file:"):
        initial = Hamiltonian.from_text(_input(cfg, "adiabatic", "initial", config_path))
    else:
        initial = experiments.nn_chain(section["initial"].split("_")[0], model.geometry.n_sites)
    seed = _run_seed(args, section)
    base = _checked("[adiabatic]", experiments.AdiabaticConfig, h_initial=initial,
                    h_target=target, steps=section["steps"], theta1=section["theta1"],
                    ramp=section["ramp"],
                    record_every=1 if section["record_every"] is None else section["record_every"])
    if args.steps is not None:
        base = _checked(f"--steps {args.steps}:", replace, base, steps=args.steps)
    writer = OutputWriter(Path(args.out_dir))
    plan_target = experiments.protocol_for_model(model, hw)
    extra = {}
    if "sweep" in cfg:
        ignored = [key for key in ("eta_local", "eta_int") if section[key] is not None]
        if section["record_every"]:  # 0 and unset are what a sweep does
            ignored.append("record_every")
        if ignored:
            raise UsageError(f"[adiabatic] {', '.join(ignored)} does nothing with [sweep]: "
                             "it sets both etas per cell and records no trajectory")
        etas, steps_list, reps = (cfg["sweep"][k] for k in ("etas", "steps_list", "repetitions"))
        steps_list = steps_list or (base.steps,)
        for s in steps_list:
            _checked("[sweep] steps_list:", replace, base, steps=s)
        if any(e > 0 for e in etas) and seed is None:
            raise PolicyError("sweep with noise needs a seed (seed= or --seed)")
        rows = _run_sweep(base, hw, etas, steps_list, reps, seed or 0, args.jobs, plan_target)
        writer.write("sweep.csv", experiments.sweep_table_csv(rows))
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
        path = experiments.GroundPath(initial, target)
        result = experiments.adiabatic_run(run_cfg, hw, plan_target=plan_target, ground_path=path)
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
        gap = experiments.min_gap(path, samples=41)
        summary = {
            "steps": base.steps,
            "theta1": base.theta1,
            "dt": result.dt,
            "t_sim": result.t_sim,
            "ground_weight": result.ground_weight,
            "min_gap": gap.min_gap,
            "recommended_time": gap.recommended_time,
        }
        writer.write("summary.json", json.dumps(summary, indent=2) + "\n")
        extra["ground_weight"] = result.ground_weight
        print(f"adiabatic run: {base.steps} steps, final ground weight {result.ground_weight:.6f}")
    writer.manifest("adiabatic", config_path, seed, extra)
    return EXIT_OK


def _run_sweep(base, hw, etas, steps_list, reps, seed, jobs, plan_target=None):
    if jobs <= 1 or len(etas) * len(steps_list) <= 1:
        return experiments.error_sweep(base, hw, etas, steps_list, reps, base_seed=seed,
                                       plan_target=plan_target)
    from concurrent.futures import ProcessPoolExecutor

    cells = [(eta, s) for eta in etas for s in steps_list]
    rows = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        futures = [
            pool.submit(experiments.error_sweep, base, hw, [eta], [s], reps, seed,
                        plan_target=plan_target)
            for eta, s in cells
        ]
        for fut in futures:
            rows.extend(fut.result())
    return rows


def cmd_cost(args, cfg, config_path) -> int:
    section = cfg["cost"]
    given = [k for k in ("t_prime", "epsilon", "n_controls") if section[k] is not None]
    if given and not {"t_prime", "epsilon"} <= set(given):
        raise UsageError(f"[cost] {', '.join(given)} does nothing alone: "
                         "L and chi need both t_prime and epsilon")
    lines = []
    if section["mode"] == "homogeneous":
        res = compiler.homogeneous_feasibility(section["matrix"], section["gamma"])
        if not res.feasible:
            sys.stderr.write(res.message + "\n")
            return EXIT_INFEASIBLE
        cost_value = res.time_cost
        lines.append(f"feasible=True")
    else:
        cost_value = compiler.inhomogeneous_cost(section["matrix"], section["gamma"])
    lines.append(f"c={cost_value!r}")
    if given:
        t_prime, epsilon, n_controls = (section[k] for k in ("t_prime", "epsilon", "n_controls"))
        num_cycles = _checked("[cost]", compiler.trotter_cycles, cost_value, t_prime, epsilon)
        report = compiler.cost_report(cost_value, 1 if n_controls is None else n_controls,
                                      num_cycles, t_prime, epsilon)
        lines.append(f"L={report.num_gates}")
        lines.append(f"chi={report.chi!r}")
    writer = OutputWriter(Path(args.out_dir))
    writer.write("cost.txt", "\n".join(lines) + "\n")
    writer.manifest("cost", config_path)
    print("\n".join(lines))
    return EXIT_OK


def cmd_crosstalk(args, cfg, config_path) -> int:
    hw = load_hardware(cfg, config_path)
    if not isinstance(hw, hardware.TrapArrayModel):
        raise UsageError("crosstalk needs a uqs2 [hardware] description")
    if cfg["crosstalk"]["groups"] is None:
        raise UsageError("[crosstalk] needs groups= (e.g. '0 1; 11 12')")
    raw = cfg.parser["crosstalk"]["groups"]  # quoted as written
    groups = _checked(f"[crosstalk] groups = {raw!r}:", hw.pushed_groups, cfg["crosstalk"]["groups"])
    report = hardware.crosstalk_report(hw, groups)
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


HANDLERS = {  # each command, then the sections it needs, checked in this order
    "compile": (cmd_compile, "compile", "hardware"),
    "simulate": (cmd_simulate, "simulate"),
    "adiabatic": (cmd_adiabatic, "adiabatic", "hardware", "model"),
    "cost": (cmd_cost, "cost"),
    "crosstalk": (cmd_crosstalk, "crosstalk", "hardware"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = resolve_config_path(args.config)
        cfg = load_config(config_path)
        command, *needed = HANDLERS[args.command]
        for name in needed:
            if name not in cfg:
                raise UsageError(f"config needs {'an' if name[0] in 'aeiou' else 'a'} [{name}] section")
        out_dir = cfg.get("output", {}).get("dir")
        if args.out_dir == "." and out_dir is not None:
            args.out_dir = str(config_path.parent / out_dir)
        return command(args, cfg, config_path)
    except (InfeasibleTargetError, HardwareConstraintError, UnsupportedInteractionError) as exc:
        sys.stderr.write(f"uqsim: infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (UsageError, PauliError, OSError, StateFormatError, LogFormatError, CompileError,
            ExperimentError) as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_USAGE
    except PolicyError as exc:
        sys.stderr.write(f"uqsim: {exc}\n")
        return EXIT_POLICY
    except (EngineError, HardwareError) as exc:
        sys.stderr.write(f"uqsim: numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
