"""The benchmark's workloads: inputs made from a seed, the uqsim commands
that run them, and the checks on their outputs.

Each workload writes its inputs once into a work directory. One run of a
workload is a pipeline of `uqsim` commands executed in `<work>/run`, which
is emptied before every run; `check` then reads that run's outputs and
returns the numbers it checked, raising CheckError when one is wrong.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

DEFAULT_SEED = 1  # the seed in every bundled config
RUN_DIR = "run"     # each run executes in <work>/run, emptied between runs
MATCH_TOL = 1e-9
WEIGHT_TOL = 1e-12


class CheckError(Exception):
    pass


def _finite(value, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CheckError(f"{what} is not finite: {value!r}")
    return x


def _unit(value, what: str) -> float:
    x = _finite(value, what)
    if not -WEIGHT_TOL <= x <= 1.0 + WEIGHT_TOL:
        raise CheckError(f"{what} = {x!r} is outside [0, 1]")
    return x


def _match(value: float, expected: float, what: str):
    if abs(value - expected) > MATCH_TOL:
        raise CheckError(f"{what} = {value!r}, expected {expected!r} at the default seed")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_histogram(out: Path) -> list[float]:
    rows = _rows(out / "histogram.csv")
    weights = [_unit(r["weight"], "histogram weight") for r in rows]
    for r in rows:
        _finite(r["energy"], "histogram energy")
    if abs(sum(weights) - 1.0) > MATCH_TOL:
        raise CheckError(f"histogram weights sum to {sum(weights)!r}")
    return weights


class Workload:
    name = ""
    why = ""

    def prepare(self, src: Path, work: Path, seed: int) -> None:
        """Write this workload's inputs for `seed` into `work`."""
        raise NotImplementedError

    def commands(self, seed: int) -> list[list[str]]:
        """`uqsim` argument lists of one run, executed in order in the run
        directory."""
        raise NotImplementedError

    def check(self, run_dir: Path, seed: int) -> dict:
        raise NotImplementedError


class BundledRun(Workload):
    """A single adiabatic run of a bundled config as shipped."""

    def __init__(self, name, config, expected_weight, why):
        self.name, self.config, self.expected, self.why = name, config, expected_weight, why

    def prepare(self, src, work, seed):
        (work / self.config).write_text((src / "uqsim" / "configs" / self.config).read_text())

    def commands(self, seed):
        return [["adiabatic", "--config", f"../{self.config}", "--seed", str(seed),
                 "--jobs", "1", "--out-dir", "out"]]

    def check(self, run_dir, seed):
        out = run_dir / "out"
        summary = json.loads((out / "summary.json").read_text())
        for key, value in summary.items():
            _finite(value, f"summary {key}")
        weight = _unit(summary["ground_weight"], "ground weight")
        weights = _check_histogram(out)
        if weights[0] != weight:
            raise CheckError("ground weight differs from the first histogram weight")
        for r in _rows(out / "trajectory.csv"):
            _unit(r["fidelity"], "trajectory fidelity")
            _finite(r["energy"], "trajectory energy")
        if seed == DEFAULT_SEED:
            _match(weight, self.expected, f"{self.name} ground weight")
        return {"ground_weight": weight, "min_gap": summary["min_gap"]}


class SweepCell(Workload):
    """fig4b.cfg with its [sweep] narrowed to one (eta, steps) cell."""

    name = "fig4b-cell"
    why = ("one fig4b sweep cell, 10 runs x 500 jittered steps at n=7: "
           "execution only, the oracle is under 0.2% of the run")
    sweep = {"etas": "0.02", "steps_list": "500", "repetitions": "10"}
    expected_mean = 0.3801198943020553

    def prepare(self, src, work, seed):
        text = (src / "uqsim" / "configs" / "fig4b.cfg").read_text()
        for key, value in self.sweep.items():
            text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            if n != 1:
                raise CheckError(f"bundled fig4b.cfg has no single '{key} =' line")
        (work / "fig4b-cell.cfg").write_text(text)

    def commands(self, seed):
        return [["adiabatic", "--config", "../fig4b-cell.cfg", "--seed", str(seed),
                 "--jobs", "1", "--out-dir", "out"]]

    def check(self, run_dir, seed):
        rows = _rows(run_dir / "out" / "sweep.csv")
        if len(rows) != 1:
            raise CheckError(f"sweep.csv has {len(rows)} rows, expected 1")
        row = rows[0]
        if (float(row["eta"]), int(row["steps"]), int(row["repetitions"])) != (0.02, 500, 10):
            raise CheckError(f"unexpected sweep cell {row}")
        mean = _unit(row["mean_fidelity"], "mean fidelity")
        for key in ("std_fidelity", "stderr"):
            if _finite(row[key], key) < 0:
                raise CheckError(f"{key} is negative")
        if seed == DEFAULT_SEED:
            _match(mean, self.expected_mean, "fig4b-cell mean fidelity")
        return {"mean_fidelity": mean}


class TrotterPipeline(Workload):
    """`uqsim compile` then `uqsim simulate --oracle` of a random Ising chain
    on the trap platform.

    The couplings are an evenly spaced grid over [0.5, 1.5] that the seed
    shuffles over the bonds, so the time cost c, the cycle count L and the
    instruction count are the same at every seed; the fields are drawn
    uniformly from [0.2, 0.8].
    """

    name = "trotter-uqs2"
    why = ("compile then simulate --oracle of a seeded random Ising chain on 8 trap ions: "
           "the only workload with schedule text and per-qubit layers")
    n_ions = 8
    cycles = 1225            # L = ceil(c^2 t'^2 / eps) with c = 3.5, t' = 1, eps = 0.01
    instructions = 26950
    fidelity_floor = 0.8     # 1% jitter would drive it to about 0.004
    expected_fidelity = 0.958793726903209

    def hamiltonian_text(self, seed: int) -> str:
        n = self.n_ions
        rng = random.Random(seed)
        couplings = [0.5 + (i + 0.5) / (n - 1) for i in range(n - 1)]
        rng.shuffle(couplings)
        fields = [rng.uniform(0.2, 0.8) for _ in range(n)]
        lines = [f"# hamiltonian n_qubits={n}"]
        for a, j in enumerate(couplings):
            ops = ["I"] * n
            ops[a] = ops[a + 1] = "Z"
            lines.append(f"{-0.5 * j!r} " + " ".join(ops))
        for q, b in enumerate(fields):
            ops = ["I"] * n
            ops[q] = "X"
            lines.append(f"{b!r} " + " ".join(ops))
        return "\n".join(lines) + "\n"

    def prepare(self, src, work, seed):
        (work / "target.ham").write_text(self.hamiltonian_text(seed))
        positions = " ; ".join(str(i) for i in range(self.n_ions))
        (work / "compile.cfg").write_text(
            "[hardware]\nplatform = uqs2\ngamma = 1.0\n"
            f"positions = {positions}\n"
            "[compile]\nhamiltonian = target.ham\nt_prime = 1.0\nepsilon = 0.01\n"
        )
        # paths in a config are relative to the config's directory
        (work / "simulate.cfg").write_text(
            f"[simulate]\nschedule = {RUN_DIR}/compiled/schedule.txt\n"
            "oracle_hamiltonian = target.ham\nt_prime = 1.0\n"
            "eta_local = 0.002\neta_int = 0.001\n"
        )

    def commands(self, seed):
        return [
            ["compile", "--config", "../compile.cfg", "--out-dir", "compiled"],
            ["simulate", "--config", "../simulate.cfg", "--seed", str(seed), "--oracle",
             "--jobs", "1", "--out-dir", "simulated"],
        ]

    def check(self, run_dir, seed):
        compiled = json.loads((run_dir / "compiled" / "compile.json").read_text())
        cycles = compiled["cost"]["L"]
        n_instr = compiled["schedule"]["num_instructions"]
        if (cycles, n_instr) != (self.cycles, self.instructions):
            raise CheckError(f"L={cycles}, {n_instr} instructions; "
                             f"expected {self.cycles}, {self.instructions}")
        summary = json.loads((run_dir / "simulated" / "summary.json").read_text())
        norm = _finite(summary["norm"], "norm")
        if abs(norm - 1.0) > MATCH_TOL:
            raise CheckError(f"final norm {norm!r}")
        fid = _unit(summary["oracle_fidelity"], "oracle fidelity")
        if fid < self.fidelity_floor:
            raise CheckError(f"oracle fidelity {fid!r} below the floor {self.fidelity_floor}")
        for line in (run_dir / "simulated" / "state.txt").read_text().splitlines()[1:]:
            _, re_, im = line.split()
            _finite(re_, "amplitude")
            _finite(im, "amplitude")
        if seed == DEFAULT_SEED:
            _match(fid, self.expected_fidelity, "trotter-uqs2 oracle fidelity")
        return {"L": cycles, "instructions": n_instr, "oracle_fidelity": fid}


WORKLOADS = {w.name: w for w in (
    BundledRun("fig4a", "fig4a.cfg", 0.9470861386421064,
               "bundled fig4a.cfg (n=7, 100 steps, every step recorded): oracle-heavy, "
               "execution is about a tenth of the run"),
    BundledRun("fig5", "fig5.cfg", 0.5422229263440063,
               "bundled fig5.cfg (n=9, 500 noisy steps): the min_gap scan of 512x512 "
               "eigh and to_matrix beside a fifth of execution"),
    SweepCell(),
    TrotterPipeline(),
)}
