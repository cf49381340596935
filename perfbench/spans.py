"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the uqsim layers from outside the
package: nothing under ``src/`` knows about it. Each wrapped call is a span
with a name; spans nest, so a span's self time is its duration minus the
time covered by its child spans. Counts of calls, parent->child call edges
and a few work counters are kept in memory and written out as JSON when the
traced command ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)   # inclusive, outermost span per name
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)   # inclusive, outermost span per group
        self.edges = defaultdict(int)       # (parent name, child name) -> calls
        self.counters = defaultdict(int)
        self._stack = []                    # open spans: [name, child seconds]
        self._open = defaultdict(int)       # open spans per name and per group

    def wrap(self, fn, name, groups=(), count=None):
        """Return `fn` wrapped in a span; `count(args, kwargs, result)` may
        return counter increments for the call."""
        clock = time.perf_counter
        stack, opened, keys = self._stack, self._open, (name,) + tuple(groups)
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        group_s, edges, counters = self.group_s, self.edges, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            for k in keys:
                opened[k] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                for k in keys:
                    opened[k] -= 1
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if not opened[name]:
                    total_s[name] += dt
                for g in groups:
                    if not opened[g]:
                        group_s[g] += dt
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counters[key] += n
            return result

        return traced

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "counters": dict(self.counters),
        }


def _execute_work(args, kwargs, result):
    """Instructions run and jitter values drawn by one execute_instructions call."""
    from uqsim.compiler import ApplyLocal

    n_qubits, instructions, err = args[1], args[2], args[3]
    n = draws = 0
    for ins in instructions:
        n += 1
        if isinstance(ins, ApplyLocal):
            draws += n_qubits if err is not None and err.eta_local > 0 else 0
        elif err is not None and err.eta_int > 0:
            draws += len(ins.targets)
    return {"engine.instructions": n, "engine.jitter_draws": draws}


def _kernel_bytes(args, kwargs, result):
    # each amplitude is read once and written once
    return {"kernels.bytes_computed": 2 * args[0].nbytes}


def _text_bytes(args, kwargs, result):
    text = result if isinstance(result, str) else args[0]
    return {"compiler.schedule_io.bytes": len(text)}


def _write_bytes(args, kwargs, result):
    return {"cli.output.bytes": len(args[2].encode())}


def _manifest_bytes(args, kwargs, result):
    return {"cli.output.bytes": (args[0].out_dir / "manifest.json").stat().st_size}


# (module, attribute, span name, groups, counter) for every traced function.
# Functions that format or write outputs all count as "cli.output".
ORACLE = ("engine.oracle",)
TRACED = (
    ("pauli", "Hamiltonian.to_matrix", "pauli.to_matrix", (), None),
    ("pauli", "SingleQubitUnitary.__init__", "pauli.unitary_new", (), None),
    ("pauli", "SingleQubitUnitary.with_angle_scale", "pauli.with_angle_scale", (), None),
    ("compiler", "plan_for_hamiltonian", "compiler.plan", ("compiler",), None),
    ("compiler", "emit_cycle", "compiler.emit_cycle", ("compiler",), None),
    ("compiler", "trotter_schedule", "compiler.trotter_schedule", ("compiler",), None),
    ("compiler", "schedule_to_text", "compiler.schedule_io", ("compiler",), _text_bytes),
    ("compiler", "schedule_from_text", "compiler.schedule_io", ("compiler",), _text_bytes),
    ("hardware", "parse_hardware_text", "hardware", (), None),
    ("hardware", "displacement_classes", "hardware", (), None),
    ("engine", "execute_instructions", "engine.execute", (), _execute_work),
    ("engine", "_spectrum", "engine.spectrum", ORACLE, None),
    ("engine", "SpectrumCache.from_hamiltonian", "engine.spectrum_cache", ORACLE, None),
    ("engine", "SpectrumCache.group_weight", "engine.group_weight", ORACLE, None),
    ("engine", "ground_state", "engine.ground_state", ORACLE, None),
    ("engine", "exact_evolve", "engine.exact_evolve", ORACLE, None),
    ("engine", "expectation_energy", "engine.expectation_energy", ORACLE, None),
    ("engine", "subspace_fidelity", "engine.subspace_fidelity", ORACLE, None),
    ("engine", "fidelity", "engine.fidelity", ORACLE, None),
    ("kernels", "apply_single_qubit", "kernels.single_qubit", (), _kernel_bytes),
    ("kernels", "apply_zz_phase", "kernels.zz_phase", (), _kernel_bytes),
    ("experiments", "build_model", "experiments.model", (), None),
    ("experiments", "protocol_for_model", "experiments.model", (), None),
    ("experiments", "nn_chain", "experiments.model", (), None),
    ("experiments", "min_gap", "experiments.min_gap", (), None),
    ("experiments", "GroundPath.ground_basis", "experiments.ground_basis", (), None),
    ("experiments", "adiabatic_run", "experiments.adiabatic_run", (), None),
    ("experiments", "error_sweep", "experiments.error_sweep", (), None),
    ("cli", "main", "cli.main", (), None),
    ("cli", "OutputWriter.write", "cli.output", (), _write_bytes),
    ("cli", "OutputWriter.manifest", "cli.output", (), _manifest_bytes),
    ("cli", "_trajectory_csv", "cli.output", (), None),
    ("cli", "_histogram_csv", "cli.output", (), None),
    ("experiments", "sweep_table_csv", "cli.output", (), None),
    ("engine", "StateVector.dump_text", "cli.output", (), None),
    ("engine", "ExecutionLog.to_text", "cli.output", (), None),
    ("svg", "line_plot", "cli.output", (), None),
    ("svg", "bar_chart", "cli.output", (), None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED where its callers look it up.

    A module-level function is replaced in every loaded uqsim module that
    holds it, since modules import names from each other (experiments uses
    its own `emit_cycle` and `execute_instructions`). Methods are replaced
    on their class.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "uqsim" or name.startswith("uqsim."))]
    for mod_name, attr, name, groups, count in TRACED:
        owner = sys.modules[f"uqsim.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(raw.__func__, name, groups, count)))
            else:
                setattr(cls, meth, tracer.wrap(raw, name, groups, count))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, groups, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def merge(dumps: list[dict]) -> dict:
    """Sum span dumps, such as those of the processes of one run."""
    out: dict = {}
    for d in dumps:
        for section, values in d.items():
            acc = out.setdefault(section, {})
            for key, v in values.items():
                acc[key] = acc.get(key, 0) + v
    return out



# Per-layer metrics reported by a traced run: (name, unit). Every time
# metric here is spent on every workload, so none reads a constant zero;
# functions that only some workloads reach report call counts, and their
# time is inside a group (`compiler.s`, `engine.oracle.s`).
PER_LAYER = (
    ("pauli.to_matrix.calls", "count"),
    ("pauli.to_matrix.s", "s"),
    ("pauli.unitary_new.calls", "count"),
    ("pauli.unitary_new.s", "s"),
    ("pauli.with_angle_scale.calls", "count"),
    ("pauli.with_angle_scale.s", "s"),
    ("compiler.s", "s"),
    ("compiler.plan.calls", "count"),
    ("compiler.plan.s", "s"),
    ("compiler.emit_cycle.calls", "count"),
    ("compiler.emit_cycle.s", "s"),
    ("compiler.trotter_schedule.calls", "count"),
    ("compiler.schedule_io.calls", "count"),
    ("compiler.schedule_io.bytes", "bytes"),
    ("hardware.calls", "count"),
    ("hardware.s", "s"),
    ("engine.execute.calls", "count"),
    ("engine.execute.s", "s"),
    ("engine.execute.self_s", "s"),
    ("engine.instructions", "count"),
    ("engine.jitter_draws", "count"),
    ("engine.local_useful_ratio", "ratio"),
    ("engine.spectrum.calls", "count"),
    ("engine.spectrum.s", "s"),
    ("engine.spectrum.self_s", "s"),
    ("engine.spectrum.hit_ratio", "ratio"),
    ("engine.oracle.s", "s"),
    ("engine.ground_state.calls", "count"),
    ("engine.exact_evolve.calls", "count"),
    ("engine.expectation_energy.calls", "count"),
    ("kernels.single_qubit.calls", "count"),
    ("kernels.single_qubit.s", "s"),
    ("kernels.zz_phase.calls", "count"),
    ("kernels.zz_phase.s", "s"),
    ("kernels.bytes_computed", "bytes"),
    ("experiments.min_gap.calls", "count"),
    ("experiments.ground_basis.calls", "count"),
    ("experiments.adiabatic_run.calls", "count"),
    ("experiments.error_sweep.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output.s", "s"),
    ("cli.output.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_values(d: dict, runs: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values per run, from the merged dumps of `runs`
    traced runs."""
    def get(section, key):
        return d.get(section, {}).get(key, 0) / runs

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = get("calls", base)
        elif field == "s" and base in ("compiler", "engine.oracle"):
            values[name] = get("group_s", base)
        elif field == "s":
            values[name] = get("total_s", base)
        elif field == "self_s":
            values[name] = get("self_s", base)
        else:
            values[name] = get("counters", name)
    spectrum_calls = get("calls", "engine.spectrum")
    misses = get("edges", "engine.spectrum>pauli.to_matrix")
    values["engine.spectrum.hit_ratio"] = ratio(spectrum_calls - misses, spectrum_calls)
    values["engine.local_useful_ratio"] = ratio(
        get("edges", "engine.execute>kernels.single_qubit"),
        get("edges", "engine.execute>pauli.with_angle_scale"),
    )
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall)
    return values
