"""End-to-end and per-layer benchmark of uqsim.

    python3 perfbench/run.py --workload fig4a --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from anywhere; it measures the tree that contains this directory, whose
`src` goes first on the children's import path. One client runs the
workload's `uqsim` commands in a closed loop, one process at a time, until
`--seconds` have passed (at least one run), all on one CPU. Every run's
outputs are checked; a run fails on a non-zero exit, a failed check or a
non-finite output.

With `--trace 0` the result has the end-to-end metrics, medians over the
runs of times scaled to a reference host speed (see calib.py). With
`--trace 1` one plain run, kept for the tracing overhead, is followed by
traced runs for the rest of the time, and the result has the per-layer
metrics per traced run.
The last line of standard output is the result as JSON; lines before it
start with `#`. Inputs, outputs and spans live in a work directory under
`.perfbench_work/` that is removed at exit. See README.md for the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread here and in every child, whatever the caller's
# environment: the benchmark runs on one CPU (see calib.py), which a
# threaded eigh would share with its own helper threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402  (imports numpy)
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 165.0   # a run of this script must end within 180 s
SETUP_PROBES = 5       # extra spawns that only import uqsim, for setup_s
OVERSHOOT = 1.25       # no run starts that would end past this share of --seconds

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def spawn(work: Path, cwd: Path, mode: str, args: list[str], deadline: float) -> dict:
    """Run child.py once; wall, CPU and peak RSS come from os.wait4."""
    ready = work / "ready"
    ready.unlink(missing_ok=True)
    with open(work / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(ready), mode, *args],
            cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            with calib.Sampler() as sampler:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup": float(ready.read_text()) - t0 if ready.exists() else None,
        "probes": sampler.times,
        "stderr": (work / "stderr.txt").read_text()[-2000:],
    }


def run_pipeline(wl, work: Path, seed: int, trace: bool, deadline: float) -> dict:
    """One run of a workload: its commands in order, then the output check."""
    run_dir = work / workloads.RUN_DIR
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    procs, dumps = [], []
    error = outputs = None
    for i, args in enumerate(wl.commands(seed)):
        trace_file = work / f"trace-{i}.json"
        mode = f"trace:{trace_file}" if trace else "run"
        p = spawn(work, run_dir, mode, args, deadline)
        procs.append(p)
        if p["code"] != 0:
            error = f"`uqsim {args[0]}` exited with {p['code']}: {p['stderr'].strip()}"
            break
        if trace:
            dumps.append(json.loads(trace_file.read_text()))
    if error is None:
        try:
            outputs = wl.check(run_dir, seed)
        except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
            error = f"output check failed: {exc}"
    return {
        "ok": error is None,
        "error": error,
        "outputs": outputs,
        "wall": sum(p["wall"] for p in procs),
        "cpu": sum(p["cpu"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "setups": [(p["setup"], p["probes"]) for p in procs if p["setup"] is not None],
        "probes": [t for p in procs for t in p["probes"]],
        "trace": spans.merge(dumps) if trace and error is None else None,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uqsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def describe_environment(work: Path, deadline: float) -> dict:
    """A first spawn that only imports uqsim: it fills the bytecode cache
    and reports the environment the workload runs in."""
    probe = spawn(work, work, "probe", [], deadline)
    env_file = work / "ready.env"
    env = json.loads(env_file.read_text()) if probe["code"] == 0 and env_file.exists() else {}
    env.update(git_head=git_head(), src_sha256=source_digest(),
               loadavg=[round(x, 2) for x in os.getloadavg()])
    return env


def measure(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    wl.prepare(SRC, work, seed)
    env = describe_environment(work, deadline)
    print(f"# {wl.name} seed={seed} env={json.dumps(env, sort_keys=True)}")
    setups, probes = [], []
    for _ in range(SETUP_PROBES):
        p = spawn(work, work, "probe", [], deadline)
        probes += p["probes"]
        if p["setup"] is not None:
            setups.append((p["setup"], p["probes"]))

    runs: list[dict] = []
    traced: list[dict] = []
    loop_start = time.monotonic()
    while True:
        tracing = trace and bool(runs)    # a traced run measures one untraced run first
        r = run_pipeline(wl, work, seed, tracing, deadline)
        (traced if tracing else runs).append(r)
        setups += r["setups"]
        probes += r["probes"]
        status = "ok" if r["ok"] else f"FAILED: {r['error']}"
        print(f"# run {len(runs) + len(traced)}{' traced' if tracing else ''}: "
              f"wall {r['wall']:.3f} s, cpu {r['cpu']:.3f} s, rss {r['rss_mb']:.1f} MiB, "
              f"host speed {calib.speed(r['probes']) or 0.0:.3f}, "
              f"outputs {json.dumps(r['outputs'])}, {status}")
        now = time.monotonic()
        elapsed = now - loop_start
        next_end = elapsed + statistics.median(x["wall"] for x in runs + traced)
        done = (elapsed >= seconds or next_end > OVERSHOOT * seconds) and (traced or not trace)
        if done or now + 1.5 * r["wall"] > deadline:
            break

    attempted = len(runs) + len(traced)
    failed = sum(not r["ok"] for r in runs + traced)
    host_speed = calib.speed(probes) or 1.0
    if trace:
        good = [r for r in traced if r["ok"]]
        values = spans.layer_values(
            spans.merge([r["trace"] for r in good]), max(1, len(good)),
            statistics.median(r["wall"] for r in traced) if traced else 0.0, runs[0]["wall"],
        )
        values["host.speed"] = host_speed
        units = dict(spans.PER_LAYER + (("host.speed", "ratio"),))
    else:
        # times at the reference host speed (see calib.py)
        def at_reference(key):
            return statistics.median(r[key] * (calib.speed(r["probes"]) or host_speed)
                                     for r in runs)

        values = {
            "wall_s": at_reference("wall"),
            "cpu_s": at_reference("cpu"),
            "setup_s": statistics.median(t * (calib.speed(pr) or host_speed)
                                         for t, pr in setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        }
        units = dict(END_TO_END)
        print(f"# {wl.name}: {len(runs)} runs, {len(setups)} set-ups, "
              f"host speed {host_speed:.4f} from {len(probes)} probes, raw medians: "
              f"wall {statistics.median(r['wall'] for r in runs):.4f} s, "
              f"cpu {statistics.median(r['cpu'] for r in runs):.4f} s, "
              f"setup {statistics.median(t for t, _ in setups) if setups else 0.0:.4f} s, "
              f"fail_ratio {failed / attempted:.3f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uqsim" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no uqsim source tree at {SRC}\n")
        return 2

    calib.pin_to_one_cpu()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench_work"))
        try:
            results[name] = measure(workloads.WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass   # another run is using it

    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, r in results.items():
            cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
            print(f"# {name:13s} {cells}  fail_ratio {r['failed'] / r['attempted']:.3f}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
