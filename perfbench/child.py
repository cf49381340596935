"""Run one `uqsim` command from a source tree; started by perfbench/run.py.

    python3 child.py SRC READY_FILE MODE [uqsim arguments...]

SRC goes first on the import path, so the command runs the checked-out
code. Once `uqsim.cli` is imported the child writes its CLOCK_MONOTONIC
reading to READY_FILE: the parent subtracts its own reading taken just
before the spawn, which gives the set-up time. MODE is

- `run`: call `uqsim.cli.main` with the arguments and exit with its code;
- `probe`: stop after the import, writing a JSON description of the
  environment (Python, numpy, BLAS, kernel backend) to READY_FILE.env;
- `trace:FILE`: like `run`, with the public functions of every uqsim layer
  wrapped in spans (see spans.py), whose totals are written to FILE.
"""
import json
import os
import sys
import time


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    from uqsim import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    src, ready_path, mode = sys.argv[1:4]
    sys.path.insert(0, src)
    import uqsim.cli

    if not os.path.abspath(uqsim.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"uqsim imported from {uqsim.cli.__file__}, not from {src}\n")
        return 90
    ready = time.monotonic()
    with open(ready_path, "w") as fh:
        fh.write(repr(ready))
    if mode == "probe":
        with open(ready_path + ".env", "w") as fh:
            json.dump(environment(), fh)
        return 0
    tracer = None
    if mode.startswith("trace:"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code = uqsim.cli.main(sys.argv[4:])
    if tracer is not None:
        with open(mode[len("trace:"):], "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
