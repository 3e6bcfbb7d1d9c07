"""One benchmark process: set up, run one timed pass, check, report.

run.py starts this script once per pass so that every pass pays what a CLI
invocation pays: the interpreter imports shearstab, grids are built lazily,
and the Airy tail-zero cache starts empty.  The last stdout line is a JSON
object with the pass's timings, check tallies and (when traced) its spans.

Modes:
  pass     set up, solve once (timed), check
  setup    set up only, for extra set-up samples
  kernels  fixed-degree kernel table (see kernels.py)
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SHEARSTAB_THREADS",
)


def blas_info() -> list[dict]:
    """Every OpenBLAS loaded into this process, with its configuration and
    current thread count, read through the library's own entry points."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = []
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["threads"] = int(threads())
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        if "threads" in entry:
            found.append(entry)
    return found


def environment(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_threads": threads,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def setup(workload_name: str, seed: int) -> tuple:
    """Import shearstab, make the seeded inputs, prime the Airy cache where
    the workload's drivers read it.  Returns (ss, workload, inputs, timings)."""
    t0 = time.perf_counter()
    import shearstab as ss

    if not Path(ss.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported shearstab from {ss.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.make_inputs(ss, seed)
    t1 = time.perf_counter()
    if workload.primes_airy:
        ss.margin_constant()
    t2 = time.perf_counter()
    return ss, workload, inputs, {"setup_s": t2 - t0, "airy.tail_zero_s": t2 - t1}


class DriverCalls:
    """Runs one driver call at a time, counting warnings by category and
    adding up the wall time of calls that use the package's thread pool."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pool_s = 0.0
        self.warnings = {"LinAlgWarning": 0, "RuntimeWarning": 0, "other": 0}

    def __call__(self, name, fn, *args, pooled=False, **kwargs):
        from scipy.linalg import LinAlgWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                with self.tracer.span(name, "driver"):
                    out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        if pooled:
            self.pool_s += dt
        for w in caught:
            if issubclass(w.category, LinAlgWarning):
                self.warnings["LinAlgWarning"] += 1
            elif issubclass(w.category, RuntimeWarning):
                self.warnings["RuntimeWarning"] += 1
            else:
                self.warnings["other"] += 1
        return out


def run_pass(args) -> dict:
    ss, workload, inputs, timings = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        traced_functions = tracing.install(tracer)
    calls = DriverCalls(tracer)
    work_dir = Path(args.work_dir)
    tag = f"pass{args.index}"

    t0 = time.perf_counter()
    if tracer is None:
        outputs = workload.solve(ss, inputs, calls, args.threads, work_dir, tag)
    else:
        with tracer.span(f"workload.{workload.name}", "workload"):
            outputs = workload.solve(ss, inputs, calls, args.threads, work_dir, tag)
    solve_s = time.perf_counter() - t0
    rss = peak_rss_mb()

    from workloads import Checks

    checks = Checks()
    digests = workload.check(ss, inputs, outputs, checks, oracles=args.oracles)
    result = {
        **timings,
        "solve_s": solve_s,
        "peak_rss_mb": rss,
        "pool_s": calls.pool_s,
        "warnings": calls.warnings,
        "checks": checks.counts,
        "failures": checks.failures,
        "digests": digests,
        "environment": environment(args.threads),
    }
    if tracer is not None:
        import tracing

        result["layers"] = tracing.summarize(tracer.spans)
        result["spans"] = tracer.spans
        result["traced_functions"] = traced_functions
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["pass", "setup", "kernels"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--oracles", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        result = setup(args.workload, args.seed)[3]
    elif args.mode == "kernels":
        import kernels

        result = kernels.run()
    else:
        result = run_pass(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
