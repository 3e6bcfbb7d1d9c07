"""shearstab benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload beta-sweep --seed 1 --seconds 28 --trace 0

Run it from the repository root (any directory works; paths are resolved from
this file).  Workloads: stability-batch, beta-sweep, shift-map; see
perfbench/NOTES.md for what each one exercises and why.

--trace 0 repeats timed passes, each a fresh worker process, until --seconds
have passed, and prints the end-to-end metrics named in BENCHMARK.json:
medians over the passes.  A pass that would end after 1.5 x --seconds,
judged by the previous one, is not started.  --trace 1 runs one untraced pass,
one traced pass, a threads=1 pass where the workload uses the thread pool,
and the fixed-degree kernel table, and prints the per-layer metrics.

The report lines come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Spans of a traced run are
written to perfbench/out/trace-<workload>-seed<seed>.json.
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
import time
from pathlib import Path

from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# per-layer metric that holds the serial / pooled ratio, by workload
POOL_METRIC = {"stability-batch": "certify.pool_speedup", "shift-map": "spectral.pool_speedup"}
# a pass is not started when, judged by the one before, it would end after
# this multiple of --seconds; it keeps one beta-sweep pass per run
OVERRUN = 1.5
MIN_SETUPS = 3
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's own .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shearstab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, args, threads: int, work_dir: Path):
        self.args = args
        self.threads = threads
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.checks = Checks()

    def child(self, mode: str, index: int = 0, trace: int = 0, oracles: int = 0,
              threads: int | None = None) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--threads", str(threads or self.threads), "--index", str(index),
            "--trace", str(trace), "--oracles", str(oracles),
            "--work-dir", str(self.work_dir),
        ]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the next worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} #{index} ran past the time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} #{index} exited {proc.returncode}")
        result = json.loads(lines[-1])
        self.checks.merge(result.get("checks", {}), result.get("failures", []))
        return result

    def compare_bytes(self, passes: list[dict]) -> None:
        """Every pass's --json/--csv bytes must equal the first pass's."""
        first = passes[0]["digests"]
        for p in passes[1:]:
            for name, digest in first.items():
                self.checks.add("bytes", digest is not None and p["digests"].get(name) == digest,
                               f"{name} differs between passes")


def fmt_list(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def untraced(run: Runner) -> dict:
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run.child("pass", index=len(passes), oracles=int(len(passes) == 0)))
        now = time.monotonic()
        if now - start >= run.args.seconds or (now - start) + (now - began) > OVERRUN * run.args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run.child("setup")["setup_s"])
    run.compare_bytes(passes)
    solve = [p["solve_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    print(f"  solve_s      {statistics.median(solve):10.4f} s   median of {len(solve)} passes {fmt_list(solve)}")
    print(f"  setup_s      {statistics.median(setups):10.4f} s   median of {len(setups)} set-ups {fmt_list(setups)}")
    print(f"  peak_rss_mb  {statistics.median(rss):10.1f} MB  median of {len(rss)} passes {fmt_list(rss)}")
    return {
        "metrics": {
            "solve_s": statistics.median(solve),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        "environment": passes[0]["environment"],
    }


def traced(run: Runner) -> dict:
    workload = run.args.workload
    base = run.child("pass", index=0, oracles=1)
    trace = run.child("pass", index=1, trace=1)
    passes = [base, trace]
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["solve_s"] - base["solve_s"]
    layers["airy.tail_zero_s"] = trace["airy.tail_zero_s"]
    for name, count in trace["warnings"].items():
        layers[f"warnings.{name}"] = count
    for metric in POOL_METRIC.values():
        layers[metric] = 0.0
    if workload in POOL_METRIC:
        serial = run.child("pass", index=2, threads=1)
        passes.append(serial)
        layers[POOL_METRIC[workload]] = serial["pool_s"] / base["pool_s"]
    run.compare_bytes(passes)
    kernels = run.child("kernels")
    layers.update(kernels["kernels"])

    print(f"  untraced solve_s {base['solve_s']:.4f} s, traced solve_s {trace['solve_s']:.4f} s, "
          f"tracing overhead {layers['trace.overhead_s']:+.4f} s")
    if workload in POOL_METRIC:
        print(f"  {POOL_METRIC[workload]} = {layers[POOL_METRIC[workload]]:.4f}: "
              f"threads=1 {serial['pool_s']:.4f} s over threads={run.threads} {base['pool_s']:.4f} s "
              f"(wall time of the pooled driver calls)")
    accounted = (layers["spectral.resolvent_numbers_s"] + layers["operators.assemble_s"]
                 + layers["chebdiff.build_grid_s"] + layers["spectral.eig_s"])
    print(f"  resolvent_numbers + assemble + build_grid + eig self time = {accounted:.4f} s "
          f"= {accounted / trace['solve_s']:.3f} of traced solve_s (summed over threads)")
    print("  per-layer (traced pass; times are self times summed over threads):")
    for name in sorted(layers):
        value = layers[name]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"    {name:48s} {text}")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{run.args.seed}.json"
    trace_path.write_text(json.dumps({
        "environment": trace["environment"],
        "traced_functions": trace["traced_functions"],
        "layers": layers,
        "spans": trace["spans"],
    }))
    print(f"  spans: {len(trace['spans'])} written to {trace_path.relative_to(ROOT)}")
    return {"metrics": layers, "environment": trace["environment"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shearstab" / "__init__.py").is_file():
        print(f"perfbench: no shearstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    threads = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    run = Runner(args, threads, work_dir)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        result = traced(run) if args.trace else untraced(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = run.checks.totals()
    result["metrics"]["pass_frac"] = (attempted - failed) / attempted
    env = {
        **result["environment"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("  environment: " + json.dumps(env, sort_keys=True))
    print(f"  fail_frac    {failed / attempted:10.4f} share  {failed} of {attempted} checks failed: "
          + ", ".join(f"{k} {a - f}/{a}" for k, (a, f) in sorted(run.checks.counts.items())))
    for line in run.checks.failures:
        print(f"  FAILED {line}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
