"""htwk benchmark: time to verdict on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-quick --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload analytic --trace 1

Workloads (see workloads.py for why each was chosen):

    verify-quick   htwk verify --config configs/quick.cfg, one worker
    light-control  htwk verify --config configs/light-control.cfg,
                   two workers, 4e6 cycles
    analytic       tails, classify, class-reduction fixtures, measure
                   equivalence and the majorant check; no cycle simulation
    all            the three in turn, in this process

BLAS and OpenMP run on one thread.  The loop is closed: one repetition of a workload's operation starts when
the previous one has ended, until --seconds have passed.  The first
repetition is a warm-up and gives no time sample; at least one timed
repetition follows.  Every repetition's outputs are checked.

--trace 0 reports the end-to-end metrics:

    setup_s      median over fresh processes of importing htwk and building
                 the workload's models
    wall_s       median wall time of one repetition, start to verdict
    peak_rss_mb  peak resident memory of this process plus its largest child
                 (getrusage RUSAGE_SELF + RUSAGE_CHILDREN), read after the
                 repetitions and before the set-up probes; with --workload
                 all it is the high-water mark since the process started

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py, plus the tracing overhead (traced minus
untraced median wall time).  Spans are written to
.perfbench-out/trace-<workload>-seed<n>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed, 2 when htwk cannot be found.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: a repetition's time then
# does not depend on whether the machine's other cores are free.  On a
# 2-core machine the analytic workload ran no slower this way (median
# 15.2 s against 16.2 s) and spread less.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import Tracer, derive_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out"

SETUP_SAMPLES = {"full": 5, "smoke": 1}
UNTRACED_NOTE = ("worker processes are not traced: walksim and tailmath.sample "
                 "internals are per-layer numbers of workers=1 workloads only; "
                 "on light-control they cover the parent process alone")


def unit_of(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric == "peak_rss_mb":
        return "MiB"
    return "count"


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, when
    that lies above the median (21 samples or more)."""
    n = len(samples)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "click"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------

class Result:
    """Samples and check tallies of one workload in one run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.walls: list[float] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.setup: list[float] = []


def run_rep(result: Result, size: dict, tracer=None) -> float:
    """One repetition: run, time, check.  Returns its wall time."""
    w = result.workload
    out = Path(tempfile.mkdtemp(prefix="rep-", dir=tempfile.gettempdir()))
    wall = 0.0
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = w.run(result.seed, size, out)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        checks = w.check(outputs, size)
    except Exception:
        traceback.print_exc()
        checks = [("repetition ran without an exception", False, "raised")] * w.n_checks
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result.attempted += len(checks)
    for name, ok, detail in checks:
        if not ok:
            result.failed += 1
            if len(result.failures) < 20:
                result.failures.append(f"{w.name} seed {result.seed}: {name} ({detail})")
    if tracer is not None:
        spans = tracer.spans
        result.traced.append({
            "wall_s": wall,
            "metrics": derive_metrics(spans, tracer.counters, wall),
            "self_s": self_times(spans),
            "counters": dict(tracer.counters),
            "spans": spans,
        })
    return wall


def measure(result: Result, size: dict, seconds: float, trace: bool) -> None:
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    # the first repetition in a process also pays lazy imports and first
    # allocations; set-up cost is measured on its own, as setup_s
    run_rep(result, size)
    while True:
        result.walls.append(run_rep(result, size))
        if tracer is not None:
            run_rep(result, size, tracer)
        if time.perf_counter() - start >= seconds:
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.peak_rss_mb = (usage_self + usage_child) / 1024.0


def setup_samples(workload, n: int) -> list[float]:
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *workload.specs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def end_to_end(result: Result) -> dict[str, float]:
    return {"setup_s": statistics.median(result.setup),
            "wall_s": statistics.median(result.walls),
            "peak_rss_mb": result.peak_rss_mb}


def per_layer(result: Result) -> dict[str, float]:
    reps = [t["metrics"] for t in result.traced]
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in result.traced)
                                   - statistics.median(result.walls))
    return metrics


def print_end_to_end(result: Result, metrics: dict) -> None:
    n = len(result.walls)
    tail = tail_percentile(result.walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no tail percentile: fewer than 21 repetitions")
    ratio = result.failed / result.attempted
    print(f"  setup_s      {metrics['setup_s']:10.4f} s      "
          f"median of {len(result.setup)} fresh-process set-ups")
    print(f"  wall_s       {metrics['wall_s']:10.4f} s      "
          f"median of {n} repetitions; {tail_text}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MiB    "
          "this process plus its largest child")
    print(f"  fail_ratio   {ratio:10.4g} ratio  "
          f"{result.failed} failed of {result.attempted} checks")


def print_per_layer(result: Result, metrics: dict) -> None:
    first = result.traced[0]
    print(f"  traced wall {metrics['trace.wall_s']:.4f} s, untraced "
          f"{statistics.median(result.walls):.4f} s, overhead "
          f"{metrics['trace.overhead_s']:+.4f} s; top-level spans cover "
          f"{100 * metrics['trace.top_level_share']:.1f}%")
    print("  self time by span (first traced repetition):")
    for name, s in sorted(first["self_s"].items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {name:44s} {s:9.4f} s")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit_of(name)}")


def write_trace(result: Result, meta: dict, metrics: dict) -> Path:
    path = WORK / f"trace-{result.workload.name}-seed{result.seed}.json"
    reps = []
    for rep in result.traced:
        t0 = rep["spans"][0][1] if rep["spans"] else 0.0
        reps.append({
            "wall_s": rep["wall_s"], "counters": rep["counters"],
            "self_s": rep["self_s"], "metrics": rep["metrics"],
            "span_fields": ["name", "start_s", "end_s", "parent", "work"],
            "spans": [[n, s - t0, e - t0, p, k] for n, s, e, p, k in rep["spans"]],
        })
    path.write_text(json.dumps({"meta": meta, "untraced_wall_s": result.walls,
                                "metrics": metrics, "reps": reps}))
    return path


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="n picks the n-th seed of the workload's list in "
                        "workloads.py; 0 is the shipped default")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure for this long (at least one repetition)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every workload to check the plumbing")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "htwk" / "__init__.py").is_file():
        print(f"htwk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    # keep every temporary file of this run, the process pool's included,
    # inside the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    try:
        results = []
        for name in names:
            w = WORKLOADS[name]
            size = w.sizes[args.size]
            result = Result(w, w.seed_for(args.seed))
            measure(result, size, args.seconds, bool(args.trace))
            results.append(result)
        if not args.trace:
            for result in results:
                result.setup = setup_samples(result.workload,
                                             SETUP_SAMPLES[args.size])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    meta = {
        "nproc": os.cpu_count(), **versions(), "git_commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "driver_seed": args.seed, "run_seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "workloads": {r.workload.name: {"seed": r.seed,
                                        "sizes": r.workload.sizes[args.size]}
                      for r in results},
        "note": UNTRACED_NOTE,
    }
    print("meta " + json.dumps(meta, default=str))

    metrics = {}
    for result in results:
        w = result.workload
        print(f"== {w.name}  seed {result.seed} (--seed {args.seed})  "
              f"size {args.size}  {len(result.walls)} untraced and "
              f"{len(result.traced)} traced repetitions")
        if args.trace:
            values = per_layer(result)
            print_per_layer(result, values)
            print(f"  trace written to {write_trace(result, meta, values)}")
        else:
            values = end_to_end(result)
            print_end_to_end(result, values)
        for line in result.failures:
            print(f"  FAILED {line}")
        prefix = "" if len(results) == 1 else f"{w.name}."
        metrics.update({prefix + k: {"value": v, "unit": unit_of(k)}
                        for k, v in values.items()})

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
