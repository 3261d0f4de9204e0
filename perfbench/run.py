"""scsnet benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload {ci_curves,cin_table,mc_multitier}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  Each
run is one fresh interpreter, so module caches start cold as they do for
every `scs` invocation.  A workload runs a fixed amount of work: one pass
of the C/I grid, one `scs table` plus its lookups, or two `scs tail` runs.
Each takes longer than --seconds (10 s in BENCHMARK.json); a second pass of
the grid or the table would find the caches warm and measure other work.

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s        median over 5 fresh interpreters of the time from start to
                 the first timed operation (imports plus building inputs);
                 3 are started before the timed work and 2 after it, so
                 that they sample the host at different moments
  points_per_s   tail points answered per second by the workload's route
  success_rate   operations answered within tolerance / attempted
                 (1 - error_rate; a raise or a failed `scs` exit counts)
  peak_rss_mb    peak resident memory of this process
--trace 1 replaces package functions by timing wrappers (tracing.py) and
reports the per-layer metrics.  Spans go to .perfbench/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# names only: workloads.py imports the package, which may be absent
WORKLOADS = ("ci_curves", "cin_table", "mc_multitier")
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="scsnet benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args, probes):
    """Times, in fresh interpreters, from start to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return times


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "scsnet" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'scsnet'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy

    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        make_inputs, run = workloads.WORKLOADS[args.workload]
        inputs = make_inputs(args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        later = SETUP_PROBES // 2
        setup_times = [] if args.trace else measure_setup(args, SETUP_PROBES - later)
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tracer.install()
        try:
            outcome = run(inputs, tracer)
        finally:
            if args.trace:
                tracer.restore()
        if not args.trace:
            setup_times += measure_setup(args, later)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    success_rate = (outcome.attempted - outcome.failed) / outcome.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"nproc={os.cpu_count()}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={1.0 - success_rate:.6g}")
    print(f"  points={outcome.points} in {outcome.points_s:.3f} s")
    for what in outcome.problems:
        print(f"  FAILED {what}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = tracer.layer_metrics(outcome.extra)
        spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"  {len(tracer.spans)} spans written to {spans}")
    else:
        metrics = {"setup_s": statistics.median(setup_times),
                   "points_per_s": outcome.points / outcome.points_s,
                   "success_rate": success_rate,
                   "peak_rss_mb": peak_rss_mb}
        for name, v in outcome.extra.items():
            print(f"  {name}={v:.6g}")
    if set(metrics) != set(units):
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for name, v in metrics.items():
        print(f"  {name:<44} {v:.6g} {units[name]}")
        if not math.isfinite(v):
            raise ValueError(f"metric {name} is not finite: {v}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
