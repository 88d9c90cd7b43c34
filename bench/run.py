"""lapmaneuver benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for about S seconds in this process,
checks every round's outputs against computations made apart from the
program, and prints one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the gated end-to-end ones, with
--trace 1 the per-layer ones from a run that alternates untraced and traced
rounds. All times are at the reference speed of bench/speed.py.
Workloads and metrics are described in bench/README.md.
"""

import os

# One BLAS thread, pinned before numpy loads, in this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("builtin_cli", "builtin_exact", "design_sweep")
SETUP_RUNS = 8  # fresh interpreters timed per run, each followed by a speed probe


def _median(values):
    return statistics.median(values) if values else 0.0


def setup_time(args) -> float:
    """Wall seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def run_round(workload, clock, tracer):
    from workloads import Round

    r = Round()
    first = len(clock.probes) - 1  # the probe just before the round
    with tracer if tracer else contextlib.nullcontext():
        workload.design_phase(r, clock)
        workload.simulate_phase(r, clock)
    r.speed = clock.factor(first)
    if tracer:
        r.layers = tracer.summary()
    return r


def measure(workload, seconds: float, trace: bool) -> dict:
    from spans import Tracer
    from speed import Clock

    rounds = []
    clock = Clock()
    clock.tick()
    tracer = Tracer() if trace else None
    failure = None
    t_start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
        r = run_round(workload, clock, tracer if traced else None)
        rounds.append(r)
        try:
            workload.check(r)
        except Exception as exc:  # any check error ends the run as incorrect
            failure = f"{type(exc).__name__}: {exc}"
            break
        r.designs = r.outputs = None  # checked; keep memory flat across rounds
        elapsed = time.monotonic() - t_start
        if trace and len(rounds) % 2:
            continue
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    if failure:
        print(f"check failed: {failure}", file=sys.stderr)
    for f in sorted({f for r in rounds for f in r.failures}):
        print(f"failed operation: {f}", file=sys.stderr)
    return {"rounds": rounds, "failure": failure, "clock": clock}


def peak_rss_kb() -> int:
    """Peak resident set of this process image. ru_maxrss would also count
    the parent's resident set at fork, which survives exec on Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(rounds: list, setup_s: float, f: float) -> dict:
    rss_kb = peak_rss_kb()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "simulate_s": {"value": f * _median([t for r in rounds for t in r.simulate_s]),
                       "unit": "s"},
        "design_s": {"value": f * _median([t for r in rounds for t in r.design_s]), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(rounds: list, workload_name: str, clock) -> dict:
    """Medians over the traced rounds, and over the untraced ones for the
    per-operation times; times in s and us at the run's reference speed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    plain, traced = rounds[0::2], rounds[1::2]
    values = {}
    for key in traced[0].layers if traced else ():
        values[key] = _median([r.layers[key] for r in traced])
    for key in {k for r in plain for k in r.op_s}:
        values[key] = _median([r.op_s[key] for r in plain if key in r.op_s])
    f = clock.factor()
    values = {item["name"]: values.get(item["name"], 0.0)
              * (f if item["unit"] in ("s", "us") else 1) for item in spec}
    # Alternate rounds; each scaled by its own probes, as the speed drifts between them.
    phase = "design_s" if workload_name == "design_sweep" else "simulate_s"
    base = _median([t * r.speed for r in plain for t in getattr(r, phase)])
    with_trace = _median([t * r.speed for r in traced for t in getattr(r, phase)])
    values["trace_overhead_pct"] = 100.0 * (with_trace - base) / base if base else 0.0
    values["bench.probe_ms"] = 1e3 * _median(clock.probes)
    return {item["name"]: {"value": float(values[item["name"]]), "unit": item["unit"]}
            for item in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = [p for p in ("src/lapmaneuver/__init__.py", "scenarios", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: {ROOT} is not a lapmaneuver checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from speed import Clock

    if args.setup_only:
        workloads.make(args.workload, ROOT, args.seed, BENCH)
        print(repr(time.monotonic()))
        return 0

    setup, setup_speed = [], Clock()
    for _ in range(0 if args.trace else SETUP_RUNS):
        setup.append(setup_time(args))
        setup_speed.tick()
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as work:
        workload = workloads.make(args.workload, ROOT, args.seed, Path(work))
        m = measure(workload, args.seconds, bool(args.trace))
    rounds, clock = m["rounds"], m["clock"]
    metrics = (per_layer(rounds, args.workload, clock) if args.trace
               else end_to_end(rounds, setup_speed.factor() * _median(setup), clock.factor()))
    print(json.dumps({
        "correct": m["failure"] is None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
