"""Quick self-test of the benchmark (about a minute).

    python3 bench/selftest.py

Runs one short run of each workload and checks the printed result against
BENCHMARK.json, shows that the output checks fire on corrupted designs and
outputs, and that the benchmark refuses to run outside a checkout.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench_run  # first: pins BLAS to one thread before numpy loads

BENCH, ROOT = bench_run.BENCH, bench_run.ROOT
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import Clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def must_fail(fn, what: str) -> None:
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"ok   {what} -> {exc}")
        return
    raise SystemExit(f"selftest FAILED: {what} was not detected")


def run(workload: str, trace: int, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def short_runs() -> None:
    # one failed design (n = 48) in every design_sweep round, none elsewhere
    n_ok = len(workloads.SWEEP_NS)
    sweep_ops = n_ok + 1 + workloads.DesignSweep.SIM_REPS * n_ok
    for workload, trace in [(w["name"], 0) for w in SPEC["workloads"]] + [("builtin_exact", 1)]:
        proc = run(workload, trace)
        require(proc.returncode == 0,
                f"{workload} --trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        require(set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and sorted(result["metrics"]) == sorted(names),
                f"{workload} result: {result}"[:300])
        sweep = workload == "design_sweep"
        require(result["failed"] * sweep_ops == result["attempted"] if sweep
                else result["failed"] == 0,
                f"{workload}: {result['failed']} of {result['attempted']} operations failed")


def corrupted_outputs() -> None:
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as work:
        cli = workloads.Builtin(ROOT, 5, True, Path(work))
        r = bench_run.run_round(cli, Clock(), None)
        cli.check(r)
        i = cli.names.index("enclosing")
        facts, design, ref = cli.facts[i], cli.designs[i], cli.refs[i]
        out = r.outputs[i][1]
        args = (design.bundle.gains, design.modified.L_tilde)

        must_fail(lambda: checks.check_design("negated gains", design.bundle.L,
                                              design.modified.L_tilde,
                                              -design.bundle.gains, facts),
                  "design with negated gains")
        far = design.modified.L_tilde.copy()
        far[1, 3] = 1e-3  # agents 2 and 4 are not neighbours in `enclosing`
        must_fail(lambda: checks.check_design("non-local", design.bundle.L, far,
                                              design.bundle.gains, facts),
                  "L~ entry off the graph edges")
        must_fail(lambda: checks.check_cli_outputs("other gains", out, facts, ref,
                                                   -design.bundle.gains, design.modified.L_tilde),
                  "report.json gains against other gains")
        lines = (out / "trajectory.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-3)
        (out / "trajectory.csv").write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        must_fail(lambda: checks.check_cli_outputs("edited CSV", out, facts, ref, *args),
                  "one CSV cell moved by 1e-3")
        (out / "trajectory.csv").write_text("\n".join(lines[:-1]) + "\n")
        must_fail(lambda: checks.check_cli_outputs("short CSV", out, facts, ref, *args),
                  "trajectory.csv missing its last row")

    sweep = workloads.DesignSweep(5)
    facts, sc = sweep.instances[2]  # n = 24, translation
    from lapmaneuver import spectral
    d = spectral.design_pipeline(sc.graph, sc.shape, sc.spec)
    checks.check_design(facts["name"], d.bundle.L, d.modified.L_tilde, d.bundle.gains, facts)
    must_fail(lambda: checks.check_design("negated gains", d.bundle.L, d.modified.L_tilde,
                                          -d.bundle.gains, facts),
              "translation design with negated gains")
    must_fail(lambda: checks.check_design("wrong drift", d.bundle.L, d.modified.L_tilde,
                                          d.bundle.gains, {**facts, "v_star": 2.0}),
              "translation chain checked against v* = 2")


def outside_checkout() -> None:
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / BENCH.name,
                        ignore=shutil.ignore_patterns(".out-*", "__pycache__"))
        proc = run("builtin_exact", 0, cwd=tmp, bench=tmp / BENCH.name)
        require(proc.returncode != 0 and not proc.stdout.strip(),
                f"refuses to run without the package (exit {proc.returncode})")


if __name__ == "__main__":
    corrupted_outputs()
    outside_checkout()
    short_runs()
    print("selftest passed")
