"""Command-line interface: design, simulate and verify scenario files.

Exit codes: 0 ok, 1 infeasible design, 2 parse error or outputs that two
scenario files would share, 3 diverged, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (ChainBroken, Diverged, PipelineFailed, ScenarioError,
                     SpectrumMismatch)
from .scenarios import Scenario, load_scenario, simulate_scenario
from .shapes import TOLERANCES
from .sim import Trajectory, initial_condition, shape_error_series
from .spectral import DesignResult, design_pipeline, predict_steady_state

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _c(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _cvec(v) -> list:
    return [_c(z) for z in np.asarray(v).ravel()]


def build_report(sc: Scenario, design: DesignResult,
                 traj: Trajectory | None = None) -> dict:
    bound = design.stability.kappa_tilde_max
    prediction = predict_steady_state(initial_condition(sc.sim, sc.shape), design)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": sc.name,
        "seeds": {"design": sc.design_seed, "sim": sc.sim.seed},
        "tolerances": TOLERANCES,
        "weights": [[i, j, *_c(w)] for (i, j), w in
                    sorted(design.bundle.weights.omega.items())],
        "gains": _cvec(design.bundle.gains),
        "gain_boost": design.boost,
        "eigenvalues_KL": _cvec(design.stability.eigenvalues),
        "eigenvalues_KL_tilde": _cvec(design.eigensystem.values),
        "kappa_tilde_max": None if math.isinf(bound) else bound,
        "kappa_tilde_unbounded": math.isinf(bound),
        "prediction": {"c1": _c(prediction.c1), "c2": _c(prediction.c2),
                       "case": prediction.case,
                       "steady_velocity": _c(prediction.steady_velocity)},
    }
    if design.spectral is not None:
        s = design.spectral
        report["spectral_residuals"] = {
            "moving_eigenvalue": _c(s.moving_eigenvalue),
            "moving_target": _c(s.moving_target),
            "moving_residual": s.moving_residual,
            "moving_vector_angle": s.moving_vector_angle,
            "kernel_vector_angle": s.kernel_vector_angle,
            "others_min_real": s.others_min_real,
            "algebraic_residual": s.algebraic_residual,
        }
    if design.jordan is not None:
        j = design.jordan
        report["spectral_residuals"] = {
            "chain_residual": j.chain_residual,
            "kernel_residual": j.kernel_residual,
            "squared_residual": j.squared_residual,
            "rank": j.rank,
        }
    if traj is not None:
        errs = shape_error_series(traj, sc.shape)
        metrics = {"final_shape_error": float(errs[-1]),
                   "max_shape_error": float(errs.max()),
                   "samples": int(traj.times.size)}
        report["metrics"] = metrics
    return report


def write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    n = traj.n
    header = "t," + ",".join(f"x_{i},y_{i}" for i in range(1, n + 1))
    table = np.empty((traj.times.size, 2 * n + 1))
    table[:, 0] = traj.times
    table[:, 1::2] = traj.states.real
    table[:, 2::2] = traj.states.imag
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _load(path: str, seed) -> Scenario:
    sc = load_scenario(path)
    if seed is not None:
        sc = Scenario(**{**sc.__dict__, "design_seed": int(seed)})
    return sc


def cmd_design(path: str, out: Path, seed) -> int:
    sc = _load(path, seed)
    design = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    write_report(build_report(sc, design), out / sc.report_name)
    print(f"design ok: report written to {out / sc.report_name}")
    return EXIT_OK


def cmd_simulate(path: str, out: Path, seed) -> int:
    sc = _load(path, seed)
    result = simulate_scenario(sc)
    write_report(build_report(sc, result.design, result.trajectory),
                 out / sc.report_name)
    write_trajectory_csv(result.trajectory, out / sc.trajectory_name)
    print(f"simulate ok: {out / sc.trajectory_name} "
          f"({result.trajectory.times.size} samples)")
    return EXIT_OK


def cmd_verify(path: str, out: Path, seed) -> int:
    """Print the checks that certified the design `design` ships."""
    sc = _load(path, seed)
    design = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    if design.spectral is not None:
        print(f"PASS moving-eigenvalue: moving residual "
              f"{design.spectral.moving_residual:.2e}")
    elif design.jordan is not None:
        print(f"PASS translation-chain: chain residual "
              f"{design.jordan.chain_residual:.2e}")
    bound = design.stability.kappa_tilde_max
    print(f"PASS perturbation-bound: kappa_tilde_max {bound:.4g} "
          f"(gain boost {design.boost:g})")
    if design.boost > 1:
        print(f"WARNING: kappa_tilde {sc.spec.kappa_tilde} exceeds the sufficient "
              f"bound {bound / design.boost:.4g} of the unboosted gains; the shipped "
              f"gains are doubled {int(math.log2(design.boost))} time(s)")
    return EXIT_OK


def _shared_output(command: str, paths: list, out: Path) -> Path | None:
    """An output file that two of the scenario files would both write."""
    if command == "verify" or len(paths) < 2:
        return None
    seen: set = set()
    for path in paths:
        try:
            sc = load_scenario(path)
        except ScenarioError:
            continue  # reported by its own task
        names = {out / sc.report_name}
        if command == "simulate":
            names.add(out / sc.trajectory_name)
        if names & seen:
            return min(names & seen)
        seen |= names
    return None


def _run_one(args) -> int:
    cmd, path, out, seed = args
    handler = {"design": cmd_design, "simulate": cmd_simulate,
               "verify": cmd_verify}[cmd]
    try:
        return handler(path, out, seed)
    except ScenarioError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except PipelineFailed as exc:
        if isinstance(exc.cause, Diverged):
            print(f"diverged: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        if isinstance(exc.cause, (SpectrumMismatch, ChainBroken)):
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lapmaneuver",
        description="Design, verify and simulate complex-Laplacian formation maneuvers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("design", "run the design pipeline and write a report"),
                        ("simulate", "design, integrate and export a trajectory"),
                        ("verify", "run the spectral and bound checks only")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scenario", action="append", required=True,
                       help="scenario JSON file (repeatable)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the design seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers across scenario files")
    args = parser.parse_args(argv)

    out = Path(args.out)
    shared = _shared_output(args.command, args.scenario, out)
    if shared is not None:
        print(f"output collision: several scenario files would write {shared}; "
              "give each its own output names or run them separately", file=sys.stderr)
        return EXIT_PARSE
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(args.command, path, out, args.seed) for path in args.scenario]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, tasks))
    else:
        codes = [_run_one(t) for t in tasks]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
