"""Command-line interface: design, simulate and verify scenario files.

Every `--scenario` file is read once, before any work, and the files that
parse run one after another in one process; the largest exit code wins.
Exit codes: 0 ok, 1 infeasible design, 2 parse error (a malformed file, a
non-finite number, a bad value), an --out that is not a usable directory or
an output path the run would write twice, 3 diverged, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (ChainBroken, Diverged, PipelineFailed, ScenarioError,
                     SpectrumMismatch)
from .scenarios import Scenario, load_scenario, simulate_scenario
from .shapes import TOLERANCES
from .sim import Trajectory, initial_condition, shape_error
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


def _seed(text: str) -> int:
    """Type of --seed: a non-negative integer, else an argparse error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_report(sc: Scenario, design: DesignResult,
                 traj: Trajectory | None = None) -> dict:
    bound = design.stability.kappa_tilde_max
    prediction = predict_steady_state(initial_condition(sc.sim, sc.shape), design)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": sc.name,
        "seeds": {"design": sc.design_seed, "sim": sc.sim.seed},
        "tolerances": TOLERANCES,
        "weights": [[i, j, *_c(design.bundle.weights[i - 1, j - 1])]
                    for i in range(1, design.graph.n + 1) for j in design.graph.neighbors(i)],
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
    if design.residuals is not None:
        report["spectral_residuals"] = {
            k: _c(v) if isinstance(v, complex) else v
            for k, v in dataclasses.asdict(design.residuals).items()}
    if traj is not None:
        errs = shape_error(traj.states, sc.shape)
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


def cmd_design(sc: Scenario, report: Path) -> int:
    design = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    write_report(build_report(sc, design), report)
    print(f"design ok: report written to {report}")
    return EXIT_OK


def cmd_simulate(sc: Scenario, report: Path, trajectory: Path) -> int:
    result = simulate_scenario(sc)
    write_report(build_report(sc, result.design, result.trajectory), report)
    write_trajectory_csv(result.trajectory, trajectory)
    print(f"simulate ok: {trajectory} ({result.trajectory.times.size} samples)")
    return EXIT_OK


def cmd_verify(sc: Scenario) -> int:
    """Print the checks that certified the design `design` ships."""
    design = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    if design.motion.case == "moving":
        print(f"PASS moving-eigenvalue: moving residual "
              f"{design.residuals.moving_residual:.2e}")
    elif design.motion.case == "translation":
        print(f"PASS translation-chain: chain residual "
              f"{design.residuals.chain_residual:.2e}")
    bound = design.stability.kappa_tilde_max
    print(f"PASS perturbation-bound: kappa_tilde_max {bound:.4g} "
          f"(gain boost {design.boost:g})")
    if design.boost > 1:
        print(f"WARNING: kappa_tilde {sc.spec.kappa_tilde} exceeds the sufficient "
              f"bound {bound / design.boost:.4g} of the unboosted gains; the shipped "
              f"gains are doubled {int(math.log2(design.boost))} time(s)")
    return EXIT_OK


# each command's handler and the output names it writes, in the handler's argument order
COMMANDS = {"design": (cmd_design, lambda sc: (sc.report_name,)),
            "simulate": (cmd_simulate, lambda sc: (sc.report_name, sc.trajectory_name)),
            "verify": (cmd_verify, lambda sc: ())}


def _run_one(handler, sc: Scenario, paths: list) -> int:
    try:
        return handler(sc, *paths)
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except PipelineFailed as exc:
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
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the design seed (non-negative)")
    args = parser.parse_args(argv)

    handler, outputs = COMMANDS[args.command]
    out, code, plan = Path(args.out), EXIT_OK, []
    for path in args.scenario:  # each file is read once, before any work
        try:
            sc = load_scenario(path)
        except ScenarioError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            code = EXIT_PARSE
            continue
        if args.seed is not None:
            sc = dataclasses.replace(sc, design_seed=args.seed)
        plan.append((sc, [out / name for name in outputs(sc)]))
    written = [p for _, paths in plan for p in paths]
    shared = [p for p in written if written.count(p) > 1]
    if shared:
        print(f"output collision: the run would write {shared[0]} twice; "
              "give each output its own name or run the files separately", file=sys.stderr)
        return EXIT_PARSE
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"parse error: --out {out} is not a usable directory ({exc.strerror})",
              file=sys.stderr)
        return EXIT_PARSE
    return max([code] + [_run_one(handler, sc, paths) for sc, paths in plan])


if __name__ == "__main__":
    sys.exit(main())
