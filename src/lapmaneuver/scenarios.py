"""Scenario files and the built-in application scenarios.

A scenario is a flat JSON document: graph, reference shape, motion keys,
simulation keys, seeds and output names. The built-ins are the package
files `builtin/*.json` (target enclosing, inward/outward shaped consensus
spirals and the heading-controlled traveling formation); the repository's
`scenarios/` directory links to them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from numbers import Real
from typing import Optional

import numpy as np

from .errors import DegenerateShape, ScenarioError
from .graphs import FormationGraph
from .motion import MotionSpec
from .shapes import ReferenceShape, center_shape
from .sim import HeadingControl, SimConfig, Trajectory, exact_trajectory, integrate
from .spectral import DesignResult, design_pipeline

_BUILTIN = files(__package__).joinpath("builtin")
SCENARIO_NAMES = tuple(sorted(f.name[:-5] for f in _BUILTIN.iterdir()
                              if f.name.endswith(".json")))


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: FormationGraph
    shape: ReferenceShape
    spec: MotionSpec
    sim: SimConfig
    design_seed: int
    method: str  # "rk4" | "exact"
    report_name: str
    trajectory_name: str


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ScenarioError(f"missing key '{key}' in {ctx}")
    return d[key]


def _integer(value, key: str) -> int:
    """An integer-valued number as an int; 4.7 or "4" is refused, not truncated."""
    if not isinstance(value, Real) or not float(value).is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse a scenario document; every malformed entry raises ScenarioError."""
    try:
        return _parse(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            DegenerateShape) as exc:
        raise ScenarioError(
            f"malformed scenario ({type(exc).__name__}: {exc})") from exc


def _parse(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = doc.get("name", "unnamed")
    gd = _require(doc, "graph", "scenario")
    n = _integer(_require(gd, "n", "graph"), "graph.n")
    edges = _require(gd, "edges", "graph")
    graph = FormationGraph(n, tuple(tuple(_integer(v, "graph.edges") for v in e)
                                    for e in edges))

    pts = _require(doc, "shape", "scenario")
    raw = np.array([complex(x, y) for x, y in pts])
    if raw.size != n:
        raise ScenarioError(f"shape has {raw.size} points for n={n} nodes")
    shape = center_shape(raw)

    md = doc.get("motion", {})
    center = md.get("rotation_center", "centroid")
    if center == "centroid":
        center_agent = None
    else:
        center_agent = _integer(center, "motion.rotation_center")
        if not 1 <= center_agent <= n:
            raise ScenarioError(f"motion.rotation_center {center_agent} out of range")
    try:
        spec = MotionSpec(
            v_star=complex(md.get("v_star_re", 0.0), md.get("v_star_im", 0.0)),
            a=float(md.get("a", 0.0)),
            omega=float(md.get("omega", 0.0)),
            kappa_t=float(md.get("kappa_t", 0.0)),
            kappa_r=float(md.get("kappa_r", 0.0)),
            kappa_s=float(md.get("kappa_s", 0.0)),
            kappa_tilde=float(md.get("kappa_tilde", 1.0)),
            center_agent=center_agent,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid motion spec: {exc}") from exc

    sd = doc.get("sim", {})
    heading = None
    hd = sd.get("heading_control")
    if hd is not None:
        agent, neighbor = (
            _integer(_require(hd, k, "heading_control"), f"heading_control.{k}")
            for k in ("agent", "neighbor"))
        if not (1 <= agent <= n and 1 <= neighbor <= n):
            raise ScenarioError("heading_control agent/neighbor out of range")
        if frozenset((agent, neighbor)) not in graph.edges:
            raise ScenarioError(
                f"heading_control pair ({agent},{neighbor}) is not an edge")
        sched = tuple((float(s["until"]), complex(s["re"], s["im"]))
                      for s in _require(hd, "schedule", "heading_control"))
        heading = HeadingControl(agent, neighbor,
                                 float(hd.get("gain", 1.0)), sched)
    p0 = sd.get("initial_condition")
    if p0 is not None:
        p0 = np.array([complex(x, y) for x, y in p0])
        if p0.size != n:
            raise ScenarioError("sim.initial_condition size mismatch")
    try:
        sim = SimConfig(
            dt=float(sd.get("dt", 1e-3)),
            t_end=float(sd.get("t_end", 10.0)),
            p0=p0,
            seed=_integer(sd.get("seed", 0), "sim.seed"),
            box_factor=float(sd.get("box_factor", 2.0)),
            divergence_threshold=float(sd.get("divergence_threshold", 1e9)),
            sample_stride=_integer(sd.get("sample_stride", 1), "sim.sample_stride"),
            heading=heading,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid sim config: {exc}") from exc

    method = sd.get("method", "rk4")
    if method not in ("rk4", "exact"):
        raise ScenarioError(f"sim.method must be 'rk4' or 'exact', got {method!r}")
    out = doc.get("output", {})
    names = out.get("report", "report.json"), out.get("trajectory", "trajectory.csv")
    if not all(isinstance(s, str) for s in names):
        raise ScenarioError(f"output names must be strings, got {names}")
    return Scenario(name=name, graph=graph, shape=shape, spec=spec, sim=sim,
                    design_seed=_integer(doc.get("seed", 0), "seed"), method=method,
                    report_name=names[0], trajectory_name=names[1])


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}")
    return scenario_from_dict(doc)


def _deep_merge(base: dict, overrides: Optional[dict]) -> dict:
    if not overrides:
        return base
    out = dict(base)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def builtin_scenario(name: str, overrides: Optional[dict] = None) -> dict:
    """Scenario document of one of the built-in applications: the shipped
    file `builtin/<name>.json` with `overrides` merged in."""
    if name not in SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    doc = json.loads(_BUILTIN.joinpath(f"{name}.json").read_text())
    return _deep_merge(doc, overrides)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    design: DesignResult
    trajectory: Trajectory


def simulate_scenario(sc: Scenario) -> ScenarioResult:
    design = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    runner = exact_trajectory if sc.method == "exact" else integrate
    traj = runner(design.modified.L_tilde, design.bundle.gains, sc.sim, sc.shape)
    return ScenarioResult(sc, design, traj)


def run_scenario(name: str, overrides: Optional[dict] = None) -> ScenarioResult:
    """Build and simulate one of the built-in scenarios."""
    return simulate_scenario(scenario_from_dict(builtin_scenario(name, overrides)))
