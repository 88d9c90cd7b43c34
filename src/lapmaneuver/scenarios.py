"""Scenario files and the built-in application scenarios.

A scenario is a flat JSON document: graph, reference shape, motion keys,
simulation keys, seeds and output names. The built-ins are the package
files `builtin/*.json` (target enclosing, inward/outward shaped consensus
spirals and the heading-controlled traveling formation); the repository's
`scenarios/` directory links to them.
"""

from __future__ import annotations

import json
import sys
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


def _object(d, path: str, required: str, optional: str = "") -> dict:
    """d as a JSON object with the space-separated `required` keys and no key
    outside them and `optional`, at `path`; a missing or an unknown key is
    refused by its path (a misspelt optional key would read a default)."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{path or 'scenario document'} must be a JSON object")
    at = path + "." if path else ""
    for key in required.split():
        if key not in d:
            raise ScenarioError(f"missing key '{at}{key}'")
    for key in d:
        if key not in required.split() + optional.split():
            raise ScenarioError(f"unknown key '{at}{key}'")
    return d


def _number(value, key: str) -> float:
    """A finite number as a float; a string, a boolean, NaN, an infinity or an
    integer beyond float range is refused, naming the key."""
    if isinstance(value, bool) or not isinstance(value, Real) \
            or not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """An integer-valued number as an int; 4.7 is refused, not truncated."""
    if not _number(value, key).is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _points(pts, key: str) -> np.ndarray:
    return np.array([complex(_number(x, key), _number(y, key)) for x, y in pts])


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse a scenario document; every malformed entry raises ScenarioError."""
    try:
        return _parse(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            DegenerateShape) as exc:
        raise ScenarioError(
            f"malformed scenario ({type(exc).__name__}: {exc})") from exc


def _parse(doc: dict) -> Scenario:
    _object(doc, "", "graph shape", "name motion sim seed output")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    gd = _object(doc["graph"], "graph", "n edges")
    n = _integer(gd["n"], "graph.n")
    raw = _points(doc["shape"], "shape")
    if raw.size != n:  # compared before the graph of n nodes is built
        raise ScenarioError(f"shape has {raw.size} points for n={n} nodes")
    graph = FormationGraph(n, tuple(tuple(_integer(v, "graph.edges") for v in e)
                                    for e in gd["edges"]))
    shape = center_shape(raw)

    # numeric keys are read when present; an absent one takes the dataclass default
    reals = "a omega kappa_t kappa_r kappa_s kappa_tilde".split()
    md = _object(doc.get("motion", {}), "motion", "", "v_star_re v_star_im rotation_center "
                 + " ".join(reals))
    center = md.get("rotation_center", "centroid")
    center_agent = None if center == "centroid" else _integer(center, "motion.rotation_center")
    if center_agent is not None and not 1 <= center_agent <= n:
        raise ScenarioError(f"motion.rotation_center {center_agent} out of range")
    motion = {k: _number(md[k], f"motion.{k}") for k in reals if k in md}
    if "v_star_re" in md or "v_star_im" in md:
        motion["v_star"] = complex(*(_number(md.get(k, 0.0), f"motion.{k}")
                                     for k in ("v_star_re", "v_star_im")))
    try:
        spec = MotionSpec(center_agent=center_agent, **motion)
    except ValueError as exc:
        raise ScenarioError(f"invalid motion spec: {exc}") from exc

    readers = {"dt": _number, "t_end": _number, "seed": _integer,
               "divergence_threshold": _number, "sample_stride": _integer}
    sd = _object(doc.get("sim", {}), "sim", "", "initial_condition heading_control method "
                 + " ".join(readers))
    heading = None
    hd = sd.get("heading_control")
    if hd is not None:
        _object(hd, "sim.heading_control", "agent neighbor schedule", "gain")
        agent, neighbor = (_integer(hd[k], f"heading_control.{k}") for k in ("agent", "neighbor"))
        if not (1 <= agent <= n and neighbor in graph.neighbors(agent)):
            raise ScenarioError(f"heading_control pair ({agent},{neighbor}) is not an edge")
        key = "heading_control.schedule"
        entries = [_object(s, f"sim.{key}[{k}]", "until re im")
                   for k, s in enumerate(hd["schedule"])]
        sched = tuple((_number(s["until"], f"{key}.until"),
                       complex(_number(s["re"], f"{key}.re"), _number(s["im"], f"{key}.im")))
                      for s in entries)
        heading = HeadingControl(agent, neighbor,
                                 _number(hd.get("gain", 1.0), "heading_control.gain"), sched)
    p0 = sd.get("initial_condition")
    if p0 is not None:
        p0 = _points(p0, "sim.initial_condition")
        if p0.size != n:
            raise ScenarioError("sim.initial_condition size mismatch")
    try:
        sim = SimConfig(p0=p0, heading=heading, **{k: read(sd[k], f"sim.{k}")
                                                   for k, read in readers.items() if k in sd})
    except ValueError as exc:
        raise ScenarioError(f"invalid sim config: {exc}") from exc

    method = sd.get("method", "rk4")
    if method not in ("rk4", "exact"):
        raise ScenarioError(f"sim.method must be 'rk4' or 'exact', got {method!r}")
    out = _object(doc.get("output", {}), "output", "", "report trajectory")
    names = out.get("report", "report.json"), out.get("trajectory", "trajectory.csv")
    if not all(isinstance(s, str) and s not in ("", ".", "..") and "/" not in s
               and "\0" not in s for s in names):
        raise ScenarioError(f"output names must be plain file names, got {names}")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed}")
    return Scenario(name=name, graph=graph, shape=shape, spec=spec, sim=sim,
                    design_seed=seed, method=method,
                    report_name=names[0], trajectory_name=names[1])


def _non_finite(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it repeats is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key '{key}'")
        doc[key] = value
    return doc


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_non_finite, object_pairs_hook=_unique_keys)
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
