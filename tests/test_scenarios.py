import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lapmaneuver import (SCENARIO_NAMES, MotionSpec, ScenarioError, SimConfig,
                         builtin_scenario, load_scenario, run_scenario,
                         scenario_from_dict, scenarios, shape_error)


def test_builtin_names_all_parse():
    for name in SCENARIO_NAMES:
        sc = scenario_from_dict(builtin_scenario(name))
        assert sc.name == name
        assert sc.graph.n == sc.shape.n


def test_builtins_are_the_shipped_files():
    files = sorted(Path(__file__).parents[1].joinpath("scenarios").glob("*.json"))
    assert SCENARIO_NAMES == tuple(f.stem for f in files)
    for f in files:
        assert builtin_scenario(f.stem) == json.loads(f.read_text())


def test_builtin_unknown_name():
    with pytest.raises(ScenarioError):
        builtin_scenario("no_such_scenario")


def test_override_deep_merge():
    doc = builtin_scenario("enclosing", {"sim": {"t_end": 5.0}, "seed": 3})
    assert doc["sim"]["t_end"] == 5.0
    assert doc["sim"]["dt"] == 0.01  # untouched sibling keys survive
    assert doc["seed"] == 3


def test_missing_graph_rejected():
    doc = builtin_scenario("enclosing")
    del doc["graph"]
    with pytest.raises(ScenarioError, match="graph"):
        scenario_from_dict(doc)


def test_shape_size_mismatch_rejected():
    doc = builtin_scenario("enclosing")
    doc["shape"] = doc["shape"][:-1]
    with pytest.raises(ScenarioError, match="points"):
        scenario_from_dict(doc)


def test_rotation_center_out_of_range():
    doc = builtin_scenario("enclosing", {"motion": {"rotation_center": 9}})
    with pytest.raises(ScenarioError, match="rotation_center"):
        scenario_from_dict(doc)


def test_heading_pair_must_be_edge():
    doc = builtin_scenario("traveling_heading")
    doc["sim"]["heading_control"]["neighbor"] = 3  # (1,3) is an edge, (1,4) not
    scenario_from_dict(doc)
    doc["sim"]["heading_control"]["agent"] = 2  # (2,3) is an edge
    scenario_from_dict(doc)
    doc["sim"]["heading_control"]["neighbor"] = 4  # (2,4) is not
    with pytest.raises(ScenarioError, match="not an edge"):
        scenario_from_dict(doc)


def test_bad_method_rejected():
    doc = builtin_scenario("enclosing", {"sim": {"method": "euler"}})
    with pytest.raises(ScenarioError, match="method"):
        scenario_from_dict(doc)


def test_invalid_motion_key_combination():
    doc = builtin_scenario("enclosing", {"motion": {"kappa_r": 0.0}})
    with pytest.raises(ScenarioError, match="motion"):
        scenario_from_dict(doc)


def test_v_star_with_rotation_center_names_the_conflict():
    # the agent-centred field has no translation term, so v* would be dropped
    doc = builtin_scenario("enclosing", {"motion": {"v_star_re": 1.0, "kappa_t": 0.05}})
    with pytest.raises(ScenarioError, match="v_star cannot be combined with a center agent"):
        scenario_from_dict(doc)


def test_minimal_document_takes_the_dataclass_defaults():
    doc = builtin_scenario("traveling_heading")
    sc = scenario_from_dict({"graph": doc["graph"], "shape": doc["shape"]})
    assert sc.spec == MotionSpec()
    for field in dataclasses.fields(SimConfig):
        assert getattr(sc.sim, field.name) == getattr(SimConfig(), field.name), field.name
    assert (sc.name, sc.design_seed, sc.method) == ("unnamed", 0, "rk4")


def test_load_scenario_round_trip(tmp_path):
    doc = builtin_scenario("spiral_outward", {"sim": {"t_end": 1.0}})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    ref = scenario_from_dict(doc)
    assert sc.name == ref.name
    assert sc.graph == ref.graph
    assert np.array_equal(sc.shape.p_star, ref.shape.p_star)
    assert sc.spec == ref.spec
    assert sc.sim.t_end == 1.0


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [("dt", math.nan), ("dt", math.inf),
                                        ("t_end", math.inf), ("t_end", math.nan),
                                        ("divergence_threshold", math.nan),
                                        ("divergence_threshold", math.inf)])
def test_non_finite_sim_times_rejected(key, value):
    # a NaN divergence threshold would switch the divergence check off
    with pytest.raises(ValueError, match=f"^{key} must be .*finite"):
        SimConfig(**{"dt": 0.01, "t_end": 1.0, key: value})
    doc = builtin_scenario("enclosing", {"sim": {key: value}})
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key, over", [
    ("graph.n", {"graph": {"n": 4.7}}),
    ("graph.edges", {"graph": {"edges": [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3.5]]}}),
    ("motion.rotation_center", {"motion": {"rotation_center": 1.5}}),
    ("heading_control.agent", {"sim": {"heading_control": {"agent": 1.2}}}),
    ("heading_control.neighbor", {"sim": {"heading_control": {"neighbor": 2.5}}}),
    ("seed", {"seed": 1.9}),
    ("sim.seed", {"sim": {"seed": 1.9}}),
    ("sim.sample_stride", {"sim": {"sample_stride": 2.5}}),
])
def test_non_integral_numbers_rejected(key, over):
    # int() would truncate these silently: n = 4.7 to 4, seed = 1.9 to 1
    with pytest.raises(ScenarioError, match=rf"^{key} must be an integer"):
        scenario_from_dict(builtin_scenario("traveling_heading", over))


def test_integral_floats_accepted():
    sc = scenario_from_dict(builtin_scenario(
        "traveling_heading", {"graph": {"n": 4.0}, "seed": 3.0, "sim": {"seed": 2.0}}))
    assert (sc.graph.n, sc.design_seed, sc.sim.seed) == (4, 3, 2)
    assert all(type(v) is int for v in (sc.graph.n, sc.design_seed, sc.sim.seed))


@pytest.mark.parametrize("key", ["a", "omega", "v_star", "kappa_t", "kappa_r",
                                 "kappa_s", "kappa_tilde"])
def test_non_finite_motion_rejected(key):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            MotionSpec(**{key: value})


def test_non_finite_motion_is_a_parse_error():
    with pytest.raises(ScenarioError, match="finite"):
        run_scenario("enclosing", {"motion": {"kappa_tilde": math.nan}})


def test_run_deterministic():
    over = {"sim": {"t_end": 2.0, "method": "exact"}}
    a = run_scenario("enclosing", over)
    b = run_scenario("enclosing", over)
    assert np.array_equal(a.trajectory.states, b.trajectory.states)


def test_enclosing_orbits_center_agent():
    res = run_scenario("enclosing", {"sim": {"method": "exact"}})
    tr, shape = res.trajectory, res.scenario.shape
    assert shape_error(tr.states, shape)[-1] < 1e-10
    # the designated agent ends at rest while the others orbit it
    vel = -res.design.KL_tilde @ tr.states[-1]
    assert abs(vel[4]) < 1e-10
    assert np.abs(vel[:4]).min() > 1e-3


def test_consensus_contracts():
    res = run_scenario("shaped_consensus_inward", {"sim": {"method": "exact"}})
    p_end = res.trajectory.states[-1]
    spread = np.abs(p_end - p_end.mean()).max()
    spread0 = np.abs(res.trajectory.states[0] -
                     res.trajectory.states[0].mean()).max()
    assert spread < 1e-3 * spread0


def test_spiral_expands():
    res = run_scenario("spiral_outward", {"sim": {"method": "exact"}})
    tr = res.trajectory
    w = tr.window(200.0, 250.0)
    rel = tr.states[w] - tr.states[w].mean(axis=1, keepdims=True)
    radius = np.linalg.norm(rel, axis=1)
    # scale grows like e^{0.025 t}
    ratio = radius[-1] / radius[0]
    span = tr.times[w][-1] - tr.times[w][0]
    assert ratio == pytest.approx(np.exp(0.025 * span), rel=1e-6)


def test_traveling_tracks_heading_setpoints():
    res = run_scenario("traveling_heading", {"sim": {"method": "exact"}})
    tr = res.trajectory
    # setpoints rotate by pi/4 each dwell; the last is scaled by four
    for t_end, z_ref in ((50.0, 2 + 0j), (250.0, -8 + 0j)):
        k = int(np.searchsorted(tr.times, t_end, side="right")) - 1
        p = tr.states[k]
        assert abs((p[0] - p[1]) - z_ref) < 1e-6 * abs(z_ref)


def test_rk4_and_exact_agree_on_scenario():
    over = {"sim": {"t_end": 10.0, "dt": 1e-3, "sample_stride": 100}}
    rk = run_scenario("enclosing", over)
    ex = run_scenario("enclosing", {**over, "sim": {**over["sim"], "method": "exact"}})
    scale = np.abs(ex.trajectory.states).max()
    assert np.abs(rk.trajectory.states - ex.trajectory.states).max() / scale < 1e-6


def test_shape_size_is_checked_before_the_graph_is_built(monkeypatch):
    # a million nodes with three points is refused without building the graph
    def refuse(*args):
        raise AssertionError("graph built before the shape size check")

    monkeypatch.setattr(scenarios, "FormationGraph", refuse)
    doc = {"graph": {"n": 1000000, "edges": [[1, 2], [2, 3], [3, 1]]},
           "shape": [[0, 0], [1, 0], [0, 1]]}
    with pytest.raises(ScenarioError, match="^shape has 3 points for n=1000000 nodes$"):
        scenario_from_dict(doc)
