import json
import math
from pathlib import Path

import numpy as np
import pytest

from lapmaneuver import (SCENARIO_NAMES, ScenarioError, SimConfig,
                         builtin_scenario, load_scenario, run_scenario,
                         scenario_from_dict, shape_error_series,
                         simulate_scenario)


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
                                        ("t_end", math.inf), ("t_end", math.nan)])
def test_non_finite_sim_times_rejected(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be .*finite"):
        SimConfig(**{"dt": 0.01, "t_end": 1.0, key: value})
    doc = builtin_scenario("enclosing", {"sim": {key: value}})
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(doc)


def test_run_deterministic():
    over = {"sim": {"t_end": 2.0, "method": "exact"}}
    a = run_scenario("enclosing", over)
    b = run_scenario("enclosing", over)
    assert np.array_equal(a.trajectory.states, b.trajectory.states)


def test_enclosing_orbits_center_agent():
    res = run_scenario("enclosing", {"sim": {"method": "exact"}})
    tr, shape = res.trajectory, res.scenario.shape
    assert shape_error_series(tr, shape)[-1] < 1e-10
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
