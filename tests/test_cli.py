import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapmaneuver import (SCENARIO_NAMES, ExpansionIllConditioned, SpectrumMismatch,
                         Trajectory, builtin_scenario, design_pipeline, laplacian,
                         load_scenario, run_scenario, scenario_from_dict)
from lapmaneuver import cli, scenarios
from lapmaneuver.cli import main, write_trajectory_csv
from lapmaneuver.shapes import TOLERANCES

from conftest import ring_chord


def _write(tmp_path, name, overrides=None, fname="scenario.json"):
    doc = builtin_scenario(name, overrides)
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return path


FAST = {"sim": {"t_end": 5.0, "sample_stride": 50}}


def test_design_writes_report(tmp_path):
    path = _write(tmp_path, "enclosing")
    code = main(["design", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 5
    assert report["gain_boost"] == 1.0
    assert len(report["weights"]) == 2 * 9  # both orientations of 9 edges
    assert len(report["modified_weights"]) == len(report["weights"])
    assert len(report["eigenvalues_KL_tilde"]) == 5
    # spectral check summary is echoed with its tolerances and seeds
    assert report["tolerances"]["spectrum_rel"] == 1e-8
    assert report["seeds"] == {"design": 0, "sim": 7}
    residuals = report["spectral_residuals"]
    assert residuals["split_residual"] < 1e-14 and residuals["motion_residual"] < 1e-14
    assert 0 < residuals["min_eig_P"] <= residuals["max_eig_P"]
    assert residuals["cond_P"] == residuals["max_eig_P"] / residuals["min_eig_P"]


def test_simulate_outputs_and_determinism(tmp_path):
    path = _write(tmp_path, "traveling_heading", FAST)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(path), "--out", str(out2)]) == 0
    csv1 = (out1 / "trajectory.csv").read_bytes()
    assert csv1 == (out2 / "trajectory.csv").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i},y_{i}" for i in range(1, 5))
    report = json.loads((out1 / "report.json").read_text())
    assert report["metrics"]["samples"] == len(csv1.decode().splitlines()) - 1


def test_report_round_trips(tmp_path):
    path = _write(tmp_path, "shaped_consensus_inward", FAST)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(text, parse_constant=refuse)  # strict: no NaN or Infinity
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text


# (c1, c2) of report.json's prediction for the built-ins without heading
# control, as written before the heading run's prediction was dropped
_PREDICTIONS = {
    "enclosing": ([-0.620278018644759, -0.09630384466778949],
                  [-1.2482574800882036, -0.9289972542250233]),
    "shaped_consensus_inward": ([0.5113700823723699, 0.4658863113510344],
                                [-0.24189804459809436, -0.1539791907565462]),
    "spiral_outward": ([0.502351747068409, 0.47270300172249524],
                       [-0.24030631689574966, -0.1618232374629422])}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_report_predicts_only_a_run_without_heading(name):
    # the prediction models -K L~ alone: on traveling_heading, whose loop has
    # the heading term too, it was 1.76 (relative) from the final state
    sc = scenario_from_dict(builtin_scenario(name))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    prediction = cli.build_report(sc, d)["prediction"]
    if name == "traveling_heading":
        assert prediction is None
    else:
        c1, c2 = _PREDICTIONS[name]
        assert prediction == {"c1": pytest.approx(c1, rel=1e-9), "case": "moving",
                              "c2": pytest.approx(c2, rel=1e-9), "steady_velocity": [0.0, 0.0]}


STAR = {"graph": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
        "shape": [[0, 0], [1, 0], [0, 1], [-1, 0]]}
# three triangles sharing node 1: every degree is >= 2, yet no 2-node root set
WINDMILL = {"graph": {"n": 7, "edges": [[1, 2], [2, 3], [3, 1], [1, 4], [4, 5],
                                        [5, 1], [1, 6], [6, 7], [7, 1]]},
            "shape": [[0, 0], [2, 0.5], [1.5, 1.5], [-1, 2], [-2, 0.5],
                      [-0.5, -2], [1.5, -1.5]]}


def test_infeasible_graph_exit_1(tmp_path, capsys):
    # every command runs the same pre-check before any weight is drawn
    for over in (STAR, WINDMILL):
        # drop the heading pair check interference: (1,2) is still an edge
        path = _write(tmp_path, "traveling_heading", over)
        for command in ("design", "simulate", "verify"):
            code = main([command, "--scenario", str(path), "--out", str(tmp_path)])
            assert code == 1
            assert "not 2-rooted" in capsys.readouterr().err
            assert not (tmp_path / "report.json").exists()


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"graph\": ")
    code = main(["design", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_bad_key_exit_2(tmp_path, capsys):
    doc = builtin_scenario("enclosing")
    del doc["graph"]["edges"]
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "edges" in capsys.readouterr().err


MALFORMED = {
    "graph n not a number": lambda d: d["graph"].update(n="four"),
    "rotation_center not an agent": lambda d: d["motion"].update(rotation_center="foo"),
    "seed not a number": lambda d: d.update(seed="x"),
    "heading agent not an integer":
        lambda d: d["sim"]["heading_control"].update(agent="one"),
    "schedule entry without re":
        lambda d: d["sim"]["heading_control"]["schedule"][0].pop("re"),
    "string in initial_condition": lambda d: d["sim"].update(
        initial_condition=[[1, 1], ["a", 1], [-1, -1], [1, -1]]),
    "output as a list": lambda d: d.update(output=["report.json"]),
    "output name not a string": lambda d: d.update(output={"report": 5}),
    "motion as a list": lambda d: d.update(motion=[1.0]),
    "omega beyond float range": lambda d: d["motion"].update(omega=10**400),
    "graph n beyond float range": lambda d: d["graph"].update(n=10**400),
    "v_star with an agent center": lambda d: d["motion"].update(rotation_center=2),
    "negative seed": lambda d: d.update(seed=-3),
    "negative sim seed": lambda d: d["sim"].update(seed=-3),
    "name not a string": lambda d: d.update(name=["x"]),
    "all-zero initial condition": lambda d: d["sim"].update(initial_condition=[[0, 0]] * 4),
    "initial condition of 2 points for 4 agents":
        lambda d: d["sim"].update(initial_condition=[[1, 0], [0, 1]]),
    "zero box factor": lambda d: d["sim"].update(box_factor=0),
    "negative box factor": lambda d: d["sim"].update(box_factor=-1),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_exit_2(tmp_path, capsys, mutate):
    doc = builtin_scenario("traveling_heading")
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in ("design", "simulate", "verify"):
        code = main([command, "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("parse error: ")
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


@pytest.mark.parametrize("below", ["", "sub"], ids=["existing file", "path below a file"])
def test_out_not_a_directory_exit_2(tmp_path, capsys, below):
    # refused before any design work, naming the path, not a mkdir traceback
    path = _write(tmp_path, "enclosing")
    out = tmp_path / "taken" / below if below else tmp_path / "taken"
    (tmp_path / "taken").write_text("")
    for command in ("design", "simulate", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: --out {out} is not a usable directory")
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json", "taken"}


def test_verify_leaves_a_missing_out_uncreated(tmp_path, capsys):
    # verify writes nothing, so it makes no --out directory
    path = _write(tmp_path, "enclosing")
    out = tmp_path / "missing" / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("PASS shape-plane-split")
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


def test_degenerate_shape_exit_2(tmp_path, capsys):
    # five coincident points: a parse error, not a DegenerateShape traceback
    path = _write(tmp_path, "enclosing", {"shape": [[1, 1]] * 5})
    for command in ("design", "simulate", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


UNKNOWN_KEYS = {  # one misspelt key per level of a scenario file, by its path
    "seeed": lambda d: d.update(seeed=1),
    "graph.m": lambda d: d["graph"].update(m=5),
    "motion.kappa_tlide": lambda d: d["motion"].update(kappa_tlide=50),
    "sim.t_edn": lambda d: d["sim"].update(t_edn=1),
    "sim.box_factor": lambda d: d["sim"].update(box_factor=2.0),  # the start box is fixed
    "sim.heading_control.gian": lambda d: d["sim"]["heading_control"].update(gian=2.0),
    "sim.heading_control.schedule[1].untl":
        lambda d: d["sim"]["heading_control"]["schedule"][1].update(untl=75.0),
    "output.reprot": lambda d: d.update(output={"reprot": "r.json"}),
}


@pytest.mark.parametrize("key", UNKNOWN_KEYS)
def test_unknown_key_exit_2(tmp_path, capsys, key):
    # a misspelt key would otherwise run silently with the default it misses
    doc = builtin_scenario("traveling_heading")
    UNKNOWN_KEYS[key](doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in ("design", "simulate", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"parse error: unknown key '{key}'\n"
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


@pytest.mark.parametrize("output", [{"report": "missing/r.json"}, {"report": ""},
                                    {"trajectory": "."}, {"trajectory": ".."},
                                    {"trajectory": "t.csv/"},
                                    {"report": "r\0.json"}])
def test_output_name_not_a_plain_file_name_exit_2(tmp_path, capsys, output):
    # refused while parsing, before any design work, not by a traceback on write
    path = _write(tmp_path, "enclosing", {"output": output})
    for command in ("design", "simulate"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "output names must be plain file names" in capsys.readouterr().err
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


def test_plain_output_names_are_written(tmp_path):
    path = _write(tmp_path, "enclosing",
                  {**FAST, "output": {"report": "r.json", "trajectory": "..t"}})
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json", "r.json", "..t"}


@pytest.mark.parametrize("over", [{"sim": {"dt": math.nan}},
                                  {"sim": {"t_end": math.inf}},
                                  {"motion": {"kappa_tilde": math.nan}},
                                  {"motion": {"omega": math.inf}},
                                  {"motion": {"omega": -math.inf}}])
def test_non_finite_number_exit_2(tmp_path, capsys, over):
    path = _write(tmp_path, "enclosing", over)  # json.dumps writes NaN, Infinity
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "non-finite number" in capsys.readouterr().err


NUMBER_FIELDS = {
    "motion.omega": lambda d, v: d["motion"].update(omega=v),
    "motion.kappa_tilde": lambda d, v: d["motion"].update(kappa_tilde=v),
    "seed": lambda d, v: d.update(seed=v),
    "sim.sample_stride": lambda d, v: d["sim"].update(sample_stride=v),
    "sim.divergence_threshold": lambda d, v: d["sim"].update(divergence_threshold=v),
    "heading_control.gain": lambda d, v: d["sim"]["heading_control"].update(gain=v),
    "heading_control.schedule.until":
        lambda d, v: d["sim"]["heading_control"]["schedule"][0].update(until=v),
    "heading_control.schedule.re":
        lambda d, v: d["sim"]["heading_control"]["schedule"][0].update(re=v),
    "shape": lambda d, v: d["shape"][0].__setitem__(0, v),
}


@pytest.mark.parametrize("value", ["nan", "1e400", True], ids=["string", "1e400", "true"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_non_number_field_exit_2(tmp_path, capsys, field, value):
    # a string, a boolean or the literal 1e400 (read as inf) names the field
    doc = builtin_scenario("traveling_heading")
    NUMBER_FIELDS[field](doc, "@1e400@" if value == "1e400" else value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"@1e400@"', "1e400"))
    for command in ("design", "simulate", "verify"):
        code = main([command, "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"parse error: {field} must be a finite number")
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


@pytest.mark.parametrize("sim", [{"dt": 1e-300, "t_end": 1e300},
                                 {"dt": 1.0, "t_end": 1e20, "method": "exact"}])
def test_step_count_beyond_an_exact_float_exit_2(tmp_path, capsys, sim):
    # both used to end in an OverflowError traceback after the design had run
    path = _write(tmp_path, "enclosing", {"sim": sim})
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error: invalid sim config: t_end / dt")
    assert not out.exists()


def test_divergence_exit_3(tmp_path, capsys):
    # a perturbation gain far above any stable step size for the integrator
    path = _write(tmp_path, "enclosing",
                  {"motion": {"kappa_tilde": 1e4}, "sim": {"t_end": 50.0}})
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    assert "largest stable dt" in err  # refused before stepping


@pytest.mark.parametrize("method, code", [("rk4", 3), ("exact", 0)])
def test_every_command_refuses_the_dt_simulate_refuses(tmp_path, capsys, method, code):
    # the benchmark sweep's n = 48 rotation takes gain boost 2^9, which RK4 at
    # dt 0.01 cannot integrate; design and verify hand over no such design
    g, shape = ring_chord(48)
    path = tmp_path / "ring_chord_48.json"
    path.write_text(json.dumps({
        "graph": {"n": g.n, "edges": g.oriented_edges},
        "shape": [[z.real, z.imag] for z in shape.p_star],
        "motion": {"omega": 1.0, "kappa_r": 0.025},
        "sim": {"dt": 0.01, "t_end": 20.0, "sample_stride": 10, "method": method}}))
    errs = []
    for command in ("design", "verify", "simulate"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == code
        errs.append(capsys.readouterr().err)
    if code:
        assert errs[0] == errs[1] == errs[2] and errs[0].count("\n") == 1
        assert errs[0].startswith("diverged: RK4 step dt=0.01 is unstable")
        assert errs[0].endswith("the largest stable dt is about 0.00271\n")
        assert not (tmp_path / "design" / "report.json").exists()
    else:
        assert errs == ["", "", ""]


def test_divergence_exit_3_names_the_first_bad_step(tmp_path, capsys):
    # steered on the edge (4, 3), traveling_heading's loop grows: the segment
    # that fails the skipped-state bound is walked again to its first bad step
    path = _write(tmp_path, "traveling_heading",
                  {"sim": {"heading_control": {"agent": 4, "neighbor": 3}}})
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert "diverged: state norm exceeded threshold at t=184.210" in capsys.readouterr().err


def test_verify_passes(tmp_path, capsys):
    path = _write(tmp_path, "enclosing")
    code = main(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS shape-plane-split (moving): ||B21|| " in out
    assert "PASS perturbation-bound" in out


def test_verify_translation_case(tmp_path, capsys):
    path = _write(tmp_path, "traveling_heading")
    code = main(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert "PASS shape-plane-split (translation): ||B21|| " in capsys.readouterr().out


def test_verify_warns_above_bound(tmp_path, capsys):
    # the bound is sufficient, not necessary: exceeding it only warns
    path = _write(tmp_path, "enclosing", {"motion": {"kappa_tilde": 20.0}})
    code = main(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "WARNING" in out and "exceeds" in out


def test_verify_checks_the_shipped_design(tmp_path, capsys):
    # verify certifies the boosted gains that design writes, and still warns
    path = _write(tmp_path, "enclosing", {"motion": {"kappa_tilde": 20.0}})
    sc = load_scenario(path)
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    bound = f"{d.stability.kappa_tilde_max:.4g}"
    assert main(["design", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tolerances"] == TOLERANCES  # the table the code reads
    assert report["gain_boost"] == d.boost > 1
    assert f"{report['kappa_tilde_max']:.4g}" == bound
    # the modified weights the agents run, written with the boosted gains
    W = np.zeros((sc.graph.n, sc.graph.n), dtype=complex)
    for i, j, re, im in report["modified_weights"]:
        W[i - 1, j - 1] = complex(re, im)
    assert W.tobytes() == d.modified.weights.tobytes()
    assert not np.array_equal(W, d.bundle.weights)
    assert laplacian(W).tobytes() == d.modified.L_tilde.tobytes()
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"PASS perturbation-bound: kappa_tilde_max {bound} (gain boost {d.boost:g})" in out
    assert f"bound {report['kappa_tilde_max'] / d.boost:.4g} of the unboosted gains" in out
    assert f"doubled {int(math.log2(d.boost))} time(s)" in out


def test_verify_infeasible_graph_exit_1(tmp_path, capsys):
    over = {"graph": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
            "shape": [[0, 0], [1, 0], [0, 1], [-1, 0]]}
    path = _write(tmp_path, "traveling_heading", over)
    code = main(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "not 2-rooted" in capsys.readouterr().err


def test_verify_failure_exit_4(tmp_path, capsys, monkeypatch):
    import lapmaneuver.spectral as spectral

    def broken(*args, **kwargs):
        raise SpectrumMismatch("injected mismatch")

    monkeypatch.setattr(spectral, "verify_motion_spectrum", broken)
    path = _write(tmp_path, "enclosing")
    code = main(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 4
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design", "simulate"])
def test_a_report_that_cannot_be_formed_exit_1(tmp_path, capsys, monkeypatch, command):
    # a FormationError raised past the pipeline, while the report is built
    def refused(*args):
        raise ExpansionIllConditioned("injected collision")

    monkeypatch.setattr(cli, "predict_steady_state", refused)
    path = _write(tmp_path, "enclosing", FAST)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "failed: ExpansionIllConditioned: injected collision\n"


def test_a_tiny_shape_simulates(tmp_path):
    # |p|^2 underflows at this scale, and the shape error must not read the
    # configuration as zero
    doc = builtin_scenario("enclosing", {"sim": {"t_end": 10.0}})
    doc["shape"] = [[1e-170 * x, 1e-170 * y] for x, y in doc["shape"]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "report.json").read_text())["metrics"]
    assert 0 < metrics["final_shape_error"] <= metrics["max_shape_error"] < 1


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_option_exit_2(tmp_path, capsys, seed):
    path = _write(tmp_path, "enclosing")
    for command in ("design", "simulate", "verify"):
        with pytest.raises(SystemExit) as exc:  # argparse refuses the value
            main([command, "--scenario", str(path), "--out", str(tmp_path), "--seed", seed])
        assert exc.value.code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


def test_seed_override_changes_weights(tmp_path):
    path = _write(tmp_path, "enclosing")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["design", "--scenario", str(path), "--out", str(out1)]) == 0
    assert main(["design", "--scenario", str(path), "--out", str(out2),
                 "--seed", "5"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["seeds"]["design"] == 5
    assert r1["weights"] != r2["weights"]


DUPLICATE_KEYS = {  # one key repeated in one object per level, inserted into the raw text
    "seed": ('{"name"', '{"seed": 1, "name"'),
    "n": ('"graph": {', '"graph": {"n": 4, '),
    "kappa_tilde": ('"motion": {', '"motion": {"kappa_tilde": 20.0, '),
    "dt": ('"sim": {', '"sim": {"dt": 0.02, '),
    "gain": ('"heading_control": {', '"heading_control": {"gain": 2.0, '),
    "until": ('"schedule": [{', '"schedule": [{"until": 10.0, '),
    "report": ('"output": {', '"output": {"report": "a.json", '),
}


@pytest.mark.parametrize("key", DUPLICATE_KEYS)
def test_duplicate_key_exit_2(tmp_path, capsys, key):
    # json would keep the last value silently
    text = json.dumps(builtin_scenario("traveling_heading", {"output": {"report": "r.json"}}))
    old, new = DUPLICATE_KEYS[key]
    assert text.count(old) == 1
    path = tmp_path / "scenario.json"
    path.write_text(text.replace(old, new))
    for command in ("design", "simulate", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"parse error: {path}: duplicate key '{key}'\n"
    assert {f.name for f in tmp_path.iterdir()} == {"scenario.json"}


@pytest.mark.parametrize("command", ["design", "simulate", "verify"])
def test_no_parsed_file_leaves_out_alone(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    out = tmp_path / "newdir"
    assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")
    assert not out.exists()


def test_multiple_scenarios_worst_exit(tmp_path):
    good = _write(tmp_path, "enclosing", fname="good.json")
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    code = main(["design", "--scenario", str(good), "--scenario", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2


def _per_cell_csv(traj, path):
    """The writer that formatted and appended one cell at a time."""
    n = traj.n
    header = "t," + ",".join(f"x_{i},y_{i}" for i in range(1, n + 1))
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        cells = [f"{t:.17g}"]
        for z in row:
            cells.append(f"{z.real:.17g}")
            cells.append(f"{z.imag:.17g}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _savetxt_csv(traj, path):
    """The writer that handed the whole table to np.savetxt."""
    n = traj.n
    header = "t," + ",".join(f"x_{i},y_{i}" for i in range(1, n + 1))
    table = np.empty((traj.times.size, 2 * n + 1))
    table[:, 0] = traj.times
    table[:, 1::2] = traj.states.real
    table[:, 2::2] = traj.states.imag
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def _random_trajectory(rows, n, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    return Trajectory(np.arange(rows) * 0.01, states + 1j * rng.standard_normal((rows, n)))


def test_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # 20 000 rows of n = 10: the whole table would take 3.4 MB and its text 9.1 MB
    import tracemalloc

    traj = _random_trajectory(20_000, 10)
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_csv_rows_match_per_cell_writer(tmp_path):
    states = np.array([[-0.0, 1e300], [0.1, -1e-300], [np.pi, 1 / 3]], dtype=complex)
    states.imag = [[1e-300, -0.0], [0.2, -1e300], [-np.e, 2 / 3]]
    special = Trajectory(np.array([0.0, 1e-300, 1e300]), states)
    simulated = run_scenario("traveling_heading", FAST).trajectory
    per_block = cli._CSV_BYTES // (8 * 21)  # rows of n = 10 in one block
    ragged = _random_trajectory(3 * per_block + 7, 10)
    wide = _random_trajectory(3, cli._CSV_BYTES // 16)  # one row of 8193 cells is over a block
    for traj in (special, simulated, ragged, wide):
        write_trajectory_csv(traj, tmp_path / "rows.csv")
        for writer in (_per_cell_csv, _savetxt_csv):
            writer(traj, tmp_path / "ref.csv")
            assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_trajectory_csv(special, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_text().splitlines()[1] \
        == "0,-0,1e-300,1.0000000000000001e+300,-0"


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), rows=st.sampled_from([(0, 1), (1, -1), (1, 1), (2, 1)]),
       near_one=st.booleans(), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, 2**64 - 1), max_size=32))
def test_csv_of_any_bit_patterns_matches_per_cell_writer(tmp_path_factory, n, rows, near_one,
                                                          seed, picks):
    # random 64-bit patterns as float64, NaN payloads, -0, subnormals and +-inf
    # among them, on row counts either side of a block; near_one confines the
    # background to |x| in [2^-20, 2^60), where most cells are in fixed notation
    blocks, extra = rows
    rows = blocks * (cli._CSV_BYTES // (8 * (2 * n + 1))) + extra
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64 - 1, (rows, 2 * n + 1), dtype=np.uint64, endpoint=True)
    if near_one:
        exponent = rng.integers(1023 - 20, 1023 + 60, bits.shape).astype(np.uint64)
        bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
    bits.reshape(-1)[rng.integers(0, bits.size, len(picks))] = np.array(picks, np.uint64)
    table = bits.view(np.float64)
    traj = Trajectory(table[:, 0].copy(), np.ascontiguousarray(table[:, 1:]).view(complex))
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, out / "rows.csv")
    _per_cell_csv(traj, out / "ref.csv")
    assert (out / "rows.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_csv_hard_cells_match_percent_17g(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1.7976931348623157e308, 1e-4, 1e17, 1e16, 0.1, 1.0, 100.0,
                      1234567890123456.75, 1234567890123456.25, 0.5, 2.5, 0.0, np.inf, np.nan])
    cells = np.concatenate([powers, edges])
    with np.errstate(over="ignore"):  # the double after the largest is inf
        cells = np.concatenate([cells, np.nextafter(cells, 0), np.nextafter(cells, np.inf)])
    cells = np.concatenate([cells, -cells])
    states = np.empty((cells.size, 1), complex)
    states.real, states.imag = cells[:, None], cells[::-1, None]
    traj = Trajectory(cells, states)
    write_trajectory_csv(traj, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert lines == ["%.17g,%.17g,%.17g" % (t, z.real, z.imag)
                     for t, z in zip(cells.tolist(), traj.states[:, 0].tolist())]
    text = {float(c): c for line in lines for c in line.split(",")}
    assert text[np.nextafter(1e-4, 0)] == "9.9999999999999991e-05"
    assert text[np.nextafter(1e17, 0)] == "99999999999999984"
    assert text[1e-4] == "0.0001" and text[1e17] == "1e+17" and text[1e16] == "10000000000000000"
    assert text[1234567890123456.75] == "1234567890123456.8"  # a tie, half to even
    assert text[1234567890123456.25] == "1234567890123456.2"


def test_builtin_trajectories_rarely_reach_the_python_fallback(tmp_path, monkeypatch):
    # each built-in's full trajectory.csv, as `simulate` writes it, has the
    # per-cell writer's bytes; a formatter that sent every cell to Python
    # would still write them, so only this count, or the benchmark, shows it
    made = []

    class Counted(cli._Cells):
        def __init__(self, rows, cols):
            super().__init__(rows, cols)
            made.append(self)

    monkeypatch.setattr(cli, "_Cells", Counted)
    for name in SCENARIO_NAMES:
        made.clear()
        traj = run_scenario(name).trajectory
        write_trajectory_csv(traj, tmp_path / "t.csv")
        _per_cell_csv(traj, tmp_path / "ref.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
        slow = sum(c.slow for c in made)
        assert 0 < slow <= 1e-3 * traj.times.size * (2 * traj.n + 1), (name, slow)


def test_colliding_outputs_refused(tmp_path, capsys):
    a = _write(tmp_path, "enclosing", FAST, fname="a.json")
    b = _write(tmp_path, "spiral_outward", FAST, fname="b.json")
    out = tmp_path / "o"
    code = main(["simulate", "--scenario", str(a), "--scenario", str(b),
                 "--out", str(out)])
    assert code == 2
    assert str(out / "report.json") in capsys.readouterr().err
    assert not out.exists()
    # distinct output names run as before
    b = _write(tmp_path, "spiral_outward",
               {"output": {"report": "b.json", "trajectory": "b.csv"}, **FAST},
               fname="b.json")
    code = main(["simulate", "--scenario", str(a), "--scenario", str(b),
                 "--out", str(out)])
    assert code == 0
    assert {f.name for f in out.iterdir()} == {"report.json", "trajectory.csv",
                                               "b.json", "b.csv"}


def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a directory where the report goes: one stderr line names it, and the
    # file after it in the same run still writes its outputs
    a = _write(tmp_path, "enclosing", {"output": {"report": "a.json"}}, fname="a.json")
    b = _write(tmp_path, "spiral_outward", {"output": {"report": "b.json"}}, fname="b.json")
    out = tmp_path / "o"
    (out / "a.json").mkdir(parents=True)
    code = main(["design", "--scenario", str(a), "--scenario", str(b), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"cannot write {out / 'a.json'}: ")
    assert json.loads((out / "b.json").read_text())["scenario"] == "spiral_outward"


def test_each_file_is_read_once_before_any_design(tmp_path, monkeypatch):
    a = _write(tmp_path, "enclosing", fname="a.json")
    b = _write(tmp_path, "spiral_outward", {"output": {"report": "b_report.json"}},
               fname="b.json")
    events = []

    def traced(fn, event):
        def call(*args, **kwargs):
            events.append(event)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "load_scenario", traced(cli.load_scenario, "load"))
    monkeypatch.setattr(scenarios, "design_pipeline", traced(scenarios.design_pipeline, "design"))
    assert main(["design", "--scenario", str(a), "--scenario", str(b),
                 "--out", str(tmp_path / "o")]) == 0
    assert events == ["load", "load", "design", "design"]


def test_parse_errors_come_before_any_run(tmp_path, capsys):
    # the infeasible file is named first, yet runs after the other file is refused
    infeasible = _write(tmp_path, "traveling_heading", STAR, fname="star.json")
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    code = main(["design", "--scenario", str(infeasible), "--scenario", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["parse error", "infeasible"]


def test_one_file_naming_one_output_twice(tmp_path, capsys):
    # simulate would overwrite its report with the trajectory; design writes one file
    path = _write(tmp_path, "enclosing",
                  {**FAST, "output": {"report": "same.txt", "trajectory": "same.txt"}})
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    assert str(out / "same.txt") in capsys.readouterr().err
    assert not out.exists()
    assert main(["design", "--scenario", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "same.txt").read_text())["scenario"] == "enclosing"
    assert {f.name for f in out.iterdir()} == {"same.txt"}
