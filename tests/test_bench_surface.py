"""The package names the benchmark under `bench/` reads.

Its tracer binds the `cfg` and `path` arguments by name, times the verify
function and each per-layer stage by name, and counts design_pipeline's
boost; its checks read the design's Laplacian, gains and L~ and a failure's
stage; its workloads load scenario files and documents, design from a
scenario's fields and read a simulated trajectory. A rename there breaks the benchmark rather than the
package, so the surface is pinned here.
"""

import inspect

import numpy as np

from lapmaneuver import (MotionSpec, PipelineFailed, builtin_scenario, cli, design_pipeline,
                         motion, scenarios, shapes, sim, spectral)


def _public_function(module, name):
    fn = getattr(module, name)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_design_attributes(square):
    g, shape = square
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    assert d.boost == 1.0
    for matrix in (d.bundle.L, d.modified.L_tilde):
        assert isinstance(matrix, np.ndarray) and matrix.shape == (4, 4)
    assert isinstance(d.bundle.gains, np.ndarray) and d.bundle.gains.shape == (4,)


def test_pipeline_failure_stage():
    assert PipelineFailed("gains", ValueError("cause")).stage == "gains"


def test_traced_functions_and_parameters():
    for module, name, arg in ((sim, "integrate", "cfg"), (sim, "exact_trajectory", "cfg"),
                              (cli, "write_trajectory_csv", "path")):
        assert _public_function(module, name)
        assert arg in inspect.signature(getattr(module, name)).parameters
    for name in ("design_pipeline", "verify_motion_spectrum"):
        assert _public_function(spectral, name)
    # the per-layer metrics read these by name; a rename would zero one
    for module, name in ((shapes, "synthesize_weights"), (shapes, "stabilize_gains"),
                         (shapes, "nonkernel_eigenvalues"),
                         (spectral, "stability_bound"), (motion, "compile_motion"),
                         (motion, "modified_laplacian"), (scenarios, "load_scenario"),
                         (cli, "build_report"), (cli, "write_report")):
        assert _public_function(module, name)


def test_scenario_functions_and_fields():
    for name in ("load_scenario", "scenario_from_dict", "simulate_scenario"):
        assert _public_function(scenarios, name)
    doc = builtin_scenario("enclosing", {"sim": {"t_end": 1.0}})
    sc = scenarios.scenario_from_dict(doc)
    assert (sc.graph.n, sc.shape.n, sc.design_seed) == (5, 5, 0)
    assert isinstance(sc.spec, MotionSpec) and isinstance(sc.sim, sim.SimConfig)
    traj = scenarios.simulate_scenario(sc).trajectory
    assert isinstance(traj.times, np.ndarray) and isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (traj.times.size, 5)
