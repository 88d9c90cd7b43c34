"""Design and simulation toolkit for complex-Laplacian formation maneuvering.

Synthesizes interaction weights and motion parameters that drive a planar
multi-agent formation to a desired shape while translating, rotating and/or
scaling, verifies the spectral guarantees, and simulates the closed loop.
"""

from .errors import (DegenerateShape, DegenerateWeights, Diverged,
                     ExpansionIllConditioned, FormationError, InfeasibleRow,
                     NonDiagonalizable, NotConverged, NotTwoRooted,
                     PipelineFailed, ScenarioError, SingularGain,
                     SpectrumMismatch, StabilizationFailed, StepUnstable,
                     ZeroEdgeVector, ZeroState)
from .graphs import FormationGraph, TwoRootedReport, is_connected, is_two_rooted
from .motion import (ModifiedLaplacian, MotionMatrices, MotionSpec,
                     compile_motion, modified_laplacian, motion_parameters)
from .scenarios import (SCENARIO_NAMES, Scenario, ScenarioResult,
                        builtin_scenario, load_scenario, run_scenario,
                        scenario_from_dict, simulate_scenario)
from .shapes import (LaplacianBundle, ReferenceShape, center_shape, laplacian,
                     stabilize_gains, synthesize_weights)
from .sim import (HeadingControl, MotionEstimate, SimConfig, Trajectory,
                  exact_trajectory, initial_condition, integrate,
                  measure_motion, shape_error)
from .spectral import (DesignResult, SplitCertificate, StabilityAnalysis,
                       SteadyStatePrediction, design_pipeline,
                       predict_steady_state, stability_bound,
                       verify_motion_spectrum)

__version__ = "0.1.0"
