"""Exception hierarchy for design, analysis and simulation failures."""


class FormationError(Exception):
    """Base class for all toolkit errors."""


class NotTwoRooted(FormationError):
    """No two-node root set: weights with kernel span{1, p*} cannot be designed."""


class DegenerateShape(FormationError):
    """Reference shape is degenerate (all points coincide or zero extent)."""


class InfeasibleRow(FormationError):
    """A node cannot satisfy its weight constraint (degree < 2 or coincident neighbors)."""


class DegenerateWeights(FormationError):
    """Assembled Laplacian does not have the expected rank n-2."""


class StabilizationFailed(FormationError):
    """The gain ascent used its step budget without reaching the margin."""


class ZeroEdgeVector(FormationError):
    """Selected reference edge vector is zero; motion parameter undefined."""


class SingularGain(FormationError):
    """Gain matrix has a zero diagonal entry and cannot be inverted."""


class SpectrumMismatch(FormationError):
    """K L~ fails its shape-plane certificate: the plane is not invariant,
    it is not mapped as the motion predicts, or the rest is not certified stable."""


class NonDiagonalizable(FormationError):
    """Non-kernel block is too ill-conditioned for an eigenvector similarity."""


class ExpansionIllConditioned(FormationError):
    """The moving mode is also an eigenvalue off the shape plane, so an
    initial condition has no unique split into steady and decaying parts."""


class Diverged(FormationError):
    """Simulated state norm exceeded the divergence threshold."""


class StepUnstable(Diverged):
    """The RK4 step size puts a decaying closed-loop mode outside the
    method's stability region."""


class ZeroState(FormationError):
    """Shape error undefined for the zero configuration."""


class NotConverged(FormationError):
    """Requested measurement window has not reached steady state."""


class PipelineFailed(FormationError):
    """End-to-end design pipeline failed; carries the failing stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"design pipeline failed at stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


class ScenarioError(FormationError):
    """Scenario file is malformed or references invalid entities."""
