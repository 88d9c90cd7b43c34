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
    """Gain search exhausted its budget without stabilizing the spectrum."""


class ZeroEdgeVector(FormationError):
    """Selected reference edge vector is zero; motion parameter undefined."""


class SingularGain(FormationError):
    """Gain matrix has a zero diagonal entry and cannot be inverted."""


class SpectrumMismatch(FormationError):
    """Eigenstructure of the modified Laplacian deviates from prediction."""


class ChainBroken(FormationError):
    """Generalized eigenvector chain identities fail beyond tolerance."""


class NonDiagonalizable(FormationError):
    """Non-kernel block is too ill-conditioned for an eigenvector similarity."""


class ExpansionIllConditioned(FormationError):
    """Initial condition cannot be reliably expanded in the eigenbasis."""


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
