"""Exception types shared across the package."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(SimulationError):
    """Operands act on incompatible Hilbert spaces."""


class NotHermitianError(SimulationError):
    """An operator required to be Hermitian is not, within tolerance."""

    def __init__(self, defect: float, message: str | None = None):
        self.defect = float(defect)
        super().__init__(message or f"operator is not Hermitian (defect {self.defect:.3e})")


class IntegrationDivergenceError(SimulationError):
    """An integration failed: step refinement did not reach its tolerance,
    the trace drifted by more than 1e-9, a step's exponent may have a 1-norm
    of ``2^55`` or more, or a count of steps or whole periods is ``2^63`` or
    more.  ``achieved`` and ``target`` carry the failing figure and its bound."""

    def __init__(self, achieved: float, target: float, message: str | None = None):
        self.achieved = float(achieved)
        self.target = float(target)
        super().__init__(
            message
            or f"integration did not converge: residual {self.achieved:.3e} > target {self.target:.3e}"
        )


class SteadyStateError(SimulationError):
    """No trace-class steady state could be extracted from the Liouvillian."""


class RegimeError(SimulationError):
    """Parameter set violates the constraints required by an effective model."""

    def __init__(self, report, message: str | None = None):
        self.report = report
        super().__init__(message or f"regime constraints violated: {report}")


class IllConditionedPathError(SimulationError):
    """Consecutive states along a trajectory are nearly orthogonal."""


class ConfigError(SimulationError):
    """Scenario configuration is malformed or inconsistent."""

    def __init__(self, message: str, path: tuple = ()):
        self.path = tuple(path)
        where = "/".join(str(p) for p in self.path)
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
