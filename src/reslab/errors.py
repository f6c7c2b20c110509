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
    """Step refinement failed to reach the requested tolerance."""

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

    def __reduce__(self):
        # a sweep point's error crosses the process pool with its message intact
        return type(self), (self.report, str(self))


class IllConditionedPathError(SimulationError):
    """Consecutive states along a trajectory are nearly orthogonal."""


class ConfigError(SimulationError):
    """Scenario configuration is malformed or inconsistent."""

    def __init__(self, message: str, path: tuple = ()):
        self.path = tuple(path)
        where = "/".join(str(p) for p in self.path)
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
