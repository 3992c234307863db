"""Exception types shared across the package."""


class FoilRlError(Exception):
    """Base class for package errors."""


class UsageError(FoilRlError):
    """A command asks for something invalid, e.g. an unknown config key."""


class InvalidParams(FoilRlError):
    """Inputs are outside the domain an operation accepts."""


class ConfigValueError(InvalidParams, ValueError):
    """A config field holds a value outside its domain; the message starts with the field."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key} {reason}")


class ShapeError(FoilRlError):
    """Array shapes do not line up."""


class FitError(FoilRlError):
    """Coordinate data could not be fitted to the parameterization."""


class GeometryRejected(FoilRlError):
    """Solver refused a geometry that fails validity checks."""


class ResetError(FoilRlError):
    """Environment could not produce a solvable initial state."""


class ContractViolation(FoilRlError):
    """An API was used outside its documented contract."""


class TrainingDiverged(FoilRlError):
    """Loss became non-finite during optimization."""


class SeedError(FoilRlError):
    """The swarm seed design could not be evaluated."""


class EmptyEvalError(FoilRlError):
    """No records left after convergence filtering."""
