"""Exception taxonomy for the harmonic-balance wave solver.

Each class corresponds to a runtime condition surfaced by the library;
CLI exit codes map validation errors to 1 and solver failures to 2.
"""
from dataclasses import dataclass


class HbwaveError(Exception):
    """Base class for all library errors."""

    code = "HbwaveError"


# --- configuration / validation -------------------------------------------

class ConfigError(HbwaveError):
    code = "ConfigError"


class ConfigSyntaxError(ConfigError):
    code = "SyntaxError"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownKey(ConfigError):
    code = "UnknownKey"


class TypeMismatch(ConfigError):
    code = "TypeMismatch"


@dataclass(frozen=True)
class Violation:
    """A single validation failure (code + human-readable message)."""

    code: str
    message: str


class InvalidModel(HbwaveError):
    """Raised by model validation; carries the full violation list."""

    code = "InvalidModel"

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{v.code}: {v.message}" for v in self.violations))


class StabilityViolation(HbwaveError):
    code = "StabilityViolation"


class UndersampledTime(HbwaveError):
    code = "UndersampledTime"


class UnknownCase(HbwaveError):
    code = "UnknownCase"


# --- solver failures -------------------------------------------------------

class SolverFailure(HbwaveError):
    """Base for failures that map to CLI exit code 2."""

    code = "SolverFailure"


class SingularMeanMode(SolverFailure):
    code = "SingularMeanMode"


class SolveFailure(SolverFailure):
    code = "SolveFailure"

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NonConvergedIteration(SolverFailure):
    code = "NonConvergedIteration"

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NonContraction(SolverFailure):
    code = "NonContraction"

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class DegeneracyDetected(SolverFailure):
    code = "DegeneracyDetected"

    def __init__(self, message, alpha_min=None):
        super().__init__(message)
        self.alpha_min = alpha_min


class MaxIterExceeded(SolverFailure):
    code = "MaxIterExceeded"

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class NoPeriodicAttractor(SolverFailure):
    code = "NoPeriodicAttractor"

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = gaps or []


class StepRejected(SolverFailure):
    code = "StepRejected"
