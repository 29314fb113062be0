"""Exception taxonomy for the harmonic-balance wave solver.

Each class declares how the CLI reports it: `exit_code` is 1 for a
configuration or validation error and 2 for a numerical failure, and the
keyword details a raise site passes are the fields error.json records
after `kind`, `code` and `message`.
"""


class HbwaveError(Exception):
    """Base class for all library errors.

    Each keyword detail becomes an attribute and, unless it is None, an
    error.json field, in the order given.  `code` is the class name unless
    a class sets its own.
    """

    exit_code = 1

    def __init__(self, message, **details):
        super().__init__(message)
        self.__dict__.update(details)
        self.details = {k: v for k, v in details.items() if v is not None}

    @property
    def code(self) -> str:
        return type(self).__name__


# --- configuration / validation -------------------------------------------

class ConfigError(HbwaveError):
    pass


class ConfigSyntaxError(ConfigError):
    """A malformed config file; detail `line`."""

    code = "SyntaxError"


class UnknownKey(ConfigError):
    pass


class TypeMismatch(ConfigError):
    pass


class InvalidModel(HbwaveError):
    """Raised by model validation; carries the full list of
    `model.Violation`s."""

    def __init__(self, violations):
        violations = list(violations)
        super().__init__(
            "; ".join(f"{v.code}: {v.message}" for v in violations),
            violations=[{"code": v.code, "message": v.message}
                        for v in violations])
        # the attribute keeps the Violation objects, the record their fields
        self.violations = violations


class StabilityViolation(HbwaveError):
    pass


class UndersampledTime(HbwaveError):
    pass


# --- numerical failures: the solve left the theory -------------------------

class NumericalFailure(HbwaveError):
    """Base for the failures that exit 2; nothing raises it directly."""

    exit_code = 2


class SolveFailure(NumericalFailure):
    """A linear solve failed; detail `condition_estimate`."""


class NonConvergedIteration(NumericalFailure):
    """Details `iterations` and `residual`."""


class NonContraction(NumericalFailure):
    """Detail `history`, the update norms."""


class DegeneracyDetected(NumericalFailure):
    """Detail `alpha_min`."""


class MaxIterExceeded(NumericalFailure):
    """Detail `history`, the update norms."""


class NoPeriodicAttractor(NumericalFailure):
    """Detail `gaps`, the periodicity gap of each period."""


class StepRejected(NumericalFailure):
    pass


class NonFiniteResult(NumericalFailure):
    """A result value is not finite, so its file is not written; details
    `file` and `term`."""
