"""Exception types shared across the package."""


class FockstatError(Exception):
    """Base class for all package-specific errors."""


class InvalidStatisticsError(FockstatError):
    """Raised when an operation requires a valid statistics label.

    Carries the full classification report explaining the failure.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.failure_reason or "invalid statistics label")


class UnsupportedStatisticsError(FockstatError):
    """Spec is valid but outside the class an operation supports
    (e.g. order >= 2 or non-unique vacuum for the label bijection)."""


class InsufficientHorizonError(FockstatError):
    """A truncated series was asked for a coefficient beyond its horizon."""

    def __init__(self, required: int, horizon: int):
        self.required = required
        self.horizon = horizon
        super().__init__(
            f"insufficient series length: index {required} needed, "
            f"series truncated at horizon {horizon}"
        )


class ResourceGuardError(FockstatError):
    """An exact computation exceeded its instance-size guard: the module
    constant ``bound_name`` = ``bound``, asked at least ``asked`` by ``subject``."""

    def __init__(self, bound_name: str, bound: int, asked: int, subject: str = ""):
        self.bound_name = bound_name
        self.bound = bound
        self.asked = asked
        self.subject = subject
        super().__init__(
            f"{subject + ': ' if subject else ''}guard exceeded: {bound_name}={bound}, "
            f"asked at least {asked}, over by at least {asked - bound}"
        )


class DivergenceError(FockstatError):
    """Grand-canonical series diverges for some mode.

    ``mode`` is the offending mode index; ``code`` is machine-readable.
    """

    code = "divergence"

    def __init__(self, mode: int, message: str | None = None):
        self.mode = mode
        super().__init__(message or f"single-mode series diverges at mode {mode}")
