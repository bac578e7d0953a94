"""Exception taxonomy and the CLI exit-code mapping."""

__all__ = [
    "CurvedWignerError",
    "ConfigError",
    "DomainError",
    "PoleError",
    "OffShellError",
    "NonconvergenceError",
    "PrecisionLossError",
]


class CurvedWignerError(Exception):
    """Base class for all library errors."""


class ConfigError(CurvedWignerError):
    """Invalid run configuration (bad flags, ranges, or config file)."""


class DomainError(CurvedWignerError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma-type pole hit (non-positive integer argument, or a lower
    hypergeometric parameter that truncates the series prematurely)."""


class OffShellError(DomainError):
    """Ambient vector does not lie on the required hyperboloid shell."""


class NonconvergenceError(CurvedWignerError):
    """A series or quadrature failed to reach the requested tolerance."""


class PrecisionLossError(NonconvergenceError):
    """Result cancelled so strongly that double precision cannot certify it."""


# CLI exit codes
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (NonconvergenceError, DomainError)):
        return EXIT_NUMERIC
    if isinstance(exc, OSError):
        return EXIT_IO
    return 1
