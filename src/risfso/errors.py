"""Exception hierarchy shared across the package."""


class RisFsoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RisFsoError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedDomainError(DomainError):
    """The argument is mathematically valid but outside the implemented range."""


class DegenerateParametersError(RisFsoError, ValueError):
    """A parameter combination makes the requested expression singular."""


class MergeError(RisFsoError, ValueError):
    """Two Monte Carlo accumulators are not compatible for merging."""


class ConfigError(RisFsoError, ValueError):
    """A sweep configuration failed validation.

    ``items`` is a list of human-readable diagnostics, each prefixed with
    the offending line number where one is known.
    """

    def __init__(self, items):
        self.items = list(items)
        super().__init__("; ".join(self.items))
