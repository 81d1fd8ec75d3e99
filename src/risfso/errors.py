"""Exception hierarchy shared across the package."""


class RisFsoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RisFsoError, ValueError):
    """An argument lies outside what an operation computes: its mathematical
    domain, its implemented range, or a combination it cannot use."""


class ConfigError(RisFsoError, ValueError):
    """A sweep configuration failed validation.

    ``items`` is a list of human-readable diagnostics, each prefixed with
    the offending line number where one is known.
    """

    def __init__(self, items):
        self.items = list(items)
        super().__init__("; ".join(self.items))
