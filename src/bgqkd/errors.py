"""Exception types shared across the package."""


class BgqkdError(Exception):
    """Base class for package errors."""


class UnsupportedModeError(BgqkdError):
    """Requested mode family/indices outside the supported set (e.g. LG with p > 0)."""


class ConfigError(BgqkdError):
    """Invalid scenario configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
