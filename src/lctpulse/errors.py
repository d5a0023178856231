"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class ConvergenceError(RuntimeError):
    """An optimization stage failed to reach its goal."""
