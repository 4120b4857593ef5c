"""Exception types shared across the package."""

__all__ = ["NonConvergenceError", "ConfigError"]


class NonConvergenceError(RuntimeError):
    """Raised when no applicable solver reaches the residual tolerance.

    The simulation never silently falls back to an unordered configuration:
    a step that cannot be solved surfaces as this error.
    """

    def __init__(self, message, method=None, iterations=None, residual=None):
        super().__init__(message)
        self.method = method
        self.iterations = iterations
        self.residual = residual


class ConfigError(ValueError):
    """Configuration parse or validation failure, tagged with the offending key."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message
