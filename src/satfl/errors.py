"""Exception types shared across the simulator."""


class ScenarioError(ValueError):
    """Raised when a scenario file or configuration fails validation."""


class LinkUnavailableError(ValueError):
    """Raised when a model exchange is requested over a zero-rate link."""

