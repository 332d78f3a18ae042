"""The exception type shared across the simulator."""


class ScenarioError(ValueError):
    """Raised when a scenario file or configuration fails validation."""
