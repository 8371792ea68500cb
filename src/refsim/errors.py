"""Exception types shared across the simulator."""


class ConfigError(Exception):
    """Bad configuration value or file; CLI exit code 1."""


class SimulationError(Exception):
    """Internal consistency failure (a bug, not recoverable); CLI exit code 2."""


class AuditError(Exception):
    """A post-run audit (retention or command-history check) failed; CLI exit code 3."""


class MetricError(ValueError):
    """Invalid input to a performance metric (e.g. zero alone-IPC); CLI exit code 2."""
