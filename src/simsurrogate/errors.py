"""Exception hierarchy shared across the toolkit."""


class SimSurrogateError(Exception):
    """Base class for all toolkit errors."""


class PlatformFormatError(SimSurrogateError):
    """Platform document is not well-formed (syntax level)."""


class PlatformValidationError(SimSurrogateError):
    """Platform document violates a semantic invariant."""


class WorkloadError(SimSurrogateError):
    """Invalid workload generation arguments."""


class SimulationError(SimSurrogateError):
    """Simulation cannot proceed (missing file, unroutable transfer) or broke
    one of its own invariants (stall, work or core conservation)."""


class JoinError(SimSurrogateError):
    """Workload and trace rows cannot be written, read or joined losslessly."""


class PreprocessError(SimSurrogateError):
    """Invalid preprocessing arguments or degenerate inputs."""


class ModelConfigError(SimSurrogateError):
    """Inconsistent model hyperparameters."""


class TrainingError(SimSurrogateError):
    """Training failed (divergence, empty data)."""


class EvalError(SimSurrogateError):
    """Metric cannot be computed on the given data."""
