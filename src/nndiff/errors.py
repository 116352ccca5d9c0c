"""Exception types shared across the package."""


class NndiffError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NndiffError):
    """Invalid configuration, boundary table, or argument combination."""


class DimensionError(NndiffError):
    """Operands with incompatible sizes."""


class MeshError(NndiffError):
    """Structurally invalid mesh."""


class ParseError(NndiffError):
    """Malformed input file; carries the offending line number (0 if unknown)."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if line else f"{path}: " if path else ""
        super().__init__(f"{where}{message}")


class AssemblyError(NndiffError):
    """Element-level failure during assembly (e.g. inverted cell)."""


class SingularTensorError(NndiffError):
    """Diffusivity tensor with a zero eigenvalue."""


class FactorizationError(NndiffError):
    """Preconditioner setup failure (zero pivot, zero diagonal)."""


class SolverBreakdownError(NndiffError):
    """Numerical breakdown inside an iterative solver."""


class SolverFailure(NndiffError):
    """A driver-level solve did not converge; carries step index and report."""

    def __init__(self, message: str, step: int = -1, report=None):
        self.step = step
        self.report = report
        super().__init__(message)


class PerfModelError(NndiffError):
    """Performance metric undefined for the given inputs."""
