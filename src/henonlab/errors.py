"""Shared exception types, mapped to CLI exit codes (2, 3 and 4)."""


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """A solve or continuation failed (non-convergence, ambiguous branch, resonance)."""


class WorkerError(RuntimeError):
    """A worker process of a parallel map died before it returned its result."""
