"""Shared exception types and the CLI exit-code contract."""


class SpecParseError(ValueError):
    """A spec string, polynomial text, or parameter set failed validation."""


class LimitExceeded(RuntimeError):
    """A bounded computation ran past its degree or time budget.

    Carries partial diagnostics so callers can report progress instead of
    hanging; a counter that nothing measured, as outside Buchberger, is None.
    """

    def __init__(self, message, *, pairs_processed=None, max_degree_reached=None,
                 basis_size=None, elapsed=None):
        super().__init__(message)
        self.pairs_processed = pairs_processed
        self.max_degree_reached = max_degree_reached
        self.basis_size = basis_size
        self.elapsed = elapsed


class IntegrityError(RuntimeError):
    """An exactness guarantee failed.

    Raised for negative graded dimensions, non-integer group averages, or a
    violated dimension bound; always indicates a wrong presentation or broken
    arithmetic upstream, never a recoverable condition.
    """


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTEGRITY = 4
