"""Shared exception types."""


class UsageError(Exception):
    """The command line lacks an argument that argparse cannot require,
    such as one of two optional flags.  The CLI exits 2 on it."""


class SizeLimitError(RuntimeError):
    """A requested computation exceeds a configured size guard."""


class SearchExhaustedError(RuntimeError):
    """A bounded search ran out of room before finding a witness."""


class EngineSplitError(RuntimeError):
    """The degree engine's split did not reach one cluster per class
    within the round budget.

    Retriable: rerun with a different seed.
    """


class ConsistencyError(RuntimeError):
    """Two supposedly-equal exact computations disagree.

    Raised when an internal identity fails (non-square degree, multiset
    mismatch between independent computation paths, inexact division).
    Always indicates a bug, never bad user input.
    """
