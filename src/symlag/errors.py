"""Exception types shared across the package, and the echo of input in their messages."""


def echo(value) -> str:
    """repr(value) for an error message, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


class SymlagError(Exception):
    """Base class for all symlag-specific errors."""


class DimensionMismatchError(SymlagError, ValueError):
    """Operands live in different dimensions n."""


class DuplicatePointError(SymlagError, ValueError):
    """A node set was given the same point twice."""


class NotSymmetricError(SymlagError, ValueError):
    """A set is not closed under coordinate/variable permutation.

    Carries a witness: ``item`` is in the set but ``permutation`` maps it
    outside the set.
    """

    def __init__(self, item, permutation, kind="point"):
        self.item = item
        self.permutation = permutation
        self.kind = kind
        super().__init__(
            f"set is not symmetric: applying {permutation.cycle_notation()} to "
            f"the {kind} {item} leaves the set"
        )


class SizeMismatchError(SymlagError, ValueError):
    """Basis size and node count differ (unisolvence needs them equal)."""
