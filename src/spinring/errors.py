"""Exception types shared across the spin-ring library; input refusals derive from UsageError."""


class SpinRingError(Exception):
    """Base class for every library-specific error."""


class UsageError(SpinRingError):
    """An input outside its domain: a spec, argument, site index or size; the CLI exits 2."""


class InvalidSpec(UsageError):
    """Ring specification violates a precondition (size or strength)."""


class DimensionTooLarge(UsageError):
    """A size past a build cap: the dense full space, 62-spin basis rows, or verify's 407 block budget."""


class RestrictionMismatch(SpinRingError):
    """Full-space restriction disagrees with the direct one-excitation build.

    Attributes
    ----------
    indices : tuple
        Location of the worst offending entry.  For a block mismatch this is
        a pair of 1-based sites; for sector leakage it is a pair
        (site, basis_state_index).
    deviation : float
        Magnitude of the worst disagreement.
    """

    def __init__(self, message, indices=None, deviation=None):
        super().__init__(message)
        self.indices = indices
        self.deviation = deviation


class NoConvergence(SpinRingError):
    """Iterative eigensolver failed to reach its target accuracy."""


class IndexOutOfRange(UsageError):
    """Site index outside the valid range 1..n."""


class QuotientOnOddRing(UsageError):
    """Antipodal identification requested for an odd ring size."""


class InvalidArgs(UsageError):
    """Numeric argument outside its documented domain."""


class NotEmbeddable(SpinRingError):
    """Realization requested for a metric that fails the embeddability test."""


class FactorizationFailure(SpinRingError):
    """Gram factorization indefinite beyond tolerance, or round-trip check failed."""
