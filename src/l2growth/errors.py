"""Exception hierarchy shared by all l2growth modules."""


class L2GrowthError(Exception):
    """Base class for all library errors."""


class SearchCapExceeded(L2GrowthError):
    """An enumeration or BFS hit its cap before reaching a conclusion.

    For shortest-element searches, ``lower_bound`` is a certified lower
    bound on the true answer (cap + 1).
    """

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class NotFiniteIndex(L2GrowthError):
    """The subgroup does not have finite index (singular basis matrix)."""


class OrderCapExceeded(L2GrowthError):
    """A finite quotient or instantiated cover is larger than the configured cap."""


class SizeCapExceeded(L2GrowthError):
    """A dense computation (eigensolver, symbol ranks over a character grid) exceeds its size cap."""


class DimensionOutOfRange(L2GrowthError):
    """Requested chain-complex dimension does not exist, or has no cells where some are needed."""


class NotSquare(L2GrowthError, ValueError):
    """Operation requires a square matrix."""


class ShapeMismatch(L2GrowthError, ValueError):
    """Group-ring matrix shapes do not fit: a ragged matrix, a sum or product of
    mismatched shapes, or a boundary of the wrong shape."""


class BadChainComplex(L2GrowthError, ValueError):
    """Cell counts and boundaries do not form a chain complex: a negative cell
    count, or d_q d_(q+1) != 0."""


class NotAbelian(L2GrowthError):
    """Operation requires a free abelian deck group."""


class NotRankOne(L2GrowthError):
    """Operation requires deck group of rank one."""


class DegenerateZ(L2GrowthError):
    """Chebyshev window parameter z must lie strictly inside (0, 1)."""


class GapNotVerified(L2GrowthError):
    """No evidence that the spectral density vanishes below the claimed gap."""


class LambdaAboveGap(L2GrowthError):
    """Eigenvalue-count threshold lies outside the usable spectral range."""


class HypothesisUnverified(L2GrowthError):
    """A density decay hypothesis failed its verification against the estimate."""


class ShortTooSmall(L2GrowthError):
    """Shortest subgroup element too small for the requested bound regime."""


class AmbiguousCount(L2GrowthError, ValueError):
    """An eigenvalue lies within the eigensolver's error of the count's threshold,
    so rounding could put it on either side."""


class InsufficientGrid(L2GrowthError):
    """Density grid does not span enough decades for a decay-rate fit."""


class FamilyNotLogUniform(L2GrowthError):
    """Subgroup family fails the logarithmic short-versus-index growth model."""


class CrossCheckMismatch(L2GrowthError):
    """Two independent computations of the same quantity disagree.

    This always indicates a library bug and is never silently accepted.
    """


class DimensionTooLow(L2GrowthError):
    """Stripe dimension would interact with cells of the base complex."""


class RankOutOfRange(L2GrowthError):
    """A rank outside the supported range: a torus rank, or a lattice whose
    size differs from the rank of its free abelian group."""


class DocumentError(L2GrowthError):
    """A complex document failed to parse or validate."""


class NonIntegralCoefficient(L2GrowthError, ValueError):
    """A cover instantiation met a coefficient that is not an integer."""


class ForeignQuotient(L2GrowthError, ValueError):
    """A cover was asked for on a quotient of another deck group."""


class UnsupportedMatrix(L2GrowthError, TypeError):
    """A matrix that is neither a numpy array nor a scipy sparse matrix, or whose
    entries are not integers."""


class ReconstructionFailed(L2GrowthError, ValueError):
    """No fraction n/d with |n|, d <= sqrt(modulus / 2) matches a residue."""


class BadCaps(L2GrowthError, ValueError):
    """``L2GROWTH_CAPS`` names an unknown cap or gives a value that is not a positive integer."""


class BadGroup(L2GrowthError, ValueError):
    """A deck group, subgroup or word-metric argument with an invalid value: a rank,
    dimension or congruence level out of range, a generator of the wrong shape or not
    invertible over the integers, no generators, a non-square subgroup matrix, or a
    negative radius."""


class UnsupportedGroup(L2GrowthError, TypeError):
    """A group of an unsupported kind, or a subgroup of the wrong kind for its group."""


class BadArgument(L2GrowthError, ValueError):
    """A density, Chebyshev or bound argument with an invalid value: both or neither
    of samples and a function, too few samples, a negative seed, no quotients, a
    gap grid without points, a negative degree, eigenvalue threshold or lambda0,
    or a NaN or infinite bound parameter."""
