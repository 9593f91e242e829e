"""Exception types shared across the package."""


class FuchsianError(Exception):
    """Base class for all errors raised by this package."""


class DegeneratePointsError(FuchsianError):
    """Inputs coincide (or nearly coincide) where distinct points are required."""


class NotDiskAutomorphismError(FuchsianError):
    """The data is not realized by an orientation-preserving disk map."""


class ConstructionError(FuchsianError):
    """A surface-group invariant failed after construction."""


class RangeError(FuchsianError):
    """A solved point fell outside the interval guaranteed for it."""


class ContradictionError(FuchsianError):
    """An internal invariant that is provably impossible was observed."""


class BijectivityError(FuchsianError):
    """A point of the domain has no (or several) preimages under the extension map."""


class MarkovError(FuchsianError):
    """A transition row failed its numeric endpoint validation."""


class OutsideDomainError(FuchsianError):
    """A point lies outside the domain required by the operation."""
