"""Exception types shared across the package."""


class HibikitError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(HibikitError):
    """The transitive closure of the given relation is not irreflexive."""


class UnknownLabel(HibikitError):
    """A relation or lookup references a label that is not in the ground set."""


class NotALattice(HibikitError):
    """The given tables are not a lattice: a <= b, read as a join b = b, is
    not a partial order whose joins and meets are the least upper and
    greatest lower bounds, or an entry is missing."""


class NotDistributive(HibikitError):
    """The lattice is not distributive.

    The offending triple (x, a, b), with x ∧ (a ∨ b) ≠ (x ∧ a) ∨ (x ∧ b),
    is stored in the `witness` attribute.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NotInCone(HibikitError):
    """The weight vector violates a diamond pair inequality."""


class TooLarge(HibikitError):
    """The request exceeds a documented size guard."""


class BadParams(HibikitError):
    """Parameters outside the documented domain."""
