"""Exception types shared across the package."""

from contextlib import contextmanager


class MaxflexError(Exception):
    """Base class for all package errors."""


class ZeroDivisorEncountered(MaxflexError):
    """An inversion in an extension tower met a zero divisor.

    Carries the index of the offending tower level and a proper monic
    factor of that level's modulus.  The caller is expected to split the
    tower on the factor and retry the computation in each branch.
    """

    def __init__(self, level, factor):
        self.level = level
        self.factor = tuple(factor)
        super().__init__("zero divisor at tower level %d" % level)


class DegenerateModulus(MaxflexError):
    """Proposed extension modulus is linear or not squarefree."""


class BudgetExceeded(MaxflexError):
    """An operation would push a tower past its total degree cap."""


class SingularPoint(MaxflexError):
    """A smooth point was required but the gradient vanishes."""


class LineNotIncident(MaxflexError):
    """A point handed to a line/curve residual operation is off the line or curve."""


class CommonComponent(MaxflexError):
    """Two curves share a component where they were required not to."""


class NoSolution(MaxflexError):
    """An interpolation linear system has trivial kernel."""


class NonUnique(MaxflexError):
    """An interpolation linear system has kernel of dimension > 1."""


class ModulusMismatch(MaxflexError):
    """Torsion lattice operands live in different lattices."""


class WrongOrder(MaxflexError):
    """A point of a specific finite order was required."""


class ZeroVector(MaxflexError):
    """Weight reduction collapsed to the zero vector."""


class BackendDisagreement(MaxflexError):
    """Abstract and geometric torsion backends disagree; construction bug."""


class EmptyAdmissibleSet(MaxflexError):
    """A distinguishing run was started with no admissible permutations."""


class UnknownReproduction(MaxflexError):
    """CLI reproduction name not in the catalog."""


class SpecError(MaxflexError):
    """A spec, tower or arrangement read from outside the program is malformed."""


@contextmanager
def malformed(what):
    """Turn the errors a malformed JSON-shaped input raises into SpecError."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as err:
        raise SpecError("malformed %s: %s: %s" % (what, type(err).__name__, err)) from err
