"""Exception types shared across the workbench.

Every validation error carries a concrete witness (an element, pair, or
triple of element indices) so a failure can be reproduced in isolation.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all structure and morphism errors."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# -- group table validation -------------------------------------------------

class NotClosed(AlgebraError):
    pass


class NoIdentity(AlgebraError):
    pass


class NotAssociative(AlgebraError):
    pass


class MissingInverse(AlgebraError):
    pass


class NotNormal(AlgebraError):
    pass


# -- ring table validation --------------------------------------------------

class AddNotAbelianGroup(AlgebraError):
    pass


class MulNotMonoid(AlgebraError):
    pass


class NotDistributive(AlgebraError):
    pass


class BadInvolution(AlgebraError):
    pass


class NotIdeal(AlgebraError):
    pass


# -- morphism engine --------------------------------------------------------

class NotComposable(AlgebraError):
    pass


class LawViolation(AlgebraError):
    """A map table given as a morphism breaks its declared law."""


class NoInvolution(AlgebraError):
    """Raised when a ring operation needs a reverse map but none is stored."""


class BoundExceeded(AlgebraError):
    """An enumeration or search refused because it would exceed its bound."""


# -- theorem verifiers ------------------------------------------------------

class PreconditionFailed(AlgebraError):
    pass


# -- category engine --------------------------------------------------------

class BadIdentity(AlgebraError):
    pass


class AxiomViolation(AlgebraError):
    def __init__(self, message: str, axiom: int, witness=None):
        super().__init__(message, witness)
        self.axiom = axiom


# -- io ----------------------------------------------------------------------

class ParseError(AlgebraError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
