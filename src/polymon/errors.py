"""Exceptions raised across the package.

Domain errors (everything except ExpressionSyntaxError) map to CLI exit
status 1; syntax errors map to exit status 2.
"""

from __future__ import annotations


class PolymonError(Exception):
    """Base class for all domain errors."""


class TooFewGenerators(PolymonError):
    """Alphabet size below 2.  P_1, the bicyclic monoid with zero, is well
    defined; the limit is collapse's closed form, which needs a second
    letter (ROADMAP item 4)."""


class AlphabetMismatch(PolymonError):
    """Binary operation applied to elements over different alphabets."""


class UnknownLetter(PolymonError):
    """Letter index outside the alphabet."""


class ZeroArgument(PolymonError):
    """Operation requires nonzero arguments."""


class KeyMismatch(PolymonError):
    """Witness requested for elements in different R-classes."""


class InfiniteAlphabet(PolymonError):
    """Finite enumeration requested over the countable alphabet."""


class EqualPair(PolymonError):
    """Congruence seed must identify two distinct elements."""


class ExpressionSyntaxError(PolymonError):
    """Malformed expression text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
