"""The compact one-point model and its continuity certificates.

Compactify the discrete monoid by declaring a set open at Zero exactly
when its complement is finite.  A ``CofiniteNbhd`` stores that finite
complement (the excluded nonzero elements) and nothing else, so every
check here is exact and finite.

In this model each one-sided translation x -> a*x and x -> x*a is
continuous: ``shrink_neighborhood`` produces, for a target neighborhood
U of Zero, a smaller V whose image under both translations stays in U,
using the closed-form one-sided solver on bare (u, v) pairs to know
exactly which points to drop.  ``certify_translations`` does not call
the shrink: it re-solves the same equations on bare pairs, drops the
pairs a proposed shrink excludes, and builds ``Element``s only for the
survivors, the only points that can fail, which it checks with ``*``.
Neither enumerates a ball, so both work over the countable alphabet
too; the test suite compares them with a ball scan.
Multiplication as a function of two variables is not continuous at
(0, 0): ``joint_discontinuity_family`` returns arbitrarily deep pairs of
factors, both marching to Zero, whose products all equal a fixed nonzero
target.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from .core import Alphabet, Element, NormalForm, _Value, enumeration_key
from .errors import AlphabetMismatch, ZeroArgument
from .green import _solve_left


class CofiniteNbhd(_Value):
    """Neighborhood of Zero: everything except a finite set of nonzero
    elements.  Membership: x in U iff x is Zero or x is not excluded."""

    __slots__ = _fields = ("alphabet", "excluded")

    def __init__(self, alphabet: Alphabet, excluded: Iterable[Element]) -> None:
        super().__init__(alphabet, frozenset(excluded))
        for f in self.excluded:
            if f.u is None:
                raise ZeroArgument("Zero belongs to every neighborhood of Zero; it cannot be excluded")
            if f.alphabet is not alphabet and f.alphabet != alphabet:
                raise AlphabetMismatch(f"excluded element {f} over a different alphabet")

    def __contains__(self, x: Element) -> bool:
        return x.is_zero or x not in self.excluded

    def excluded_sorted(self) -> List[Element]:
        return sorted(self.excluded, key=enumeration_key)

    def to_json(self) -> dict:
        return {"excluded": [f.to_json() for f in self.excluded_sorted()]}


def cofinite(alphabet: Alphabet, excluded: Iterable[Element] = ()) -> CofiniteNbhd:
    return CofiniteNbhd(alphabet, excluded)


def _preimages(a: Element, nbhd: CofiniteNbhd) -> Set[NormalForm]:
    """Bare pairs x with a*x or x*a excluded: the left solves a*x = f,
    and the left solves a'*x' = f' read back as x*a = f, for each
    excluded f.  Empty for a = Zero, whose translations are constantly
    Zero; a must be over the neighborhood's alphabet."""
    if a.alphabet != nbhd.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {nbhd.alphabet}")
    found: Set[NormalForm] = set()
    if a.is_zero:
        return found
    ua, va = a.u, a.v
    for f in nbhd.excluded:
        found.update(_solve_left(ua, va, f.u, f.v), [(q, p) for p, q in _solve_left(va, ua, f.v, f.u)])
    return found


def shrink_neighborhood(a: Element, nbhd: CofiniteNbhd) -> CofiniteNbhd:
    """V such that a*x and x*a land in the given neighborhood for every
    x in V: drop every solution of a*x = f or x*a = f with f excluded.

    Each excluded f adds at most |a| + 1 solutions per side, found by the
    closed-form one-sided solver in O(|a|) splits, so the shrink costs
    O(|excluded| * |a|) and the result stays that small.  The solutions
    use only letters of a and f, so the countable alphabet works too.

    For a = Zero both translations are constantly Zero and nothing is
    dropped.  Like the certificate, this needs a over the neighborhood's
    alphabet.
    """
    dropped = set(nbhd.excluded)
    dropped.update(Element(a.alphabet, u, v) for u, v in _preimages(a, nbhd))
    return CofiniteNbhd(nbhd.alphabet, dropped)


def certify_translations(a: Element, nbhd: CofiniteNbhd, shrunk: CofiniteNbhd, radius: int) -> List[tuple]:
    """Check the shrink certificate up to a radius: every x of size at
    most ``radius`` in the shrunk neighborhood must keep a*x and x*a
    inside the target.  Returns the counterexamples as (x, side, product),
    in enumeration order of x and "left" before "right" for each x.

    A counterexample has a*x = f or x*a = f for an excluded f, so it is
    one of the bare pairs the one-sided solver returns for those
    equations.  Those pairs are re-solved here, not taken from a shrink,
    and filtered as bare pairs: the ones ``shrunk`` excludes and the ones
    beyond the radius are dropped.  Only the survivors become
    ``Element``s, and each is checked with ``*``.  No ball is built, so
    the cost is that of the solves at any radius, over any alphabet.  The
    independent check is the ball scan the test suite keeps as its oracle.

    Needs a nonnegative radius, and a and ``shrunk`` over the
    neighborhood's alphabet.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if shrunk.alphabet != nbhd.alphabet:
        raise AlphabetMismatch(f"{shrunk.alphabet} vs {nbhd.alphabet}")
    # candidates are nonzero and over the shared alphabet, so x in shrunk
    # exactly when x's bare pair is not excluded from it
    candidates = _preimages(a, nbhd) - {(f.u, f.v) for f in shrunk.excluded}
    points = [Element(a.alphabet, u, v) for u, v in candidates if len(u) + len(v) <= radius]
    bad: List[tuple] = []
    for x in sorted(points, key=enumeration_key):
        lhs = a * x
        if lhs not in nbhd:
            bad.append((x, "left", lhs))
        rhs = x * a
        if rhs not in nbhd:
            bad.append((x, "right", rhs))
    return bad


def joint_discontinuity_family(c: Element, k: int) -> Tuple[Tuple[Element, Element], ...]:
    """First k witness pairs for the target c = (u, v): with w the run of
    the first letter at depth i, pair i is ((u, w), (w, v)), whose
    product is c by the suffix rule of ``*``.  The components are
    pairwise distinct, so they escape every cofinite neighborhood."""
    if c.is_zero:
        raise ZeroArgument("witness families exist only for nonzero targets")
    if k < 1:
        raise ValueError(f"need at least one pair, got k={k}")
    return tuple((Element(c.alphabet, c.u, (0,) * i), Element(c.alphabet, (0,) * i, c.v)) for i in range(1, k + 1))
