"""The compact one-point model and its continuity certificates.

Compactify the discrete monoid by declaring a set open at Zero exactly
when its complement is finite.  A ``CofiniteNbhd`` stores that finite
complement (the excluded nonzero elements) and nothing else, so every
check here is exact and finite.

In this model each one-sided translation x -> a*x and x -> x*a is
continuous: ``shrink_neighborhood`` produces, for a target neighborhood
U of Zero, a smaller V whose image under both translations stays in U,
using the closed-form equation solver to know exactly which points to
drop.  ``certify_translations`` re-checks a proposed shrink with ``*``
on exactly those points, the only ones that can fail, so it never
enumerates a ball; the test suite compares it with a ball scan.
Multiplication as a function of two variables is not continuous at
(0, 0): ``joint_discontinuity_family`` returns arbitrarily deep pairs of
factors, both marching to Zero, whose products all equal a fixed nonzero
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from .core import Alphabet, Element, enumeration_key, one
from .errors import (
    AlphabetMismatch,
    InfiniteAlphabet,
    RadiusTooSmall,
    ZeroArgument,
    ZeroTarget,
)
from .green import solve_axb


@dataclass(frozen=True)
class CofiniteNbhd:
    """Neighborhood of Zero: everything except a finite set of nonzero
    elements.  Membership: x in U iff x is Zero or x is not excluded."""

    alphabet: Alphabet
    excluded: "frozenset[Element]"

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        for f in self.excluded:
            if f.is_zero:
                raise ZeroArgument("Zero belongs to every neighborhood of Zero; it cannot be excluded")
            if f.alphabet != self.alphabet:
                raise AlphabetMismatch(f"excluded element {f} over a different alphabet")

    def __contains__(self, x: Element) -> bool:
        return x.is_zero or x not in self.excluded

    def excluded_sorted(self) -> List[Element]:
        return sorted(self.excluded, key=enumeration_key)

    def difference(self, other: "CofiniteNbhd") -> "Set[Element]":
        """Set difference self minus other; finite, computed exactly as
        excluded(other) minus excluded(self)."""
        return set(other.excluded) - set(self.excluded)

    def to_json(self) -> dict:
        return {"excluded": [f.to_json() for f in self.excluded_sorted()]}


def cofinite(alphabet: Alphabet, excluded: Iterable[Element] = ()) -> CofiniteNbhd:
    return CofiniteNbhd(alphabet, frozenset(excluded))


def shrink_neighborhood(a: Element, nbhd: CofiniteNbhd) -> CofiniteNbhd:
    """V such that a*x and x*a land in the given neighborhood for every
    x in V: drop every solution of a*x = f or x*a = f with f excluded.

    Each excluded f adds at most |a| + 2 solutions per side, found by the
    closed-form solver in O(|a|) splits, so the shrink costs
    O(|excluded| * |a|) and the result stays that small.

    For a = Zero both translations are constantly Zero, so the input
    neighborhood already certifies itself and is returned unchanged.
    """
    if a.is_zero:
        return nbhd
    if a.alphabet != nbhd.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {nbhd.alphabet}")
    unit = one(a.alphabet)
    dropped = set(nbhd.excluded)
    for f in nbhd.excluded:
        dropped.update(solve_axb(a, unit, f))
        dropped.update(solve_axb(unit, a, f))
    return CofiniteNbhd(nbhd.alphabet, frozenset(dropped))


def certify_translations(a: Element, nbhd: CofiniteNbhd, shrunk: CofiniteNbhd, radius: int) -> List[tuple]:
    """Check the shrink certificate up to a radius: every x of size at
    most ``radius`` in the shrunk neighborhood must keep a*x and x*a
    inside the target.  Returns the counterexamples as (x, side, product),
    in enumeration order of x and "left" before "right" for each x.

    A counterexample has a*x = f or x*a = f for an excluded f, so it is
    one of the points ``shrink_neighborhood(a, nbhd)`` drops.  Those are
    the only candidates, and each is checked with ``*``; no ball is
    built, so the cost is that of the shrink at any radius.  Hence
    ``certify_translations(a, U, shrink_neighborhood(a, U), r)`` is []
    by construction: the independent check of the shrink is the ball
    scan the test suite keeps as its oracle.

    Like that scan, this needs a finite alphabet, a nonnegative radius
    and a over the neighborhood's alphabet.
    """
    if not nbhd.alphabet.is_finite:
        raise InfiniteAlphabet("balls are finite only over finite alphabets")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if a.alphabet != nbhd.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {nbhd.alphabet}")
    candidates = [x for x in shrink_neighborhood(a, nbhd).excluded if x.size <= radius and x in shrunk]
    bad: List[tuple] = []
    for x in sorted(candidates, key=enumeration_key):
        lhs = a * x
        if lhs not in nbhd:
            bad.append((x, "left", lhs))
        rhs = x * a
        if rhs not in nbhd:
            bad.append((x, "right", rhs))
    return bad


@dataclass(frozen=True)
class WitnessFamily:
    """Pairs (a_k, b_k) of strictly growing depth whose products all hit
    one fixed nonzero target; the components themselves escape every
    cofinite neighborhood, so multiplication is not jointly continuous
    at (0, 0)."""

    target: Element
    pairs: Tuple[Tuple[Element, Element], ...]

    def __post_init__(self) -> None:
        lefts = [p[0] for p in self.pairs]
        rights = [p[1] for p in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("witness components must be pairwise distinct")
        for a, b in self.pairs:
            if a * b != self.target:
                raise ValueError(f"witness pair {a}, {b} misses the target {self.target}")

    def to_json(self) -> dict:
        return {
            "target": self.target.to_json(),
            "pairs": [[a.to_json(), b.to_json()] for a, b in self.pairs],
        }


def joint_discontinuity_family(c: Element, k: int) -> WitnessFamily:
    """First k witness pairs for the target c = (u, v): with w the run of
    the first letter at depth i, pair i is ((u, w), (w, v))."""
    if c.is_zero:
        raise ZeroTarget("witness families exist only for nonzero targets")
    if k < 1:
        raise ValueError(f"need at least one pair, got k={k}")
    pairs = []
    for i in range(1, k + 1):
        w = (0,) * i
        pairs.append((Element(c.alphabet, c.u, w), Element(c.alphabet, w, c.v)))
    return WitnessFamily(c, tuple(pairs))


def rclass_missing(nbhd: CofiniteNbhd, u: Sequence[int]) -> List[Element]:
    """Members of the R-class of (u, *) that the neighborhood misses."""
    w = nbhd.alphabet.check_word(u)
    return [f for f in nbhd.excluded_sorted() if f.u == w]


def rclass_growth(nbhd: CofiniteNbhd, u: Sequence[int], radius: int) -> int:
    """Exact count of the R-class of (u, *) inside the neighborhood and
    the radius ball: all (u, w) with |u| + |w| <= radius minus the
    excluded ones.  Strictly increasing in the radius once it clears
    |u| plus the excluded count."""
    w = nbhd.alphabet.check_word(u)
    if not nbhd.alphabet.is_finite:
        raise InfiniteAlphabet("growth counts need a finite alphabet")
    if radius < len(w):
        raise RadiusTooSmall(f"radius {radius} below |u| = {len(w)}")
    lam = nbhd.alphabet.size or 0
    total = sum(lam ** j for j in range(radius - len(w) + 1))
    dropped = sum(1 for f in nbhd.excluded if f.u == w and f.size <= radius)
    return total - dropped
