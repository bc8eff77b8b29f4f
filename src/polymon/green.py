"""R-class structure, the finite equation solver, balls, and the stack action.

A nonzero element u'v lies in the R-class determined entirely by u; Zero
is alone in its class.  ``solve_axb`` returns the exact finite solution
set of a*x*b = c in closed form, by prefix and suffix checks on the
normal forms (the test suite checks it against a bounded enumeration),
and ``act`` realizes elements as partial maps on positive words (stack
top at the right end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    Alphabet,
    Element,
    NormalForm,
    Word,
    elements_of_size,
    enumeration_key,
    letter_name,
    zero,
)
from .errors import (
    AlphabetMismatch,
    InfiniteAlphabet,
    KeyMismatch,
    UnknownLetter,
    ZeroArgument,
)


@dataclass(frozen=True)
class RClassKey:
    """R-class label: the first component u, or None for the class of Zero."""

    word: Optional[Word]

    @property
    def is_zero_class(self) -> bool:
        return self.word is None

    def representative(self, alphabet: Alphabet) -> Element:
        """Canonical member: Zero, or the pure inverse word (u, empty)."""
        if self.word is None:
            return zero(alphabet)
        return Element(alphabet, self.word, ())


def rclass_key(x: Element) -> RClassKey:
    """Key of the R-class of x; equal keys iff x*x' = y*y'."""
    return RClassKey(x.u)


def rclass_witness(x: Element, y: Element) -> Element:
    """An s with x*s = y for x, y in one nonzero R-class: s = (v_x, v_y)."""
    if x.is_zero or y.is_zero:
        raise ZeroArgument("witness needs nonzero elements")
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch(f"{x.alphabet} vs {y.alphabet}")
    if x.u != y.u:
        raise KeyMismatch(f"{x} and {y} lie in different R-classes")
    return Element(x.alphabet, x.v, y.v)


def ball_cardinality(lam: int, n: int) -> int:
    """1 + sum over k <= n of (k+1) * lam^k."""
    return 1 + sum((k + 1) * lam ** k for k in range(n + 1))


@dataclass(frozen=True)
class Ball:
    """All elements with |u| + |v| <= radius, plus Zero, in enumeration order."""

    alphabet: Alphabet
    radius: int
    elements: Tuple[Element, ...]

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return isinstance(x, Element) and x.alphabet == self.alphabet and (x.is_zero or x.size <= self.radius)

    @property
    def nonzero(self) -> Tuple[Element, ...]:
        return self.elements[1:]


def ball(alphabet: Alphabet, n: int) -> Ball:
    """Enumerate the radius-n ball; finite alphabets only."""
    if not alphabet.is_finite:
        raise InfiniteAlphabet("balls are finite only over finite alphabets")
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    # radius 0 needs no letters, so a huge alphabet costs nothing there
    letters = list(range(alphabet.size or 0)) if n >= 1 else []
    members: List[Element] = [zero(alphabet)]
    for total in range(n + 1):
        members.extend(elements_of_size(alphabet, letters, total))
    return Ball(alphabet, n, tuple(members))


def _solve_left(ua: Word, va: Word, uc: Word, vc: Word) -> Iterator[NormalForm]:
    """Every y = (p, q) with (ua, va) * y = (uc, vc), as bare pairs, for
    nonzero a = (u_a, v_a) and c = (u_c, v_c).

    Read off the closed form of ``*``: either y = (p, q) with p a suffix
    of v_a, so v_a = w + p, u_c = u_a and v_c = w + q, one y per split of
    v_a whose head w is a prefix of v_c; or v_a is a proper suffix of p,
    p = s + v_a with s non-empty, and then c = (s + u_a, q).  At most
    |v_a| + 2 solutions, using only letters of a and c.
    """
    if uc == ua:
        for k in range(len(va) + 1):
            if vc[:k] != va[:k]:
                break
            yield va[k:], vc[k:]
    cut = len(uc) - len(ua)
    if cut > 0 and uc[cut:] == ua:
        yield uc[:cut] + va, vc


def solve_axb(a: Element, b: Element, c: Element) -> List[Element]:
    """Exact solution set {x != 0 : a*x*b = c}, in enumeration order.

    Closed form in two one-sided solves on bare pairs: every y with
    a*y = c, then every x with x*b = y, found as the inverses of the x'
    with b'*x' = y'.  A nonzero c forces y = x*b, so distinct y give
    disjoint sets of x, and there are at most (|v_a| + 2) * (|u_b| + 2)
    solutions, each using only letters of a, b and c.
    """
    for e in (a, b, c):
        if e.is_zero:
            raise ZeroArgument("solver needs nonzero a, b, c; the solution set at c = 0 is infinite")
    if not (a.alphabet == b.alphabet == c.alphabet):
        raise AlphabetMismatch("solver arguments over different alphabets")
    # x' = (p, q) solves b'*x' = y' exactly when x = (q, p) solves x*b = y
    solutions = [Element(a.alphabet, q, p)
                 for yu, yv in _solve_left(a.u, a.v, c.u, c.v)
                 for p, q in _solve_left(b.v, b.u, yv, yu)]
    return sorted(solutions, key=enumeration_key)


def in_subsemigroup(x: Element, letters: Iterable[int]) -> bool:
    """Membership in the least subsemigroup containing the given letters,
    their inverses, Zero and 1: true iff x is Zero, 1, or uses only them."""
    generating = frozenset(letters)
    for i in generating:
        if i not in x.alphabet:
            raise UnknownLetter(f"letter index {i} not in alphabet of size {x.alphabet.size}")
    if x.is_zero or x.is_one:
        return True
    return x.letters() <= generating


def act(x: Element, word: Sequence[int]) -> Optional[Word]:
    """Apply x = (u, v) to a stack word (top at the right end).

    Defined exactly when u is a suffix of the word; the result swaps that
    suffix for v.  None encodes Undefined; Zero acts as the empty map.
    """
    w = x.alphabet.check_word(word)
    if x.u is None or x.v is None:
        return None
    cut = len(w) - len(x.u)
    if cut >= 0 and w[cut:] == x.u:
        return w[:cut] + x.v
    return None


def cayley_dot(b: Ball) -> str:
    """Right-Cayley graph of the ball in DOT: edges x -> x*g for each
    letter g.  Products outside the ball still appear as nodes."""
    if not b.alphabet.is_finite:
        raise InfiniteAlphabet("DOT export needs a finite alphabet")
    gens = [(i, Element(b.alphabet, (), (i,))) for i in range(b.alphabet.size or 0)]
    ids = {x: f"n{k}" for k, x in enumerate(b.elements)}
    edges = []
    extras: List[Element] = []
    for x in b.elements:
        for i, g in gens:
            y = x * g
            if y not in ids:
                ids[y] = f"n{len(ids)}"
                extras.append(y)
            edges.append(f'  {ids[x]} -> {ids[y]} [label="{letter_name(i)}"];')
    lines = ["digraph cayley {"]
    for x in list(b.elements) + extras:
        lines.append(f'  {ids[x]} [label="{x}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
