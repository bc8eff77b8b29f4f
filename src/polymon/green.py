"""R-class structure, the finite equation solver, balls, and the stack action.

A nonzero element u'v lies in the R-class determined entirely by u; Zero
is alone in its class.  ``rclass_key`` names a class by its canonical
member, the element u' = (u, empty) or Zero, so keys over different
alphabets differ.  ``solve_axb`` returns the exact finite solution
set of a*x*b = c in closed form, by prefix and suffix checks on the
normal forms (the test suite checks it against a bounded enumeration),
and ``act`` realizes elements as partial maps on positive words (stack
top at the right end).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from .core import (
    Alphabet,
    Element,
    NormalForm,
    Word,
    _Value,
    enumeration_key,
    letter_name,
    mul_nf,
    zero,
)
from .errors import (
    AlphabetMismatch,
    InfiniteAlphabet,
    KeyMismatch,
    ZeroArgument,
)


def rclass_key(x: Element) -> Element:
    """Key of the R-class of x, its canonical member: Zero, or the pure
    inverse word u' = (u, empty) for x = u'v.  Equal keys iff x*x' = y*y'."""
    return Element(x.alphabet, x.u, None if x.u is None else ())


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


class Ball(_Value):
    """All elements with |u| + |v| <= radius, plus Zero, in enumeration order."""

    __slots__ = _fields = ("alphabet", "radius", "elements")

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def nonzero(self) -> Tuple[Element, ...]:
        return self.elements[1:]


def ball(alphabet: Alphabet, n: int) -> Ball:
    """Enumerate the radius-n ball; finite alphabets only.  The words of
    each length k <= n are listed once and paired by (|u| + |v|, |u|, u,
    v), the order ``core.elements_of_size`` yields size by size."""
    if alphabet.size is None:
        raise InfiniteAlphabet("balls are finite only over finite alphabets")
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    # the empty word needs no letters, so radius 0 costs nothing over a huge alphabet
    words = [list(product(range(alphabet.size), repeat=k)) if k else [()] for k in range(n + 1)]
    members = [Element(alphabet, u, v) for total in range(n + 1) for ulen in range(total + 1)
               for u in words[ulen] for v in words[total - ulen]]
    return Ball(alphabet, n, (zero(alphabet), *members))


def _solve_left(ua: Word, va: Word, uc: Word, vc: Word) -> List[NormalForm]:
    """Every y = (p, q) with (ua, va) * y = (uc, vc), as bare pairs, for
    nonzero a = (u_a, v_a) and c = (u_c, v_c).

    Read off the closed form of ``*``: u_a is a suffix of u_c in either
    case.  Either y = (p, q) with p a suffix of v_a, so v_a = w + p,
    u_c = u_a and v_c = w + q, one y per split of v_a whose head w is a
    prefix of v_c; or v_a is a proper suffix of p, p = s + v_a with s
    non-empty, and then c = (s + u_a, q).  The first case needs
    u_c = u_a and the second a longer u_c, so at most |v_a| + 1
    solutions, using only letters of a and c.
    """
    cut = len(uc) - len(ua)
    if cut < 0 or uc[cut:] != ua:
        return []
    if cut:
        return [(uc[:cut] + va, vc)]
    found = []
    for k in range(len(va) + 1):
        if vc[:k] != va[:k]:
            break
        found.append((va[k:], vc[k:]))
    return found


def solve_axb(a: Element, b: Element, c: Element) -> List[Element]:
    """Exact solution set {x != 0 : a*x*b = c}, in enumeration order.

    Closed form in two one-sided solves on bare pairs: every y with
    a*y = c, then every x with x*b = y, found as the inverses of the x'
    with b'*x' = y'.  A nonzero c forces y = x*b, so distinct y give
    disjoint sets of x, and there are at most (|v_a| + 1) * (|u_b| + 1)
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


def act(x: Element, word: Sequence[int]) -> Optional[Word]:
    """Apply x = (u, v) to a stack word w (top at the right end).

    The closed form of ``*`` on (empty, w): (empty, w) * x is (empty, t),
    t being w with its suffix u swapped for v, exactly when u is a suffix
    of w.  Every other product leaves the action undefined, encoded as
    None, so Zero acts as the empty map.
    """
    u, v = mul_nf((), x.alphabet.check_word(word), x.u, x.v)
    return v if u == () else None


def cayley_dot(b: Ball) -> str:
    """Right-Cayley graph of the ball in DOT: edges x -> x*g for each
    letter g.  Products outside the ball still appear as nodes."""
    if b.alphabet.size is None:
        raise InfiniteAlphabet("DOT export needs a finite alphabet")
    gens = [(i, Element(b.alphabet, (), (i,))) for i in range(b.alphabet.size)]
    ids = {x: f"n{k}" for k, x in enumerate(b.elements)}
    edges = []
    for x in b.elements:
        for i, g in gens:
            y = x * g
            if y not in ids:
                ids[y] = f"n{len(ids)}"
            edges.append(f'  {ids[x]} -> {ids[y]} [label="{letter_name(i)}"];')
    lines = ["digraph cayley {"]
    lines.extend(f'  {n} [label="{x}"];' for x, n in ids.items())
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
