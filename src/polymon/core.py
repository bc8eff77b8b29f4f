"""Normal forms and exact arithmetic for polycyclic inverse monoids.

The monoid on an alphabet of lambda >= 2 letters consists of a zero, an
identity, and elements written uniquely as u'v where u, v are positive
words (u' is the inverse of u).  An ``Element`` stores that normal form
as the pair (u, v); the pair (empty, empty) is the identity and Zero is
carried as a separate value, never as a pair.

Multiplication convention.  The product (u, v) * (p, q) cancels at the
junction v * p' and cancellation proceeds from the word ENDS inward, so
the closed form matches SUFFIXES:

    (u, v) * (p, q) = (u, w + q)   if v = w + p   (p a suffix of v)
                    = (s + u, q)   if p = s + v   (v a suffix of p)
                    = Zero         otherwise.

``mul_nf`` is this closed form on bare pairs, and ``Element.__mul__``
delegates to it.  Much of the literature states the dual (prefix)
convention; every fixture in this package assumes the suffix form
above.  The closed form is not taken on faith:
``polymon.rewriting.mul_oracle`` recomputes every product by free-word
rewriting and the test suite checks the two agree, exhaustively on
small balls and on large random sweeps.

Enumeration order, used everywhere fixtures need to be reproducible:
Zero first, then nonzero pairs ordered by (|u| + |v|, |u|, u, v) with
letters compared by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence, Tuple

from .errors import (
    AlphabetMismatch,
    InfiniteAlphabet,
    TooFewGenerators,
    UnknownLetter,
    ZeroHasNoDownset,
)

Word = Tuple[int, ...]


def letter_name(index: int) -> str:
    """Printable name of a letter: a..z for 0..25, then g26, g27, ..."""
    if 0 <= index < 26:
        return chr(ord("a") + index)
    return f"g{index}"


def render_word(word: Sequence[int]) -> str:
    """Concatenated letter names; the empty word renders as ''."""
    return "".join(letter_name(i) for i in word)


NormalForm = Tuple[Word, Word]


def mul_nf(u: Optional[Word], v: Optional[Word], p: Optional[Word], q: Optional[Word]) -> Optional[NormalForm]:
    """The closed form of ``*`` on bare normal forms: (u, v) * (p, q).

    A factor with u (or p) None is Zero.  Returns the product's pair
    (u, v), or None for Zero.  ``Element.__mul__`` and the collapse
    search both multiply through this function.
    """
    if u is None or v is None or p is None or q is None:
        return None
    if len(v) >= len(p):
        cut = len(v) - len(p)
        if v[cut:] == p:
            return u, v[:cut] + q
    else:
        cut = len(p) - len(v)
        if p[cut:] == v:
            return p[:cut] + u, q
    return None


@dataclass(frozen=True)
class Alphabet:
    """Generator alphabet; ``size=None`` means countably infinite.

    Sizes below 2 are rejected: with one generator the relations force
    the structure down to something degenerate (the bicyclic pattern),
    and the normal-form machinery here is built for the general case.
    A size that is neither an int nor None is rejected as well.
    """

    size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size is not None and not isinstance(self.size, int):
            raise TypeError(f"alphabet size must be an int or None, got {self.size!r}")
        if self.size is not None and self.size < 2:
            raise TooFewGenerators(f"alphabet needs at least 2 letters, got {self.size}")

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __contains__(self, letter: int) -> bool:
        if not isinstance(letter, int) or letter < 0:
            return False
        return self.size is None or letter < self.size

    def letters(self) -> Iterator[int]:
        """Iterate all letter indices; finite alphabets only."""
        if self.size is None:
            raise InfiniteAlphabet("cannot enumerate the countable alphabet")
        return iter(range(self.size))

    def check_word(self, word: Sequence[int]) -> Word:
        """Validate every letter and return the word as a tuple."""
        w = tuple(word)
        for i in w:
            if i not in self:
                raise UnknownLetter(f"letter {letter_name(i) if isinstance(i, int) else i!r} not in alphabet of size {self.size}")
        return w


def make_alphabet(size: "int | str | None") -> Alphabet:
    """Build an alphabet from an int, None, or the string 'inf'."""
    if size is None or (isinstance(size, str) and size.lower() in ("inf", "infinite")):
        return Alphabet(None)
    return Alphabet(int(size))


@dataclass(frozen=True, repr=False)
class Element:
    """One monoid element: Zero (u is None) or the normal form (u, v).

    Instances are immutable and hashable; equality is structural on the
    normal form, which is unique, so it coincides with equality in the
    monoid.  Direct construction skips letter validation; use the
    ``element``/``generator`` factories for unchecked input.
    """

    alphabet: Alphabet
    u: Optional[Word]
    v: Optional[Word]

    def __post_init__(self) -> None:
        if (self.u is None) != (self.v is None):
            raise ValueError("zero has neither component; normal forms have both")

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.u is None

    @property
    def is_one(self) -> bool:
        return self.u == () and self.v == ()

    @property
    def size(self) -> int:
        """|u| + |v|; Zero counts as 0."""
        if self.u is None or self.v is None:
            return 0
        return len(self.u) + len(self.v)

    def letters(self) -> frozenset:
        """Set of letter indices occurring in the normal form."""
        if self.u is None or self.v is None:
            return frozenset()
        return frozenset(self.u) | frozenset(self.v)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} vs {other.alphabet}")
        nf = mul_nf(self.u, self.v, other.u, other.v)
        if nf is None:
            return Element(self.alphabet, None, None)
        return Element(self.alphabet, nf[0], nf[1])

    def inverse(self) -> "Element":
        """Swap the components; Zero is its own inverse."""
        if self.u is None:
            return self
        return Element(self.alphabet, self.v, self.u)

    def is_idempotent(self) -> bool:
        """True iff x*x = x; exactly Zero, 1 and the pairs (w, w)."""
        return self * self == self

    def downset(self) -> "list[Element]":
        """All prefixes of the normal form, as elements, shortest first.

        The normal form u'v read as a signed string has |u| + |v| + 1
        prefixes: 1, then the inverted letters of u from the outside in,
        then v extended a letter at a time.  Zero is not a normal form
        and has no downset.
        """
        if self.u is None or self.v is None:
            raise ZeroHasNoDownset("zero has no prefix set")
        out = [Element(self.alphabet, (), ())]
        m = len(self.u)
        for j in range(1, m + 1):
            out.append(Element(self.alphabet, self.u[m - j:], ()))
        for i in range(1, len(self.v) + 1):
            out.append(Element(self.alphabet, self.u, self.v[:i]))
        return out

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        if self.u is None or self.v is None:
            return "0"
        if not self.u and not self.v:
            return "1"
        inv = "".join(letter_name(i) + "'" for i in reversed(self.u))
        return inv + render_word(self.v)

    def __repr__(self) -> str:
        lam = self.alphabet.size if self.alphabet.is_finite else "inf"
        return f"<Element {self} | lambda={lam}>"

    def to_json(self) -> dict:
        """Canonical JSON form: {"zero": true} or {"u": [...], "v": [...]}."""
        if self.u is None or self.v is None:
            return {"zero": True}
        return {"u": list(self.u), "v": list(self.v)}


# -- factories ---------------------------------------------------------


def zero(alphabet: Alphabet) -> Element:
    return Element(alphabet, None, None)


def one(alphabet: Alphabet) -> Element:
    return Element(alphabet, (), ())


def generator(alphabet: Alphabet, index: int) -> Element:
    """The letter itself as an element: the pair (empty, letter)."""
    if index not in alphabet:
        raise UnknownLetter(f"letter index {index} not in alphabet of size {alphabet.size}")
    return Element(alphabet, (), (index,))


def element(alphabet: Alphabet, u: Sequence[int], v: Sequence[int]) -> Element:
    """Validated normal-form constructor."""
    return Element(alphabet, alphabet.check_word(u), alphabet.check_word(v))


def from_json(alphabet: Alphabet, data: dict) -> Element:
    """Inverse of ``Element.to_json`` over a given alphabet."""
    if not isinstance(data, dict):
        raise ValueError(f"element JSON must be an object, got {type(data).__name__}")
    if data.get("zero") is True:
        return zero(alphabet)
    if "u" not in data or "v" not in data:
        raise ValueError("element JSON needs 'u' and 'v' or 'zero': true")
    return element(alphabet, data["u"], data["v"])


def enumeration_key(x: Element) -> tuple:
    """Sort key for the canonical enumeration order (Zero first)."""
    if x.u is None or x.v is None:
        return (0,)
    return (1, x.size, len(x.u), x.u, x.v)


def elements_of_size(alphabet: Alphabet, letters: Sequence[int], total: int) -> Iterator[Element]:
    """Nonzero elements with |u| + |v| == total over the given letters,
    in enumeration order (|u| ascending, then u, v lexicographic)."""
    for ulen in range(total + 1):
        for u in product(letters, repeat=ulen):
            for v in product(letters, repeat=total - ulen):
                yield Element(alphabet, u, v)
