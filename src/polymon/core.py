"""Normal forms and exact arithmetic for polycyclic inverse monoids.

The monoid on an alphabet of lambda >= 2 letters consists of a zero, an
identity, and elements written uniquely as u'v where u, v are positive
words (u' is the inverse of u).  An ``Element`` stores that normal form
as the pair (u, v); the pair (empty, empty) is the identity and Zero is
the pair (None, None), so every Zero test reads ``u is None``.

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
letters compared by index.  ``enumeration_key`` sorts by it, and
``normal_forms`` lists the nonzero pairs up to a size in it.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence, Tuple

from .errors import AlphabetMismatch, TooFewGenerators, UnknownLetter, ZeroArgument

Word = Tuple[int, ...]


def letter_name(index: int) -> str:
    """Printable name of a letter: a..z for 0..25, then g26, g27, ..."""
    if 0 <= index < 26:
        return chr(ord("a") + index)
    return f"g{index}"


def render_word(word: Sequence[int]) -> str:
    """Concatenated letter names; the empty word renders as ''."""
    return "".join(letter_name(i) for i in word)


NormalForm = Tuple[Optional[Word], Optional[Word]]  # (u, v); (None, None) is Zero, as in Element


def mul_nf(u: Optional[Word], v: Optional[Word], p: Optional[Word], q: Optional[Word]) -> NormalForm:
    """The closed form of ``*`` on bare normal forms: (u, v) * (p, q).

    A factor with u (or p) None is Zero.  Returns the product's pair
    (u, v), which is (None, None) for Zero, the shape of ``Element``'s
    fields.  ``Element.__mul__``, ``green.act`` and ``collapse_witness``
    all multiply through this function.
    """
    if u is None or p is None:
        return None, None
    if len(v) >= len(p):
        cut = len(v) - len(p)
        if v[cut:] == p:
            return u, v[:cut] + q
    else:
        cut = len(p) - len(v)
        if p[cut:] == v:
            return p[:cut] + u, q
    return None, None


_set = object.__setattr__  # writes a slot past _Value.__setattr__


class _Value:
    """Immutable value with its fields, named in ``_fields``, in slots: equal
    only to an object of its class with equal fields, and hashed, shown and
    pickled as those fields; ``Element`` hashes its normal form alone and
    ``Alphabet`` caches no hash.  Setting or deleting attributes raises AttributeError."""

    __slots__ = _fields = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


_ALPHABETS: dict = {}  # size -> the one Alphabet of that size


class Alphabet(_Value):
    """Generator alphabet; ``size=None`` means countably infinite.

    ``Alphabet(size)`` returns the one alphabet of that size, so the
    library compares alphabets with ``is`` and this constructor alone
    decides whether two are the same; copy and pickle rebuild through it.
    The size is stored as an exact int, so an int subclass such as an
    ``IntEnum`` names the alphabet of the int it equals.  The cache holds
    one alphabet per size a process names, and ``_Value``'s equality and
    hash, by size, agree with identity.

    Sizes below 2 are rejected because the closed form of
    ``collapse_witness`` needs a second letter z, one that is not the
    last letter of a given word.  ``*``, ``solve_axb``, the shrink and the
    certificate all agree with their oracles on ball(1, 4); ROADMAP item 4
    is the work of admitting size 1, the bicyclic monoid with zero.
    A size that is neither an int nor None is rejected as well, and so is
    a bool, which Python counts as an int; a bool is no letter either.
    """

    __slots__ = _fields = ("size",)

    def __new__(cls, size: Optional[int] = None) -> "Alphabet":
        if size is not None and (not isinstance(size, int) or type(size) is bool):
            raise TypeError(f"alphabet size must be an int or None, got {size!r}")
        if size is not None and size < 2:
            raise TooFewGenerators(f"alphabet needs at least 2 letters, got {size}")
        made = object.__new__(cls)
        _set(made, "size", None if size is None else int(size))
        # only a finished alphabet is ever inserted, so racing callers share one
        return _ALPHABETS.setdefault(made.size, made)

    __init__ = object.__init__  # __new__ has set the size; _Value.__init__ would set it again

    def __contains__(self, letter: int) -> bool:
        """Whether ``letter`` is a letter of this alphabet: an int that is
        not a bool (int subclasses such as an ``IntEnum`` count), at least 0
        and below the size.  This is the definition of a letter, which
        ``collapse.verify_derivation`` calls on each letter of a multiplier;
        the inline tests of ``check_word`` and ``rewriting.reduce`` must
        agree with it, and the tests hold them to it."""
        if not isinstance(letter, int) or type(letter) is bool or letter < 0:
            return False
        return self.size is None or letter < self.size

    def check_word(self, word: Sequence[int]) -> Word:
        """Validate every letter and return the word as a tuple.  An unknown
        index >= 0 is named as the parser names it; any other value by repr.
        Each letter is tested inline, not by a call to ``in``: an exact int
        skips the type tests, and the range test reads the size once."""
        w = tuple(word)
        size = self.size
        for i in w:
            if (type(i) is not int and (type(i) is bool or not isinstance(i, int))
                    or i < 0 or size is not None and i >= size):
                named = isinstance(i, int) and type(i) is not bool and i >= 0
                raise UnknownLetter(f"letter {letter_name(i) if named else repr(i)} not in alphabet of size {size}")
        return w


def make_alphabet(size: "int | str | None") -> Alphabet:
    """Build an alphabet from an int, None, or a string: 'inf' or
    'infinite' in any case, or ASCII digits only, the rule of a ``g``
    letter index.  Only a string is converted; ``Alphabet`` checks every
    other size."""
    if isinstance(size, str):
        if size.lower() in ("inf", "infinite"):
            return Alphabet(None)
        if not (size.isascii() and size.isdigit()):
            raise ValueError(f"alphabet size must be 'inf' or ASCII digits, got {size!r}")
        size = int(size)
    return Alphabet(size)


class Element(_Value):
    """One monoid element: Zero (u is None) or the normal form (u, v).

    Instances are immutable and hashable, hashed as their normal form
    (u, v) alone; equality is structural on the normal form, which is
    unique, so it coincides with equality in the monoid, and it checks the
    alphabet last, by identity.  Two elements over different alphabets with
    one normal form share a hash and are unequal.  Direct construction skips letter
    validation; use the ``element``/``generator`` factories for unchecked input.
    """

    __slots__ = _fields = ("alphabet", "u", "v")

    def __init__(self, alphabet: Alphabet, u: Optional[Word], v: Optional[Word]) -> None:
        if (u is None) != (v is None):
            raise ValueError("zero has neither component; normal forms have both")
        _set_alphabet(self, alphabet)
        _set_u(self, u)
        _set_v(self, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.alphabet is other.alphabet

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.u is None

    @property
    def size(self) -> int:
        """|u| + |v|; Zero counts as 0."""
        if self.u is None:
            return 0
        return len(self.u) + len(self.v)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.alphabet is not other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} vs {other.alphabet}")
        u, v = mul_nf(self.u, self.v, other.u, other.v)
        return Element(self.alphabet, u, v)

    def inverse(self) -> "Element":
        """Swap the components; Zero, (None, None), is its own inverse."""
        return Element(self.alphabet, self.v, self.u)

    def downset(self) -> "list[Element]":
        """All prefixes of the normal form, as elements, shortest first.

        The normal form u'v read as a signed string has |u| + |v| + 1
        prefixes: 1, then the inverted letters of u from the outside in,
        then v extended a letter at a time.  Zero is not a normal form
        and has no downset.
        """
        if self.u is None:
            raise ZeroArgument("zero has no prefix set")
        out = [Element(self.alphabet, (), ())]
        m = len(self.u)
        for j in range(1, m + 1):
            out.append(Element(self.alphabet, self.u[m - j:], ()))
        for i in range(1, len(self.v) + 1):
            out.append(Element(self.alphabet, self.u, self.v[:i]))
        return out

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        if self.u is None:
            return "0"
        if not self.u and not self.v:
            return "1"
        inv = "".join(letter_name(i) + "'" for i in reversed(self.u))
        return inv + render_word(self.v)

    def __repr__(self) -> str:
        lam = "inf" if self.alphabet.size is None else self.alphabet.size
        return f"<Element {self} | lambda={lam}>"

    def to_json(self) -> dict:
        """Canonical JSON form: {"zero": true} or {"u": [...], "v": [...]}."""
        if self.u is None:
            return {"zero": True}
        return {"u": list(self.u), "v": list(self.v)}


# Element's slot writers; faster than _set, which looks the slot up by name
_set_alphabet, _set_u, _set_v = (getattr(Element, n).__set__ for n in Element._fields)


# -- factories ---------------------------------------------------------


def zero(alphabet: Alphabet) -> Element:
    return Element(alphabet, None, None)


def one(alphabet: Alphabet) -> Element:
    return Element(alphabet, (), ())


def generator(alphabet: Alphabet, index: int) -> Element:
    """The letter itself as an element: the pair (empty, letter)."""
    return Element(alphabet, (), alphabet.check_word((index,)))


def element(alphabet: Alphabet, u: Sequence[int], v: Sequence[int]) -> Element:
    """Validated normal-form constructor."""
    return Element(alphabet, alphabet.check_word(u), alphabet.check_word(v))


def enumeration_key(x: Element) -> tuple:
    """Sort key for the canonical enumeration order (Zero first)."""
    if x.u is None:
        return (0,)
    return (1, x.size, len(x.u), x.u, x.v)


def normal_forms(letters: Sequence[int], n: int) -> List[NormalForm]:
    """Every nonzero normal form with |u| + |v| <= n over the given
    letters, as bare pairs in enumeration order: the listing behind
    ``green.ball``.  The words
    of each length are listed once and paired by (|u| + |v|, |u|, u, v).
    The empty word needs no letters, so n = 0 never reads them."""
    words = [list(product(letters, repeat=k)) if k else [()] for k in range(n + 1)]
    return [(u, v) for total in range(n + 1) for ulen in range(total + 1)
            for u in words[ulen] for v in words[total - ulen]]
