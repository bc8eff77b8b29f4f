"""Free-word rewriting: the independent route to every product.

Words over the doubled alphabet {x, x'} are encoded as tuples of signed
ints: letter i reads as i+1 when positive and -(i+1) when inverted, so
s names letter abs(s) - 1.  Every module writes this encoding inline.
The only redexes are (positive, inverted) adjacencies:

    x x'  ->  deleted        (same letter)
    x y'  ->  whole word is Zero   (different letters)

An (inverted, positive) junction like a' a is inert; that is exactly why
irreducible words have the shape inverted* positive* and denote normal
forms u'v, with u read in reverse from the inverted prefix.

``reduce`` makes a single left-to-right pass that checks each letter as
it reads it and keeps the word read so far as its two halves, the
inverted prefix and the positive suffix.  The shape inverted* positive*
holds after every letter, so it needs no check at the end: a positive
letter extends the suffix; an inverted letter extends the prefix while
the suffix is empty, and otherwise meets the suffix's last letter, which
it cancels or, being another letter, turns the whole word into Zero.
``parsing.evaluate`` calls it on the word ``parsing.parse`` emits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .core import Alphabet, Element, zero
from .errors import AlphabetMismatch, UnknownLetter, ZeroArgument

FreeWord = Tuple[int, ...]


def free_word(x: Element) -> FreeWord:
    """Signed-letter string of a nonzero element: u reversed-inverted, then v."""
    if x.u is None:
        raise ZeroArgument("zero has no free-word form")
    return tuple([-(i + 1) for i in reversed(x.u)] + [i + 1 for i in x.v])


def reduce(alphabet: Alphabet, word: Iterable[int]) -> Element:
    """Rewrite a signed word to Zero or its normal form u'v in one pass,
    checking each letter as it reads it.

    The word read so far rewrites to an inverted prefix, whose letters
    ``inv`` holds in reading order, and a positive suffix, whose letters
    ``pos`` holds (the module docstring says why no other shape occurs);
    so u is ``inv`` reversed and v is ``pos``.  Once the word is Zero,
    ``pos`` is None and the pass only checks the letters left.  A letter
    that is no int, or is a bool, raises ``UnknownLetter`` before ``abs``
    sees it, as 0 and an index outside the alphabet do; an exact int skips
    the type tests.  The range test is inline against the alphabet's size,
    read once, and agrees with ``abs(s) - 1 in alphabet``."""
    size = alphabet.size
    inv: List[int] = []
    pos: Optional[List[int]] = []
    for s in word:
        if (type(s) is not int and (type(s) is bool or not isinstance(s, int))
                or s == 0 or size is not None and not -size <= s <= size):
            raise UnknownLetter(f"signed letter {s!r} invalid for alphabet of size {size}")
        if pos is None:
            continue
        if s > 0:
            pos.append(s - 1)
        elif not pos:
            inv.append(-s - 1)
        elif pos[-1] == -s - 1:
            pos.pop()
        else:
            pos = None
    return zero(alphabet) if pos is None else Element(alphabet, tuple(inv[::-1]), tuple(pos))


def mul_oracle(x: Element, y: Element) -> Element:
    """Product recomputed from scratch by rewriting; never consults the
    closed form ``core.mul_nf``."""
    if x.alphabet is not y.alphabet:
        raise AlphabetMismatch(f"{x.alphabet} vs {y.alphabet}")
    if x.is_zero or y.is_zero:
        return zero(x.alphabet)
    return reduce(x.alphabet, free_word(x) + free_word(y))
