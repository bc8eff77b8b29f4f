"""Free-word rewriting: the independent route to every product.

Words over the doubled alphabet {x, x'} are encoded as tuples of signed
ints: letter i reads as i+1 when positive and -(i+1) when inverted, so
s names letter abs(s) - 1.  Every module writes this encoding inline.
The only redexes are (positive, inverted) adjacencies:

    x x'  ->  deleted        (same letter)
    x y'  ->  whole word is Zero   (different letters)

An (inverted, positive) junction like a' a is inert; that is exactly why
irreducible words have the shape inverted* positive* and denote normal
forms u'v, with u read in reverse from the inverted prefix.  ``reduce``
checks every letter and then makes a single left-to-right stack pass;
``parsing.evaluate`` calls it on the word ``parsing.parse`` emits.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .core import Alphabet, Element, zero
from .errors import AlphabetMismatch, UnknownLetter, ZeroArgument

FreeWord = Tuple[int, ...]


def free_word(x: Element) -> FreeWord:
    """Signed-letter string of a nonzero element: u reversed-inverted, then v."""
    if x.u is None:
        raise ZeroArgument("zero has no free-word form")
    return tuple(-(i + 1) for i in reversed(x.u)) + tuple(i + 1 for i in x.v)


def _checked(alphabet: Alphabet, word: Iterable[int]) -> List[int]:
    w = list(word)
    for s in w:
        if s == 0 or type(s) is bool or abs(s) - 1 not in alphabet:
            raise UnknownLetter(f"signed letter {s} invalid for alphabet of size {alphabet.size}")
    return w


def _residue(alphabet: Alphabet, seq: Sequence[int]) -> Element:
    # seq must already have the irreducible shape inverted* positive*
    k = 0
    while k < len(seq) and seq[k] < 0:
        k += 1
    u = tuple(-s - 1 for s in reversed(seq[:k]))
    v = tuple(s - 1 for s in seq[k:])
    assert all(s > 0 for s in seq[k:]), "residue not in inverted*positive* shape"
    return Element(alphabet, u, v)


def reduce(alphabet: Alphabet, word: Iterable[int]) -> Element:
    """Rewrite a signed word to Zero or its normal form (stack pass)."""
    stack: List[int] = []
    for s in _checked(alphabet, word):
        if s < 0 and stack and stack[-1] > 0:
            if stack[-1] == -s:
                stack.pop()
            else:
                return zero(alphabet)
        else:
            stack.append(s)
    return _residue(alphabet, stack)


def mul_oracle(x: Element, y: Element) -> Element:
    """Product recomputed from scratch by rewriting; never consults the
    closed form ``core.mul_nf``."""
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch(f"{x.alphabet} vs {y.alphabet}")
    if x.is_zero or y.is_zero:
        return zero(x.alphabet)
    return reduce(x.alphabet, free_word(x) + free_word(y))
