"""Expression front end for the CLI and the REPL.

Grammar (whitespace insignificant between tokens):

    expr    := term (('*')? term)*        products, '*' optional
    term    := atom postfix*
    postfix := "'" | "^-1"                 both mean inverse
    atom    := '0' | '1' | letter | '(' expr ')'
    letter  := 'a'..'z' | 'g' digits       g26, g27, ... index past z

A bare 'g' is letter 6; 'g' followed by ASCII digits 0-9 is the letter
with that index; more digits than Python converts to an int (4300 by
default) are a syntax error at the 'g'.  Letter indices are checked
against the session alphabet while parsing, so an out-of-range letter
fails before evaluation.  Parentheses nest at most ``MAX_NESTING`` deep.
``tokenize`` yields plain (kind, position, letter index) tuples; it
looks each of the 32 single-character tokens, a-z and the punctuation
``0 1 ( ) * '``, up in one table, and handles only 'g' digits, '^-1',
whitespace (``str.isspace``) and errors by hand.

By the relations x x' = 1 and x y' = 0 a whole expression denotes one
signed word over the doubled alphabet, and ``parse`` emits that word
itself in the encoding of ``rewriting``: a letter adds itself, '1' adds
nothing, an odd chain of primes mirrors its term's word and flips every
sign, and a '0' makes the result None once the whole text has been
checked.  So ``parse`` is one loop over the tokens that remembers only
where each open group's word and the last complete term's word begin;
nothing recurses, and the nesting cap is a limit of the language, not of
Python's stack.  ``evaluate`` rewrites the word once with
``rewriting.reduce``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import Alphabet, Element, Word, letter_name, zero
from .errors import ExpressionSyntaxError, UnknownLetter
from .rewriting import FreeWord, reduce


# The (kind, letter index or -1) of every single-character token; "^-1"
# is INVERT too, and the parser ends its token list with END.
_TABLE = {"0": ("ZERO", -1), "1": ("ONE", -1), "(": ("LPAREN", -1), ")": ("RPAREN", -1), "*": ("STAR", -1),
          "'": ("INVERT", -1), **{chr(ord("a") + k): ("LETTER", k) for k in range(26)}}

Token = Tuple[str, int, int]  # (kind, position, letter index or -1)


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        entry = _TABLE.get(c)
        if entry is None:
            if c.isspace():
                i += 1
            elif c == "^":
                if text[i + 1:i + 3] != "-1":
                    raise ExpressionSyntaxError("expected '-1' after '^'", i)
                out.append(("INVERT", i, -1))
                i += 3
            else:
                raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
        # ASCII digits only: str.isdigit also takes "²" and "١"
        elif c == "g" and i + 1 < n and "0" <= text[i + 1] <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                index = int(text[i + 1:j])
            except ValueError:  # more digits than Python converts to an int
                raise ExpressionSyntaxError("letter index too long", i) from None
            out.append(("LETTER", i, index))
            i = j
        else:
            out.append((entry[0], i, entry[1]))
            i += 1
    return out


# Deepest parenthesis nesting accepted; a deeper '(' is a syntax error at
# its position.  ``parse`` does not recurse, so the cap guards no stack.
# It bounds the mirroring: a primed group re-mirrors its whole word, so a
# letter is flipped at most once per enclosing group and a text of n
# letters costs at most about (MAX_NESTING + 1)·n flips; 200 primed groups
# around 5·10⁴ letters parse in 0.27 s against 0.04 s for the flat text
# (2 cores, Python 3.11.7).  It also lets a recursive evaluator, such as
# the tests' oracle of ``evaluate``, fold every accepted text.
MAX_NESTING = 200


def _unknown(index: int, pos: int, alphabet: Alphabet) -> UnknownLetter:
    return UnknownLetter(f"letter {letter_name(index)} (position {pos}) not in alphabet of size {alphabet.size}")


def parse(text: str, alphabet: Alphabet) -> Optional[FreeWord]:
    """Parse expression text against a session alphabet into the signed
    word it denotes, in the encoding of ``rewriting``; None when the text
    holds a '0'."""
    size = alphabet.size
    word: List[int] = []
    opened: List[int] = []  # where the word of each open group begins
    term = 0  # where the word of the last complete term begins
    odd = is_zero = False
    expecting = True  # an atom is expected; otherwise a term is complete
    # the END token after the last one carries the text's length
    for kind, pos, index in tokenize(text) + [("END", len(text), -1)]:
        if not expecting:
            if kind == "INVERT":
                odd = not odd  # fold a chain of primes by parity
                continue
            if odd:
                # the inverse of a word is its mirror image with every sign flipped
                word[term:] = [-s for s in reversed(word[term:])]
                odd = False
            if kind == "RPAREN":
                if not opened:
                    raise ExpressionSyntaxError("unexpected rparen after expression", pos)
                term = opened.pop()  # the closed group is a term and takes primes
                continue
            if kind == "END":
                if opened:
                    raise ExpressionSyntaxError("expected ')'", pos)
                return None if is_zero else tuple(word)
            expecting = True  # a '*', or the first token of the next factor
            if kind == "STAR":
                continue
        if kind == "LPAREN":
            if len(opened) == MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            opened.append(len(word))
            continue
        term, expecting = len(word), False
        if kind == "LETTER":
            # tokenize yields only int indices >= 0
            if size is not None and index >= size:
                raise _unknown(index, pos, alphabet)
            word.append(index + 1)
        elif kind == "ZERO":
            is_zero = True  # parsing goes on, so later errors still fire
        elif kind == "END":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        elif kind != "ONE":
            raise ExpressionSyntaxError(f"unexpected {kind.lower()}", pos)


def evaluate(word: Optional[FreeWord], alphabet: Alphabet) -> Element:
    """Zero for None, else the normal form of the signed word, by
    ``rewriting.reduce`` (which checks every letter)."""
    return zero(alphabet) if word is None else reduce(alphabet, word)


def parse_positive_word(text: str, alphabet: Alphabet) -> Word:
    """Letters-only text (e.g. 'ca') to a positive word; '' is the empty word."""
    size = alphabet.size
    letters = []
    for kind, pos, index in tokenize(text):
        if kind != "LETTER":
            raise ExpressionSyntaxError("positive words are letters only", pos)
        # tokenize yields only int indices >= 0
        if size is not None and index >= size:
            raise _unknown(index, pos, alphabet)
        letters.append(index)
    return tuple(letters)
