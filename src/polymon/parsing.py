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
``tokenize`` yields plain (kind, position, letter index) tuples.

By the relations x x' = 1 and x y' = 0 a whole expression denotes one
signed word over the doubled alphabet, and ``parse`` emits that word
itself in the encoding of ``rewriting``: a letter adds itself, '1' adds
nothing, an odd chain of primes mirrors its term's word and flips every
sign, and a '0' makes the result None once the whole text has been
checked.  ``evaluate`` rewrites the word once with ``rewriting.reduce``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import Alphabet, Element, Word, letter_name, zero
from .errors import ExpressionSyntaxError, UnknownLetter
from .rewriting import FreeWord, reduce


# Token kinds of the single-character tokens; letters are LETTER, "^-1"
# is INVERT, and the parser ends its token list with END.
_PUNCT = {"0": "ZERO", "1": "ONE", "(": "LPAREN", ")": "RPAREN", "*": "STAR", "'": "INVERT"}

Token = Tuple[str, int, int]  # (kind, position, letter index or -1)


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if "a" <= c <= "z":
            # ASCII digits only: str.isdigit also takes "²" and "١"
            if c == "g" and i + 1 < n and "0" <= text[i + 1] <= "9":
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
                out.append(("LETTER", i, ord(c) - 97))  # 97 is ord("a")
                i += 1
        elif c in _PUNCT:
            out.append((_PUNCT[c], i, -1))
            i += 1
        elif c.isspace():
            i += 1
        elif c == "^":
            if text[i + 1:i + 3] != "-1":
                raise ExpressionSyntaxError("expected '-1' after '^'", i)
            out.append(("INVERT", i, -1))
            i += 3
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    return out


_ATOM_START = ("ZERO", "ONE", "LETTER", "LPAREN")

# Deepest parenthesis nesting accepted.  Parsing recurses three frames
# per level, well inside Python's default recursion limit of 1000; a
# deeper '(' is a syntax error at its position.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        # the END token after the last one carries the text's length
        self.tokens = tokenize(text)
        self.tokens.append(("END", len(text), -1))
        self.alphabet = alphabet
        self.word: List[int] = []
        self.is_zero = False
        self.at = 0
        self.depth = 0

    def expr(self) -> None:
        self.term()
        while True:
            kind = self.tokens[self.at][0]
            if kind == "STAR":
                self.at += 1
            elif kind not in _ATOM_START:
                return
            self.term()

    def term(self) -> None:
        start = len(self.word)
        self.atom()
        odd = False  # fold a chain of primes by parity
        while self.tokens[self.at][0] == "INVERT":
            self.at += 1
            odd = not odd
        if odd:
            # the inverse of a word is its mirror image with every sign flipped
            self.word[start:] = [-s for s in reversed(self.word[start:])]

    def atom(self) -> None:
        kind, pos, index = self.tokens[self.at]
        if kind == "END":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        self.at += 1
        if kind == "LETTER":
            if index not in self.alphabet:
                raise UnknownLetter(
                    f"letter {letter_name(index)} (position {pos}) not in alphabet of size {self.alphabet.size}"
                )
            self.word.append(index + 1)
        elif kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            self.expr()
            kind, pos, _ = self.tokens[self.at]
            if kind != "RPAREN":
                raise ExpressionSyntaxError("expected ')'", pos)
            self.at += 1
            self.depth -= 1
        elif kind == "ZERO":
            self.is_zero = True  # parsing goes on, so later errors still fire
        elif kind != "ONE":
            raise ExpressionSyntaxError(f"unexpected {kind.lower()}", pos)


def parse(text: str, alphabet: Alphabet) -> Optional[FreeWord]:
    """Parse expression text against a session alphabet into the signed
    word it denotes, in the encoding of ``rewriting``; None when the text
    holds a '0'."""
    parser = _Parser(text, alphabet)
    parser.expr()
    kind, pos, _ = parser.tokens[parser.at]
    if kind != "END":
        raise ExpressionSyntaxError(f"unexpected {kind.lower()} after expression", pos)
    return None if parser.is_zero else tuple(parser.word)


def evaluate(word: Optional[FreeWord], alphabet: Alphabet) -> Element:
    """Zero for None, else the normal form of the signed word, by
    ``rewriting.reduce`` (which checks every letter)."""
    return zero(alphabet) if word is None else reduce(alphabet, word)


def parse_positive_word(text: str, alphabet: Alphabet) -> Word:
    """Letters-only text (e.g. 'ca') to a positive word; '' is the empty word."""
    letters = []
    for kind, pos, index in tokenize(text):
        if kind != "LETTER":
            raise ExpressionSyntaxError("positive words are letters only", pos)
        if index not in alphabet:
            raise UnknownLetter(
                f"letter {letter_name(index)} (position {pos}) not in alphabet of size {alphabet.size}"
            )
        letters.append(index)
    return tuple(letters)
