"""Expression front end for the CLI and the REPL.

Grammar (whitespace insignificant between tokens):

    expr    := term (('*')? term)*        products, '*' optional
    term    := atom postfix*
    postfix := "'" | "^-1"                 both mean inverse
    atom    := '0' | '1' | letter | '(' expr ')'
    letter  := 'a'..'z' | 'g' digits       g26, g27, ... index past z

A bare 'g' is letter 6; 'g' followed by digits is the letter with that
index.  Letter indices are checked against the session alphabet while
parsing, so an out-of-range letter fails before evaluation.  Parentheses
nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .core import Alphabet, Element, Word, generator, letter_name, one, zero
from .errors import AlphabetMismatch, ExpressionSyntaxError, UnknownLetter


@dataclass(frozen=True)
class Token:
    kind: str  # ZERO ONE LETTER LPAREN RPAREN STAR INVERT
    pos: int
    index: int = -1  # letter index for LETTER


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "0":
            out.append(Token("ZERO", i))
            i += 1
        elif c == "1":
            out.append(Token("ONE", i))
            i += 1
        elif c == "(":
            out.append(Token("LPAREN", i))
            i += 1
        elif c == ")":
            out.append(Token("RPAREN", i))
            i += 1
        elif c == "*":
            out.append(Token("STAR", i))
            i += 1
        elif c == "'":
            out.append(Token("INVERT", i))
            i += 1
        elif c == "^":
            if text[i + 1:i + 3] != "-1":
                raise ExpressionSyntaxError("expected '-1' after '^'", i)
            out.append(Token("INVERT", i))
            i += 3
        elif c == "g" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("LETTER", i, index=int(text[i + 1:j])))
            i = j
        elif "a" <= c <= "z":
            out.append(Token("LETTER", i, index=ord(c) - ord("a")))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    return out


# -- syntax tree ---------------------------------------------------------

@dataclass(frozen=True)
class ZeroLit:
    pass


@dataclass(frozen=True)
class OneLit:
    pass


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class Inverse:
    inner: "Expression"


@dataclass(frozen=True)
class Product:
    factors: Tuple["Expression", ...]


@dataclass(frozen=True)
class Literal:
    """Programmatic escape hatch: an already-built element as a leaf."""

    value: Element


Expression = Union[ZeroLit, OneLit, Generator, Inverse, Product, Literal]

_ATOM_START = ("ZERO", "ONE", "LETTER", "LPAREN")

# Deepest parenthesis nesting accepted.  Parsing recurses three frames
# per level and ``evaluate`` at most two (a nested Product, an Inverse),
# so this keeps both well inside Python's default recursion limit of
# 1000; a deeper '(' is a syntax error at its position.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: List[Token], alphabet: Alphabet, length: int):
        self.tokens = tokens
        self.alphabet = alphabet
        self.length = length
        self.at = 0
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", self.length)
        self.at += 1
        return tok

    def expr(self) -> Expression:
        factors = [self.term()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "STAR":
                self.take()
                factors.append(self.term())
            elif tok is not None and tok.kind in _ATOM_START:
                factors.append(self.term())
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def term(self) -> Expression:
        node = self.atom()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "INVERT":
                self.take()
                node = Inverse(node)
            else:
                return node

    def atom(self) -> Expression:
        tok = self.take()
        if tok.kind == "ZERO":
            return ZeroLit()
        if tok.kind == "ONE":
            return OneLit()
        if tok.kind == "LETTER":
            if tok.index not in self.alphabet:
                raise UnknownLetter(
                    f"letter {letter_name(tok.index)} (position {tok.pos}) not in alphabet of size {self.alphabet.size}"
                )
            return Generator(tok.index)
        if tok.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            inner = self.expr()
            closing = self.peek()
            if closing is None or closing.kind != "RPAREN":
                raise ExpressionSyntaxError("expected ')'", closing.pos if closing else self.length)
            self.take()
            self.depth -= 1
            return inner
        raise ExpressionSyntaxError(f"unexpected {tok.kind.lower()}", tok.pos)


def parse(text: str, alphabet: Alphabet) -> Expression:
    """Parse expression text against a session alphabet."""
    parser = _Parser(tokenize(text), alphabet, len(text))
    node = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ExpressionSyntaxError(f"unexpected {leftover.kind.lower()} after expression", leftover.pos)
    return node


def evaluate(expr: Expression, alphabet: Alphabet) -> Element:
    """Fold a syntax tree down to one element."""
    if isinstance(expr, ZeroLit):
        return zero(alphabet)
    if isinstance(expr, OneLit):
        return one(alphabet)
    if isinstance(expr, Generator):
        return generator(alphabet, expr.index)
    if isinstance(expr, Inverse):
        # fold a chain of primes by parity, so long chains do not recurse
        flips = 0
        while isinstance(expr, Inverse):
            expr, flips = expr.inner, flips + 1
        x = evaluate(expr, alphabet)
        return x.inverse() if flips % 2 else x
    if isinstance(expr, Product):
        acc = one(alphabet)
        for f in expr.factors:
            acc = acc * evaluate(f, alphabet)
        return acc
    if isinstance(expr, Literal):
        if expr.value.alphabet != alphabet:
            raise AlphabetMismatch(f"literal over {expr.value.alphabet}, session over {alphabet}")
        return expr.value
    raise TypeError(f"not an expression node: {expr!r}")


def parse_positive_word(text: str, alphabet: Alphabet) -> Word:
    """Letters-only text (e.g. 'ca') to a positive word; '' is the empty word."""
    letters = []
    for tok in tokenize(text):
        if tok.kind != "LETTER":
            raise ExpressionSyntaxError("positive words are letters only", tok.pos)
        if tok.index not in alphabet:
            raise UnknownLetter(
                f"letter {letter_name(tok.index)} (position {tok.pos}) not in alphabet of size {alphabet.size}"
            )
        letters.append(tok.index)
    return tuple(letters)
