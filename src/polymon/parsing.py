"""Expression front end for the CLI and the REPL.

Grammar (whitespace insignificant between tokens):

    expr    := term (('*')? term)*        products, '*' optional
    term    := atom postfix*
    postfix := "'" | "^-1"                 both mean inverse
    atom    := '0' | '1' | letter | '(' expr ')'
    letter  := 'a'..'z' | 'g' digits       g26, g27, ... index past z

A bare 'g' is letter 6; 'g' followed by ASCII digits 0-9 is the letter
with that index.  Letter indices are checked against the session alphabet while
parsing, so an out-of-range letter fails before evaluation.  Parentheses
nest at most ``MAX_NESTING`` deep.  ``tokenize`` yields plain
(kind, position, letter index) tuples; ``parse`` builds the public
syntax tree from them.

By the relations x x' = 1 and x y' = 0 a whole expression denotes one
signed word over the doubled alphabet.  ``evaluate`` therefore builds no
element per node: it flattens the tree into that word (a prime mirrors
its group's word and flips every sign, '1' adds nothing, '0' makes the
result Zero once the walk is over) and rewrites it once with the stack
pass of ``rewriting.reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from .core import Alphabet, Element, Word, letter_name, zero
from .errors import AlphabetMismatch, ExpressionSyntaxError, UnknownLetter
from .rewriting import _stack_pass, free_word


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
                out.append(("LETTER", i, int(text[i + 1:j])))
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
# per level.  ``evaluate`` recurses once per nested Product and once per
# Inverse chain of odd length around anything but a letter, so a parsed
# tree costs it at most two frames per level.  Both stay well inside
# Python's default recursion limit of 1000; a deeper '(' is a syntax
# error at its position.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        # the END token after the last one carries the text's length
        self.tokens = tokenize(text)
        self.tokens.append(("END", len(text), -1))
        self.alphabet = alphabet
        self.letters: Dict[int, Generator] = {}  # one node per letter; nodes are immutable
        self.at = 0
        self.depth = 0

    def expr(self) -> Expression:
        factors = [self.term()]
        while True:
            kind = self.tokens[self.at][0]
            if kind == "STAR":
                self.at += 1
            elif kind not in _ATOM_START:
                break
            factors.append(self.term())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def term(self) -> Expression:
        node = self.atom()
        while self.tokens[self.at][0] == "INVERT":
            self.at += 1
            node = Inverse(node)
        return node

    def atom(self) -> Expression:
        kind, pos, index = self.tokens[self.at]
        if kind == "END":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        self.at += 1
        if kind == "LETTER":
            node = self.letters.get(index)
            if node is None:
                if index not in self.alphabet:
                    raise UnknownLetter(
                        f"letter {letter_name(index)} (position {pos}) not in alphabet of size {self.alphabet.size}"
                    )
                node = self.letters[index] = Generator(index)
            return node
        if kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            kind, pos, _ = self.tokens[self.at]
            if kind != "RPAREN":
                raise ExpressionSyntaxError("expected ')'", pos)
            self.at += 1
            self.depth -= 1
            return inner
        if kind == "ZERO":
            return ZeroLit()
        if kind == "ONE":
            return OneLit()
        raise ExpressionSyntaxError(f"unexpected {kind.lower()}", pos)


def parse(text: str, alphabet: Alphabet) -> Expression:
    """Parse expression text against a session alphabet."""
    parser = _Parser(text, alphabet)
    node = parser.expr()
    kind, pos, _ = parser.tokens[parser.at]
    if kind != "END":
        raise ExpressionSyntaxError(f"unexpected {kind.lower()} after expression", pos)
    return node


def evaluate(expr: Expression, alphabet: Alphabet) -> Element:
    """Evaluate a syntax tree: flatten it to one signed word, then rewrite
    that word once with the stack pass of ``rewriting.reduce``.

    The whole tree is walked even after a Zero leaf, so every leaf is
    checked; a Literal's own letters are taken as they are.
    """
    word: List[int] = []
    if _flatten((expr,), alphabet, word):
        return zero(alphabet)
    return _stack_pass(alphabet, word)


def _flatten(nodes: Iterable[Expression], alphabet: Alphabet, out: List[int]) -> bool:
    """Append the signed word of each node to ``out``, left to right, in
    the encoding of ``rewriting``; True when some leaf is Zero."""
    is_zero = False
    for node in nodes:
        odd = False  # fold a chain of primes by parity
        while isinstance(node, Inverse):
            node, odd = node.inner, not odd
        if isinstance(node, Generator):
            i = node.index
            if i not in alphabet:
                raise UnknownLetter(f"letter index {i} not in alphabet of size {alphabet.size}")
            out.append(-i - 1 if odd else i + 1)
        elif odd:
            # the inverse of a word is its mirror image with every sign flipped
            group: List[int] = []
            is_zero |= _flatten((node,), alphabet, group)
            out.extend([-s for s in reversed(group)])
        elif isinstance(node, Product):
            is_zero |= _flatten(node.factors, alphabet, out)
        elif isinstance(node, OneLit):
            pass
        elif isinstance(node, ZeroLit):
            is_zero = True
        elif isinstance(node, Literal):
            x = node.value
            if x.alphabet != alphabet:
                raise AlphabetMismatch(f"literal over {x.alphabet}, session over {alphabet}")
            if x.is_zero:
                is_zero = True
            else:
                out.extend(free_word(x))
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return is_zero


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
