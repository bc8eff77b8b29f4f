"""Shared builders for the test suite."""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Optional, Tuple

from hypothesis import strategies as st

from polymon import Alphabet, AlphabetMismatch, EqualPair, Element, ball, generator, multiplier_pool, one, zero
from polymon.core import elements_of_size
from polymon.parsing import Expression, Generator, Inverse, Literal, OneLit, Product, ZeroLit
from polymon.rewriting import LEFT_MULTIPLY, RIGHT_MULTIPLY, SEED, SYMMETRY, Derivation, DerivationStep


def words_st(lam: int, max_len: int = 4):
    return st.lists(st.integers(0, lam - 1), max_size=max_len).map(tuple)


def elements_st(lam: int = 2, max_len: int = 4, zero_ok: bool = True):
    ab = Alphabet(lam)
    pairs = st.builds(lambda u, v: Element(ab, u, v), words_st(lam, max_len), words_st(lam, max_len))
    if zero_ok:
        return st.one_of(st.just(zero(ab)), pairs)
    return pairs


def random_element(rng: random.Random, ab: Alphabet, lam: int, max_len: int = 4, zero_rate: float = 0.05) -> Element:
    if rng.random() < zero_rate:
        return zero(ab)
    u = tuple(rng.randrange(lam) for _ in range(rng.randint(0, max_len)))
    v = tuple(rng.randrange(lam) for _ in range(rng.randint(0, max_len)))
    return Element(ab, u, v)


def solve_axb_enumerate(a: Element, b: Element, c: Element) -> list:
    """Brute-force oracle for ``solve_axb``: every nonzero x with
    a*x*b = c, in enumeration order, found by direct multiplication.

    Candidates use only letters of a, b, c (cancellation matches equal
    letters, and anything left over must land in c) and have size at
    most B = |a| + |b| + |c|.  The band B < |x| <= B + 2 is swept too and
    must come back empty, so a wrong bound fails loudly instead of
    silently truncating the answer.
    """
    letters = sorted(a.letters() | b.letters() | c.letters())
    bound = a.size + b.size + c.size
    solutions = []
    for total in range(bound + 3):
        for x in elements_of_size(a.alphabet, letters, total):
            if (a * x) * b == c:
                assert total <= bound, f"solution {x} of size {total} above bound {bound}"
                solutions.append(x)
    return solutions


def certify_translations_enumerate(a: Element, nbhd, shrunk, radius: int) -> list:
    """Brute-force oracle for ``certify_translations``: scan the whole
    radius ball and test every x in the shrunk neighborhood with two
    products, reporting (x, side, product) where a*x or x*a leaves the
    target."""
    bad = []
    for x in ball(nbhd.alphabet, radius):
        if x not in shrunk:
            continue
        lhs = a * x
        if lhs not in nbhd:
            bad.append((x, "left", lhs))
        rhs = x * a
        if rhs not in nbhd:
            bad.append((x, "right", rhs))
    return bad


def collapse_witness_elements(a: Element, b: Element, max_depth: int = 8) -> Optional[Derivation]:
    """Oracle for ``collapse_witness``: the same breadth-first search run
    on ``Element`` pairs with ``Element * Element``, with the move order,
    diagonal pruning, first-discovery parents and depth check of the
    library search."""
    if max_depth < 0:
        raise ValueError(f"depth budget must be nonnegative, got {max_depth}")
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if a == b:
        raise EqualPair(f"seed must identify two distinct elements, got {a} twice")
    ab = a.alphabet
    target = (zero(ab), one(ab))
    seed = (a, b)
    if seed == target:
        return Derivation((DerivationStep(SEED, seed),))

    pool = multiplier_pool(a, b)
    parent: Dict[Tuple[Element, Element], Optional[tuple]] = {seed: None}
    queue: deque = deque([(seed, 0)])
    while queue:
        state, depth = queue.popleft()
        if depth >= max_depth:
            continue
        x, y = state
        moves = [((m * x, m * y), LEFT_MULTIPLY, m) for m in pool]
        moves += [((x * m, y * m), RIGHT_MULTIPLY, m) for m in pool]
        moves.append(((y, x), SYMMETRY, None))
        for nxt, rule, m in moves:
            if nxt[0] == nxt[1] or nxt in parent:
                continue
            parent[nxt] = (state, rule, m)
            if nxt == target:
                return _chain_elements(parent, seed, nxt)
            queue.append((nxt, depth + 1))
    return None


def _chain_elements(parent: dict, seed: Tuple[Element, Element], final: Tuple[Element, Element]) -> Derivation:
    hops = []
    state = final
    while parent[state] is not None:
        prev, rule, m = parent[state]
        hops.append(DerivationStep(rule, state, by=m))
        state = prev
    hops.append(DerivationStep(SEED, seed))
    return Derivation(tuple(reversed(hops)))


def evaluate_elements(expr: Expression, alphabet: Alphabet) -> Element:
    """Oracle for ``parsing.evaluate``: fold the syntax tree bottom-up,
    one ``Element`` per leaf and per partial product."""
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
        x = evaluate_elements(expr, alphabet)
        return x.inverse() if flips % 2 else x
    if isinstance(expr, Product):
        acc = one(alphabet)
        for f in expr.factors:
            acc = acc * evaluate_elements(f, alphabet)
        return acc
    if isinstance(expr, Literal):
        if expr.value.alphabet != alphabet:
            raise AlphabetMismatch(f"literal over {expr.value.alphabet}, session over {alphabet}")
        return expr.value
    raise TypeError(f"not an expression node: {expr!r}")
