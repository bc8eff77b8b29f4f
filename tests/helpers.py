"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from hypothesis import strategies as st

import polymon
from polymon import (
    Alphabet,
    AlphabetMismatch,
    CofiniteNbhd,
    Element,
    ball,
    element,
    generator,
    one,
    solve_axb,
    zero,
)
from polymon.collapse import LEFT_MULTIPLY, RIGHT_MULTIPLY, SEED, SYMMETRY, Derivation


def run_python(code: str) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter that imports
    the same polymon as this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(polymon.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


class Letter(int):
    """An int subclass other than bool: a letter like the int it equals."""


def letter_probes(size: Optional[int]) -> list:
    """Values to hold a letter check against ``Alphabet.__contains__``:
    the ints from -3 to size + 2 (to 5 for an infinite alphabet), +-10**30,
    both bools, values that are no int, and an int-subclass instance."""
    top = 3 if size is None else size
    return [*range(-3, top + 3), 10**30, -10**30, True, False, 1.0, None, "a", (1,), Letter(1)]


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


def elements_of_size(alphabet: Alphabet, letters: Sequence[int], total: int) -> Iterator[Element]:
    """Nonzero elements with |u| + |v| == total over the given letters,
    in enumeration order (|u| ascending, then u, v lexicographic).  The
    suite's reference for ``core.normal_forms``, written apart from it."""
    for ulen in range(total + 1):
        for u in product(letters, repeat=ulen):
            for v in product(letters, repeat=total - ulen):
                yield Element(alphabet, u, v)


def letters_of(*xs: Element) -> frozenset:
    """Set of letter indices occurring in the normal forms of xs; Zero has none."""
    return frozenset(i for x in xs if x.u is not None for i in x.u + x.v)


def solve_axb_enumerate(a: Element, b: Element, c: Element) -> list:
    """Brute-force oracle for ``solve_axb``: every nonzero x with
    a*x*b = c, in enumeration order, found by direct multiplication.

    Candidates use only letters of a, b, c (cancellation matches equal
    letters, and anything left over must land in c) and have size at
    most B = |a| + |b| + |c|.  The band B < |x| <= B + 2 is swept too and
    must come back empty, so a wrong bound fails loudly instead of
    silently truncating the answer.
    """
    letters = sorted(letters_of(a, b, c))
    bound = a.size + b.size + c.size
    solutions = []
    for total in range(bound + 3):
        for x in elements_of_size(a.alphabet, letters, total):
            if (a * x) * b == c:
                assert total <= bound, f"solution {x} of size {total} above bound {bound}"
                solutions.append(x)
    return solutions


def shrink_neighborhood_solve(a: Element, nbhd: CofiniteNbhd) -> CofiniteNbhd:
    """Oracle for ``shrink_neighborhood``: drop the solutions of
    a*x*1 = f and 1*x*a = f for every excluded f, each found by the
    two-sided ``solve_axb`` as ``Element``s."""
    if a.is_zero:
        return nbhd
    if a.alphabet != nbhd.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {nbhd.alphabet}")
    unit = one(a.alphabet)
    dropped = set(nbhd.excluded)
    for f in nbhd.excluded:
        dropped.update(solve_axb(a, unit, f))
        dropped.update(solve_axb(unit, a, f))
    return CofiniteNbhd(nbhd.alphabet, frozenset(dropped))


def shrink_neighborhood_enumerate(a: Element, nbhd: CofiniteNbhd) -> CofiniteNbhd:
    """Brute-force oracle for ``shrink_neighborhood`` over a finite
    alphabet: the excluded set plus every nonzero x with a*x or x*a
    excluded, found by direct multiplication over the whole alphabet.

    A solution of a*x = f or x*a = f has size at most B = |a| + max |f|,
    by the closed form of ``*``.  The band B < |x| <= B + 2 is scanned too
    and must come back empty, so a wrong bound fails loudly instead of
    silently truncating the answer.
    """
    letters = range(nbhd.alphabet.size)
    excluded = nbhd.excluded  # built on each read
    bound = a.size + max((f.size for f in excluded), default=0)
    dropped = set(excluded)
    for total in range(bound + 3):
        for x in elements_of_size(nbhd.alphabet, letters, total):
            if a * x in excluded or x * a in excluded:
                assert total <= bound, f"solution {x} of size {total} above bound {bound}"
                dropped.add(x)
    return CofiniteNbhd(nbhd.alphabet, frozenset(dropped))


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


def reduce_stepwise(alphabet: Alphabet, word: Iterable[int], strategy: str = "leftmost") -> Element:
    """Oracle for ``reduce``: rewrite one redex at a time, the leftmost or
    the rightmost one, until the word is Zero or has the irreducible shape
    inverted* positive*.  The result never depends on the strategy."""
    w = list(word)
    while True:
        positions: Iterable[int] = range(len(w) - 1)
        if strategy == "rightmost":
            positions = reversed(range(len(w) - 1))
        for i in positions:
            if w[i] > 0 and w[i + 1] < 0:
                if w[i] == -w[i + 1]:
                    del w[i:i + 2]
                    break
                return zero(alphabet)
        else:
            k = sum(1 for s in w if s < 0)
            return element(alphabet, [-s - 1 for s in reversed(w[:k])], [s - 1 for s in w[k:]])


def verify_derivation_elements(d: Derivation, seed: Optional[Tuple[Element, Element]] = None) -> None:
    """Oracle for ``verify_derivation``: the same replay, each expected
    pair built as ``Element``s with ``Element * Element`` and compared
    with ``==``.  It raises ValueError with the same text on the same
    first bad step."""
    if not d.steps:
        raise ValueError("empty derivation")
    first = d.steps[0]
    if first.rule != SEED:
        raise ValueError(f"step 0 must be the seed, got {first.rule}")
    if seed is not None and first.pair != seed:
        raise ValueError(f"seed pair {first.pair} differs from expected {seed}")
    for i in range(1, len(d.steps)):
        step = d.steps[i]
        px, py = d.steps[i - 1].pair
        m = step.by
        if step.rule == SYMMETRY:
            expected = (py, px)
        elif step.rule not in (LEFT_MULTIPLY, RIGHT_MULTIPLY):
            raise ValueError(f"step {i}: unknown rule {step.rule!r}")
        elif m is None:
            expected = None  # a multiplication without its multiplier never replays
        elif m.u is not None and not all(letter in m.alphabet for letter in m.u + m.v):
            expected = None  # nor does one by letters outside the multiplier's alphabet
        else:
            try:
                expected = (m * px, m * py) if step.rule == LEFT_MULTIPLY else (px * m, py * m)
            except AlphabetMismatch:
                expected = None  # nor does a product across alphabets
        if expected is None or step.pair != expected:
            raise ValueError(f"step {i}: {step.rule} does not replay")
    ab = d.steps[0].pair[0].alphabet
    if d.final_pair != (zero(ab), one(ab)):
        raise ValueError("derivation does not end at (0, 1)")


def evaluate_elements(tree: tuple, alphabet: Alphabet) -> Element:
    """Oracle for ``evaluate(parse(text))``: fold the expression tree of
    the text bottom-up, one ``Element`` per leaf and per partial product.
    Trees are plain tuples: ("0",), ("1",), ("letter", i), ("inv", tree)
    and ("mul", (tree, ...))."""
    kind = tree[0]
    if kind == "0":
        return zero(alphabet)
    if kind == "1":
        return one(alphabet)
    if kind == "letter":
        return generator(alphabet, tree[1])
    if kind == "inv":
        # fold a chain of primes by parity, so long chains do not recurse
        flips = 0
        while tree[0] == "inv":
            tree, flips = tree[1], flips + 1
        x = evaluate_elements(tree, alphabet)
        return x.inverse() if flips % 2 else x
    acc = one(alphabet)
    for f in tree[1]:
        acc = acc * evaluate_elements(f, alphabet)
    return acc
