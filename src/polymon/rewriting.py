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

``collapse_witness`` searches the congruence generated by one pair for a
derivation of (0, 1): identifying any two distinct elements collapses
the whole monoid.  Not finding one within the depth budget is a legal
outcome, reported as None, never as an error.  A derivation is a chain:
each pair follows from the one before by a left or right multiplication
or a swap.  The search runs on bare normal forms through ``core.mul_nf``;
the derivation it returns, and ``verify_derivation`` replaying it, use
``Element``.  The test suite keeps the same search over ``Element`` pairs
as its oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import Alphabet, Element, NormalForm, elements_of_size, mul_nf, one, zero
from .errors import AlphabetMismatch, EqualPair, UnknownLetter, ZeroArgument

FreeWord = Tuple[int, ...]

SEED = "seed"
LEFT_MULTIPLY = "left-multiply"
RIGHT_MULTIPLY = "right-multiply"
SYMMETRY = "symmetry"


def free_word(x: Element) -> FreeWord:
    """Signed-letter string of a nonzero element: u reversed-inverted, then v."""
    if x.u is None or x.v is None:
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


# -- congruence collapse ------------------------------------------------


@dataclass(frozen=True)
class DerivationStep:
    """One pair of a derivation and the rule deriving it from the pair before."""

    rule: str
    pair: Tuple[Element, Element]
    by: Optional[Element] = None  # multiplier for left/right-multiply

    def to_json(self) -> dict:
        out: dict = {"rule": self.rule, "pair": [self.pair[0].to_json(), self.pair[1].to_json()]}
        if self.by is not None:
            out["by"] = self.by.to_json()
        return out


@dataclass(frozen=True)
class Derivation:
    """Chain of pairs from a seed identification down to (0, 1)."""

    steps: Tuple[DerivationStep, ...]

    @property
    def final_pair(self) -> Tuple[Element, Element]:
        return self.steps[-1].pair

    @property
    def depth(self) -> int:
        """Steps after the seed."""
        return len(self.steps) - 1

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps]}


def verify_derivation(d: Derivation, seed: Optional[Tuple[Element, Element]] = None) -> None:
    """Replay a derivation with the closed-form product, each step from the
    one before; raise ValueError on the first step its rule does not give."""
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


def multiplier_pool(a: Element, b: Element) -> List[Element]:
    """Ball of radius 2 over the letters occurring in a, b plus one fresh
    letter (the smallest non-occurring index, when the alphabet has one),
    in enumeration order with Zero first."""
    ab = a.alphabet
    occurring = set(a.letters() | b.letters())
    fresh = 0
    while fresh in occurring:
        fresh += 1
    if fresh in ab:
        occurring.add(fresh)
    letters = sorted(occurring)
    pool = [zero(ab), one(ab)]
    for total in (1, 2):
        pool.extend(elements_of_size(ab, letters, total))
    return pool


def collapse_witness(a: Element, b: Element, max_depth: int = 8) -> Optional[Derivation]:
    """Search the congruence generated by identifying a with b for a
    derivation of (0, 1); None when none exists within max_depth.

    Breadth-first over ordered pairs.  Moves from (x, y), in order: left
    multiplication by each pool element, right multiplication by each,
    then symmetry.  Queue and pool order are fixed, so the derivation
    found for given inputs is reproducible.  Diagonal pairs are pruned:
    every move sends (x, x) to another diagonal pair, which can never
    become (0, 1).  A negative max_depth raises ValueError.

    The search runs on bare normal forms, (u, v) or None for Zero, and
    multiplies with ``mul_nf``; only the pairs on the returned chain
    become ``Element``s again.
    """
    if max_depth < 0:
        raise ValueError(f"depth budget must be nonnegative, got {max_depth}")
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if a == b:
        raise EqualPair(f"seed must identify two distinct elements, got {a} twice")
    seed = (_bare(a), _bare(b))
    target = (None, ((), ()))
    if seed == target:
        return Derivation((DerivationStep(SEED, (a, b)),))

    pool = multiplier_pool(a, b)
    factors = [(m.u, m.v) for m in pool]
    # rule and multiplier of each move, in the order of the move list below
    labels = [(LEFT_MULTIPLY, m) for m in pool] + [(RIGHT_MULTIPLY, m) for m in pool] + [(SYMMETRY, None)]
    parent: Dict[tuple, Optional[tuple]] = {seed: None}
    queue: deque = deque([(seed, 0)])
    while queue:
        state, depth = queue.popleft()
        if depth >= max_depth:
            continue
        x, y = state
        xu, xv = x or (None, None)
        yu, yv = y or (None, None)
        moves = [(mul_nf(p, q, xu, xv), mul_nf(p, q, yu, yv)) for p, q in factors]
        moves += [(mul_nf(xu, xv, p, q), mul_nf(yu, yv, p, q)) for p, q in factors]
        moves.append((y, x))
        for i, nxt in enumerate(moves):
            if nxt[0] == nxt[1] or nxt in parent:
                continue
            parent[nxt] = (state, labels[i])
            if nxt == target:
                return _chain(parent, (a, b), nxt)
            queue.append((nxt, depth + 1))
    return None


def _bare(x: Element) -> Optional[NormalForm]:
    return None if x.u is None or x.v is None else (x.u, x.v)


def _element(alphabet: Alphabet, nf: Optional[NormalForm]) -> Element:
    return Element(alphabet, None, None) if nf is None else Element(alphabet, nf[0], nf[1])


def _chain(parent: dict, seed: Tuple[Element, Element], final: tuple) -> Derivation:
    ab = seed[0].alphabet
    hops = []
    state = final
    while parent[state] is not None:
        prev, (rule, m) = parent[state]
        hops.append(DerivationStep(rule, (_element(ab, state[0]), _element(ab, state[1])), by=m))
        state = prev
    hops.append(DerivationStep(SEED, seed))
    return Derivation(tuple(reversed(hops)))
