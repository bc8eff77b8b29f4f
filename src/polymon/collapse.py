"""Congruence collapse: a derivation of (0, 1) from one identified pair.

``collapse_witness`` searches the congruence generated by one pair for a
derivation of (0, 1): identifying any two distinct elements collapses
the whole monoid.  Not finding one within the depth budget is a legal
outcome, reported as None, never as an error.  A derivation is a chain:
each pair follows from the one before by a left or right multiplication
or a swap.  The search runs on bare normal forms through ``core.mul_nf``,
and the derivation it returns holds ``Element``s; ``verify_derivation``
replays it on their bare pairs, through ``mul_nf`` too.  The test suite
keeps the breadth-first search that generates every level, over
``Element`` pairs, and the replay that multiplies ``Element``s, as
oracles.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .core import Alphabet, Element, NormalForm, Word, _Value, mul_nf, normal_forms
from .errors import AlphabetMismatch, EqualPair

SEED = "seed"
LEFT_MULTIPLY = "left-multiply"
RIGHT_MULTIPLY = "right-multiply"
SYMMETRY = "symmetry"


class DerivationStep(_Value):
    """One pair of a derivation and the rule deriving it from the pair
    before; ``by`` is the multiplier of a left or right multiplication."""

    __slots__ = _fields = ("rule", "pair", "by")

    def __init__(self, rule: str, pair: Tuple[Element, Element], by: Optional[Element] = None) -> None:
        _set_rule(self, rule)
        _set_pair(self, pair)
        _set_by(self, by)

    def to_json(self) -> dict:
        out: dict = {"rule": self.rule, "pair": [self.pair[0].to_json(), self.pair[1].to_json()]}
        if self.by is not None:
            out["by"] = self.by.to_json()
        return out


# DerivationStep's slot writers, as core keeps Element's
_set_rule, _set_pair, _set_by = (getattr(DerivationStep, n).__set__ for n in DerivationStep._fields)


class Derivation(_Value):
    """Chain of pairs from a seed identification down to (0, 1)."""

    __slots__ = _fields = ("steps",)

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
    one before; raise ValueError on the first step its rule does not give.

    A multiplication is replayed on bare pairs: the multiplier's alphabet
    is checked against the pair's as ``Element.__mul__`` checks it, the
    expected pair is computed with ``mul_nf``, and it is compared with the
    step's ``(u, v)`` pairs and alphabets as ``==`` compares them.  The
    final pair is checked against (0, 1) the same way: no ``Element`` is
    built for an expected pair."""
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
            ok = step.pair == (py, px)
        elif step.rule not in (LEFT_MULTIPLY, RIGHT_MULTIPLY):
            raise ValueError(f"step {i}: unknown rule {step.rule!r}")
        elif m is None:
            ok = False  # a multiplication without its multiplier never replays
        else:
            ab, (sx, sy) = m.alphabet, step.pair
            if step.rule == LEFT_MULTIPLY:
                ex, ey = mul_nf(m.u, m.v, px.u, px.v), mul_nf(m.u, m.v, py.u, py.v)
            else:
                ex, ey = mul_nf(px.u, px.v, m.u, m.v), mul_nf(py.u, py.v, m.u, m.v)
            # nor does a product across alphabets
            ok = _over(px, ab) and _over(py, ab) and _is(sx, ab, ex) and _is(sy, ab, ey)
        if not ok:
            raise ValueError(f"step {i}: {step.rule} does not replay")
    ab, (fx, fy) = d.steps[0].pair[0].alphabet, d.final_pair
    if not (_is(fx, ab, (None, None)) and _is(fy, ab, _ONE)):
        raise ValueError("derivation does not end at (0, 1)")


def _over(e: Element, alphabet: Alphabet) -> bool:
    """Whether e is over alphabet, identity first, as ``Element`` checks it."""
    return e.alphabet is alphabet or e.alphabet == alphabet


def _is(e: Element, alphabet: Alphabet, nf: NormalForm) -> bool:
    """Whether e == Element(alphabet, *nf), without building the latter."""
    return (e.u, e.v) == nf and _over(e, alphabet)


def _letters(a: Element, b: Element) -> Tuple[int, ...]:
    """The letters of the collapse search's multipliers, ascending: those
    occurring in a, b plus one fresh letter (the smallest non-occurring
    index, when the alphabet has one)."""
    occurring = {*(a.u or ()), *(a.v or ()), *(b.u or ()), *(b.v or ())}
    fresh = 0
    while fresh in occurring:
        fresh += 1
    if fresh in a.alphabet:
        occurring.add(fresh)
    return tuple(sorted(occurring))


Pool = Tuple[NormalForm, ...]


@lru_cache(maxsize=32)
def _tables(letters: Tuple[int, ...]) -> Tuple[Pool, Dict[NormalForm, int], dict]:
    """The search's tables for one letter tuple, built on its first search
    and shared by every later one: the pool of nonzero multipliers of size
    1 and 2 over those letters, the bare pairs ``core.normal_forms`` lists
    after the identity, in enumeration order; its index, member ->
    position; and the ``_solved`` memo.

    No search writes to the pool or the index, and ``_solved`` only adds
    lists it never changes afterwards.  The cache holds at most 32 letter
    tuples.  For k letters the pool has 2k + 3k² members, and the memo at
    most 6·(1 + k + 3k²) + 2 lists: per side, one for each word of length
    at most 4 by its last two letters and length (1 + k + 3k² of them, as
    every state's letters are the pool's) and each length 0-2 of the
    other component, plus one empty list per side for Zero and every
    longer y."""
    pool = tuple(normal_forms(letters, 2)[1:])
    return pool, {m: i for i, m in enumerate(pool)}, {}


State = Tuple[NormalForm, NormalForm]
Move = Tuple[str, Optional[NormalForm]]  # rule and bare multiplier, None for symmetry
_ONE: NormalForm = ((), ())
_TARGET: State = ((None, None), _ONE)


def collapse_witness(a: Element, b: Element, max_depth: int = 8) -> Optional[Derivation]:
    """Search the congruence generated by identifying a with b for a
    derivation of (0, 1); None when none exists within max_depth.

    The answer is that of a breadth-first search over ordered pairs with
    first-discovery parents.  The pool, 0, 1 and then the pool of
    ``_tables(_letters(a, b))``, is a ball of radius 2 in enumeration
    order.  Moves from (x, y), in order: left multiplication by each pool
    element, right multiplication by each, then symmetry.  Queue and pool
    order are fixed, so the derivation found is the lexicographically
    first shortest one, and reproducible.
    Diagonal pairs are pruned: every move sends (x, x) to another
    diagonal pair, which can never become (0, 1).  A negative max_depth
    raises ValueError.  Multiplying by 0 or 1 gives (0, 0) or the pair
    itself, so only the pool members of size 1 and 2 are tried.

    The search generates states only up to depth max_depth - 2 and finds
    the last two moves by solving.

    The last move.  m·y = 1 forces m = ((), p) and y = (p, ()), and
    y·m = 1 forces y = ((), q) and m = (q, ()).  So (x, y) reaches (0, 1)
    in one move only by a left move by ((), p) when y = (p, ()) and
    ((), p)·x = 0, by a right move by (q, ()) when y = ((), q) and
    x·(q, ()) = 0, or by symmetry when (x, y) = (1, 0); ``_last_move``
    finds it.  Call a pair with a last move a hit.  Whether a pair is a
    hit depends only on the pair.

    The last two moves.  The seed gets the one-move test.  Then, level by
    level, the children of level d (the depth-d states in queue order)
    are scanned in BFS order, states in queue order and each state's
    moves in move order, for the first hit c.  The BFS then ends at
    (0, 1) through c, at depth d + 2, with the parents the scan found:
    1. No state of depth at most d is a hit.  The seed was tested, and
       each state of depth k >= 1 is a child of one of depth k - 1,
       whose scan found no hit; a scan finds one among a state's
       children whenever there is one (see below).  Hence expanding
       levels up to d never discovers (0, 1), and level d + 1 is
       complete.
    2. c is new and non-diagonal.  A diagonal pair is no hit.  A pair
       seen before c in the BFS has depth at most d, so it is no hit by
       1, or it is an earlier child in scan order, which would have been
       an earlier hit.  So the BFS discovers c first where the scan found
       it, and records that parent and move.  Every child before c in scan
       order is no hit, so c is the first hit of level d + 1 in queue
       order: the BFS discovers (0, 1) from it, by c's last move.
    3. Scanning each state when it is discovered finds the same c.
       The search scans the seed, then each state the moment
       ``_children`` yields it.  Queue order is discovery order, so it
       scans level d's states in the level scan's order and stops at the
       same first state with a hit child, with the same (state, move, c,
       last move).  The parent links on that state's chain were recorded
       when it and its ancestors were discovered.  The states after it
       were never used, so they are never generated.
    The scan tries only the moves that can give a hit.  The child
    (m·x, m·y) of a left move is a hit only if it is (1, 0), or if m·y
    is (p, ()) or ((), q) with p or q of length 1 or 2: ``_last_move``
    accepts no other y-side, since every pool member has size 1 or 2.
    m·x = 1 forces m = ((), xu) with x = (xu, ()); that one member is
    tried whatever m·y is.  For every other member, whether m·y has that
    shape depends only on the lengths and last letters ``_solved`` keys
    on, by the closed form of ``*``, and ``_solved`` lists exactly the
    members for which it has.  So the scan computes the children of the
    listed moves only, and ``_last_move`` decides each.  The children it
    skips hold no hit, so it finds the same first hit in scan order, and
    the same derivation.  Right moves mirror this.  The swap never gives
    the first hit: if (y, x) has a last move, a left or right move by
    that multiplier takes (x, y) to (1, 0), earlier in move order.  A
    state of depth d is scanned only when d + 2 <= max_depth, so level
    d + 1 is generated only while d + 3 <= max_depth.

    The search runs on bare normal forms, the (u, v) of ``Element``'s
    fields with (None, None) for Zero, and multiplies with ``mul_nf``;
    only the pairs and multipliers on the returned chain become
    ``Element``s.  Its pool, index and ``_solved`` memo depend only on
    the letters, and ``_tables`` keeps them across searches.
    """
    if max_depth < 0:
        raise ValueError(f"depth budget must be nonnegative, got {max_depth}")
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if a == b:
        raise EqualPair(f"seed must identify two distinct elements, got {a} twice")
    ab = a.alphabet
    seed: State = ((a.u, a.v), (b.u, b.v))
    if seed == _TARGET:
        return Derivation((DerivationStep(SEED, (a, b)),))

    pool, index, solved = _tables(_letters(a, b))
    parent: Dict[State, Optional[Tuple[State, Move]]] = {seed: None}
    last = _last_move(seed, index) if max_depth >= 1 else None
    if last is not None:
        return _chain(ab, (a, b), parent, seed, [(last, _TARGET)])
    hit = _scan(seed, pool, index, solved) if max_depth >= 2 else None
    level, depth = [seed], 0
    while hit is None and level and depth + 3 <= max_depth:
        nxt = []
        for state in _children(level, pool, parent):
            nxt.append(state)
            hit = _scan(state, pool, index, solved)
            if hit is not None:
                break
        level, depth = nxt, depth + 1
    if hit is None:
        return None
    state, move, child, last = hit
    return _chain(ab, (a, b), parent, state, [(move, child), (last, _TARGET)])


def _last_move(state: State, index: Dict[NormalForm, int]) -> Optional[Move]:
    """The move taking state to (0, 1), or None; index holds the pool."""
    (xu, xv), (yu, yv) = state
    if yu is None:
        return (SYMMETRY, None) if state[0] == _ONE else None
    if not yv and ((), yu) in index and mul_nf((), yu, xu, xv)[0] is None:
        return LEFT_MULTIPLY, ((), yu)
    if not yu and (yv, ()) in index and mul_nf(xu, xv, yv, ())[0] is None:
        return RIGHT_MULTIPLY, (yv, ())
    return None


def _solved(pool: Pool, index: Dict[NormalForm, int], cache: dict, side: int,
            word: Optional[Word], other: Optional[Word], extra: Optional[NormalForm]) -> List[int]:
    """Pool indices, ascending, of the members m whose child can finish:
    m's product with y on side (m * y with y = (word, other) for side 1,
    y * m with y = (other, word) for side 0) is nonzero and has one empty
    component and the other of length 1 or 2; plus extra's.  Zero's word
    None has no such member.  A missing list is filled by computing those
    products with ``mul_nf`` for the y that asks for it.

    Every y with the same key gets the same list.  Let s = m[side], c =
    |s|, o = |m[1 - side]|, w = |word| and t = |other|.  The product is
    nonzero exactly when s and word are suffix-comparable, ((), s) *
    (word, ()) not Zero, and then its component lengths are {o, c - w + t}
    if c >= w and {w - c + o, t} otherwise.  Members have size at most 2,
    so word[-2:] decides comparability, and no member qualifies once
    w >= 5 or t >= 3.  The cache is keyed on side, word[-2:], w and t, and
    a y with w >= 5 or t >= 3 shares the empty list of Zero's key, side.
    Every search over the same letters shares the cached lists, so they
    are only read; adding extra makes a new list.  Lists, not tuples:
    freed tuples of a dozen different lengths would pile up in the
    interpreter's tuple free lists."""
    if word is None or len(word) > 4 or len(other) > 2:
        key = side
    else:
        key = side, word[-2:], len(word), len(other)
    got = cache.get(key)
    if got is None:
        got = cache[key] = []
        for i, (p, q) in enumerate(pool):
            u, v = mul_nf(p, q, word, other) if side else mul_nf(other, word, p, q)
            if u is not None and (not u) != (not v) and len(u) + len(v) <= 2:
                got.append(i)
    i = None if extra is None else index.get(extra)
    if i is not None and i not in got:
        got = sorted(got + [i])
    return got


def _scan(state: State, pool: Pool, index: Dict[NormalForm, int], cache: dict) -> Optional[tuple]:
    """The first child of state that is a hit, in move order, as (state,
    move, child, last move); None when there is none.  Only the moves
    ``_solved`` lists can give it, and only their children are computed;
    the swap never gives it."""
    (xu, xv), (yu, yv) = state
    for i in _solved(pool, index, cache, 1, yu, yv, ((), xu) if xv == () else None):
        p, q = pool[i]
        child = (mul_nf(p, q, xu, xv), mul_nf(p, q, yu, yv))
        last = _last_move(child, index)
        if last is not None:
            return state, (LEFT_MULTIPLY, pool[i]), child, last
    for i in _solved(pool, index, cache, 0, yv, yu, (xv, ()) if xu == () else None):
        p, q = pool[i]
        child = (mul_nf(xu, xv, p, q), mul_nf(yu, yv, p, q))
        last = _last_move(child, index)
        if last is not None:
            return state, (RIGHT_MULTIPLY, pool[i]), child, last
    return None


def _children(level: List[State], pool: Pool, parent: dict) -> Iterator[State]:
    """The next level, lazily: the new non-diagonal children of level's
    states in BFS order, each recorded in parent with its first-discovery
    move as it is yielded.  A child's products are computed only when the
    caller asks for the next state."""
    for state in level:
        (xu, xv), (yu, yv) = state
        for m in pool:
            p, q = m
            child = (mul_nf(p, q, xu, xv), mul_nf(p, q, yu, yv))
            if child[0] != child[1] and child not in parent:
                parent[child] = (state, (LEFT_MULTIPLY, m))
                yield child
        for m in pool:
            p, q = m
            child = (mul_nf(xu, xv, p, q), mul_nf(yu, yv, p, q))
            if child[0] != child[1] and child not in parent:
                parent[child] = (state, (RIGHT_MULTIPLY, m))
                yield child
        child = state[::-1]  # never diagonal: level's states are not
        if child not in parent:
            parent[child] = (state, (SYMMETRY, None))
            yield child


def _chain(alphabet: Alphabet, seed: Tuple[Element, Element], parent: dict, state: State,
           tail: List[Tuple[Move, State]]) -> Derivation:
    """The derivation from seed through the parent links to state, then
    the (move, pair) steps of tail."""
    hops = []
    while parent[state] is not None:
        prev, move = parent[state]
        hops.append((move, state))
        state = prev
    steps = [DerivationStep(SEED, seed)]
    for (rule, m), (x, y) in hops[::-1] + tail:
        by = None if m is None else Element(alphabet, *m)
        steps.append(DerivationStep(rule, (Element(alphabet, *x), Element(alphabet, *y)), by=by))
    return Derivation(tuple(steps))
