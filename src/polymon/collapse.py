"""Congruence collapse: a derivation of (0, 1) from one identified pair.

Over two or more letters the polycyclic monoid is congruence-free
(Nivat and Perrot, 1970): identifying any two distinct elements
collapses the whole monoid, so the congruence generated by one pair
holds (0, 1).  A derivation shows it as a chain: each pair follows from
the one before by a left or right multiplication or a swap.
``collapse_witness`` builds the shortest chain, with multipliers of any
size, in closed form: it has at most three steps.  A depth budget below
its length is a legal outcome, reported as None, never as an error.
``verify_derivation`` replays a chain on the bare pairs of its
``Element``s.  Both compute a multiplication's bare pair with one
function, ``_derive``, through ``core.mul_nf``.  The test suite keeps one
oracle for each: a replay that multiplies ``Element``s, and a
minimality search that tries every shorter chain with multipliers from
a larger ball and finds none.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import Element, NormalForm, _Value, mul_nf
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

    A multiplication is replayed on bare pairs: the expected pair is
    computed by ``_derive``, as ``collapse_witness`` computes it, and
    compared with the step's ``(u, v)`` pairs; the alphabets of the
    multiplier and of both pairs must be one object, as ``Element.__mul__``
    and ``==`` require; and each letter of the multiplier must be in its
    alphabet by ``Alphabet.__contains__``, the definition of a letter.
    The final pair is checked against (0, 1) the same way: no ``Element``
    is built for an expected pair."""
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
        else:
            sx, sy = step.pair
            # a multiplication never replays without its multiplier, across
            # alphabets, or by letters outside the multiplier's own
            ok = (m is not None and ((sx.u, sx.v), (sy.u, sy.v)) == _derive(step.rule, m, px, py)
                  and px.alphabet is py.alphabet is sx.alphabet is sy.alphabet is m.alphabet
                  and (m.u is None or all(map(m.alphabet.__contains__, m.u + m.v))))
        if not ok:
            raise ValueError(f"step {i}: {step.rule} does not replay")
    ab, (fx, fy) = d.steps[0].pair[0].alphabet, d.final_pair
    if not (fx.alphabet is fy.alphabet is ab and ((fx.u, fx.v), (fy.u, fy.v)) == ((None, None), _ONE)):
        raise ValueError("derivation does not end at (0, 1)")


def _derive(rule: str, m: Optional[Element], x: Element, y: Element) -> Tuple[NormalForm, NormalForm]:
    """The bare pair one step by ``rule`` derives from (x, y): a left or a
    right multiplication by m through ``mul_nf``, or a swap."""
    if rule == LEFT_MULTIPLY:
        return mul_nf(m.u, m.v, x.u, x.v), mul_nf(m.u, m.v, y.u, y.v)
    if rule == RIGHT_MULTIPLY:
        return mul_nf(x.u, x.v, m.u, m.v), mul_nf(y.u, y.v, m.u, m.v)
    return (y.u, y.v), (x.u, x.v)


Move = Tuple[str, Optional[NormalForm]]  # rule and bare multiplier, None for symmetry
_ONE: NormalForm = ((), ())


def collapse_witness(a: Element, b: Element, max_depth: int = 8) -> Optional[Derivation]:
    """The shortest derivation of (0, 1) from identifying a with b, with
    multipliers of any size; None when it is longer than max_depth.  A
    negative max_depth raises ValueError.

    A chain is (L, R, parity).  A left and a right multiplication commute,
    by associativity, and a swap commutes with both.  So a chain ends at
    (L·a·R, L·b·R), or at its swap when it swaps an odd number of times,
    where L is the product of its left multipliers and R that of its right
    ones, and its depth is at least [L != 1] + [R != 1] + [odd swaps].  One
    left step by L, one right step by R and at most one swap reach the same
    end.  So the shortest depth is min(A(a, b), A(b, a) + 1), where A(x, y)
    is the least [L != 1] + [R != 1] over the (L, R) with L·x·R = 0 and
    L·y·R = 1, and infinite when there is none.

    Every such (L, R).  By the two cases of ``mul_nf``, the first component
    of a nonzero product (u, v)·(p, q) ends with u and its second ends with
    q.  So L·y·R = 1 = ((), ()) forces L = ((), t), R = (r, ()) and y =
    (p, q) nonzero.  ((), t)·(p, q) has an empty first component only when
    t = w + p for a word w, and is then ((), w + q); ((), w + q)·(r, ()) = 1
    only when r = w + q.  Every w gives L·y·R = 1, and since ((), w + p) =
    ((), w)·((), p) and (w + q, ()) = (q, ())·(w, ()), L·x·R = ((), w)·c·(w, ())
    with c = ((), p)·x·(q, ()).

    The cost A(x, y).  If y = 0, no (L, R) exists.  If c = 0, w = () gives
    [p != ()] + [q != ()], which no longer w beats.  If c = 1, every w gives
    L·x·R = 1, so none exists.  Otherwise w must be nonempty, which costs 2,
    and w = (z,) gives ((), z)·c·(z, ()) = 0 when z is not the last letter of
    c's first component, or of its second when the first is empty: z then
    fails the suffix test of ``mul_nf`` on that side.  The smallest such z
    is taken; it exists because the alphabet has two letters.

    The orientation.  The chain without a swap is never the longer one when
    A(a, b) is finite: then A(a, b) <= 2, and A(b, a) + 1 < 2 only for
    (a, b) = (1, 0), where A(a, b) is infinite.  Otherwise the swap is
    feasible.  If b = 0, then
    a != 0 and the c of A(b, a) is 0.  If the c of A(a, b) is 1, then a =
    (p0, q0) with p = w + p0 and q = w + q0, by the paragraph before applied
    to a, and w != () since a != b; the c of A(b, a) is then (w, w), neither
    0 nor 1.

    The derivation: the left step comes before the right one, an identity
    multiplier is left out, and with a swap (a, b) is multiplied to (1, 0)
    and the swap comes last.  It takes at most eight ``mul_nf`` calls, so
    O(|a| + |b|) time.
    """
    if max_depth < 0:
        raise ValueError(f"depth budget must be nonnegative, got {max_depth}")
    if a.alphabet is not b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if a == b:
        raise EqualPair(f"seed must identify two distinct elements, got {a} twice")
    x, y = (a.u, a.v), (b.u, b.v)
    moves = _moves(x, y)
    if moves is None:
        moves = _moves(y, x) + [(SYMMETRY, None)]
    if len(moves) > max_depth:
        return None
    ab = a.alphabet
    steps = [DerivationStep(SEED, (a, b))]
    for rule, m in moves:
        by = None if m is None else Element(ab, *m)
        nx, ny = _derive(rule, by, *steps[-1].pair)
        steps.append(DerivationStep(rule, (Element(ab, *nx), Element(ab, *ny)), by=by))
    return Derivation(tuple(steps))


def _moves(x: NormalForm, y: NormalForm) -> Optional[List[Move]]:
    """The moves of A(x, y): a left one by L and a right one by R, those that
    are not the identity, with L·x·R = 0 and L·y·R = 1; None when no (L, R)
    exists."""
    p, q = y
    if p is None:
        return None
    s, t = mul_nf(*mul_nf((), p, *x), q, ())
    if s is None:
        w = ()
    elif s or t:
        w = (1,) if (s or t)[-1] == 0 else (0,)
    else:
        return None
    return [(rule, m) for rule, m in ((LEFT_MULTIPLY, ((), w + p)), (RIGHT_MULTIPLY, (w + q, ()))) if m != _ONE]
