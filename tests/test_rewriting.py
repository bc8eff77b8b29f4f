"""Free-word reduction oracle and the shortest congruence-collapse derivation."""

import collections
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    elements_of_size,
    elements_st,
    letter_probes,
    reduce_stepwise,
    verify_derivation_elements,
)
from polymon import (
    Alphabet,
    AlphabetMismatch,
    Element,
    EqualPair,
    PolymonError,
    UnknownLetter,
    ZeroArgument,
    ball,
    collapse_witness,
    element,
    evaluate,
    free_word,
    generator,
    mul_oracle,
    one,
    parse,
    reduce,
    verify_derivation,
    zero,
)
from polymon.core import mul_nf
from polymon.collapse import (
    LEFT_MULTIPLY,
    RIGHT_MULTIPLY,
    SEED,
    SYMMETRY,
    Derivation,
    DerivationStep,
)

AB2 = Alphabet(2)
A, B = generator(AB2, 0), generator(AB2, 1)
ONE, ZERO = one(AB2), zero(AB2)


def test_reduce_relations():
    assert reduce(AB2, [1, -1]) == ONE
    assert reduce(AB2, [1, -2]) == ZERO
    assert reduce(AB2, []) == ONE


def test_inert_junction_is_normal_form():
    # b' a' a b: the only adjacent opposite pair is (a, a'); after it
    # cancels, b' b remains with the inverted letter first, which is inert
    w = [-2, -1, 1, 2]
    got = reduce(AB2, w)
    assert got == element(AB2, (0, 1), (0, 1))
    assert got == element(AB2, (0, 1), ()) * element(AB2, (), (0, 1))


def test_reduce_validates_letters():
    with pytest.raises(UnknownLetter):
        reduce(AB2, [6])  # letter 5
    with pytest.raises(UnknownLetter):
        reduce(AB2, [0])  # 0 is not a valid signed letter
    # a letter that is no number is rejected before abs sees it, named by repr
    for bad, shown in ((None, "None"), ("a", "'a'"), ((1,), "(1,)")):
        with pytest.raises(UnknownLetter) as exc:
            reduce(AB2, [1, bad])
        assert str(exc.value) == f"signed letter {shown} invalid for alphabet of size 2"
    # ``in`` is the oracle of reduce's inline test, on s = v and s = -v
    for size in (2, 3, None):
        ab = Alphabet(size)
        for v in letter_probes(size):
            for s in (v, -v) if isinstance(v, int) else (v,):
                bad = not isinstance(s, int) or type(s) is bool or s == 0 or abs(s) - 1 not in ab
                if not bad:
                    assert reduce(ab, (s,)) == (generator(ab, s - 1) if s > 0 else generator(ab, -s - 1).inverse())
                    continue
                with pytest.raises(UnknownLetter) as exc:
                    reduce(ab, (s,))
                assert str(exc.value) == f"signed letter {s!r} invalid for alphabet of size {size}"


def test_reduce_reads_a_one_shot_iterator():
    # one pass: an iterator gives the same answer as the tuple it yields
    signed = (1, 2, -1, -2)
    for n in range(6):
        for w in itertools.product(signed, repeat=n):
            assert reduce(AB2, iter(w)) == reduce(AB2, tuple(w))


def test_reduce_checks_letters_after_the_zero_point():
    # a b' is already Zero, yet the bad letter after it still raises
    with pytest.raises(UnknownLetter) as exc:
        reduce(AB2, iter([1, -2, 6]))
    assert str(exc.value) == "signed letter 6 invalid for alphabet of size 2"


def test_free_word_round_trip():
    x = element(AB2, (0, 1), (1,))
    assert free_word(x) == (-2, -1, 2)
    assert reduce(AB2, free_word(x)) == x
    assert free_word(ONE) == ()
    with pytest.raises(ZeroArgument):
        free_word(ZERO)


@given(elements_st(3, zero_ok=False))
def test_free_word_reduces_back(x):
    assert reduce(x.alphabet, free_word(x)) == x


def test_oracle_multiplication_examples():
    ab_word = element(AB2, (), (0, 1))
    assert mul_oracle(ab_word, B.inverse()) == A
    assert mul_oracle(ab_word, A.inverse()) == ZERO
    assert mul_oracle(B, ab_word.inverse()) == A.inverse()
    assert mul_oracle(ZERO, A) == ZERO and mul_oracle(A, ZERO) == ZERO


def test_oracle_rejects_a_product_across_alphabets():
    with pytest.raises(AlphabetMismatch):
        mul_oracle(A, generator(Alphabet(3), 0))


@given(elements_st(3), elements_st(3))
def test_oracle_matches_closed_form(x, y):
    assert mul_oracle(x, y) == x * y


signed_words = st.lists(st.sampled_from([1, 2, -1, -2]), max_size=10)


@given(signed_words)
def test_reduction_is_strategy_independent(w):
    left = reduce_stepwise(AB2, w, "leftmost")
    right = reduce_stepwise(AB2, w, "rightmost")
    assert left == right == reduce(AB2, w)


@given(signed_words)
def test_reduce_is_idempotent(w):
    r = reduce(AB2, w)
    if not r.is_zero:
        assert reduce(AB2, free_word(r)) == r


def padded_word(rng: random.Random, letters: list, max_len: int) -> list:
    """The free word of a random normal form, with cancelling pairs s s'
    put in at random places, so that it keeps its (nonzero) value."""
    w = [-rng.choice(letters) for _ in range(rng.randint(0, 4))] + [rng.choice(letters) for _ in range(rng.randint(0, 4))]
    while len(w) + 2 <= max_len and rng.random() < 0.9:
        k, s = rng.randint(0, len(w)), rng.choice(letters)
        w[k:k] = [s, -s]
    return w


@pytest.mark.parametrize("ab, letters", [(Alphabet(3), [1, 2, 3]), (Alphabet(None), [1, 2, 3, 27, 10**9])])
@given(seed=st.integers(0, 2**32 - 1), padded=st.booleans(), size=st.integers(0, 30))
def test_reduce_agrees_with_stepwise_on_larger_alphabets(ab, letters, seed, padded, size):
    rng = random.Random(seed)
    if padded:
        w = padded_word(rng, letters, size)
    else:
        w = [rng.choice(letters) * rng.choice((1, -1)) for _ in range(size)]
    got = reduce(ab, w)
    assert got == reduce_stepwise(ab, w, "leftmost") == reduce_stepwise(ab, w, "rightmost")
    if padded:
        assert not got.is_zero


REDUCE_SHA256 = "ef064df8b5c21b1d5ca817a59dcab01263a39d24735b3430071b86923a8faaa9"


def reduce_outcome_words():
    """Every word of up to 5 letters over {0, ±1, ±2, ±3} on λ = 2 and 3,
    then 2000 seeded random words of up to 40 letters over λ = 2, 3 and ∞,
    half of them padded normal forms, with True, 0 and letters past the
    alphabet mixed in."""
    cases = []
    for ab in (AB2, Alphabet(3)):
        layer = [()]
        for _ in range(6):
            cases += [(ab, w) for w in layer]
            layer = [w + (s,) for w in layer for s in (0, 1, -1, 2, -2, 3, -3)]
    rng = random.Random(20)
    for _ in range(2000):
        lam = rng.choice((2, 3, None))
        letters = list(range(1, (lam or 4) + 1)) + ([] if lam else [10**30])
        if rng.random() < 0.5:
            w = padded_word(rng, letters, 40)
        else:
            w = [rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(0, 40))]
        for k in range(len(w)):
            if rng.random() < 0.02:
                w[k] = rng.choice((True, 0, -(lam or 0) - 1))
        cases.append((Alphabet(lam), tuple(w)))
    return cases


def test_reduce_outcomes_are_pinned():
    records = []
    for ab, w in reduce_outcome_words():
        try:
            records.append(reduce(ab, w).to_json())
        except PolymonError as err:
            records.append([type(err).__name__, str(err)])
    blob = json.dumps(records, ensure_ascii=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REDUCE_SHA256


def test_collapse_seed_already_at_target():
    d = collapse_witness(ZERO, ONE)
    assert [s.rule for s in d.steps] == [SEED]
    assert d.depth == 0
    verify_derivation(d, seed=(ZERO, ONE))


@pytest.mark.parametrize("seed, steps", [
    ((ONE, ZERO), [(SYMMETRY, None, (ZERO, ONE))]),
    ((ZERO, A), [(RIGHT_MULTIPLY, A.inverse(), (ZERO, ONE))]),
    ((A, ZERO), [(RIGHT_MULTIPLY, A.inverse(), (ONE, ZERO)), (SYMMETRY, None, (ZERO, ONE))]),
])
def test_collapse_zero_seeds(seed, steps):
    # Zero on either side of the seed, and Zero reached by a step
    d = collapse_witness(*seed)
    assert [(s.rule, s.by, s.pair) for s in d.steps] == [(SEED, None, seed), *steps]
    verify_derivation(d, seed=seed)


def test_collapse_idempotent_unit_chain():
    e = A.inverse() * A
    d = collapse_witness(e, ONE)
    assert [(s.rule, s.by, s.pair) for s in d.steps] == [
        (SEED, None, (e, ONE)),
        (LEFT_MULTIPLY, B, (ZERO, B)),
        (RIGHT_MULTIPLY, B.inverse(), (ZERO, ONE)),
    ]
    assert d.depth == 2
    verify_derivation(d, seed=(e, ONE))


def test_collapse_two_generators():
    d = collapse_witness(A, B)
    assert d.final_pair == (ZERO, ONE)
    assert d.depth == 1
    verify_derivation(d, seed=(A, B))


def test_collapse_guards():
    with pytest.raises(EqualPair):
        collapse_witness(A, A)
    with pytest.raises(AlphabetMismatch):
        collapse_witness(A, one(Alphabet(3)))


def test_collapse_not_found_is_none():
    assert collapse_witness(A, B, max_depth=0) is None


def test_collapse_rejects_negative_depth():
    with pytest.raises(ValueError):
        collapse_witness(A, B, max_depth=-1)
    with pytest.raises(ValueError):
        collapse_witness(ZERO, ONE, max_depth=-1)


def test_collapse_is_deterministic():
    assert collapse_witness(A, B) == collapse_witness(A, B)
    d1 = collapse_witness(A.inverse(), B.inverse())
    d2 = collapse_witness(A.inverse(), B.inverse())
    assert d1.to_json() == d2.to_json()


RADIUS_1 = [
    (2, 30, "0632f0fac6b53e905b942452545cfb0c86f80ed059fee318ce434afbcbed5a50"),
    (3, 56, "2251d2314bb21ca93e8531f3c9d09af0d63a174dc289996f652befb2935f2cf7"),
]


@pytest.mark.parametrize("lam, pairs, digest", RADIUS_1)
def test_collapse_derivations_pinned_on_radius_1(lam, pairs, digest):
    # every ordered pair of distinct radius-1 elements, in ball order, at depth 8
    elems = list(ball(Alphabet(lam), 1))
    blobs = [collapse_witness(x, y, 8).to_json() for x in elems for y in elems if x != y]
    assert len(blobs) == pairs
    text = json.dumps(blobs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _deep_pairs(seed, count):
    """count seeded pairs of sizes 5-8 for each of lambda = 2, 3, inf and
    each depth budget 4, 5, 6, as (x, y, depth).  Over lambda = inf each
    pair uses two letters drawn from a through g29."""
    rng = random.Random(seed)

    def draw(ab, letters):
        w = [rng.choice(letters) for _ in range(rng.randint(5, 8))]
        cut = rng.randint(0, len(w))
        return Element(ab, tuple(w[:cut]), tuple(w[cut:]))

    out = []
    for lam in (2, 3, None):
        ab = Alphabet(lam)
        for depth in (4, 5, 6):
            n = 0
            while n < count:
                letters = rng.sample(range(30), 2) if lam is None else range(lam)
                x, y = draw(ab, letters), draw(ab, letters)
                if x != y:
                    out.append((x, y, depth))
                    n += 1
    return out


def test_collapse_derivations_pinned_on_deep_pairs():
    # 36 pairs, 5 found at depth 1 and 31 at depth 2, all within budget
    blobs = []
    for x, y, depth in _deep_pairs(10, 4):
        d = collapse_witness(x, y, depth)
        blobs.append(None if d is None else d.to_json())
    assert len(blobs) == 36
    text = json.dumps(blobs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "d0c544f33716bfb61a856bf9dd38a94ea4f9ed6542d218044bb003650c93602e"


def test_collapse_depth_5_miss_on_the_long_pair():
    # with multipliers of any size the pair collapses in two steps, so a
    # budget of 5 finds it and only a budget below 2 misses
    x = evaluate(parse("a'a'b'b'a'b'b'a'a'b'a'b'", AB2), AB2)
    y = evaluate(parse("aabbbbaabbab", AB2), AB2)
    d = collapse_witness(x, y, 5)
    assert [(s.rule, s.by, s.pair) for s in d.steps] == [
        (SEED, None, (x, y)),
        (LEFT_MULTIPLY, B, (ZERO, evaluate(parse("baabbbbaabbab", AB2), AB2))),
        (RIGHT_MULTIPLY, evaluate(parse("b'a'b'b'a'a'b'b'b'b'a'a'b'", AB2), AB2), (ZERO, ONE)),
    ]
    verify_derivation(d, (x, y))
    assert collapse_witness(x, y, 1) is None


def _inf_ball(letters, radius):
    ab = Alphabet(None)
    return [zero(ab)] + [e for n in range(radius + 1) for e in elements_of_size(ab, letters, n)]


# Over lambda = inf the pairs use the letters a, c, g27, and the pool adds
# b, the smallest letter that none of them uses.
@pytest.mark.parametrize("lam, radius, pool_radius", [(2, 2, 4), (3, 2, 3), (None, 2, 3)])
def test_collapse_is_shortest_over_a_larger_pool(lam, radius, pool_radius):
    # every ordered pair of the radius ball against every chain of depth
    # at most 2 with multipliers from the pool_radius ball, on bare pairs:
    # no chain reaches (0, 1) in fewer steps than the answer, and each
    # budget finds the answer exactly when it is no shorter
    if lam:
        elems, pool = list(ball(Alphabet(lam), radius)), ball(Alphabet(lam), pool_radius)
    else:
        elems, pool = _inf_ball((0, 2, 27), radius), _inf_ball((0, 1, 2, 27), pool_radius)
    pool = [(m.u, m.v) for m in pool]
    zero_nf, one_nf = (None, None), ((), ())
    finishers = {}

    def ends(x, y):
        """Whether one step takes (x, y) to (0, 1)."""
        if y not in finishers:
            finishers[y] = ([m for m in pool if mul_nf(*m, *y) == one_nf],
                            [m for m in pool if mul_nf(*y, *m) == one_nf])
        left, right = finishers[y]
        return ((x, y) == (one_nf, zero_nf) or any(mul_nf(*m, *x)[0] is None for m in left)
                or any(mul_nf(*x, *m)[0] is None for m in right))

    depths = collections.Counter()
    for a, b in [(a, b) for a in elems for b in elems if a != b]:
        d = collapse_witness(a, b)
        verify_derivation(d, (a, b))
        assert [collapse_witness(a, b, k) for k in range(5)] == [d if k >= d.depth else None for k in range(5)]
        depths[d.depth] += 1
        x, y = (a.u, a.v), (b.u, b.v)
        assert d.depth == 0 or (x, y) != (zero_nf, one_nf)
        assert d.depth <= 1 or not ends(x, y), (a, b)
        if d.depth == 3:
            children = [(y, x)] + [(mul_nf(*m, *x), mul_nf(*m, *y)) for m in pool]
            children += [(mul_nf(*x, *m), mul_nf(*y, *m)) for m in pool]
            assert not any(ends(*c) for c in children), (a, b)
    assert max(depths) == 3


@st.composite
def _collapse_seeds(draw):
    """Two distinct elements of size 0-40 over lambda = 2, 3 or inf, the
    last over the sparse letters a, c and g27; Zero now and then."""
    lam = draw(st.sampled_from((2, 3, None)))
    ab = Alphabet(lam)
    word = st.lists(st.sampled_from((0, 2, 27) if lam is None else range(lam)), max_size=20).map(tuple)
    elem = st.one_of(st.just(zero(ab)), st.builds(lambda u, v: Element(ab, u, v), word, word))
    x = draw(elem)
    return x, draw(elem.filter(lambda e: e != x))


@settings(max_examples=300, deadline=None)
@given(seed=_collapse_seeds(), budget=st.integers(3, 8))
def test_collapse_long_pairs_take_at_most_three_steps(seed, budget):
    x, y = seed
    d = collapse_witness(x, y, budget)
    assert d is not None and d.depth <= 3
    verify_derivation(d, (x, y))
    assert collapse_witness(x, y, d.depth) == d
    assert d.depth == 0 or collapse_witness(x, y, d.depth - 1) is None


def test_collapse_takes_at_most_eight_products(monkeypatch):
    # every ordered pair of ball(3, 2): at most eight products per pair,
    # two for the c of each orientation tried and two for each of the left
    # and the right step
    calls = []

    def counting(*args):
        calls.append(args)
        return mul_nf(*args)

    elems = list(ball(Alphabet(3), 2))
    seeds = [(x, y) for x in elems for y in elems if x != y]
    assert len(seeds) == 1190
    want = [collapse_witness(x, y, 8) for x, y in seeds]
    monkeypatch.setattr("polymon.collapse.mul_nf", counting)
    per_pair = []
    for (x, y), d in zip(seeds, want):
        before = len(calls)
        assert collapse_witness(x, y, 8) == d
        per_pair.append(len(calls) - before)
    assert max(per_pair) <= 8


def test_derivation_json_shape():
    d = collapse_witness(A.inverse() * A, ONE)
    blob = d.to_json()
    assert [s["rule"] for s in blob["steps"]] == [SEED, LEFT_MULTIPLY, RIGHT_MULTIPLY]
    assert blob["steps"][1]["by"] == {"u": [], "v": [1]}
    assert "sources" not in blob["steps"][1]


def test_replay_rejects_tampered_step():
    e = A.inverse() * A
    d = collapse_witness(e, ONE)
    forged = DerivationStep(RIGHT_MULTIPLY, (ZERO, B), by=B.inverse())
    bad = Derivation(d.steps[:-1] + (forged,))
    with pytest.raises(ValueError):
        verify_derivation(bad)


def test_replay_rejects_wrong_seed():
    d = collapse_witness(A, B)
    with pytest.raises(ValueError):
        verify_derivation(d, seed=(B, A))


def _forge(rule, pair, by=None):
    # the seed (ZERO, A), then one step to check
    return Derivation((DerivationStep(SEED, (ZERO, A)), DerivationStep(rule, pair, by=by)))


# a step with a wrong multiplier holds the product from the other side,
# which differs: a·a' = 1 but a'·a is not
@pytest.mark.parametrize("step, message", [
    ((LEFT_MULTIPLY, (ZERO, A * A.inverse()), A.inverse()), "step 1: left-multiply does not replay"),
    ((LEFT_MULTIPLY, (ZERO, A), None), "step 1: left-multiply does not replay"),
    ((RIGHT_MULTIPLY, (ZERO, A.inverse() * A), A.inverse()), "step 1: right-multiply does not replay"),
    ((SYMMETRY, (ZERO, A), None), "step 1: symmetry does not replay"),
    (("transitivity", (A, ZERO), None), "step 1: unknown rule 'transitivity'"),
    (("bogus", (A, ZERO), None), "step 1: unknown rule 'bogus'"),
])
def test_replay_rejects_each_forged_step(step, message):
    with pytest.raises(ValueError) as exc:
        verify_derivation(_forge(*step))
    assert str(exc.value) == message


C3 = generator(Alphabet(3), 2)
B3 = generator(Alphabet(3), 1)


# a multiplier or a seed component over another alphabet does not replay
# either; the product would raise AlphabetMismatch.  The first four rows
# also differ from the replay on bare pairs; the last four match it on
# bare pairs, so only the alphabet check rejects them
@pytest.mark.parametrize("seed, step", [
    ((ZERO, A), (LEFT_MULTIPLY, (ZERO, ZERO), C3)),
    ((ZERO, A), (RIGHT_MULTIPLY, (ZERO, ZERO), C3)),
    ((ZERO, C3), (LEFT_MULTIPLY, (ZERO, ZERO), ONE)),
    ((ZERO, C3), (RIGHT_MULTIPLY, (ZERO, ZERO), ONE)),
    ((ZERO, A), (LEFT_MULTIPLY, (ZERO, B * A), B3)),
    ((ZERO, A), (RIGHT_MULTIPLY, (ZERO, A * B), B3)),
    ((ZERO, B3), (LEFT_MULTIPLY, (ZERO, B), ONE)),
    ((ZERO, B3), (RIGHT_MULTIPLY, (ZERO, B), ONE)),
], ids=["left-by", "right-by", "left-seed", "right-seed",
        "left-by-same-pairs", "right-by-same-pairs", "left-seed-same-pairs", "right-seed-same-pairs"])
def test_replay_across_alphabets_is_a_value_error(seed, step):
    d = Derivation((DerivationStep(SEED, seed), DerivationStep(*step)))
    for verify in (verify_derivation, verify_derivation_elements):
        with pytest.raises(ValueError) as exc:
            verify(d)
        assert str(exc.value) == f"step 1: {step[0]} does not replay", verify


def test_replay_rejects_an_empty_derivation():
    with pytest.raises(ValueError) as exc:
        verify_derivation(Derivation(()))
    assert str(exc.value) == "empty derivation"


# Element checks no letters: c = g2 over two letters has c·a·c' = 0 and
# c·c' = 1 as bare pairs, so the first two chains reach (0, 1) by
# multiplying with a letter the alphabet does not have.  In the others a
# multiplier m whose letter is no letter at all takes (0, 1) to (0, m) on
# bare pairs; an unchecked True would replay as the letter b
FOREIGN = Element(AB2, (), (2,))
NO_LETTERS = {str(x): Element(AB2, (), (x,)) for x in (True, -1, "a")}


@pytest.mark.parametrize("steps", [
    [(SEED, (A, ONE)), (LEFT_MULTIPLY, (FOREIGN * A, FOREIGN), FOREIGN),
     (RIGHT_MULTIPLY, (ZERO, ONE), FOREIGN.inverse())],
    [(SEED, (FOREIGN * A, FOREIGN)), (RIGHT_MULTIPLY, (ZERO, ONE), FOREIGN.inverse())],
    *([(SEED, (ZERO, ONE)), (LEFT_MULTIPLY, (ZERO, m), m)] for m in NO_LETTERS.values()),
], ids=["left", "right", *NO_LETTERS])
def test_replay_rejects_a_multiplier_with_foreign_letters(steps):
    d = Derivation(tuple(DerivationStep(*s) for s in steps))
    for verify in (verify_derivation, verify_derivation_elements):
        with pytest.raises(ValueError) as exc:
            verify(d)
        assert str(exc.value) == f"step 1: {steps[1][0]} does not replay", verify


def test_a_zero_multiplier_has_no_letters_to_check():
    # the step replays, so the chain fails only at its target
    d = Derivation((DerivationStep(SEED, (A, ONE)), DerivationStep(LEFT_MULTIPLY, (ZERO, ZERO), ZERO)))
    for verify in (verify_derivation, verify_derivation_elements):
        with pytest.raises(ValueError) as exc:
            verify(d)
        assert str(exc.value) == "derivation does not end at (0, 1)", verify


# a true chain with one multiplier or one pair component moved to another
# alphabet: the bare pairs still replay, so only the alphabet check fails it
@pytest.mark.parametrize("part", ["by", "first", "second"])
def test_replay_rejects_a_step_over_another_alphabet_with_the_same_pairs(part):
    d = collapse_witness(A, B.inverse() * A)
    verify_derivation(d)
    for i in range(1, len(d.steps)):
        s = d.steps[i]
        if s.by is None:
            continue
        x, y = s.pair
        moved = {"by": (s.pair, Element(Alphabet(3), s.by.u, s.by.v)),
                 "first": ((Element(Alphabet(3), x.u, x.v), y), s.by),
                 "second": ((x, Element(Alphabet(3), y.u, y.v)), s.by)}[part]
        forged = Derivation(d.steps[:i] + (DerivationStep(s.rule, *moved),) + d.steps[i + 1:])
        for verify in (verify_derivation, verify_derivation_elements):
            with pytest.raises(ValueError) as exc:
                verify(forged)
            assert str(exc.value) == f"step {i}: {s.rule} does not replay", verify


def test_replay_of_a_true_chain_checks_the_target():
    # each step replays from the one before, but the chain ends at (A, 0)
    with pytest.raises(ValueError) as exc:
        verify_derivation(_forge(SYMMETRY, (A, ZERO)))
    assert str(exc.value) == "derivation does not end at (0, 1)"


def _forgeries(d, pool, other):
    """d, d without its last step, and copies of d with one step forged:
    its rule swapped; its multiplier replaced by another pool member, by
    None, or by one over an equal or another alphabet; one component of
    its pair replaced."""
    steps = d.steps
    yield d
    if len(steps) > 1:
        yield Derivation(steps[:-1])
    for i, s in enumerate(steps):
        def put(rule=s.rule, pair=s.pair, by=s.by):
            return Derivation(steps[:i] + (DerivationStep(rule, pair, by),) + steps[i + 1:])

        for rule in (SEED, LEFT_MULTIPLY, RIGHT_MULTIPLY, SYMMETRY, "transitivity"):
            if rule != s.rule:
                yield put(rule=rule)
        bare = ((), (0,)) if s.by is None else (s.by.u, s.by.v)
        for by in [m for m in pool if m != s.by][:3] + [None]:
            yield put(by=by)
        for ab in (Alphabet(s.pair[0].alphabet.size), other):
            yield put(by=Element(ab, *bare))
        for j in (0, 1):
            x = s.pair[j]
            for e in (s.pair[1 - j], zero(x.alphabet), one(x.alphabet), Element(other, x.u, x.v)):
                yield put(pair=(e, s.pair[1]) if j == 0 else (s.pair[0], e))


REPLAY_FAILURES = ("step 0 must be the seed", "seed pair", "unknown rule", "left-multiply does not replay",
                   "right-multiply does not replay", "symmetry does not replay", "does not end at (0, 1)")


def _replay_outcome(verify, d, seed=None):
    try:
        verify(d, seed)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("lam, radius", [(2, 2), (3, 1)])
def test_replay_agrees_with_the_element_replay(lam, radius):
    # every derivation collapse_witness returns on the ordered pairs of the
    # ball at depth 8, and forged copies of each, replayed on bare pairs
    # and with ``Element`` products: both pass, or both raise the same text
    other = Alphabet(5)
    elems = list(ball(Alphabet(lam), radius))
    kinds = set()
    for x, y in [(x, y) for x in elems for y in elems if x != y]:
        d = collapse_witness(x, y, 8)
        cases = [(d, (x, y)), (d, (y, x))] + [(f, None) for f in _forgeries(d, elems, other)]
        for forged, seed in cases:
            got = _replay_outcome(verify_derivation, forged, seed)
            assert got == _replay_outcome(verify_derivation_elements, forged, seed), (forged, seed)
            kinds.add(got and next((k for k in REPLAY_FAILURES if k in got), got))
    # passing occurs, and so does each way of failing
    assert kinds == {None, *REPLAY_FAILURES}
