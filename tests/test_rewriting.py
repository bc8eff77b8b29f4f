"""Free-word reduction oracle and the congruence-collapse search."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    collapse_witness_elements,
    elements_of_size,
    elements_st,
    letters_of,
    multiplier_pool,
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
from polymon.core import mul_nf, normal_forms
from polymon.collapse import (
    LEFT_MULTIPLY,
    RIGHT_MULTIPLY,
    SEED,
    SYMMETRY,
    Derivation,
    DerivationStep,
    _letters,
    _solved,
    _tables,
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
    assert d.depth <= 6
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
    # Pinned from the breadth-first search that generated every level up
    # to the budget: 36 pairs, 9 found at depth 3, 19 at 4, 5 at 5 and 3
    # not found; the seed keeps the sweep well under 2 s.
    blobs = []
    for x, y, depth in _deep_pairs(10, 4):
        d = collapse_witness(x, y, depth)
        blobs.append(None if d is None else d.to_json())
    assert len(blobs) == 36
    text = json.dumps(blobs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "2a63f7ef74ffc4c8a48015e991152b09c6c0b736277a1179b72cfb042bc22169"


def test_collapse_depth_5_miss_on_the_long_pair():
    # a depth-6 search for this pair visits over a million states when
    # every level is generated; depth 5 must answer fast, and with None
    x = evaluate(parse("a'a'b'b'a'b'b'a'a'b'a'b'", AB2), AB2)
    y = evaluate(parse("aabbbbaabbab", AB2), AB2)
    assert collapse_witness(x, y, 5) is None
    # within the bound of ``_tables`` after the search; its states'
    # components are long, so most of its lookups share Zero's empty list
    letters = _letters(x, y)
    assert len(_tables(letters)[2]) <= _memo_bound(len(letters))


def _memo_bound(k):
    """The most lists ``_solved`` keeps for k letters, as ``_tables`` states
    it: per side, 1 + k + 3k² word keys times 3 other-lengths, plus Zero's."""
    return 2 * 3 * (1 + k + 3 * k * k) + 2


def _inf_ball(letters, radius):
    ab = Alphabet(None)
    return [zero(ab)] + [e for n in range(radius + 1) for e in elements_of_size(ab, letters, n)]


# Over lambda = inf the letters a, c, g27 leave b as the pool's fresh letter.
@pytest.mark.parametrize("lam, radius, pairs", [(2, 2, 306), (3, 1, 56), (None, 1, 56)])
def test_collapse_matches_element_search(lam, radius, pairs):
    elems = list(ball(Alphabet(lam), radius)) if lam else _inf_ball((0, 2, 27), radius)
    seeds = [(x, y) for x in elems for y in elems if x != y]
    assert len(seeds) == pairs
    # depths 0-3 put the end of the search on each side of the level scan
    for depth in (0, 1, 2, 3, 8):
        for x, y in seeds:
            got = collapse_witness(x, y, depth)
            want = collapse_witness_elements(x, y, depth)
            assert (got is None) == (want is None), (x, y, depth)
            assert got is None or got.to_json() == want.to_json(), (x, y, depth)


def test_collapse_matches_element_search_on_radius_2_sample():
    # a depth-3 answer comes from a hit among the children of a level-1
    # state, found while level 1 is still being generated; over lambda =
    # inf the letters a, c, g27 are not adjacent indices
    found_at_3 = []
    for elems in (list(ball(Alphabet(3), 2)), _inf_ball((0, 2, 27), 2)):
        seeds = random.Random(3).sample([(x, y) for x in elems for y in elems if x != y], 60)
        found_at_3.append(0)
        for depth in (3, 4):
            for x, y in seeds:
                got = collapse_witness(x, y, depth)
                want = collapse_witness_elements(x, y, depth)
                assert (got is None) == (want is None), (x, y, depth)
                assert got is None or got.to_json() == want.to_json(), (x, y, depth)
                found_at_3[-1] += got is not None and got.depth == 3
    assert found_at_3 == [32, 32]


def test_collapse_stops_inside_the_level(monkeypatch):
    # (1, ab) over lambda = 3 has a depth-3 derivation through the first
    # level-1 state; with cold tables, generating all of level 1 before
    # scanning it takes 272 products, stopping at that state's hit 142.
    # Listing only the multipliers whose child can finish takes 116: the
    # scan computes fewer children, but building each list multiplies
    # once per pool member
    calls = []

    def counting(*args):
        calls.append(args)
        return mul_nf(*args)

    ab3 = Alphabet(3)
    _tables.cache_clear()
    monkeypatch.setattr("polymon.collapse.mul_nf", counting)
    d = collapse_witness(one(ab3), evaluate(parse("ab", ab3), ab3), 8)
    assert d.depth == 3
    assert len(calls) < 200


def test_collapse_scan_multiplies_only_children_that_can_finish(monkeypatch):
    # every ordered pair of ball(3, 2) at depth 8, on warm tables: the
    # scan computes only the children of the multipliers ``_solved``
    # lists, whose y-side has one empty component and the other of
    # length 1 or 2.  Computing both sides of every suffix-comparable
    # multiplier's child took 32 159 products, skipping the x-side of a
    # child whose y-side cannot finish 21 673, and listing only the
    # multipliers whose child can finish takes 10 689
    calls = []

    def counting(*args):
        calls.append(args)
        return mul_nf(*args)

    elems = list(ball(Alphabet(3), 2))
    seeds = [(x, y) for x in elems for y in elems if x != y]
    assert len(seeds) == 1190
    want = [collapse_witness(x, y, 8) for x, y in seeds]
    monkeypatch.setattr("polymon.collapse.mul_nf", counting)
    got = [collapse_witness(x, y, 8) for x, y in seeds]
    assert got == want
    assert len(calls) <= 11_000


@pytest.mark.parametrize("letters", [(0, 1), (0, 1, 2), (0, 2, 27)])
def test_solved_lists_exactly_the_multipliers_whose_child_can_finish(letters):
    # every y up to size 6 and Zero, both sides: a member is listed
    # exactly when its product with y is nonzero with one empty
    # component and the other of length 1 or 2.  The y that first asks
    # for a key fills its list, so two fresh memos, one filled in
    # enumeration order and one in reverse, must agree: the key, not the
    # y, decides the list.  These y ask for every key, so each memo
    # reaches the bound of ``_tables``; (0, 2, 27) are sparse letters
    pool, index, _ = _tables(letters)
    ys = [(None, None)] + normal_forms(letters, 6)
    want = {}
    for yu, yv in ys:
        for side in (1, 0):
            listed = want[side, yu, yv] = []
            for i, (p, q) in enumerate(pool):
                u, v = mul_nf(p, q, yu, yv) if side else mul_nf(yu, yv, p, q)
                if u is not None and (not u) != (not v) and len(u) + len(v) <= 2:
                    listed.append(i)
    memos = []
    for order in (ys, ys[::-1]):
        cache = {}
        for yu, yv in order:
            for side, word, other in ((1, yu, yv), (0, yv, yu)):
                got = _solved(pool, index, cache, side, word, other, None)
                assert got == want[side, yu, yv], (side, yu, yv)
        assert len(cache) == _memo_bound(len(letters))
        memos.append(cache)
    assert memos[0] == memos[1]


def test_multiplier_pool_order_and_size():
    pool = multiplier_pool(A.inverse() * A, ONE)
    assert [str(m) for m in pool[:6]] == ["0", "1", "a", "b", "a'", "b'"]
    # both letters occur or are fresh, so the pool is the full radius-2 ball
    assert len(pool) == 18
    assert pool == [ZERO, ONE, *elements_of_size(AB2, [0, 1], 1), *elements_of_size(AB2, [0, 1], 2)]
    assert len(set(pool)) == len(pool)
    # the library search tries the same multipliers past 0 and 1, as bare pairs
    assert _tables(_letters(A.inverse() * A, ONE))[0] == tuple((m.u, m.v) for m in pool[2:])


def test_multiplier_pool_fresh_letter_only_when_available():
    ab3 = Alphabet(3)
    x = generator(ab3, 0)
    pool = multiplier_pool(x.inverse() * x, one(ab3))
    assert letters_of(*pool) == {0, 1}  # the occurring letter plus one fresh letter
    assert _tables(_letters(x.inverse() * x, one(ab3)))[0] == tuple((m.u, m.v) for m in pool[2:])


def test_collapse_tables_cold_and_warm_give_the_pinned_derivations():
    # one sweep with no tables built, then the same pairs in reverse order
    # on the tables the first sweep left
    seeds = {lam: [(x, y) for x in ball(Alphabet(lam), 1) for y in ball(Alphabet(lam), 1) if x != y]
             for lam, _, _ in RADIUS_1}
    sweep = [(lam, x, y) for lam, pairs in seeds.items() for x, y in pairs]
    _tables.cache_clear()
    cold = {(lam, x, y): collapse_witness(x, y, 8).to_json() for lam, x, y in sweep}
    built = _tables.cache_info()
    assert built.hits > 0 and built.currsize == built.misses
    warm = {(lam, x, y): collapse_witness(x, y, 8).to_json() for lam, x, y in reversed(sweep)}
    assert _tables.cache_info().misses == built.misses
    for run in (cold, warm):
        for lam, _, digest in RADIUS_1:
            text = json.dumps([run[lam, x, y] for x, y in seeds[lam]], sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the sizes the docstring of ``_tables`` bounds
    for letters in {_letters(x, y) for _, x, y in sweep}:
        pool, index, solved = _tables(letters)
        k = len(letters)
        assert type(pool) is tuple and len(pool) == len(index) == 2 * k + 3 * k * k
        assert all(pool[i] == m for m, i in index.items())
        assert len(solved) <= _memo_bound(k)
    assert _tables.cache_info().misses == built.misses


def test_collapse_tables_stay_within_their_bound():
    # over lambda = inf the seed (g_i, 1) has the letters (0, i): a new
    # letter tuple for each i, more of them than the cache holds
    ab = Alphabet(None)
    maxsize = _tables.cache_info().maxsize
    assert maxsize == 32  # the bound the docstring of ``_tables`` states
    for i in range(1, maxsize + 9):
        g = generator(ab, i)
        d = collapse_witness(g, one(ab), 3)
        assert d is not None and d == collapse_witness_elements(g, one(ab), 3)
    assert _tables.cache_info().currsize <= maxsize


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


# a multiplier or a seed component over another alphabet does not replay
# either; the product would raise AlphabetMismatch
@pytest.mark.parametrize("seed, step", [
    ((ZERO, A), (LEFT_MULTIPLY, (ZERO, ZERO), C3)),
    ((ZERO, A), (RIGHT_MULTIPLY, (ZERO, ZERO), C3)),
    ((ZERO, C3), (LEFT_MULTIPLY, (ZERO, ZERO), ONE)),
    ((ZERO, C3), (RIGHT_MULTIPLY, (ZERO, ZERO), ONE)),
], ids=["left-by", "right-by", "left-seed", "right-seed"])
def test_replay_across_alphabets_is_a_value_error(seed, step):
    d = Derivation((DerivationStep(SEED, seed), DerivationStep(*step)))
    with pytest.raises(ValueError) as exc:
        verify_derivation(d)
    assert str(exc.value) == f"step 1: {step[0]} does not replay"


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
    # every derivation the search returns on the ordered pairs of the
    # ball at depth 8, and forged copies of each, replayed on bare pairs
    # and with ``Element`` products: both pass, or both raise the same text
    other = Alphabet(5)
    elems = list(ball(Alphabet(lam), radius))
    kinds = set()
    for x, y in [(x, y) for x in elems for y in elems if x != y]:
        d = collapse_witness(x, y, 8)
        cases = [(d, (x, y)), (d, (y, x))] + [(f, None) for f in _forgeries(d, multiplier_pool(x, y), other)]
        for forged, seed in cases:
            got = _replay_outcome(verify_derivation, forged, seed)
            assert got == _replay_outcome(verify_derivation_elements, forged, seed), (forged, seed)
            kinds.add(got and next((k for k in REPLAY_FAILURES if k in got), got))
    # passing occurs, and so does each way of failing
    assert kinds == {None, *REPLAY_FAILURES}
