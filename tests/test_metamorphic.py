"""Metamorphic checks of the closed forms behind ``reduce``, ``act``, ``*``,
``solve_axb``, ``rclass_key``, ``shrink_neighborhood`` and
``certify_translations``, and of the depth ``collapse_witness`` finds.

Each test transforms its input in a way whose effect on the answer is
known, and compares the two answers; no oracle is needed.  Inputs are
long: signed words of 20-200 letters over the countable alphabet, with
letters up to g1000.  A few letters from that range make up each word,
and some words are a normal form padded with cancelling pairs, so both
Zero and nonzero answers occur.  Solver triples are planted: c = a*x*b
is built nonzero from a known solution x, with elements of size up to 30
over three letters.  So are the excluded points of a neighborhood:
most are a*x or x*a for a known x, so the shrink has points to drop.
Read over the letters a and b alone, planted triples and neighborhoods
of size up to about 200 must answer the same over λ = 2, 3 and ∞.
Collapse pairs stay small, sizes up to 4 at budgets up to 5.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polymon import (
    Alphabet,
    Element,
    act,
    certify_translations,
    cofinite,
    collapse_witness,
    rclass_key,
    reduce,
    shrink_neighborhood,
    solve_axb,
    verify_derivation,
    zero,
)

INF = Alphabet(None)
AB3 = Alphabet(3)
TOP = 1000  # largest letter index drawn, g1000

seeds = st.integers(0, 2**32 - 1)
lengths = st.integers(20, 200)


def letter_pool(rng: random.Random, top: int = TOP) -> list:
    return rng.sample(range(top + 1), rng.randint(1, min(4, top + 1)))


def signed_word(rng: random.Random, pool: list, n: int) -> list:
    """n signed letters over pool: random, or the free word of a random
    normal form with cancelling pairs s s' put in up to length n."""
    if rng.random() < 0.5:
        return [(rng.choice(pool) + 1) * rng.choice((1, -1)) for _ in range(n)]
    w = [-(rng.choice(pool) + 1) for _ in range(rng.randint(0, 8))]
    w += [rng.choice(pool) + 1 for _ in range(rng.randint(0, 8))]
    while len(w) + 2 <= n:
        k, s = rng.randint(0, len(w)), rng.choice(pool) + 1
        w[k:k] = [s, -s]
    return w


def positive_word(rng: random.Random, pool: list, n: int) -> tuple:
    return tuple(rng.choice(pool) for _ in range(n))


def acting_pair(rng: random.Random, pool: list, n: int, alphabet: Alphabet = INF):
    """An element x = (u, v) and a stack word of n letters that ends in u
    half of the time, so that the action is often defined."""
    u = positive_word(rng, pool, rng.randint(0, 10))
    v = positive_word(rng, pool, rng.randint(0, 10))
    w = positive_word(rng, pool, n)
    if rng.random() < 0.5:
        w = w[:max(0, n - len(u))] + u
    x = zero(alphabet) if rng.random() < 0.05 else Element(alphabet, u, v)
    return x, w


def factor_pair(rng: random.Random, pool: list, n: int):
    """Elements x, y of total size about n whose junction x.v * y.u' often
    cancels: y.u is a suffix of x.v, or x.v a suffix of y.u, or neither."""
    common = positive_word(rng, pool, n // 4)
    head = positive_word(rng, pool, rng.randint(0, n // 4))
    v, p = [(head + common, common), (common, head + common), (head, common)][rng.randrange(3)]
    x = Element(INF, positive_word(rng, pool, n // 4), v)
    y = Element(INF, p, positive_word(rng, pool, n // 4))
    return x, y


def permutation(rng: random.Random) -> list:
    perm = list(range(TOP + 1))
    rng.shuffle(perm)
    return perm


def rename(perm: list, x: Element) -> Element:
    if x.is_zero:
        return x
    return Element(x.alphabet, tuple(perm[i] for i in x.u), tuple(perm[i] for i in x.v))


@settings(deadline=None)
@given(seed=seeds, n=lengths)
def test_renaming_letters_commutes_with_reduce_act_and_product(seed, n):
    rng = random.Random(seed)
    perm, pool = permutation(rng), letter_pool(rng)
    w = signed_word(rng, pool, n)
    renamed = [(perm[abs(s) - 1] + 1) * (1 if s > 0 else -1) for s in w]
    assert reduce(INF, renamed) == rename(perm, reduce(INF, w))

    x, stack = acting_pair(rng, pool, n)
    t = act(x, stack)
    renamed_t = None if t is None else tuple(perm[i] for i in t)
    assert act(rename(perm, x), tuple(perm[i] for i in stack)) == renamed_t

    x, y = factor_pair(rng, pool, n)
    assert rename(perm, x) * rename(perm, y) == rename(perm, x * y)


@settings(deadline=None)
@given(seed=seeds, n=lengths)
def test_three_letters_answer_as_the_countable_alphabet_does(seed, n):
    rng = random.Random(seed)
    pool = letter_pool(rng, top=2)
    w = signed_word(rng, pool, n)
    finite, countable = reduce(AB3, w), reduce(INF, w)
    assert (finite.u, finite.v) == (countable.u, countable.v)

    x, stack = acting_pair(rng, pool, n, AB3)
    assert act(x, stack) == act(Element(INF, x.u, x.v), stack)


@settings(deadline=None)
@given(seed=seeds, n=lengths)
def test_reduce_of_the_mirrored_word_is_the_inverse(seed, n):
    rng = random.Random(seed)
    w = signed_word(rng, letter_pool(rng), n)
    assert reduce(INF, [-s for s in reversed(w)]) == reduce(INF, w).inverse()


def short_word(rng: random.Random, pool: list, k: int = 6) -> tuple:
    return positive_word(rng, pool, rng.randint(0, k))


def overlapping(rng: random.Random, pool: list, w: tuple) -> tuple:
    """w with a short head put in front, or a suffix of w: either way one
    of w and the result is a suffix of the other, so they cancel."""
    return short_word(rng, pool) + w if rng.random() < 0.5 else w[rng.randint(0, len(w)):]


def planted_triple(rng: random.Random, pool: list, scale: int = 1):
    """Nonzero a, b, c = a*x*b and the x planted in it: of a.v and x.u,
    one is a suffix of the other, and so of b.u and the second component
    of a*x, so neither junction cancels to Zero.  Drawn words are up to
    6·scale letters long."""
    k = 6 * scale
    x = Element(INF, short_word(rng, pool, k), short_word(rng, pool, k))
    a = Element(INF, short_word(rng, pool, k), overlapping(rng, pool, x.u))
    b = Element(INF, overlapping(rng, pool, (a * x).v), short_word(rng, pool, k))
    return a, b, a * x * b, x


@settings(deadline=None)
@given(seed=seeds)
def test_solver_answers_inverted_and_renamed_triples(seed):
    rng = random.Random(seed)
    perm, pool = permutation(rng), rng.sample(range(TOP), 3)
    a, b, c, x = planted_triple(rng, pool)
    solutions = solve_axb(a, b, c)
    assert not c.is_zero and x in solutions

    inverted = solve_axb(b.inverse(), a.inverse(), c.inverse())
    assert set(inverted) == {s.inverse() for s in solutions}

    renamed = solve_axb(rename(perm, a), rename(perm, b), rename(perm, c))
    assert set(renamed) == {rename(perm, s) for s in solutions}
    for e in (a, b, c, *solutions):
        assert rclass_key(rename(perm, e)) == rename(perm, rclass_key(e))


def planted_neighborhood(rng: random.Random, pool: list, scale: int = 1):
    """A translation a of size up to 20·scale, a neighborhood U of Zero
    that excludes up to 12 points of size up to 30·scale, the (x, side)
    whose product with a U excludes, and a shrunk set S made of part of
    the real shrink's points, so S keeps some preimages."""
    a = Element(INF, short_word(rng, pool, 10 * scale), short_word(rng, pool, 10 * scale))
    planted, excluded = [], set()
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(3)
        if kind == 0:  # a*x, nonzero since x.u and a.v overlap
            x = Element(INF, overlapping(rng, pool, a.v), short_word(rng, pool, 8 * scale))
            planted.append((x, "left"))
            excluded.add(a * x)
        elif kind == 1:  # x*a, nonzero since x.v and a.u overlap
            x = Element(INF, short_word(rng, pool, 8 * scale), overlapping(rng, pool, a.u))
            planted.append((x, "right"))
            excluded.add(x * a)
        else:
            excluded.add(Element(INF, short_word(rng, pool, 15 * scale), short_word(rng, pool, 15 * scale)))
    U = cofinite(INF, excluded)
    S = cofinite(INF, [f for f in shrink_neighborhood(a, U).excluded if rng.random() < 0.5])
    return a, U, planted, S


def inverse_nbhd(U):
    return cofinite(U.alphabet, [f.inverse() for f in U.excluded])


def rename_nbhd(perm: list, U):
    return cofinite(U.alphabet, [rename(perm, f) for f in U.excluded])


@settings(deadline=None)
@given(seed=seeds)
def test_translations_answer_inverted_and_renamed_neighborhoods(seed):
    rng = random.Random(seed)
    perm, pool = permutation(rng), letter_pool(rng)
    a, U, planted, S = planted_neighborhood(rng, pool)
    radius = rng.randint(0, 40)
    V = shrink_neighborhood(a, U)
    bad = certify_translations(a, U, S, radius)
    for x, side, p in bad:
        assert x in S and x.size <= radius and p not in U
        assert p == (a * x if side == "left" else x * a)
    # every planted x that S keeps within the radius is a counterexample
    for x, side in planted:
        if x.size <= radius and x in S:
            assert (x, side, a * x if side == "left" else x * a) in bad

    # inversion swaps a*x = f for x'*a' = f': left and right trade places
    assert shrink_neighborhood(a.inverse(), inverse_nbhd(U)) == inverse_nbhd(V)
    other = {"left": "right", "right": "left"}
    inverted = certify_translations(a.inverse(), inverse_nbhd(U), inverse_nbhd(S), radius)
    assert set(inverted) == {(x.inverse(), other[side], p.inverse()) for x, side, p in bad}

    assert shrink_neighborhood(rename(perm, a), rename_nbhd(perm, U)) == rename_nbhd(perm, V)
    renamed = certify_translations(rename(perm, a), rename_nbhd(perm, U), rename_nbhd(perm, S), radius)
    assert set(renamed) == {(rename(perm, x), side, rename(perm, p)) for x, side, p in bad}


def over(alphabet: Alphabet, x: Element) -> Element:
    return Element(alphabet, x.u, x.v)


def over_nbhd(alphabet: Alphabet, U):
    return cofinite(alphabet, [over(alphabet, f) for f in U.excluded])


def bare(x: Element) -> tuple:
    return x.u, x.v


@settings(deadline=None)
@given(seed=seeds, n=lengths)
def test_two_and_three_letters_solve_and_translate_as_the_countable_alphabet_does(seed, n):
    # inputs of size up to about n over a and b, read over λ = 2, 3 and
    # ∞: each alphabet gives the same solutions, shrink and
    # counterexamples, in the same order, as bare pairs
    rng = random.Random(seed)
    pool, scale = letter_pool(rng, top=1), n // 20
    a, b, c, _ = planted_triple(rng, pool, scale)
    t, U, _, S = planted_neighborhood(rng, pool, scale)
    radius = rng.randint(0, n)
    answers = []
    for ab in (Alphabet(2), AB3, INF):
        solutions = solve_axb(over(ab, a), over(ab, b), over(ab, c))
        V = shrink_neighborhood(over(ab, t), over_nbhd(ab, U))
        bad = certify_translations(over(ab, t), over_nbhd(ab, U), over_nbhd(ab, S), radius)
        answers.append(([bare(s) for s in solutions], {bare(f) for f in V.excluded},
                        [(bare(x), side, bare(p)) for x, side, p in bad]))
    assert answers[0] == answers[1] == answers[2]
    assert answers[2][0]  # the planted solution


def collapse_pair(rng: random.Random):
    """A permutation of the letters of λ = 2, 3 or ∞ (g0-g1000 for ∞), and
    two distinct elements over that alphabet of size up to 4, over one to
    three of its letters; Zero now and then."""
    lam = rng.choice((2, 3, None))
    ab = Alphabet(lam)
    if lam is None:
        perm = permutation(rng)
    else:
        perm = list(range(lam))
        rng.shuffle(perm)
    pool = rng.sample(range(len(perm)), rng.randint(1, min(3, len(perm))))

    def draw() -> Element:
        if rng.random() < 0.05:
            return zero(ab)
        w = positive_word(rng, pool, rng.randint(0, 4))
        cut = rng.randint(0, len(w))
        return Element(ab, w[:cut], w[cut:])

    x, y = draw(), draw()
    while y == x:
        y = draw()
    return perm, x, y


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_collapse_depth_survives_inversion_and_renaming(seed):
    # inversion swaps the roles of L and R, and renaming maps the letters,
    # the fresh letter z included, so the shortest depth stays; the moves
    # can differ, so only found-ness and depth compare
    rng = random.Random(seed)
    perm, x, y = collapse_pair(rng)
    budget = rng.randint(1, 5)
    depths = []
    for a, b in ((x, y), (x.inverse(), y.inverse()), (rename(perm, x), rename(perm, y))):
        d = collapse_witness(a, b, budget)
        if d is not None:
            verify_derivation(d, (a, b))
        depths.append(None if d is None else d.depth)
    assert depths[1] == depths[0] and depths[2] == depths[0]
