"""Cofinite neighborhoods, translation shrinking, witness families, growth."""

import random

import pytest

from helpers import certify_translations_enumerate, shrink_neighborhood_enumerate, shrink_neighborhood_solve
from polymon import (
    Alphabet,
    AlphabetMismatch,
    CofiniteNbhd,
    Element,
    InfiniteAlphabet,
    RadiusTooSmall,
    WitnessFamily,
    ZeroArgument,
    ZeroTarget,
    ball,
    certify_translations,
    cofinite,
    element,
    generator,
    joint_discontinuity_family,
    one,
    rclass_growth,
    rclass_missing,
    shrink_neighborhood,
    zero,
)

AB2 = Alphabet(2)
A, B = generator(AB2, 0), generator(AB2, 1)
ONE, ZERO = one(AB2), zero(AB2)


def test_membership_and_guards():
    U = cofinite(AB2, [ONE])
    assert ZERO in U and A in U
    assert ONE not in U
    with pytest.raises(ZeroArgument):
        cofinite(AB2, [ZERO])  # Zero is in every neighborhood of Zero
    with pytest.raises(AlphabetMismatch):
        cofinite(AB2, [one(Alphabet(3))])


def test_excluded_sorted_uses_enumeration_order():
    U = cofinite(AB2, [B, ONE, A.inverse()])
    assert [str(x) for x in U.excluded_sorted()] == ["1", "b", "a'"]


def test_json_form():
    U = cofinite(AB2, [ONE, A])
    assert U.to_json() == {"excluded": [{"u": [], "v": []}, {"u": [], "v": [0]}]}


def test_difference():
    U = cofinite(AB2, [ONE])
    V = cofinite(AB2, [ONE, A])
    assert U.difference(V) == {A}
    assert U.difference(U) == set()
    for x in U.difference(V):
        assert x in U and x not in V


def test_shrink_identity_translation_is_noop():
    U = cofinite(AB2, [ONE, A])
    assert shrink_neighborhood(ONE, U) == U


def test_shrink_zero_translation_is_trivial():
    U = cofinite(AB2, [B])
    assert shrink_neighborhood(ZERO, U) == U


def test_shrink_by_generator():
    U = cofinite(AB2, [ONE])
    V = shrink_neighborhood(A, U)
    assert V.excluded == frozenset({ONE, A.inverse()})
    # no survivor translates onto the excluded point from either side
    for x in ball(AB2, 5):
        if x in V:
            assert A * x != ONE
            assert x * A != ONE


def _sample(rng: random.Random, ab: Alphabet, radius: int):
    """Zero one time in twenty, else a random (u, v) of size at most
    radius over the first (at most five) letters."""
    if rng.random() < 0.05:
        return zero(ab)
    letters, total = min(ab.size or 5, 5), rng.randint(0, radius)
    ulen = rng.randint(0, total)
    u = tuple(rng.randrange(letters) for _ in range(ulen))
    v = tuple(rng.randrange(letters) for _ in range(total - ulen))
    return Element(ab, u, v)


def test_shrink_matches_oracles():
    # exact neighborhoods: the solve_axb-based shrink everywhere, the ball scan on finite alphabets
    rng = random.Random(43)
    cases = dropped = 0
    for lam, radius, rounds in ((2, 3, 60), (3, 2, 40), (None, 4, 300)):
        ab = Alphabet(lam)
        for _ in range(rounds):
            a = _sample(rng, ab, radius)
            U = cofinite(ab, [f for f in (_sample(rng, ab, radius) for _ in range(rng.randint(0, 6))) if not f.is_zero])
            V = shrink_neighborhood(a, U)
            assert V == shrink_neighborhood_solve(a, U)
            if lam is not None:
                assert V == shrink_neighborhood_enumerate(a, U)
            cases += 1
            dropped += len(V.excluded) - len(U.excluded)
    assert (cases, dropped) == (400, 641)


def test_shrink_certificates_on_small_ball():
    U = cofinite(AB2, ball(AB2, 1).nonzero)
    for a in ball(AB2, 2):
        V = shrink_neighborhood(a, U)
        # the ball scan: certify_translations passes any real shrink by construction
        assert certify_translations_enumerate(a, U, V, 5) == []


def test_certify_reports_failures():
    U = cofinite(AB2, [ONE])
    # passing U itself as the "shrunk" set must expose a' (a * a' = 1)
    bad = certify_translations(A, U, U, 3)
    assert bad, "unshrunk set should fail certification"
    x, side, image = bad[0]
    assert image not in U
    assert (A * x if side == "left" else x * A) == image


def test_certify_matches_ball_scan():
    # every (a, target, shrunk, radius) below, compared as exact lists
    cases = nonempty = 0
    rng = random.Random(29)
    for lam, a_radius in ((2, 3), (3, 2)):
        ab = Alphabet(lam)
        pool = list(ball(ab, 2).nonzero)
        targets = [cofinite(ab, rng.sample(pool, k)) for k in (4, len(pool) // 2)]
        for a in ball(ab, a_radius):
            for U in targets:
                V = shrink_neighborhood(a, U)
                dropped = V.excluded_sorted()
                for shrunk in (V, U, cofinite(ab), cofinite(ab, dropped[::2])):
                    for radius in (0, 2, 4):
                        want = certify_translations_enumerate(a, U, shrunk, radius)
                        assert certify_translations(a, U, shrunk, radius) == want
                        cases += 1
                        nonempty += bool(want)
    assert (cases, nonempty) == (2040, 839)


def test_certify_errors_keep_their_messages():
    U = cofinite(AB2, [ONE])
    inf = Alphabet(None)
    for a, nbhd in ((A, U), (generator(inf, 0), cofinite(inf))):
        with pytest.raises(ValueError, match="^radius must be nonnegative, got -1$"):
            certify_translations(a, nbhd, nbhd, -1)
    # the shrink checks the alphabet before it treats a Zero translation
    for a in (generator(Alphabet(3), 0), zero(Alphabet(3))):
        with pytest.raises(AlphabetMismatch, match=r"^Alphabet\(size=3\) vs Alphabet\(size=2\)$"):
            certify_translations(a, U, U, 2)
        with pytest.raises(AlphabetMismatch, match=r"^Alphabet\(size=3\) vs Alphabet\(size=2\)$"):
            shrink_neighborhood(a, U)


def _bare(x: Element):
    return x.u, x.v


def test_countable_alphabet_matches_finite():
    # shrink and certify solve with letters of a and the excluded f only,
    # so over the countable alphabet they return the same bare pairs
    rng = random.Random(47)
    inf = Alphabet(None)

    def lift(x: Element) -> Element:
        return zero(inf) if x.is_zero else Element(inf, x.u, x.v)

    cases = flagged = 0
    for lam in (2, 3):
        ab = Alphabet(lam)
        for _ in range(150):
            a = _sample(rng, ab, 3)
            U = cofinite(ab, [f for f in (_sample(rng, ab, 3) for _ in range(rng.randint(0, 6))) if not f.is_zero])
            V = shrink_neighborhood(a, U)
            a_inf, U_inf = lift(a), cofinite(inf, map(lift, U.excluded))
            assert {_bare(x) for x in shrink_neighborhood(a_inf, U_inf).excluded} == {_bare(x) for x in V.excluded}
            dropped = V.excluded_sorted()
            for shrunk in (V, U, cofinite(ab, rng.sample(dropped, len(dropped) // 2))):
                radius = rng.randint(0, 6)
                want = [(_bare(x), side, _bare(p)) for x, side, p in certify_translations(a, U, shrunk, radius)]
                got = certify_translations(a_inf, U_inf, cofinite(inf, map(lift, shrunk.excluded)), radius)
                assert [(_bare(x), side, _bare(p)) for x, side, p in got] == want
                cases += 1
                flagged += bool(want)
    assert (cases, flagged) == (900, 257)


def test_certify_zero_translation_is_empty():
    U = cofinite(AB2, [ONE, A, B.inverse()])
    for shrunk in (U, cofinite(AB2)):
        assert certify_translations(ZERO, U, shrunk, 4) == []


def test_certify_huge_radius_needs_no_ball():
    U = cofinite(AB2, [ONE, A * B])
    want = certify_translations_enumerate(A, U, U, 6)
    assert want
    assert certify_translations(A, U, U, 1000) == want


def test_witness_family_unit_target():
    fam = joint_discontinuity_family(ONE, 3)
    assert fam.target == ONE
    rendered = [(str(x), str(y)) for x, y in fam.pairs]
    assert rendered == [("a", "a'"), ("aa", "a'a'"), ("aaa", "a'a'a'")]


def test_witness_family_general_target():
    c = A.inverse() * B
    fam = joint_discontinuity_family(c, 2)
    assert all(x * y == c for x, y in fam.pairs)
    assert [str(x) for x, _ in fam.pairs] == ["a'a", "a'aa"]
    assert [str(y) for _, y in fam.pairs] == ["a'b", "a'a'b"]


def test_witness_family_guards():
    with pytest.raises(ZeroTarget):
        joint_discontinuity_family(ZERO, 2)
    with pytest.raises(ValueError):
        joint_discontinuity_family(ONE, 0)
    with pytest.raises(ValueError):
        WitnessFamily(ONE, ((A, B),))  # a * b is ab, not the target
    with pytest.raises(ValueError):
        WitnessFamily(ONE, ((A, A.inverse()), (A, A.inverse())))  # repeats


def test_family_escapes_every_cofinite_neighborhood():
    for n in range(5):
        U = cofinite(AB2, ball(AB2, n).nonzero)
        fam = joint_discontinuity_family(ONE, n + 1)
        x, y = fam.pairs[-1]
        assert x in U and y in U
        assert x * y == ONE


def test_rclass_missing():
    U = cofinite(AB2, [A.inverse() * B, B])
    assert rclass_missing(U, (0,)) == [A.inverse() * B]
    assert rclass_missing(cofinite(AB2), (0,)) == []
    U2 = cofinite(AB2, ball(AB2, 2).nonzero)
    assert rclass_missing(U2, (0, 1)) == [element(AB2, (0, 1), ())]


def test_rclass_missing_contained_in_excluded():
    rng = random.Random(11)
    b3 = list(ball(AB2, 3).nonzero)
    for _ in range(25):
        excluded = rng.sample(b3, rng.randint(0, 8))
        U = cofinite(AB2, excluded)
        for u in ((), (0,), (1, 0)):
            missing = rclass_missing(U, u)
            assert set(missing) <= set(excluded)
            assert all(f.u == u for f in missing)
            assert all(f not in U for f in missing)


def test_rclass_growth_counts():
    assert rclass_growth(cofinite(AB2), (), 2) == 7
    assert rclass_growth(cofinite(AB2, [ONE]), (), 2) == 6
    assert rclass_growth(cofinite(AB2), (0,), 1) == 1
    with pytest.raises(RadiusTooSmall):
        rclass_growth(cofinite(AB2), (0, 1), 1)
    with pytest.raises(InfiniteAlphabet):
        rclass_growth(cofinite(Alphabet(None)), (), 2)


def test_rclass_growth_matches_direct_count():
    U = cofinite(AB2, [ONE, A, element(AB2, (0,), (0, 1))])
    for u in ((), (0,)):
        for L in range(len(u), 5):
            direct = sum(
                1 for x in ball(AB2, L).nonzero if x.u == u and x in U
            )
            assert rclass_growth(U, u, L) == direct


def test_rclass_growth_strictly_increases():
    U = cofinite(AB2, ball(AB2, 2).nonzero)
    for u in ((), (0,), (0, 1)):
        lo = len(u) + len(U.excluded)
        counts = [rclass_growth(U, u, L) for L in range(lo, lo + 5)]
        assert all(second > first for first, second in zip(counts, counts[1:]))


def test_nbhd_is_hashable_value_object():
    U = cofinite(AB2, [ONE, A])
    V = cofinite(AB2, [A, ONE])
    assert U == V and hash(U) == hash(V)
    assert isinstance(U, CofiniteNbhd)
