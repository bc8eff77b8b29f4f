"""Cofinite neighborhoods, translation shrinking, witness families, growth."""

import random

import pytest

from helpers import certify_translations_enumerate
from polymon import (
    Alphabet,
    AlphabetMismatch,
    CofiniteNbhd,
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
    with pytest.raises(InfiniteAlphabet, match="^balls are finite only over finite alphabets$"):
        certify_translations(generator(inf, 0), cofinite(inf), cofinite(inf), 2)
    with pytest.raises(ValueError, match="^radius must be nonnegative, got -1$"):
        certify_translations(A, U, U, -1)
    for a in (generator(Alphabet(3), 0), zero(Alphabet(3))):
        with pytest.raises(AlphabetMismatch, match=r"^Alphabet\(size=3\) vs Alphabet\(size=2\)$"):
            certify_translations(a, U, U, 2)


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
