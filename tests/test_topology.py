"""Cofinite neighborhoods, translation shrinking and certificates, witness families."""

import copy
import pickle
import random

import pytest

import polymon.topology
from helpers import certify_translations_enumerate, shrink_neighborhood_enumerate, shrink_neighborhood_solve
from polymon import (
    Alphabet,
    AlphabetMismatch,
    CofiniteNbhd,
    Element,
    ZeroArgument,
    ball,
    certify_translations,
    cofinite,
    element,
    generator,
    joint_discontinuity_family,
    one,
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
    # both ways in check every member; only shrink_neighborhood skips that
    for make in (cofinite, CofiniteNbhd):
        with pytest.raises(ZeroArgument):
            make(AB2, [ONE, ZERO])  # Zero is in every neighborhood of Zero
        with pytest.raises(AlphabetMismatch):
            make(AB2, [ONE, one(Alphabet(3))])


def test_excluded_sorted_uses_enumeration_order():
    U = cofinite(AB2, [B, ONE, A.inverse()])
    assert [str(x) for x in U.excluded_sorted()] == ["1", "b", "a'"]


def test_json_form():
    U = cofinite(AB2, [ONE, A])
    assert [f.to_json() for f in U.excluded_sorted()] == [{"u": [], "v": []}, {"u": [], "v": [0]}]


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
    U = cofinite(AB2, ball(AB2, 1).elements[1:])
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
        pool = ball(ab, 2).elements[1:]
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
    # so does a shrunk neighborhood over another alphabet: it excludes no
    # point of a's alphabet, so it would keep every candidate and report
    # spurious counterexamples
    with pytest.raises(AlphabetMismatch, match=r"^Alphabet\(size=3\) vs Alphabet\(size=2\)$"):
        certify_translations(A, U, cofinite(Alphabet(3), [one(Alphabet(3))]), 2)


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
    pairs = joint_discontinuity_family(ONE, 3)
    rendered = [(str(x), str(y)) for x, y in pairs]
    assert rendered == [("a", "a'"), ("aa", "a'a'"), ("aaa", "a'a'a'")]


def test_witness_family_general_target():
    pairs = joint_discontinuity_family(A.inverse() * B, 2)
    assert [str(x) for x, _ in pairs] == ["a'a", "a'aa"]
    assert [str(y) for _, y in pairs] == ["a'b", "a'a'b"]
    # every product is the target, and no component repeats
    for c in (ONE, A.inverse() * B, element(AB2, (0, 1), (0,)), element(Alphabet(None), (30,), (7, 30))):
        pairs = joint_discontinuity_family(c, 20)
        assert all(x * y == c for x, y in pairs)
        for side in (0, 1):
            assert len({pair[side] for pair in pairs}) == 20


def test_witness_family_guards():
    with pytest.raises(ZeroArgument, match="^witness families exist only for nonzero targets$"):
        joint_discontinuity_family(ZERO, 2)
    with pytest.raises(ValueError):
        joint_discontinuity_family(ONE, 0)


def test_family_escapes_every_cofinite_neighborhood():
    for n in range(5):
        U = cofinite(AB2, ball(AB2, n).elements[1:])
        x, y = joint_discontinuity_family(ONE, n + 1)[-1]
        assert x in U and y in U
        assert x * y == ONE


def test_nbhd_is_hashable_value_object():
    U = cofinite(AB2, [ONE, A])
    V = cofinite(AB2, [A, ONE])
    assert U == V and hash(U) == hash(V)
    assert isinstance(U, CofiniteNbhd)


def test_shrink_then_certify_solves_each_preimage_once(monkeypatch):
    calls = []
    solve = polymon.topology._solve_left
    monkeypatch.setattr(polymon.topology, "_solve_left", lambda *args: calls.append(args) or solve(*args))
    ab = Alphabet(3)
    U = cofinite(ab, ball(ab, 2).elements[1:12])
    a, b = element(ab, (0,), (1, 2)), element(ab, (2, 1), ())
    per_translation = 2 * len(U.excluded)
    V = shrink_neighborhood(a, U)
    assert certify_translations(a, U, V, 4) == []
    assert certify_translations(a, U, U, 4)
    assert len(calls) == per_translation
    # another translation solves its own preimages once more
    shrink_neighborhood(b, U)
    certify_translations(b, U, U, 4)
    assert len(calls) == 2 * per_translation
    # the neighborhood holds one translation's preimages: a is solved again
    assert shrink_neighborhood(a, U) == V
    assert len(calls) == 3 * per_translation
    # Zero's translations are constantly Zero, so nothing is solved for it
    assert shrink_neighborhood(zero(ab), U) == U
    assert certify_translations(zero(ab), U, U, 4) == []
    assert len(calls) == 3 * per_translation


SPARSE = (0, 2, 27)


def test_interleaved_translations_never_read_another_ones_preimages():
    # Over one target, a shrink by a comes between a certificate by b and
    # the solve of its preimages.  Every answer must still be the oracles',
    # and over the countable alphabet the sparse letters 0, 2, 27 must
    # give the answers of letters 0, 1, 2 over lambda = 3, renamed.
    rng = random.Random(59)
    inf = Alphabet(None)

    def sparse(x: Element) -> Element:
        if x.is_zero:
            return zero(inf)
        return Element(inf, tuple(SPARSE[i] for i in x.u), tuple(SPARSE[i] for i in x.v))

    cases = flagged = 0
    for lam in (2, 3, None):
        ab = Alphabet(lam or 3)
        tab, lift = (inf, sparse) if lam is None else (ab, lambda x: x)
        pool = ball(ab, 2).elements
        for _ in range(4):
            U = cofinite(ab, rng.sample(pool[1:], rng.randint(1, 8)))
            target = cofinite(tab, map(lift, U.excluded))
            for a, b in (rng.sample(pool, 2) for _ in range(5)):
                Vb = shrink_neighborhood_solve(b, U)
                assert shrink_neighborhood(lift(b), target) == cofinite(tab, map(lift, Vb.excluded))
                for shrunk in (Vb, U, cofinite(ab)):
                    Va = shrink_neighborhood(lift(a), target)
                    assert Va == cofinite(tab, map(lift, shrink_neighborhood_solve(a, U).excluded))
                    # the first radius reads after the shrink by a, the others after b
                    for radius in (0, 2, 4):
                        want = [(lift(x), side, lift(p)) for x, side, p in certify_translations_enumerate(b, U, shrunk, radius)]
                        got = certify_translations(lift(b), target, cofinite(tab, map(lift, shrunk.excluded)), radius)
                        assert got == want
                        cases += 1
                        flagged += bool(want)
    assert (cases, flagged) == (540, 180)


def test_filled_memo_stays_out_of_the_value():
    U = cofinite(AB2, [ONE, A, B.inverse()])
    shown = repr(U)
    shrink_neighborhood(A, U)
    assert U._last[0] == A
    fresh = cofinite(AB2, [B.inverse(), A, ONE])
    assert fresh._last == (None, None)
    assert U == fresh and hash(U) == hash(fresh)
    assert repr(U) == shown == repr(CofiniteNbhd(AB2, U.excluded))
    for twin in (copy.copy(U), copy.deepcopy(U), pickle.loads(pickle.dumps(U))):
        assert twin == U and twin._last == (None, None)
    with pytest.raises(AttributeError, match="^CofiniteNbhd is immutable: cannot set or delete '_last'$"):
        setattr(U, "_last", (None, None))
    with pytest.raises(AttributeError):
        del U._last


def test_unchecked_shrinks_are_checked_values():
    # The shrink builds its result from bare pairs and checks none of them.
    # Each result must equal the value the checked constructor builds from
    # its excluded points, hold only nonzero pairs over the letters of a and
    # the target, and answer membership as its excluded points say.
    rng = random.Random(61)
    inf = Alphabet(None)

    def sparse(x: Element) -> Element:
        if x.is_zero:
            return zero(inf)
        return Element(inf, tuple(SPARSE[i] for i in x.u), tuple(SPARSE[i] for i in x.v))

    shrinks = 0
    for lam in (2, 3, None):
        ab = Alphabet(lam or 3)
        tab, lift = (inf, sparse) if lam is None else (ab, lambda x: x)
        letters = set(SPARSE if lam is None else range(lam))
        pool = ball(ab, 2).elements
        points = [lift(x) for x in ball(ab, 4)]
        assert points[0].is_zero
        for _ in range(4):
            U = cofinite(tab, map(lift, rng.sample(pool[1:], rng.randint(0, 8))))
            for a in rng.sample(pool, 6):
                V = shrink_neighborhood(lift(a), U)
                checked = CofiniteNbhd(U.alphabet, V.excluded)
                assert V == checked and hash(V) == hash(checked)
                assert U.pairs <= V.pairs
                for u, v in V.pairs:
                    assert u is not None and v is not None
                    assert set(u) | set(v) <= letters
                excluded = V.excluded
                for x in points:
                    assert (x in V) == (x.is_zero or x not in excluded)
                shrinks += 1
    assert shrinks == 72


def test_unchecked_shrink_copies_and_pickles_to_equal_values():
    U = cofinite(AB2, [ONE, A, B.inverse()])
    V = shrink_neighborhood(A, U)
    shrink_neighborhood(B, V)
    assert V._last[0] == B
    for twin in (copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))):
        assert type(twin) is CofiniteNbhd
        assert twin == V and hash(twin) == hash(V) and twin.pairs == V.pairs
        assert twin == CofiniteNbhd(AB2, V.excluded)
        assert twin._last == (None, None)
