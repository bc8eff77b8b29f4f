"""Core arithmetic: alphabets, normal forms, products, downsets, rendering."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given

from helpers import elements_st, random_element
from polymon import (
    Alphabet,
    AlphabetMismatch,
    Element,
    TooFewGenerators,
    UnknownLetter,
    ZeroHasNoDownset,
    ball,
    element,
    enumeration_key,
    from_json,
    generator,
    make_alphabet,
    mul_oracle,
    one,
    zero,
)
from polymon.core import elements_of_size, letter_name, mul_nf, render_word

AB2 = Alphabet(2)
AB3 = Alphabet(3)
A, B = generator(AB2, 0), generator(AB2, 1)
ONE, ZERO = one(AB2), zero(AB2)


def test_alphabet_bounds():
    assert Alphabet(2).size == 2
    assert Alphabet(None).size is None
    for bad in (1, 0, -3):
        with pytest.raises(TooFewGenerators):
            Alphabet(bad)


def test_alphabet_size_must_be_an_int():
    # a float size would admit letter c below 2.5 and break ``ball``
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(TypeError, match="^alphabet size must be an int or None, got "):
            Alphabet(bad)


def test_make_alphabet_accepts_inf():
    assert make_alphabet("inf") == Alphabet(None)
    assert make_alphabet(None) == Alphabet(None)
    assert make_alphabet(4) == Alphabet(4)


def test_alphabet_membership():
    assert 0 in AB2 and 1 in AB2
    assert 2 not in AB2 and -1 not in AB2
    inf = Alphabet(None)
    assert 10**9 in inf and -1 not in inf


def test_letter_names():
    assert letter_name(0) == "a"
    assert letter_name(25) == "z"
    assert letter_name(26) == "g26"
    assert render_word((1, 0, 26)) == "bag26"


def test_defining_relations():
    assert A * A.inverse() == ONE
    assert A * B.inverse() == ZERO
    assert B * B.inverse() == ONE


def test_product_cancels_at_suffix():
    # ab * b' strips the trailing b; a prefix convention would give 0 here
    ab_word = element(AB2, (), (0, 1))
    assert ab_word * B.inverse() == A
    assert ab_word * A.inverse() == ZERO
    # b * (ab)' leaves a'
    assert B * ab_word.inverse() == A.inverse()
    # disjoint ends annihilate
    assert element(AB2, (), (0,)) * element(AB2, (1,), ()) == ZERO


def test_identity_and_zero_absorb():
    samples = (ZERO, ONE, A, A.inverse() * B, element(AB2, (0, 1), (1,)))
    for x in samples:
        assert ONE * x == x and x * ONE == x
        assert ZERO * x == ZERO and x * ZERO == ZERO


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatch):
        A * generator(AB3, 0)


@pytest.mark.parametrize("lam, radius", [(2, 3), (3, 2)])
def test_mul_nf_matches_oracle_and_element_product(lam, radius):
    elems = list(ball(Alphabet(lam), radius))
    for x, y in iproduct(elems, elems):
        nf = mul_nf(x.u, x.v, y.u, y.v)
        wrapped = zero(x.alphabet) if nf is None else Element(x.alphabet, *nf)
        assert wrapped == mul_oracle(x, y)
        assert x * y == wrapped


def test_inverse_swaps_components():
    x = element(AB3, (0, 1), (2,))
    assert x.inverse() == element(AB3, (2,), (0, 1))
    assert ZERO.inverse() == ZERO
    assert ONE.inverse() == ONE
    assert A.inverse().inverse() == A


@given(elements_st(3))
def test_quasi_inverse_laws(x):
    y = x.inverse()
    assert x * y * x == x
    assert y * x * y == y


@given(elements_st(3), elements_st(3))
def test_involution_antihomomorphism(x, y):
    assert (x * y).inverse() == y.inverse() * x.inverse()


def test_unique_quasi_inverse_in_small_ball():
    # each x in the radius-2 ball has exactly one quasi-inverse in radius 4
    b4 = list(ball(AB2, 4))
    for x in ball(AB2, 2):
        mates = [y for y in b4 if x * y * x == x and y * x * y == y]
        assert mates == [x.inverse()]


def test_positive_word_unit_laws():
    for n in range(6):
        for w in iproduct(range(2), repeat=n):
            v = element(AB2, (), w)
            assert v * v.inverse() == ONE
            e = v.inverse() * v
            assert e.is_idempotent()
            assert (e == ONE) == (n == 0)


def test_idempotent_examples():
    assert (A.inverse() * A).is_idempotent()
    assert ONE.is_idempotent() and ZERO.is_idempotent()
    assert not (A.inverse() * B).is_idempotent()
    assert not A.is_idempotent()


@given(elements_st(2))
def test_idempotents_are_diagonal(x):
    assert x.is_idempotent() == (x.is_zero or x.u == x.v)


def test_idempotents_commute():
    idems = [x for x in ball(AB2, 3) if x.is_idempotent()]
    assert len(idems) == 4  # 0, 1, a'a, b'b: diagonal elements have even size
    for e in idems:
        for f in idems:
            assert e * f == f * e


def test_associativity_random_three_alphabets():
    checked = 0
    for lam in (2, 3, 5):
        ab = Alphabet(lam)
        rng = random.Random(1009 * lam)
        for _ in range(35_000):
            x = random_element(rng, ab, lam)
            y = random_element(rng, ab, lam)
            z = random_element(rng, ab, lam)
            assert (x * y) * z == x * (y * z)
            checked += 1
    assert checked >= 100_000


def test_downset_examples():
    assert [str(e) for e in (A.inverse() * B).downset()] == ["1", "a'", "a'b"]
    assert ONE.downset() == [ONE]
    x = element(AB2, (0, 1), (0,))  # b'a'a
    assert [str(e) for e in x.downset()] == ["1", "b'", "b'a'", "b'a'a"]
    with pytest.raises(ZeroHasNoDownset):
        ZERO.downset()


@given(elements_st(2, zero_ok=False))
def test_downset_shape(x):
    d = x.downset()
    assert len(d) == x.size + 1
    assert d[0].is_one and d[-1] == x
    assert len(set(d)) == len(d)


def test_downset_cardinality_on_ball():
    for x in ball(AB2, 4).nonzero:
        assert len(x.downset()) == x.size + 1


def test_downset_members_divide_from_the_left():
    # every member d of the downset satisfies d * (d' * x) == x
    x = element(AB2, (1, 0), (0, 1))
    for d in x.downset():
        rest = d.inverse() * x
        assert d * rest == x


def test_render_fixed_points():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(A) == "a"
    assert str(A.inverse()) == "a'"
    assert str(element(AB3, (0, 1), (2,))) == "b'a'c"
    assert str(element(Alphabet(None), (30,), (26,))) == "g30'g26"


def test_repr_is_informative():
    assert "Element" in repr(A)
    assert "0" in repr(ZERO)


@given(elements_st(3))
def test_json_round_trip(x):
    assert from_json(x.alphabet, x.to_json()) == x


def test_json_forms():
    assert ZERO.to_json() == {"zero": True}
    assert element(AB2, (0,), (1, 1)).to_json() == {"u": [0], "v": [1, 1]}


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json(AB2, {"u": [0]})
    with pytest.raises(ValueError):
        from_json(AB2, [])
    with pytest.raises(UnknownLetter):
        from_json(AB2, {"u": [5], "v": []})


def test_structural_validation():
    with pytest.raises(UnknownLetter):
        element(AB2, (0,), (3,))
    with pytest.raises(ValueError):
        Element(AB2, (0,), None)  # half-zero pairs are not a thing


def test_enumeration_order_is_stable():
    b2 = list(ball(AB2, 2))
    assert b2 == sorted(b2, key=enumeration_key)
    assert [str(e) for e in b2[:6]] == ["0", "1", "a", "b", "a'", "b'"]


def test_elements_of_size_lex_order():
    got = [str(e) for e in elements_of_size(AB2, [0, 1], 2)]
    assert got[:4] == ["aa", "ab", "ba", "bb"]  # |u| = 0 slice first
    assert got[4:8] == ["a'a", "a'b", "b'a", "b'b"]
    assert got[8:] == ["a'a'", "b'a'", "a'b'", "b'b'"]  # u lex, rendered reversed
    assert len(got) == 12  # (|u|,|v|) in {(0,2),(1,1),(2,0)}: 4 + 4 + 4


def test_hash_consistency():
    d = {A: 1, A.inverse(): 2}
    assert d[generator(AB2, 0)] == 1
    assert d[element(AB2, (0,), ())] == 2
