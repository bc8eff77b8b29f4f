"""Core arithmetic: alphabets, normal forms, products, downsets, rendering."""

import copy
import enum
import pickle
import random
from itertools import product as iproduct

import pytest
from hypothesis import given

from helpers import Letter, elements_of_size, elements_st, letter_probes, random_element
from polymon import (
    Alphabet,
    AlphabetMismatch,
    Derivation,
    DerivationStep,
    Element,
    TooFewGenerators,
    UnknownLetter,
    ZeroArgument,
    act,
    ball,
    cofinite,
    element,
    enumeration_key,
    generator,
    make_alphabet,
    mul_oracle,
    one,
    rclass_key,
    reduce,
    zero,
)
from polymon.core import letter_name, mul_nf, render_word

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


def test_generator_names_an_unknown_letter():
    # generator checks its letter as element() does, with the same message
    messages = []
    for build in (lambda: generator(AB2, 5), lambda: element(AB2, (), (5,))):
        with pytest.raises(UnknownLetter) as exc:
            build()
        messages.append(str(exc.value))
    assert messages == ["letter f not in alphabet of size 2"] * 2
    # a negative index is no letter name; it is shown as the int it is
    with pytest.raises(UnknownLetter, match="^letter -1 not in alphabet of size 2$"):
        element(AB2, (-1,), ())


def test_alphabet_size_must_be_an_int():
    # a float size would admit letter c below 2.5 and break ``ball``
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(TypeError, match="^alphabet size must be an int or None, got "):
            Alphabet(bad)


def test_booleans_are_neither_letters_nor_sizes():
    # bool subclasses int: True once read as letter b and built b'
    with pytest.raises(UnknownLetter, match="^letter True not in alphabet of size 2$"):
        element(AB2, (True,), ())
    with pytest.raises(UnknownLetter):
        generator(AB2, True)
    assert False not in Alphabet(None)
    with pytest.raises(UnknownLetter):
        reduce(AB2, (True,))  # signed letters too: True once read as a
    with pytest.raises(TypeError, match="^alphabet size must be an int or None, got True$"):
        Alphabet(True)


def test_make_alphabet_accepts_inf():
    assert make_alphabet("inf") == Alphabet(None)
    assert make_alphabet(None) == Alphabet(None)
    assert make_alphabet(4) == Alphabet(4)
    assert make_alphabet("3") == Alphabet(3)
    assert make_alphabet("INFINITE") == Alphabet(None)
    # a string size takes ASCII digits only, like a g letter index
    for text in (" 3 ", "1_0", "+3", "-3", "\u0663", "many", ""):
        with pytest.raises(ValueError) as exc:
            make_alphabet(text)
        assert str(exc.value) == f"alphabet size must be 'inf' or ASCII digits, got {text!r}"
    # only strings are converted: other sizes reach Alphabet's own check
    for size in (2.9, True, b"3"):
        with pytest.raises(TypeError, match=f"^alphabet size must be an int or None, got {size!r}$"):
            make_alphabet(size)


def test_alphabet_membership():
    assert 0 in AB2 and 1 in AB2
    assert 2 not in AB2 and -1 not in AB2
    inf = Alphabet(None)
    assert 10**9 in inf and -1 not in inf
    # ``in`` defines a letter; check_word's inline test must agree with it
    for size in (2, 3, None):
        ab = Alphabet(size)
        for v in letter_probes(size):
            named = isinstance(v, int) and type(v) is not bool and v >= 0
            assert (v in ab) == (named and (size is None or v < size))
            if v in ab:
                assert ab.check_word((v,)) == (v,)
                continue
            with pytest.raises(UnknownLetter) as exc:
                ab.check_word((v,))
            shown = letter_name(v) if named else repr(v)
            assert str(exc.value) == f"letter {shown} not in alphabet of size {size}"


def test_int_subclass_letters_are_letters():
    # an int subclass other than bool is the letter it equals, on every path
    Named = enum.IntEnum("Named", "A B C D E", start=0)

    def outcome(call):
        try:
            return call()
        except UnknownLetter:
            return UnknownLetter

    for ab in (AB2, AB3, Alphabet(None)):
        x = element(ab, (0,), (1,))
        for k, wrapped in [(k, Letter(k)) for k in range(-1, 5)] + [(int(n), n) for n in Named]:
            assert (wrapped in ab) == (k in ab)
            for call in (lambda i: generator(ab, i), lambda i: element(ab, (i, 0), (i,)),
                         lambda i: act(x, (i, 0)), lambda i: reduce(ab, (i, -1))):
                assert outcome(lambda: call(wrapped)) == outcome(lambda: call(k))


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
        want = mul_oracle(x, y)
        # Zero is the pair (None, None), the shape of Element's fields
        assert type(nf) is tuple and len(nf) == 2
        assert (nf == (None, None)) == want.is_zero
        assert Element(x.alphabet, *nf) == want == x * y


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
            assert e * e == e
            assert (e == ONE) == (n == 0)


def test_idempotent_examples():
    e, x = A.inverse() * A, A.inverse() * B
    assert e * e == e and ONE * ONE == ONE and ZERO * ZERO == ZERO
    assert x * x != x and A * A != A


@given(elements_st(2))
def test_idempotents_are_diagonal(x):
    assert (x * x == x) == (x.is_zero or x.u == x.v)


def test_idempotents_commute():
    idems = [x for x in ball(AB2, 3) if x * x == x]
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
    with pytest.raises(ZeroArgument, match="^zero has no prefix set$"):
        ZERO.downset()


@given(elements_st(2, zero_ok=False))
def test_downset_shape(x):
    d = x.downset()
    assert len(d) == x.size + 1
    assert d[0] == one(x.alphabet) and d[-1] == x
    assert len(set(d)) == len(d)


def test_downset_cardinality_on_ball():
    for x in ball(AB2, 4).elements[1:]:
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


def test_json_forms():
    assert ZERO.to_json() == {"zero": True}
    assert element(AB2, (0,), (1, 1)).to_json() == {"u": [0], "v": [1, 1]}


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


# One value of each immutable class and one of its fields.
VALUES = {
    "Alphabet": (AB3, "size"),
    "Element": (element(AB2, (0,), (1,)), "u"),
    "Ball": (ball(AB2, 1), "radius"),
    "DerivationStep": (DerivationStep("seed", (A, ONE)), "rule"),
    "Derivation": (Derivation((DerivationStep("seed", (A, ONE)),)), "steps"),
    "CofiniteNbhd": (cofinite(AB2, [A, B]), "excluded"),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_are_immutable(name):
    value, field = VALUES[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
def test_values_copy_and_pickle_to_equal_values(name):
    value, _ = VALUES[name]
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again == value and not again != value
        assert hash(again) == hash(value)


def test_element_equality_needs_an_element_over_an_equal_alphabet():
    x = element(AB2, (0,), (1,))
    for other in [(AB2, (0,), (1,)), ((0,), (1,)), (AB2, (0,), (1,), None)]:
        assert x != other and other != x and not x == other
    assert element(Alphabet(2), (0,), (1,)) != element(Alphabet(3), (0,), (1,))
    assert zero(Alphabet(2)) != zero(Alphabet(3))
    assert rclass_key(x) != (x.u,)
    # a second, equal alphabet object: equal values, equal hashes, today's hash
    y = element(Alphabet(2), (0,), (1,))
    assert y == x and hash(y) == hash(x) == hash((y.u, y.v))
    assert hash(zero(Alphabet(2))) == hash(ZERO) == hash((None, None))
    assert hash(Alphabet(3)) == hash(AB3) == hash((3,))
    assert hash(Alphabet(None)) == hash((None,))


def test_one_normal_form_over_two_alphabets_shares_a_hash_but_no_key():
    for x, y in [(element(Alphabet(2), (0,), (1,)), element(Alphabet(3), (0,), (1,))),
                 (zero(Alphabet(2)), zero(Alphabet(3)))]:
        assert x != y and hash(x) == hash(y)
        assert len({x, y}) == 2
        d = {x: "x", y: "y"}
        assert len(d) == 2 and (d[x], d[y]) == ("x", "y")


def test_alphabet_repr():
    assert repr(Alphabet(None)) == "Alphabet(size=None)"
    assert repr(Alphabet(3)) == "Alphabet(size=3)"
