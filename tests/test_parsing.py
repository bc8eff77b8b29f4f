"""Expression grammar: parse trees, evaluation, render round trips."""

import pytest
from hypothesis import given

from helpers import elements_st
from polymon import (
    Alphabet,
    AlphabetMismatch,
    ExpressionSyntaxError,
    UnknownLetter,
    ball,
    element,
    evaluate,
    generator,
    one,
    parse,
    parse_positive_word,
    zero,
)
from polymon.parsing import MAX_NESTING, Generator, Inverse, Literal, Product, ZeroLit

AB2 = Alphabet(2)
AB3 = Alphabet(3)


def ev(text, ab=AB2):
    return evaluate(parse(text, ab), ab)


def test_atoms():
    assert ev("0") == zero(AB2)
    assert ev("1") == one(AB2)
    assert ev("a") == generator(AB2, 0)
    assert ev("z", Alphabet(26)) == generator(Alphabet(26), 25)


def test_g_letters():
    big = Alphabet(None)
    assert ev("g26", big) == generator(big, 26)
    assert ev("g0", big) == generator(big, 0)  # alias for 'a'
    assert ev("g", Alphabet(7)) == generator(Alphabet(7), 6)  # bare g is a letter


def test_inverse_postfix():
    a = generator(AB2, 0)
    assert ev("a'") == a.inverse()
    assert ev("a^-1") == a.inverse()
    assert ev("a''") == a
    assert ev("(a'b)'") == ev("b'a")


def test_products_and_whitespace():
    a, b = generator(AB2, 0), generator(AB2, 1)
    assert ev("ab") == a * b
    assert ev("a b") == a * b
    assert ev("a*b") == a * b
    assert ev("a a'") == one(AB2)
    assert ev("a b'") == zero(AB2)
    assert ev("  a  '  b ") == a.inverse() * b


def test_long_prime_chain_folds_by_parity():
    assert ev("a" + "'" * 5001) == generator(AB2, 0).inverse()


def test_postfix_binds_tighter_than_product():
    a, b = generator(AB2, 0), generator(AB2, 1)
    assert ev("ab'") == a * b.inverse()
    assert ev("ab'") == zero(AB2)
    assert ev("(ab)'") == b.inverse() * a.inverse()


def test_parse_tree_shapes():
    assert parse("a'b", AB2) == Product((Inverse(Generator(0)), Generator(1)))
    assert parse("0", AB2) == ZeroLit()


def test_literal_leaf():
    x = element(AB2, (0,), (1,))
    assert evaluate(Literal(x), AB2) == x
    assert evaluate(Product((Literal(x), Literal(x.inverse()))), AB2) == x * x.inverse()
    with pytest.raises(AlphabetMismatch):
        evaluate(Literal(x), AB3)


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("a^2", AB2)
    assert exc.value.position == 1
    for bad in ("", "(a", "a)", "a @ b", "*a", "'a"):
        with pytest.raises(ExpressionSyntaxError):
            parse(bad, AB2)


def test_nesting_depth_is_bounded():
    assert MAX_NESTING == 200
    for text, pos in (("(" * 201 + "a" + ")" * 201, 200), ("a(" * 201 + "a" + ")" * 201, 401)):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse(text, AB2)
        assert exc.value.position == pos


def test_unknown_letters_are_domain_errors():
    with pytest.raises(UnknownLetter) as exc:
        parse("c", AB2)
    assert "position 0" in str(exc.value)
    with pytest.raises(UnknownLetter):
        parse("g99", AB3)


def test_positive_words():
    assert parse_positive_word("", AB2) == ()
    assert parse_positive_word("ab", AB2) == (0, 1)
    assert parse_positive_word("ca", AB3) == (2, 0)
    with pytest.raises(ExpressionSyntaxError):
        parse_positive_word("a'", AB2)
    with pytest.raises(ExpressionSyntaxError):
        parse_positive_word("a b*", AB2)
    with pytest.raises(UnknownLetter):
        parse_positive_word("c", AB2)


def test_render_parse_round_trip_small():
    for x in ball(AB2, 4):
        assert ev(str(x)) == x


@given(elements_st(3))
def test_render_parse_round_trip_random(x):
    assert evaluate(parse(str(x), x.alphabet), x.alphabet) == x


def test_infinite_alphabet_round_trip():
    big = Alphabet(None)
    x = element(big, (30,), (26, 5))
    assert str(x) == "g30'g26f"
    assert evaluate(parse(str(x), big), big) == x
