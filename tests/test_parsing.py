"""Expression grammar: parse trees, evaluation, render round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import elements_st, evaluate_elements
from polymon import (
    Alphabet,
    AlphabetMismatch,
    Element,
    ExpressionSyntaxError,
    PolymonError,
    UnknownLetter,
    ball,
    element,
    evaluate,
    free_word,
    generator,
    one,
    parse,
    parse_positive_word,
    reduce,
    zero,
)
from polymon.core import letter_name
from polymon.parsing import MAX_NESTING, Generator, Inverse, Literal, OneLit, Product, ZeroLit, tokenize

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


def test_tokens_are_plain_tuples():
    assert tokenize("a^-1 g27'") == [("LETTER", 0, 0), ("INVERT", 1, -1), ("LETTER", 5, 27), ("INVERT", 8, -1)]
    assert all(type(tok) is tuple for tok in tokenize("(0 1)*b"))


def test_letter_index_takes_ascii_digits_only():
    for text in ("g²", "g١", "g1²"):
        with pytest.raises(ExpressionSyntaxError, match=f"^unexpected character '{text[-1]}' \\(position {len(text) - 1}\\)$"):
            tokenize(text)


def test_unchecked_literal_letter_evaluates_as_before():
    f = Element(AB2, (), (5,))  # direct construction skips the letter check
    with pytest.raises(UnknownLetter):
        reduce(AB2, free_word(f))
    assert evaluate(Literal(f), AB2) == f
    assert str(evaluate(Literal(f), AB2)) == "f"
    both = Product((Literal(f), Inverse(Literal(f)), Generator(1)))
    assert evaluate(both, AB2) == evaluate_elements(both, AB2) == generator(AB2, 1)


def test_zero_does_not_skip_later_checks():
    with pytest.raises(AlphabetMismatch) as exc:
        evaluate(Product((ZeroLit(), Literal(generator(AB3, 0)))), AB2)
    assert str(exc.value) == "literal over Alphabet(size=3), session over Alphabet(size=2)"
    with pytest.raises(TypeError):
        evaluate(Product((ZeroLit(), object())), AB2)


# -- random trees against the Element fold ------------------------------

LAMBDAS = (2, 3, None)


def in_range_letters(lam):
    return list(range(lam)) if lam else [0, 1, 6, 26, 30]


def trees_st(lam, parseable=False):
    """Random syntax trees over Alphabet(lam).  Parseable trees hold only
    what the grammar can write: no Literal, no Product of fewer than two
    factors, letters of the alphabet.  The others also hold, at one leaf
    in twenty, a foreign or unchecked Literal, a letter outside the
    alphabet or a value that is no node at all."""
    ab = Alphabet(lam)
    letters = in_range_letters(lam)
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    good = [st.just(ZeroLit()), st.just(OneLit()), st.sampled_from(letters).map(Generator)]
    if not parseable:
        good += [
            st.builds(lambda u, v: Literal(Element(ab, u, v)), words, words),
            st.just(Literal(zero(ab))),
        ]
    leaf = st.one_of(*good)
    if not parseable:
        outside = [-1] + ([lam, lam + 5] if lam else [])
        bad = st.one_of(
            st.sampled_from(outside).map(Generator),
            st.just(Literal(Element(ab, (), ((lam or 40) + 2,)))),
            st.sampled_from([generator(Alphabet(5), 0), zero(Alphabet(5))]).map(Literal),
            st.just("not a node"),
        )
        leaf = st.integers(0, 19).flatmap(lambda k, good=leaf: bad if k == 0 else good)

    def extend(children):
        chain = st.tuples(children, st.integers(1, 4))
        return st.one_of(
            st.lists(children, min_size=2 if parseable else 0, max_size=4).map(lambda fs: Product(tuple(fs))),
            chain.map(lambda t: primed(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=12)


def primed(node, count):
    for _ in range(count):
        node = Inverse(node)
    return node


def outcome(evaluator, tree, ab):
    try:
        return evaluator(tree, ab)
    except (PolymonError, TypeError) as err:
        return type(err), str(err)


def sessions(parseable=False):
    return st.sampled_from(LAMBDAS).flatmap(lambda lam: st.tuples(st.just(Alphabet(lam)), trees_st(lam, parseable)))


@settings(max_examples=200, deadline=None)
@given(sessions())
def test_evaluate_matches_element_fold(session):
    ab, tree = session
    assert outcome(evaluate, tree, ab) == outcome(evaluate_elements, tree, ab)


def render(node, sep, postfix):
    """Expression text that parses back to exactly ``node``."""
    if isinstance(node, ZeroLit):
        return "0"
    if isinstance(node, OneLit):
        return "1"
    if isinstance(node, Generator):
        return letter_name(node.index)
    if isinstance(node, Inverse):
        return wrapped(node.inner, sep, postfix) + postfix
    return sep.join(wrapped(f, sep, postfix) for f in node.factors)


def wrapped(node, sep, postfix):
    text = render(node, sep, postfix)
    return f"({text})" if isinstance(node, Product) else text


@settings(max_examples=100, deadline=None)
@given(sessions(parseable=True), st.sampled_from([" ", " * ", "*"]), st.sampled_from(["'", "^-1", " ' "]))
def test_rendered_trees_parse_back(session, sep, postfix):
    ab, tree = session
    text = render(tree, sep, postfix)
    assert parse(text, ab) == tree
    assert evaluate(parse(text, ab), ab) == evaluate_elements(tree, ab)
