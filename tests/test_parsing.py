"""Expression grammar: signed words, evaluation, render round trips."""

import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import elements_st, evaluate_elements
from polymon import (
    Alphabet,
    ExpressionSyntaxError,
    PolymonError,
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
from polymon import parsing
from polymon.core import letter_name
from polymon.parsing import MAX_NESTING, tokenize

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


def test_long_prime_chain_folds_by_parity(monkeypatch):
    assert ev("a" + "'" * 5001) == generator(AB2, 0).inverse()
    # 5001 primes mirror their term's word once, not 5001 times
    mirrored = []
    monkeypatch.setattr(parsing, "reversed", lambda w: mirrored.append(len(w)) or reversed(w), raising=False)
    assert parse("(ab)" + "'" * 5001, AB2) == (-2, -1)
    assert mirrored == [2]


def test_postfix_binds_tighter_than_product():
    a, b = generator(AB2, 0), generator(AB2, 1)
    assert ev("ab'") == a * b.inverse()
    assert ev("ab'") == zero(AB2)
    assert ev("(ab)'") == b.inverse() * a.inverse()


def test_parse_returns_signed_word():
    assert parse("a'b", AB2) == (-1, 2)
    assert parse("(ab)'", AB2) == (-2, -1)
    assert parse("1", AB2) == ()
    assert parse("0 a", AB2) is None


def test_evaluate_none_is_zero():
    for lam in (2, 3, None):
        assert evaluate(None, Alphabet(lam)) == zero(Alphabet(lam))


def test_evaluate_checks_every_letter():
    with pytest.raises(UnknownLetter):
        evaluate((6,), AB2)
    with pytest.raises(UnknownLetter):
        evaluate((1, -2, 6), AB2)  # the check runs before the pass finds Zero


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


def test_character_classes_of_the_tokenizer():
    # U+3000 is the last code point that str.isspace accepts
    assert max(c for c in range(sys.maxunicode + 1) if chr(c).isspace()) < 0x3001
    single = {"0": "ZERO", "1": "ONE", "(": "LPAREN", ")": "RPAREN", "*": "STAR", "'": "INVERT"}
    single.update((chr(c), "LETTER") for c in range(ord("a"), ord("z") + 1))
    assert len(single) == 32
    for c in map(chr, range(0x3001)):
        if c.isspace():
            assert tokenize(c) == []
        elif c in single:
            assert tokenize(c) == [(single[c], 0, ord(c) - 97 if c.isalpha() else -1)]
        else:
            message = "expected '-1' after '^'" if c == "^" else f"unexpected character {c!r}"
            with pytest.raises(ExpressionSyntaxError) as caught:
                tokenize(c)
            assert str(caught.value) == f"{message} (position 0)" and caught.value.position == 0


def test_letter_index_takes_ascii_digits_only():
    for text in ("g²", "g١", "g1²"):
        with pytest.raises(ExpressionSyntaxError, match=f"^unexpected character '{text[-1]}' \\(position {len(text) - 1}\\)$"):
            tokenize(text)


def test_letter_index_too_long_is_a_syntax_error():
    # 5000 digits is past Python's default int-conversion limit of 4300
    huge = "g" + "1" * 5000
    for ab in (AB2, Alphabet(None)):
        with pytest.raises(ExpressionSyntaxError, match=r"^letter index too long \(position 2\)$"):
            parse("a " + huge, ab)
        with pytest.raises(ExpressionSyntaxError, match=r"^letter index too long \(position 1\)$"):
            parse_positive_word("a" + huge, ab)


def test_zero_does_not_skip_later_checks():
    with pytest.raises(UnknownLetter, match=r"^letter c \(position 2\) not in alphabet of size 2$"):
        parse("0 c", AB2)
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("0 )", AB2)
    assert exc.value.position == 2


# -- random trees against the Element fold ------------------------------

LAMBDAS = (2, 3, None)


def in_range_letters(lam):
    return list(range(lam)) if lam else [0, 1, 6, 26, 30]


def trees_st(lam, parseable=True):
    """Random expression trees over Alphabet(lam), in the tuple form of
    ``helpers.evaluate_elements``.  Unless parseable, one leaf in twenty
    of a finite alphabet's tree is a letter outside the alphabet."""
    letters = in_range_letters(lam)
    leaf = st.one_of(st.just(("0",)), st.just(("1",)), st.sampled_from(letters).map(lambda i: ("letter", i)))
    if not parseable and lam:
        bad = st.sampled_from([lam, lam + 5]).map(lambda i: ("letter", i))
        leaf = st.integers(0, 19).flatmap(lambda k, good=leaf: bad if k == 0 else good)

    def extend(children):
        chain = st.tuples(children, st.integers(1, 4))
        return st.one_of(
            st.lists(children, min_size=2, max_size=4).map(lambda fs: ("mul", tuple(fs))),
            chain.map(lambda t: primed(*t)),
        )

    return st.recursive(leaf, extend, max_leaves=12)


def primed(tree, count):
    for _ in range(count):
        tree = ("inv", tree)
    return tree


def sessions(parseable=True):
    return st.sampled_from(LAMBDAS).flatmap(lambda lam: st.tuples(st.just(Alphabet(lam)), trees_st(lam, parseable)))


def render(tree, sep=" ", postfix="'"):
    """Expression text whose expression tree is exactly ``tree``."""
    kind = tree[0]
    if kind in ("0", "1"):
        return kind
    if kind == "letter":
        return letter_name(tree[1])
    if kind == "inv":
        return wrapped(tree[1], sep, postfix) + postfix
    return sep.join(wrapped(f, sep, postfix) for f in tree[1])


def wrapped(tree, sep, postfix):
    text = render(tree, sep, postfix)
    return f"({text})" if tree[0] == "mul" else text


def outcome(thunk):
    try:
        return thunk()
    except PolymonError as err:
        return type(err)


@settings(max_examples=200, deadline=None)
@given(sessions(parseable=False))
def test_evaluate_matches_element_fold(session):
    ab, tree = session
    assert outcome(lambda: evaluate(parse(render(tree), ab), ab)) == outcome(lambda: evaluate_elements(tree, ab))


@settings(max_examples=100, deadline=None)
@given(sessions(), st.sampled_from([" ", " * ", "*"]), st.sampled_from(["'", "^-1", " ' "]))
def test_rendered_trees_parse_back(session, sep, postfix):
    ab, tree = session
    word = parse(render(tree, sep, postfix), ab)
    assert word == parse(render(tree), ab)
    assert evaluate(word, ab) == evaluate_elements(tree, ab)


# -- pinned outcomes: words, error types, messages and positions ---------

SYMBOLS = ("a", "c", "0", "1", "(", ")", "*", "'", "^-1", " ")
OUTCOMES_SHA256 = "0198e9b57c0321993877ee2de91e745c6ccb2f7ca3f54c7553461e380b85c6ae"


def outcome_texts():
    """Every string of up to 4 symbols, then 2000 seeded random strings of
    up to 40 that also hold lexical errors and long letter names."""
    texts = [""]
    layer = [""]
    for _ in range(4):
        layer = [t + s for t in layer for s in SYMBOLS]
        texts += layer
    rng = random.Random(13)
    extra = SYMBOLS + ("$", "^", "g27", "g²")
    texts += ["".join(rng.choice(extra) for _ in range(rng.randint(0, 40))) for _ in range(2000)]
    return texts


def pinned(call, text, ab):
    try:
        word = call(text, ab)
    except PolymonError as err:
        return [type(err).__name__, str(err)]
    return word if word is None else list(word)


def test_parse_outcomes_are_pinned():
    records = [
        pinned(call, text, ab)
        for text in outcome_texts()
        for ab in (AB2, Alphabet(None))
        for call in (parse, parse_positive_word)
    ]
    blob = json.dumps(records, ensure_ascii=True).encode()
    assert hashlib.sha256(blob).hexdigest() == OUTCOMES_SHA256
