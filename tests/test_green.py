"""R-classes, the solver and its oracle, balls, the stack action."""

from itertools import chain
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymon import (
    Alphabet,
    AlphabetMismatch,
    Ball,
    Element,
    InfiniteAlphabet,
    KeyMismatch,
    UnknownLetter,
    ZeroArgument,
    act,
    ball,
    ball_cardinality,
    cayley_dot,
    element,
    enumeration_key,
    generator,
    mul_oracle,
    one,
    rclass_key,
    rclass_witness,
    solve_axb,
    zero,
)
from polymon.green import _solve_left

from helpers import elements_of_size, letters_of, solve_axb_enumerate

AB2 = Alphabet(2)
AB3 = Alphabet(3)
A, B = generator(AB2, 0), generator(AB2, 1)
ONE, ZERO = one(AB2), zero(AB2)


def test_rclass_keys():
    assert rclass_key(A.inverse() * B) == rclass_key(A.inverse())
    assert rclass_key(A) == rclass_key(B)  # both have empty first component
    assert rclass_key(ONE) == ONE
    assert rclass_key(ZERO) == ZERO
    assert str(rclass_key(A.inverse() * B)) == "a'"


def test_rclass_keys_differ_across_alphabets():
    # a'b over 2 letters and a'a over 3 share u = (a), but their x*x' lie in different monoids
    x, y = element(AB2, (0,), (1,)), element(AB3, (0,), (0,))
    assert rclass_key(x) != rclass_key(y)
    assert rclass_key(zero(AB2)) != rclass_key(zero(AB3))


def test_key_equality_matches_left_idempotent():
    b3 = list(ball(AB2, 3))
    for x in b3:
        k = rclass_key(x)
        assert k * k.inverse() == x * x.inverse()
        assert rclass_key(k) == k
        for y in b3:
            assert (k == rclass_key(y)) == (x * x.inverse() == y * y.inverse())


def test_witness_examples():
    x, y = A.inverse() * B, A.inverse()
    s = rclass_witness(x, y)
    assert s == B.inverse()
    assert x * s == y
    assert rclass_witness(x, x) == element(AB2, (1,), (1,))  # diagonal idempotent
    x2 = element(AB2, (1,), (0,))  # b'a
    y2 = element(AB2, (1,), (1, 1))  # b'bb
    s2 = rclass_witness(x2, y2)
    assert s2 == element(AB2, (0,), (1, 1))
    assert x2 * s2 == y2


def test_witness_guards():
    with pytest.raises(KeyMismatch):
        rclass_witness(A.inverse(), B.inverse())
    with pytest.raises(ZeroArgument):
        rclass_witness(ZERO, ZERO)
    with pytest.raises(ZeroArgument):
        rclass_witness(A, ZERO)
    with pytest.raises(AlphabetMismatch):
        rclass_witness(A, generator(AB3, 0))


def test_witness_replays_across_ball():
    b3 = ball(AB2, 3).elements[1:]
    for x in b3:
        for y in b3:
            if x.u == y.u:
                assert x * rclass_witness(x, y) == y


def test_solver_fixtures():
    assert solve_axb(ONE, ONE, ONE) == [ONE]
    got = solve_axb(A, A.inverse(), ONE)
    assert got == [ONE, element(AB2, (0,), (0,))]  # 1 and a'a
    assert solve_axb(ONE, A, ONE) == []  # empty solution sets are legal


def test_solver_guards():
    with pytest.raises(ZeroArgument):
        solve_axb(ZERO, ONE, ONE)
    with pytest.raises(ZeroArgument):
        solve_axb(A, B, ZERO)
    with pytest.raises(AlphabetMismatch):
        solve_axb(A, one(AB3), ONE)


def test_solver_matches_brute_force():
    a3 = generator(AB3, 0)
    got = set(solve_axb(a3, a3.inverse(), one(AB3)))
    brute = {x for x in ball(AB3, 5).elements[1:] if a3 * x * a3.inverse() == one(AB3)}
    assert got == brute
    # solutions never mention letters absent from the inputs
    for x in got:
        assert letters_of(x) <= {0}


def test_solver_output_is_in_enumeration_order():
    c = element(AB2, (0,), (0,))
    sols = solve_axb(A, A.inverse(), c * c)
    sizes = [x.size for x in sols]
    assert sizes == sorted(sizes)


def assert_solution_set(a, b, c, sols):
    letters = letters_of(a, b, c)
    for x in sols:
        assert (a * x) * b == c
        assert letters_of(x) <= letters
    assert len(sols) <= (len(a.v) + 1) * (len(b.u) + 1)


def test_solution_counts_stay_within_their_bounds():
    # a*y = c has at most |v_a| + 1 solutions: one per split of v_a when
    # u_c = u_a, or the one y = (s + v_a, v_c) when u_c = s + u_a, s nonempty
    b3 = ball(AB2, 3).elements[1:]
    reached = 0
    for a in b3:
        for c in b3:
            n = len(_solve_left(a.u, a.v, c.u, c.v))
            assert n <= len(a.v) + 1, (a, c)
            reached += n == len(a.v) + 1
    assert reached == 173
    b2 = ball(AB2, 2).elements[1:]
    reached = 0
    for a, b, c in iproduct(b2, repeat=3):
        n = len(solve_axb(a, b, c))
        assert n <= (len(a.v) + 1) * (len(b.u) + 1), (a, b, c)
        reached += n == (len(a.v) + 1) * (len(b.u) + 1)
    assert reached == 85


def test_solver_matches_oracle_on_radius_one_lambda_three():
    elems = ball(AB3, 1).elements[1:]
    for a, b, c in iproduct(elems, repeat=3):
        sols = solve_axb(a, b, c)
        assert sols == solve_axb_enumerate(a, b, c), (a, b, c)
        assert_solution_set(a, b, c, sols)


def small_elements(lam, max_size):
    """Nonzero elements of size <= max_size.  Over the countable alphabet
    the letters are 0 and 40, past every finite alphabet used here; two
    letters keep the oracle's search as small as over lambda 2."""
    ab = Alphabet(lam)
    letter = st.integers(0, lam - 1) if lam else st.sampled_from((0, 40))
    return st.lists(letter, max_size=max_size).flatmap(
        lambda w: st.integers(0, len(w)).map(lambda k: Element(ab, tuple(w[:k]), tuple(w[k:])))
    )


def triples(max_size):
    return st.sampled_from((2, 3, None)).flatmap(lambda lam: st.tuples(*[small_elements(lam, max_size)] * 3))


@settings(max_examples=40, deadline=None)
@given(triples(2))
def test_solver_matches_oracle_on_small_systems(system):
    a, b, c = system
    sols = solve_axb(a, b, c)
    assert sols == solve_axb_enumerate(a, b, c)
    assert_solution_set(a, b, c, sols)


@given(triples(4))
def test_solver_finds_planted_solutions(system):
    # sizes beyond the oracle's reach: the planted x must be found
    a, x, b = system
    c = (a * x) * b
    assume(not c.is_zero)
    sols = solve_axb(a, b, c)
    assert x in sols
    assert sols == sorted(sols, key=enumeration_key)
    assert_solution_set(a, b, c, sols)


def test_ball_shapes():
    b0 = ball(AB2, 0)
    assert [str(e) for e in b0] == ["0", "1"]
    assert len(ball(AB2, 2)) == 18 == ball_cardinality(2, 2)
    assert len(ball(AB2, 4)) == 130 == ball_cardinality(2, 4)
    assert len(ball(AB3, 3)) == ball_cardinality(3, 3)
    with pytest.raises(InfiniteAlphabet):
        ball(Alphabet(None), 1)
    with pytest.raises(ValueError):
        ball(AB2, -1)


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_ball_matches_its_oracle(lam):
    # the test reference streams one size at a time; core.normal_forms pairs per-length word tables
    ab = Alphabet(lam)
    for n in range(5):
        oracle = (zero(ab), *chain.from_iterable(elements_of_size(ab, range(lam), t) for t in range(n + 1)))
        got = ball(ab, n)
        assert got.elements == oracle
        assert len(got) == ball_cardinality(lam, n)


@pytest.mark.parametrize("lam", [10**9, 10**30])
def test_radius_0_ball_lists_no_letters(lam):
    ab = Alphabet(lam)
    assert ball(ab, 0).elements == (zero(ab), one(ab))


def test_ball_membership_and_order():
    b2 = ball(AB2, 2)
    assert ZERO in b2 and ONE in b2 and A in b2
    assert element(AB2, (0,), (0, 1)) not in b2  # size 3
    assert one(AB3) not in b2  # another alphabet
    sizes = [e.size for e in b2.elements[1:]]
    assert sizes == sorted(sizes)
    assert len(set(b2.elements)) == len(b2)
    assert isinstance(b2, Ball) and b2.radius == 2


def test_act_examples():
    x = element(AB3, (0,), (1,))  # a'b rewrites a trailing a to b
    assert act(x, (2, 0)) == (2, 1)
    assert act(x, (2, 1)) is None
    assert act(element(AB2, (0, 1), ()), (1,)) is None  # too short to match
    assert act(ONE, (0, 1, 1)) == (0, 1, 1)
    assert act(ZERO, ()) is None
    assert act(ZERO, (0, 0)) is None
    with pytest.raises(UnknownLetter):
        act(A, (5,))


def test_act_matches_multiplication():
    # act(x, w) == t exactly when (eps, w) * x is the positive element (eps, t);
    # act multiplies through the closed form, so the rewriting route
    # ``mul_oracle``, which shares no code with it, is checked as well
    for ab in (AB2, AB3):
        words = [w for n in range(4) for w in iproduct(range(ab.size), repeat=n)]
        for x in ball(ab, 2):
            for w in words:
                got = act(x, w)
                stack = element(ab, (), w)
                for prod in (stack * x, mul_oracle(stack, x)):
                    if got is None:
                        assert prod.is_zero or prod.u != ()
                    else:
                        assert prod == element(ab, (), got)


def test_action_composition_law():
    b2 = list(ball(AB2, 2))
    words = [w for n in range(6) for w in iproduct(range(2), repeat=n)]
    for x in b2:
        for y in b2:
            xy = x * y
            for w in words:
                via = act(x, w)
                expected = act(y, via) if via is not None else None
                assert act(xy, w) == expected


def test_action_separates_elements():
    b2 = ball(AB2, 2).elements[1:]
    words = [w for n in range(5) for w in iproduct(range(2), repeat=n)]
    for i, x in enumerate(b2):
        for y in b2[i + 1:]:
            assert any(act(x, w) != act(y, w) for w in words)


def test_cayley_dot_shape():
    dot = cayley_dot(ball(AB2, 1))
    assert dot == cayley_dot(ball(AB2, 1))  # deterministic
    assert dot.startswith("digraph")
    assert dot.endswith("}\n")
    assert 'label="1"' in dot and 'label="0"' in dot
    assert '[label="a"]' in dot and '[label="b"]' in dot
    # 6 ball members (0, 1, a, b, a', b') with 2 out-edges each
    assert dot.count("->") == 12
