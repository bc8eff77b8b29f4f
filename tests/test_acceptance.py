"""End-to-end gate: every advertised guarantee, one pass/fail line each.

Each test prints its verdict unconditionally (bypassing capture), ending
in the gate's wall time, so a plain `pytest tests/test_acceptance.py`
shows the full scoreboard.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from itertools import product as iproduct

import pytest

from helpers import certify_translations_enumerate, random_element
from polymon import (
    Alphabet,
    ball,
    ball_cardinality,
    certify_translations,
    cofinite,
    collapse_witness,
    element,
    evaluate,
    generator,
    joint_discontinuity_family,
    mul_oracle,
    one,
    parse,
    rclass_key,
    rclass_witness,
    reduce_stepwise,
    shrink_neighborhood,
    solve_axb,
    verify_derivation,
    zero,
)

AB2 = Alphabet(2)
AB3 = Alphabet(3)


@pytest.fixture
def report(capsys):
    """Print one verdict line, suffixed with the seconds since the gate began."""
    started = time.perf_counter()

    def _report(ok: bool, label: str) -> None:
        label = f"{label}, {time.perf_counter() - started:.2f}s"
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
        assert ok, label

    return _report


def test_01_product_oracle_agreement(report):
    started = time.perf_counter()
    mismatches = 0
    b3 = list(ball(AB2, 3))
    for x in b3:
        for y in b3:
            if mul_oracle(x, y) != x * y:
                mismatches += 1
    rng = random.Random(20250819)
    for _ in range(100_000):
        x = random_element(rng, AB3, 3)
        y = random_element(rng, AB3, 3)
        if mul_oracle(x, y) != x * y:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        mismatches == 0 and elapsed < 5.0,
        f"products: closed form == rewriting oracle on {len(b3) ** 2} exhaustive + 100000 random "
        f"pairs, {mismatches} mismatches",
    )


def test_02_associativity_exhaustive(report):
    started = time.perf_counter()
    b2 = list(ball(AB2, 2))
    failures = sum(
        1 for x in b2 for y in b2 for z in b2 if (x * y) * z != x * (y * z)
    )
    elapsed = time.perf_counter() - started
    report(
        failures == 0 and elapsed < 5.0,
        f"associativity: all {len(b2) ** 3} radius-2 triples, {failures} failures",
    )


def test_03_inverse_laws(report):
    b2, b4 = list(ball(AB2, 2)), list(ball(AB2, 4))
    ok = True
    for x in b2:
        if x * x.inverse() * x != x:
            ok = False
        mates = [y for y in b4 if x * y * x == x and y * x * y == y]
        if mates != [x.inverse()]:
            ok = False
    idempotents = [x for x in ball(AB2, 3) if x.is_idempotent()]
    commute = all(e * f == f * e for e in idempotents for f in idempotents)
    report(
        ok and commute,
        "inverses: x*x'*x == x with a unique quasi-inverse per radius-2 element; "
        "radius-3 idempotents commute",
    )


def test_04_ball_cardinalities(report):
    ok = len(ball(AB2, 2)) == 18 and len(ball(AB2, 4)) == 130
    for lam in (2, 3):
        ab = Alphabet(lam)
        for n in range(5):
            ok = ok and len(ball(ab, n)) == ball_cardinality(lam, n)
    report(ok, "balls: |ball(2)| == 18, |ball(4)| == 130, closed formula matches enumeration")


def test_05_solver(report):
    a = generator(AB2, 0)
    unit = one(AB2)
    ok = solve_axb(a, a.inverse(), unit) == [unit, element(AB2, (0,), (0,))]
    b2 = list(ball(AB2, 2).nonzero)
    b6 = list(ball(AB2, 6).nonzero)
    systems = 0
    for left in b2:
        for target in b2:
            got = solve_axb(left, unit, target)
            brute = [x for x in b6 if (left * x) * unit == target]
            if got != brute:
                ok = False
            systems += 1
    report(
        ok,
        f"solver: canonical fixture plus brute-force agreement on {systems} systems",
    )


def test_06_rclass_structure(report):
    b3 = list(ball(AB2, 3))
    ok = all(
        (rclass_key(x) == rclass_key(y)) == (x * x.inverse() == y * y.inverse())
        for x in b3
        for y in b3
    )
    replayed = 0
    for x in b3[1:]:
        for y in b3[1:]:
            if x.u == y.u:
                if x * rclass_witness(x, y) != y:
                    ok = False
                replayed += 1
    report(
        ok,
        f"R-classes: key equality matches left idempotents on {len(b3) ** 2} pairs; "
        f"{replayed} witnesses replay under multiplication",
    )


def test_07_translation_continuity(report):
    target = cofinite(AB2, ball(AB2, 2).nonzero)
    counterexamples = 0
    disagreements = 0
    for a in ball(AB2, 3):
        shrunk = shrink_neighborhood(a, target)
        bad = certify_translations(a, target, shrunk, 6)
        counterexamples += len(bad)
        # the ball scan keeps the gate independent of the solver
        disagreements += bad != certify_translations_enumerate(a, target, shrunk, 6)
    report(
        counterexamples == 0 and disagreements == 0,
        "continuity: every radius-3 translation of the shrunk neighborhood verified "
        f"on ball(6), {counterexamples} counterexamples, {disagreements} disagreements with the ball scan",
    )


def test_08_joint_discontinuity(report):
    unit = one(AB2)
    ok = True
    for n in range(11):
        nbhd = cofinite(AB2, ball(AB2, n).nonzero)
        family = joint_discontinuity_family(unit, n + 1)
        ok = ok and any(x in nbhd and y in nbhd and x * y == unit for x, y in family.pairs)
    report(
        ok,
        "joint discontinuity: unit-product factor pairs found inside every cofinite "
        "neighborhood excluding ball(n), n <= 10",
    )


def test_09_congruence_collapse(report):
    b2 = list(ball(AB2, 2))
    ok = True
    pairs = 0
    for x in b2:
        for y in b2:
            if x == y:
                continue
            derivation = collapse_witness(x, y, max_depth=8)
            if derivation is None or derivation.depth > 8:
                ok = False
                continue
            try:
                verify_derivation(derivation, seed=(x, y))
            except ValueError:
                ok = False
            pairs += 1
    e = generator(AB2, 0).inverse() * generator(AB2, 0)
    b = generator(AB2, 1)
    found = collapse_witness(e, one(AB2))
    expected = [
        ("seed", None, (e, one(AB2))),
        ("left-multiply", b, (zero(AB2), b)),
        ("right-multiply", b.inverse(), (zero(AB2), one(AB2))),
    ]
    exact = [(s.rule, s.by, s.pair) for s in found.steps] == expected
    report(
        ok and exact,
        f"collapse: {pairs} distinct radius-2 pairs all derive (0, 1) within depth 8 "
        "and replay; canonical two-step chain reproduced exactly",
    )


def test_10_reduction_confluence(report):
    letters = [1, 2, -1, -2]
    total = 0
    disagreements = 0
    for n in range(9):
        for w in iproduct(letters, repeat=n):
            total += 1
            if reduce_stepwise(AB2, w, "leftmost") != reduce_stepwise(AB2, w, "rightmost"):
                disagreements += 1
    report(
        disagreements == 0,
        f"confluence: leftmost == rightmost reduction on all {total} signed words of "
        "length <= 8",
    )


def test_11_cli_and_round_trip(report):
    ok = all(evaluate(parse(str(x), AB2), AB2) == x for x in ball(AB2, 4))

    exe = shutil.which("polymon")
    base = [exe] if exe else [sys.executable, "-m", "polymon"]

    def cli(*argv):
        return subprocess.run(base + list(argv), capture_output=True, text=True)

    first = cli("eval", "a a'", "--lambda", "2")
    ok = ok and first.returncode == 0 and first.stdout == "1\n"
    second = cli("solve", "a", "a'", "1")
    ok = ok and second.returncode == 0 and second.stdout == "1, a'a\n"
    third = cli("ball", "2", "--format", "json")
    expected = json.dumps([x.to_json() for x in ball(AB2, 2)]) + "\n"
    ok = ok and third.returncode == 0 and third.stdout == expected
    ok = ok and len(json.loads(third.stdout)) == 18
    report(
        ok,
        "cli: parse/render round trip on ball(4); eval, solve and ball fixtures byte-exact",
    )
