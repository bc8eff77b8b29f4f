"""Mutation checks: each entry breaks the library in one place, and the
tests it names must then fail.

Run from anywhere in a checkout, with pytest installed:

    python tools/mutants.py

Each entry names a file under ``src/``, an exact old text, its
replacement and the test node ids that must fail.  For each entry the
tool copies ``src/`` to a temporary directory, replaces the old text in
the copy and runs ``python -m pytest -q`` on the node ids, with the copy
first on ``PYTHONPATH``.  Before that it checks that every old text
occurs exactly once in its file, so a refactor that moves the code makes
the table follow it, and that an unmutated copy passes every listed
node id.

A mutant is killed when every one of its node ids fails.  Exit status 0
when every mutant is killed; 1 when a node id of a mutant passes, an old
text does not occur exactly once, or the unmutated copy fails.  A
survivor stays in the table: kill it with a new test or a stronger
oracle, never by editing an existing test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/polymon
    old: str
    new: str
    tests: Tuple[str, ...]


T = "tests/test_topology.py::"
R = "tests/test_rewriting.py::"
C = "tests/test_core.py::"

MUTANTS = (
    # topology: the shrink, the certificate, membership and the one-slot memo
    Mutant("the shrink keeps the target's pairs out", "topology.py",
           "nbhd.pairs | _preimages(a, nbhd)", "_preimages(a, nbhd)",
           (T + "test_shrink_by_generator", T + "test_shrink_matches_oracles",
            T + "test_unchecked_shrinks_are_checked_values")),
    Mutant("the certificate subtracts nothing", "topology.py",
           "_preimages(a, nbhd) - shrunk.pairs", "_preimages(a, nbhd)",
           (T + "test_certify_matches_ball_scan", "tests/test_acceptance.py::test_07_translation_continuity")),
    Mutant("membership ignores the pairs", "topology.py",
           "x.u is None or (x.u, x.v) not in self.pairs", "True",
           (T + "test_membership_and_guards", T + "test_unchecked_shrinks_are_checked_values")),
    Mutant("the memo answers for whatever translation it holds", "topology.py",
           "    if a == last:\n", "    if last is not None:\n",
           (T + "test_shrink_then_certify_solves_each_preimage_once",
            T + "test_interleaved_translations_never_read_another_ones_preimages")),
    Mutant("the memo is never written", "topology.py",
           '_set(nbhd, "_last", (a, found))', "None",
           (T + "test_shrink_then_certify_solves_each_preimage_once",
            T + "test_filled_memo_stays_out_of_the_value")),
    # collapse: the closed form of the shortest derivation
    Mutant("c = 0 still multiplies by a letter", "collapse.py",
           "        w = ()\n", "        w = (0,)\n",
           (R + "test_collapse_zero_seeds", R + "test_collapse_is_shortest_over_a_larger_pool",
            "tests/test_acceptance.py::test_09_congruence_collapse")),
    Mutant("z is always the first letter", "collapse.py",
           "w = (1,) if (s or t)[-1] == 0 else (0,)", "w = (0,)",
           (R + "test_collapse_long_pairs_take_at_most_three_steps",
            "tests/test_metamorphic.py::test_collapse_depth_survives_inversion_and_renaming")),
    Mutant("a derivation as long as the budget is refused", "collapse.py",
           "if len(moves) > max_depth:", "if len(moves) >= max_depth:",
           (R + "test_collapse_is_shortest_over_a_larger_pool",
            R + "test_collapse_long_pairs_take_at_most_three_steps")),
    Mutant("z avoids the last letter of t before that of s", "collapse.py",
           "(s or t)[-1] == 0", "(t or s)[-1] == 0",
           ("tests/test_cli.py::test_collapse_derivations",)),
    Mutant("swap whenever the swapped chain is feasible", "collapse.py",
           "moves = _moves(x, y)\n    if moves is None:\n        moves = _moves(y, x) + [(SYMMETRY, None)]",
           "moves = _moves(y, x)\n    moves = _moves(x, y) if moves is None else moves + [(SYMMETRY, None)]",
           (R + "test_collapse_is_shortest_over_a_larger_pool", "tests/test_cli.py::test_collapse_derivations",
            "tests/test_acceptance.py::test_09_congruence_collapse")),
    # one step rule for the witness and the replay
    Mutant("the left step multiplies y on the right", "collapse.py",
           "mul_nf(m.u, m.v, y.u, y.v)", "mul_nf(y.u, y.v, m.u, m.v)",
           (R + "test_replay_agrees_with_the_element_replay", "tests/test_cli.py::test_collapse_derivations",
            "tests/test_acceptance.py::test_09_congruence_collapse")),
    Mutant("the swap returns (x, y)", "collapse.py",
           "    return (y.u, y.v), (x.u, x.v)\n", "    return (x.u, x.v), (y.u, y.v)\n",
           (R + "test_collapse_zero_seeds", R + "test_collapse_long_pairs_take_at_most_three_steps",
            "tests/test_cli.py::test_collapse_derivations")),
    # the replay's letter checks and four guards, each held by a test of its own
    Mutant("the replay admits a multiplier's foreign letters", "collapse.py",
           "\n                  and (m.u is None or all(map(m.alphabet.__contains__, m.u + m.v)))", "",
           (R + "test_replay_rejects_a_multiplier_with_foreign_letters",)),
    Mutant("the replay reads a zero multiplier's letters", "collapse.py",
           "(m.u is None or all(map(m.alphabet.__contains__, m.u + m.v)))",
           "all(map(m.alphabet.__contains__, m.u + m.v))",
           (R + "test_a_zero_multiplier_has_no_letters_to_check",)),
    Mutant("the replay admits an empty derivation", "collapse.py",
           '    if not d.steps:\n        raise ValueError("empty derivation")\n', "",
           (R + "test_replay_rejects_an_empty_derivation",)),
    Mutant("a product with a non-element reads its alphabet", "core.py",
           "        if not isinstance(other, Element):\n            return NotImplemented\n", "",
           (C + "test_product_with_a_non_element_is_a_type_error",)),
    Mutant("the oracle multiplies across alphabets", "rewriting.py",
           '    if x.alphabet is not y.alphabet:\n'
           '        raise AlphabetMismatch(f"{x.alphabet} vs {y.alphabet}")\n', "",
           (R + "test_oracle_rejects_a_product_across_alphabets",)),
    Mutant("DOT export over an infinite alphabet", "green.py",
           '    if b.alphabet.size is None:\n        raise InfiniteAlphabet("DOT export needs a finite alphabet")\n', "",
           ("tests/test_green.py::test_cayley_dot_needs_a_finite_alphabet",)),
    # alphabets: one object per size, so sameness is identity
    Mutant("each call makes a fresh alphabet", "core.py",
           "return _ALPHABETS.setdefault(made.size, made)", "return made",
           (C + "test_one_alphabet_per_size", C + "test_copies_and_pickles_keep_the_one_alphabet",
            C + "test_a_pickle_from_another_interpreter_loads_to_the_one_alphabet")),
    Mutant("element equality ignores the alphabet", "core.py",
           " and self.alphabet is other.alphabet\n", "\n",
           (C + "test_element_equality_needs_an_element_over_an_equal_alphabet",
            C + "test_one_normal_form_over_two_alphabets_shares_a_hash_but_no_key")),
    Mutant("the replay ignores a step's alphabet", "collapse.py",
           "\n                  and px.alphabet is py.alphabet is sx.alphabet is sy.alphabet is m.alphabet", "",
           (R + "test_replay_rejects_a_step_over_another_alphabet_with_the_same_pairs",
            R + "test_replay_agrees_with_the_element_replay", R + "test_replay_across_alphabets_is_a_value_error")),
    # letters: Alphabet.__contains__ defines them, and the inline checks agree
    Mutant("`in` rejects int subclasses", "core.py",
           "if not isinstance(letter, int) or type(letter) is bool or letter < 0:",
           "if type(letter) is not int or letter < 0:",
           (C + "test_alphabet_membership", C + "test_int_subclass_letters_are_letters")),
    Mutant("check_word rejects int subclasses", "core.py",
           "if (type(i) is not int and (type(i) is bool or not isinstance(i, int))", "if (type(i) is not int",
           (C + "test_alphabet_membership", C + "test_int_subclass_letters_are_letters")),
    Mutant("check_word admits bools", "core.py",
           "(type(i) is bool or not isinstance(i, int))", "(not isinstance(i, int))",
           (C + "test_booleans_are_neither_letters_nor_sizes", C + "test_alphabet_membership")),
    Mutant("check_word admits the letter equal to the size", "core.py",
           "i < 0 or size is not None and i >= size", "i < 0 or size is not None and i > size",
           (C + "test_alphabet_membership",)),
    Mutant("reduce rejects int subclasses", "rewriting.py",
           "if (type(s) is not int and (type(s) is bool or not isinstance(s, int))", "if (type(s) is not int",
           (C + "test_int_subclass_letters_are_letters", R + "test_reduce_validates_letters")),
    Mutant("reduce rejects the inverse of the last letter", "rewriting.py",
           "not -size <= s <= size", "not -size < s <= size",
           (R + "test_reduce_validates_letters", R + "test_reduce_outcomes_are_pinned")),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _env(src: Path) -> dict:
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=_env(src), capture_output=True, text=True)


def _failed(report: str, test: str) -> bool:
    """Whether pytest's -rf summary lists the node id, or one of its
    parametrized cases, as failed."""
    failed = [line.split()[1] for line in report.splitlines() if line.startswith("FAILED ")]
    return any(node == test or node.startswith(test + "[") for node in failed)


def _misplaced() -> List[str]:
    """Entries whose old text does not occur exactly once in its file."""
    out = []
    for m in MUTANTS:
        count = (ROOT / "src" / "polymon" / m.file).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.file}, not once")
    return out


def _baseline() -> List[str]:
    """Problems of the unmutated copy: polymon imported from elsewhere, or
    a listed node id that does not pass."""
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = subprocess.run([sys.executable, "-c", "import polymon; print(polymon.__file__)"],
                               cwd=ROOT, env=_env(src), capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            return [f"the copy is not what gets imported: polymon comes from {where or 'nowhere'}"]
        done = _pytest(src, tests)
    if done.returncode != 0:
        return [f"the unmutated copy fails its node ids (pytest exit {done.returncode}):\n{done.stdout[-2000:]}"]
    return []


def _check(m: Mutant) -> List[str]:
    """Apply one mutant to a fresh copy; the listed node ids that still
    pass, or pytest's report when it did not run the tests."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = src / "polymon" / m.file
        path.write_text(path.read_text().replace(m.old, m.new))
        done = _pytest(src, m.tests)
    if done.returncode not in (0, 1):
        return [f"pytest exit {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    return [t for t in m.tests if not _failed(done.stdout, t)]


def main() -> int:
    problems = _misplaced() or _baseline()
    if problems:
        print("\n".join(problems))
        return 1
    survived = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        passed = _check(m)
        survived += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed':8}  {m.file}: {m.name}  ({time.perf_counter() - t0:.1f} s)")
        for line in passed:
            print(f"          still passes: {line}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
