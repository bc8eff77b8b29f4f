"""Command-line behavior: output, formats, exit codes, the REPL.

Every call whose outcome is its output is one row of ``CASES``; the tests
after the table check what rows cannot say: files written, modules
loaded, caps lowered, random argvs.  ``python -m pytest tests/test_cli.py``
runs the same rows against an installed ``polymon`` when ``src`` is not
on the path.
"""

import argparse
import contextlib
import io
import json
import shlex
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python
from polymon import cli
from polymon.cli import MAX_BALL_ELEMENTS, build_parser, main


# argparse's top-level usage, which opens every usage error of the top parser;
# naming the subcommands COMMAND keeps it one line on every supported Python
USAGE = "usage: polymon [-h] COMMAND ...\n"

# The CLI's answers, one row per call: (argv, stdin, exit code, stdout,
# stderr), each compared exactly.  Each group is the test its key names,
# and a new case is one more row.  Rows run in-process in a fresh
# directory with COLUMNS=80, so relative paths and argparse's line
# wrapping come out the same everywhere.
CASES = {
    "test_eval_text": [
        (["eval", "a a'", "--lambda", "2"], "", 0, "1\n", ""),
    ],
    "test_eval_json": [
        (["eval", "a'b", "--format", "json"], "", 0, '{"u": [0], "v": [1]}\n', ""),
    ],
    "test_eval_zero": [
        (["eval", "a b'"], "", 0, "0\n", ""),
        (["eval", "0", "--format", "json"], "", 0, '{"zero": true}\n', ""),
    ],
    "test_eval_normal_forms": [
        (["eval", "(ab)'"], "", 0, "b'a'\n", ""),
        (["eval", "((a'b)'a)'"], "", 0, "a'a'b\n", ""),
        (["eval", "a b b' a' b' a", "--lambda", "3"], "", 0, "b'a\n", ""),
        (["eval", "b a'"], "", 0, "0\n", ""),
        (["eval", "g30 g30' g27'", "--lambda", "inf"], "", 0, "g27'\n", ""),
    ],
    "test_lambda_inf": [
        (["eval", "g30 g30'", "--lambda", "inf"], "", 0, "1\n", ""),
    ],
    "test_lambda_too_small_is_domain_error": [
        (["eval", "a", "--lambda", "1"], "", 1, "", "error: alphabet needs at least 2 letters, got 1\n"),
    ],
    # only ASCII digits count, as after g: "\u0663" is the Arabic-Indic three
    "test_lambda_not_a_number_is_usage_error": [
        (["eval", "c", "--lambda", text], "", 2, "",
         "usage: polymon eval [-h] [--lambda N|inf] [--format {text,json}] expr\n"
         f"polymon eval: error: argument --lambda: invalid make_alphabet value: {text!r}\n")
        for text in ("many", "1_0", " 3 ", "+3", "-3", "\u0663")
    ],
    "test_no_subcommand_is_usage_error": [
        ([], "", 2, "", USAGE + "polymon: error: the following arguments are required: COMMAND\n"),
    ],
    "test_syntax_error_exits_2": [
        (["eval", "a^2"], "", 2, "", "syntax error: expected '-1' after '^' (position 1)\n"),
        (["eval", "(" * 201 + "a"], "", 2, "", "syntax error: parentheses nested deeper than 200 (position 200)\n"),
    ],
    "test_non_ascii_digits_are_a_syntax_error": [
        (["eval", "g²"], "", 2, "", "syntax error: unexpected character '²' (position 1)\n"),
        (["eval", "g١", "--lambda", "3"], "", 2, "", "syntax error: unexpected character '١' (position 1)\n"),
    ],
    # one digit past Python's default int-conversion limit
    "test_letter_index_too_long_exits_2": [
        (["eval", "g" + "1" * 4301], "", 2, "", "syntax error: letter index too long (position 0)\n"),
    ],
    "test_unknown_letter_exits_1": [
        (["eval", "c"], "", 1, "", "error: letter c (position 0) not in alphabet of size 2\n"),
        (["eval", "0c"], "", 1, "", "error: letter c (position 1) not in alphabet of size 2\n"),
    ],
    "test_seed_flag_is_gone": [
        (["eval", "1", "--seed", "7"], "", 2, "", USAGE + "polymon: error: unrecognized arguments: --seed 7\n"),
    ],
    "test_long_prime_chain_evaluates": [
        (["eval", "a" + "'" * 3000], "", 0, "a\n", ""),
    ],
    "test_deep_nesting_is_a_syntax_error": [
        (["eval", "(" * 3000 + "a" + ")" * 3000], "", 2, "",
         "syntax error: parentheses nested deeper than 200 (position 200)\n"),
        (["eval", "a(" * 3000 + "a" + ")" * 3000], "", 2, "",
         "syntax error: parentheses nested deeper than 200 (position 401)\n"),
    ],
    "test_nesting_at_the_limit_evaluates": [
        (["eval", "(" * 200 + "a" + ")" * 200], "", 0, "a\n", ""),
        (["eval", "a(" * 200 + "a" + ")" * 200], "", 0, "a" * 201 + "\n", ""),
        (["eval", "a(" * 200 + "a" + ")'" * 200], "", 0, "a\n", ""),
    ],
    "test_solve_text": [
        (["solve", "a", "a'", "1"], "", 0, "1, a'a\n", ""),
    ],
    "test_solve_json": [
        (["solve", "a", "a'", "1", "--format", "json"], "", 0, '[{"u": [], "v": []}, {"u": [0], "v": [0]}]\n', ""),
    ],
    "test_solve_no_solutions": [
        (["solve", "1", "a", "1"], "", 0, "\n", ""),
    ],
    "test_solve_zero_argument_exits_1": [
        (["solve", "a", "b", "0"], "", 1, "",
         "error: solver needs nonzero a, b, c; the solution set at c = 0 is infinite\n"),
    ],
    "test_downset_text": [
        (["downset", "a'b"], "", 0, "1, a', a'b\n", ""),
    ],
    "test_downset_of_zero_exits_1": [
        (["downset", "0"], "", 1, "", "error: zero has no prefix set\n"),
    ],
    "test_rclass": [
        (["rclass", "a'b"], "", 0, "a'\n", ""),
        (["rclass", "0", "--format", "json"], "", 0, '{"zero": true}\n', ""),
        (["rclass", "0"], "", 0, "0\n", ""),
        (["rclass", "b'a", "--lambda", "inf"], "", 0, "b'\n", ""),
    ],
    "test_ball_text": [
        (["ball", "1"], "", 0, "0\n1\na\nb\na'\nb'\n", ""),
        (["ball", "2", "--lambda", "3"], "", 0,
         ("0\n1\na\nb\nc\na'\nb'\nc'\naa\nab\nac\nba\nbb\nbc\nca\ncb\ncc\na'a\na'b\na'c\nb'a\nb'b\nb'c\nc'a\nc'b\n"
          "c'c\na'a'\nb'a'\nc'a'\na'b'\nb'b'\nc'b'\na'c'\nb'c'\nc'c'\n"),
         ""),
    ],
    "test_ball_json": [
        (["ball", "2", "--format", "json"], "", 0,
         ('[{"zero": true}, {"u": [], "v": []}, {"u": [], "v": [0]}, {"u": [], "v": [1]}, {"u": [0], "v": []}, '
          '{"u": [1], "v": []}, {"u": [], "v": [0, 0]}, {"u": [], "v": [0, 1]}, {"u": [], "v": [1, 0]}, {"u": '
          '[], "v": [1, 1]}, {"u": [0], "v": [0]}, {"u": [0], "v": [1]}, {"u": [1], "v": [0]}, {"u": [1], "v": '
          '[1]}, {"u": [0, 0], "v": []}, {"u": [0, 1], "v": []}, {"u": [1, 0], "v": []}, {"u": [1, 1], "v": []}]\n'),
         ""),
    ],
    "test_ball_negative_radius_exits_1": [
        (["ball", "-2"], "", 1, "", "error: radius must be nonnegative, got -2\n"),
    ],
    # ball(0) lists no letters, but the DOT export draws an edge per letter
    "test_ball_zero_over_a_huge_alphabet": [
        (["ball", "0", "--lambda", str(10**12)], "", 0, "0\n1\n", ""),
        (["export-dot", "0", "x.dot", "--lambda", str(10**12)], "", 1, "",
         "error: radius 0 over 1000000000000 letters is above the cap of 1000000 edges\n"),
    ],
    "test_act": [
        (["act", "a'b", "ca", "--lambda", "3"], "", 0, "cb\n", ""),
    ],
    "test_act_empty_result": [
        (["act", "a'", "a"], "", 0, "\n", ""),
        (["act", "a'", "a", "--format", "json"], "", 0, '{"word": []}\n', ""),
    ],
    "test_act_undefined": [
        (["act", "a'", ""], "", 0, "undefined\n", ""),
        (["act", "(ab)'", "b", "--format", "json"], "", 0, '{"undefined": true}\n', ""),
        (["act", "a'a'b", "a"], "", 0, "undefined\n", ""),
        (["act", "0", "ab"], "", 0, "undefined\n", ""),
    ],
    "test_act_json_word": [
        (["act", "a'b", "ca", "--lambda", "3", "--format", "json"], "", 0, '{"word": [2, 1]}\n', ""),
    ],
    "test_continuity_text": [
        (["continuity", "a", "--exclude", "1"], "", 0,
         ("translation: a\nexcluded input: 1\nexcluded output: 1, a'\nverified radius: 6\ncounterexamples: none\n"
          "trivial: no\n"),
         ""),
        (["continuity", "b'a", "--exclude", "a,b'a,1,ab", "--radius", "5", "--lambda", "3"], "", 0,
         ("translation: b'a\nexcluded input: 1, a, ab, b'a\nexcluded output: 1, a, b, ab, a'a, b'a, b'b\n"
          "verified radius: 5\ncounterexamples: none\ntrivial: no\n"),
         ""),
    ],
    "test_continuity_zero_translation_json": [
        (["continuity", "0", "--exclude", "a, b", "--radius", "3", "--format", "json"], "", 0,
         ('{"translation": {"zero": true}, "excluded_input": [{"u": [], "v": [0]}, {"u": [], "v": [1]}], '
          '"excluded_output": [{"u": [], "v": [0]}, {"u": [], "v": [1]}], "verified_radius": 3, '
          '"counterexamples": [], "trivial": true}\n'),
         ""),
    ],
    "test_continuity_empty_exclusion": [
        (["continuity", "b"], "", 0,
         ("translation: b\nexcluded input: none\nexcluded output: none\nverified radius: 6\n"
          "counterexamples: none\ntrivial: no\n"),
         ""),
    ],
    "test_continuity_over_the_countable_alphabet": [
        (["continuity", "a", "--exclude", "1,b", "--radius", "4", "--lambda", "inf"], "", 0,
         ("translation: a\nexcluded input: 1, b\nexcluded output: 1, b, a', a'b\nverified radius: 4\n"
          "counterexamples: none\ntrivial: no\n"),
         ""),
        (["continuity", "a", "--exclude", "1,b", "--radius", "4", "--lambda", "2"], "", 0,
         ("translation: a\nexcluded input: 1, b\nexcluded output: 1, b, a', a'b\nverified radius: 4\n"
          "counterexamples: none\ntrivial: no\n"),
         ""),
    ],
    "test_continuity_huge_radius": [
        (["continuity", "a", "--exclude", "1", "--radius", "1000"], "", 0,
         ("translation: a\nexcluded input: 1\nexcluded output: 1, a'\nverified radius: 1000\n"
          "counterexamples: none\ntrivial: no\n"),
         ""),
        (["continuity", "a", "--exclude", "1", "--radius", "6"], "", 0,
         ("translation: a\nexcluded input: 1\nexcluded output: 1, a'\nverified radius: 6\ncounterexamples: none\n"
          "trivial: no\n"),
         ""),
    ],
    "test_witness_unit_target": [
        (["witness", "1", "3"], "", 0, "a a'\naa a'a'\naaa a'a'a'\n", ""),
    ],
    "test_witness_explicit_target": [
        (["witness", "a'b", "2"], "", 0, "a'a a'b\na'aa a'a'b\n", ""),
    ],
    # an option between C and K: the first chunk of positionals goes to C, not K
    "test_witness_option_between_target_and_count": [
        (["witness", "a", "--lambda", "3", "2"], "", 0, "a a'a\naa a'a'a\n", ""),
    ],
    "test_witness_json": [
        (["witness", "1", "1", "--format", "json"], "", 0,
         '{"target": {"u": [], "v": []}, "pairs": [[{"u": [], "v": [0]}, {"u": [0], "v": []}]]}\n', ""),
    ],
    "test_witness_zero_count_exits_1": [
        (["witness", "1", "0"], "", 1, "", "error: need at least one pair, got k=0\n"),
    ],
    "test_witness_zero_target_exits_1": [
        (["witness", "0", "2"], "", 1, "", "error: witness families exist only for nonzero targets\n"),
    ],
    "test_witness_usage_errors": [
        (["witness", "a", "b", "3"], "", 2, "",
         ("usage: polymon witness [-h] [--lambda N|inf] [--format {text,json}] C K\n"
          "polymon witness: error: argument K: invalid int value: 'b'\n")),
        (["witness", "1", "k"], "", 2, "",
         ("usage: polymon witness [-h] [--lambda N|inf] [--format {text,json}] C K\n"
          "polymon witness: error: argument K: invalid int value: 'k'\n")),
        (["witness", "1", "2", "3"], "", 2, "", USAGE + "polymon: error: unrecognized arguments: 3\n"),
        (["witness"], "", 2, "",
         ("usage: polymon witness [-h] [--lambda N|inf] [--format {text,json}] C K\n"
          "polymon witness: error: the following arguments are required: C, K\n")),
    ],
    "test_witness_over_cap_exits_1": [
        (["witness", "1", "1000"], "", 0, "".join("a" * k + " " + "a'" * k + "\n" for k in range(1, 1001)), ""),
        (["witness", "1", "1001"], "", 1, "", "error: K = 1001 is above the cap of 1000 pairs\n"),
        # checked before the target is evaluated: c is no letter over lambda = 2
        (["witness", "c", str(10**30)], "", 1, "",
         "error: K = 1000000000000000000000000000000 is above the cap of 1000 pairs\n"),
    ],
    "test_collapse_fixture": [
        (["collapse", "a'a", "1"], "", 0, "seed: a'a ~ 1\nleft-multiply b: 0 ~ b\nright-multiply b': 0 ~ 1\n", ""),
    ],
    "test_collapse_derivations": [
        (["collapse", "a'a", "1", "--lambda", "3", "--format", "json"], "", 0,
         ('{"found": true, "depth": 2, "steps": [{"rule": "seed", "pair": [{"u": [0], "v": [0]}, {"u": [], "v": '
          '[]}]}, {"rule": "left-multiply", "pair": [{"zero": true}, {"u": [], "v": [1]}], "by": {"u": [], "v": '
          '[1]}}, {"rule": "right-multiply", "pair": [{"zero": true}, {"u": [], "v": []}], "by": {"u": [1], '
          '"v": []}}]}\n'),
         ""),
        (["collapse", "1", "ab", "--lambda", "3"], "", 0,
         "seed: 1 ~ ab\nleft-multiply a: a ~ aab\nright-multiply b'a'a': 0 ~ 1\n", ""),
        (["collapse", "1", "aa"], "", 0, "seed: 1 ~ aa\nleft-multiply b: b ~ baa\nright-multiply a'a'b': 0 ~ 1\n", ""),
        # multipliers of any size: the long pair collapses in two steps
        (["collapse", "a'a'b'b'a'b'b'a'a'b'a'b'", "aabbbbaabbab", "--depth", "5"], "", 0,
         ("seed: a'a'b'b'a'b'b'a'a'b'a'b' ~ aabbbbaabbab\nleft-multiply b: 0 ~ baabbbbaabbab\n"
          "right-multiply b'a'b'b'a'a'b'b'b'b'a'a'b': 0 ~ 1\n"),
         ""),
        (["collapse", "a'a'b'b'a'b'b'a'a'b'a'b'", "aabbbbaabbab", "--depth", "5", "--format", "json"], "", 0,
         ('{"found": true, "depth": 2, "steps": [{"rule": "seed", "pair": [{"u": [1, 0, 1, 0, 0, 1, 1, 0, 1, 1, '
          '0, 0], "v": []}, {"u": [], "v": [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1]}]}, {"rule": "left-multiply", '
          '"pair": [{"zero": true}, {"u": [], "v": [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1]}], "by": {"u": [], '
          '"v": [1]}}, {"rule": "right-multiply", "pair": [{"zero": true}, {"u": [], "v": []}], "by": {"u": [1, '
          '0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1], "v": []}}]}\n'),
         ""),
        (["collapse", "1", "0"], "", 0, "seed: 1 ~ 0\nsymmetry: 0 ~ 1\n", ""),
        (["collapse", "0", "a"], "", 0, "seed: 0 ~ a\nright-multiply a': 0 ~ 1\n", ""),
        # c = a'b has two nonempty components; z is b, since a ends the first one
        (["collapse", "a'b", "1"], "", 0, "seed: a'b ~ 1\nleft-multiply b: 0 ~ b\nright-multiply b': 0 ~ 1\n", ""),
    ],
    "test_collapse_json": [
        (["collapse", "a", "b", "--format", "json"], "", 0,
         ('{"found": true, "depth": 1, "steps": [{"rule": "seed", "pair": [{"u": [], "v": [0]}, {"u": [], "v": '
          '[1]}]}, {"rule": "right-multiply", "pair": [{"zero": true}, {"u": [], "v": []}], "by": {"u": [1], '
          '"v": []}}]}\n'),
         ""),
    ],
    "test_collapse_not_found": [
        (["collapse", "a", "b", "--depth", "0"], "", 0, "not found within depth 0\n", ""),
        (["collapse", "a", "b", "--depth", "0", "--format", "json"], "", 0, '{"found": false, "max_depth": 0}\n', ""),
    ],
    "test_collapse_equal_seed_exits_1": [
        (["collapse", "a", "a"], "", 1, "", "error: seed must identify two distinct elements, got a twice\n"),
    ],
    "test_collapse_negative_depth_exits_1": [
        (["collapse", "a", "b", "--depth", "-1"], "", 1, "", "error: depth budget must be nonnegative, got -1\n"),
    ],
    "test_collapse_large_depth_budget": [
        (["collapse", "a'a", "1", "--depth", "16"], "", 0,
         "seed: a'a ~ 1\nleft-multiply b: 0 ~ b\nright-multiply b': 0 ~ 1\n", ""),
        (["collapse", "c", "a", "--depth", str(10**30)], "", 1, "",
         "error: letter c (position 0) not in alphabet of size 2\n"),
    ],
    "test_export_dot_json": [
        (["export-dot", "0", "b.dot", "--format", "json"], "", 0, '{"file": "b.dot", "nodes": 4, "edges": 4}\n', ""),
    ],
    "test_export_dot_text": [
        (["export-dot", "1", "ball1.dot"], "", 0, "wrote ball1.dot: 14 nodes, 12 edges\n", ""),
    ],
    "test_repl": [
        (["repl"], "a a'\nc\n\nquit\n", 0, "1\n", "error: letter c (position 0) not in alphabet of size 2\n"),
        (["repl"], "a a'\n(ab)'\nquit\n", 0, "1\nb'a'\n", ""),
    ],
    "test_repl_survives_a_bad_digit": [
        (["repl"], "a\ng²\nb\n", 0, "a\nb\n", "error: unexpected character '²' (position 1)\n"),
    ],
    "test_repl_survives_a_letter_index_too_long": [
        (["repl"], "a\ng" + "1" * 4301 + "\nb\n", 0, "a\nb\n", "error: letter index too long (position 0)\n"),
    ],
    "test_repl_eof_ends": [
        (["repl", "--format", "json"], "b'\n", 0, '{"u": [1], "v": []}\n', ""),
    ],
    # each subcommand in both formats, then a domain error and a usage error each
    "test_every_subcommand_is_pinned": [
        (["eval", "(ab)'", "--format", "text"], "", 0, "b'a'\n", ""),
        (["eval", "(ab)'", "--format", "json"], "", 0, '{"u": [0, 1], "v": []}\n', ""),
        (["solve", "a", "a'", "1", "--format", "text"], "", 0, "1, a'a\n", ""),
        (["downset", "a'b", "--format", "text"], "", 0, "1, a', a'b\n", ""),
        (["downset", "a'b", "--format", "json"], "", 0,
         '[{"u": [], "v": []}, {"u": [0], "v": []}, {"u": [0], "v": [1]}]\n', ""),
        (["rclass", "a'b", "--format", "text"], "", 0, "a'\n", ""),
        (["rclass", "a'b", "--format", "json"], "", 0, '{"u": [0], "v": []}\n', ""),
        (["ball", "1", "--format", "text"], "", 0, "0\n1\na\nb\na'\nb'\n", ""),
        (["ball", "1", "--format", "json"], "", 0,
         ('[{"zero": true}, {"u": [], "v": []}, {"u": [], "v": [0]}, {"u": [], "v": [1]}, {"u": [0], "v": []}, '
          '{"u": [1], "v": []}]\n'),
         ""),
        (["act", "a'b", "ca", "--lambda", "3", "--format", "text"], "", 0, "cb\n", ""),
        (["continuity", "a", "--exclude", "1,b", "--radius", "4", "--format", "text"], "", 0,
         ("translation: a\nexcluded input: 1, b\nexcluded output: 1, b, a', a'b\nverified radius: 4\n"
          "counterexamples: none\ntrivial: no\n"),
         ""),
        (["continuity", "a", "--exclude", "1,b", "--radius", "4", "--format", "json"], "", 0,
         ('{"translation": {"u": [], "v": [0]}, "excluded_input": [{"u": [], "v": []}, {"u": [], "v": [1]}], '
          '"excluded_output": [{"u": [], "v": []}, {"u": [], "v": [1]}, {"u": [0], "v": []}, {"u": [0], "v": '
          '[1]}], "verified_radius": 4, "counterexamples": [], "trivial": false}\n'),
         ""),
        (["witness", "a'b", "3", "--format", "text"], "", 0, "a'a a'b\na'aa a'a'b\na'aaa a'a'a'b\n", ""),
        (["witness", "a'b", "3", "--format", "json"], "", 0,
         ('{"target": {"u": [0], "v": [1]}, "pairs": [[{"u": [0], "v": [0]}, {"u": [0], "v": [1]}], [{"u": [0], '
          '"v": [0, 0]}, {"u": [0, 0], "v": [1]}], [{"u": [0], "v": [0, 0, 0]}, {"u": [0, 0, 0], "v": [1]}]]}\n'),
         ""),
        (["collapse", "a'a", "1", "--format", "text"], "", 0,
         "seed: a'a ~ 1\nleft-multiply b: 0 ~ b\nright-multiply b': 0 ~ 1\n", ""),
        (["collapse", "a'a", "1", "--format", "json"], "", 0,
         ('{"found": true, "depth": 2, "steps": [{"rule": "seed", "pair": [{"u": [0], "v": [0]}, {"u": [], "v": '
          '[]}]}, {"rule": "left-multiply", "pair": [{"zero": true}, {"u": [], "v": [1]}], "by": {"u": [], "v": '
          '[1]}}, {"rule": "right-multiply", "pair": [{"zero": true}, {"u": [], "v": []}], "by": {"u": [1], '
          '"v": []}}]}\n'),
         ""),
        (["export-dot", "1", "ball.dot", "--format", "text"], "", 0, "wrote ball.dot: 14 nodes, 12 edges\n", ""),
        (["export-dot", "1", "ball.dot", "--format", "json"], "", 0,
         '{"file": "ball.dot", "nodes": 14, "edges": 12}\n', ""),
        (["repl", "--format", "text"], "a a'\n(ab)'\nc\n\nquit\n", 0, "1\nb'a'\n",
         "error: letter c (position 0) not in alphabet of size 2\n"),
        (["repl", "--format", "json"], "a a'\n(ab)'\nc\n\nquit\n", 0,
         '{"u": [], "v": []}\n{"u": [0, 1], "v": []}\n', "error: letter c (position 0) not in alphabet of size 2\n"),
        (["rclass", "c"], "", 1, "", "error: letter c (position 0) not in alphabet of size 2\n"),
        (["ball", "-1"], "", 1, "", "error: radius must be nonnegative, got -1\n"),
        (["act", "a", "c"], "", 1, "", "error: letter c (position 0) not in alphabet of size 2\n"),
        (["continuity", "a", "--radius", "-1"], "", 1, "", "error: radius must be nonnegative, got -1\n"),
        (["witness", "0", "1"], "", 1, "", "error: witness families exist only for nonzero targets\n"),
        (["export-dot", "1", "missing/x.dot"], "", 1, "",
         "error: [Errno 2] No such file or directory: 'missing/x.dot'\n"),
        (["repl", "--lambda", "1"], "", 1, "", "error: alphabet needs at least 2 letters, got 1\n"),
        (["eval"], "", 2, "",
         ("usage: polymon eval [-h] [--lambda N|inf] [--format {text,json}] expr\n"
          "polymon eval: error: the following arguments are required: expr\n")),
        (["solve", "a", "b"], "", 2, "",
         ("usage: polymon solve [-h] [--lambda N|inf] [--format {text,json}] a b c\n"
          "polymon solve: error: the following arguments are required: c\n")),
        (["downset", "a", "b"], "", 2, "", USAGE + "polymon: error: unrecognized arguments: b\n"),
        (["rclass", "a", "--lambda"], "", 2, "",
         ("usage: polymon rclass [-h] [--lambda N|inf] [--format {text,json}] expr\n"
          "polymon rclass: error: argument --lambda: expected one argument\n")),
        (["ball", "x"], "", 2, "",
         ("usage: polymon ball [-h] [--lambda N|inf] [--format {text,json}] radius\n"
          "polymon ball: error: argument radius: invalid int value: 'x'\n")),
        (["act", "a"], "", 2, "",
         ("usage: polymon act [-h] [--lambda N|inf] [--format {text,json}] expr word\n"
          "polymon act: error: the following arguments are required: word\n")),
        (["continuity", "a", "--radius", "x"], "", 2, "",
         ("usage: polymon continuity [-h] [--lambda N|inf] [--format {text,json}]\n"
          "                          [--exclude EXCLUDE] [--radius RADIUS]\n"
          "                          a\n"
          "polymon continuity: error: argument --radius: invalid int value: 'x'\n")),
        (["witness", "1", "a"], "", 2, "",
         ("usage: polymon witness [-h] [--lambda N|inf] [--format {text,json}] C K\n"
          "polymon witness: error: argument K: invalid int value: 'a'\n")),
        (["collapse", "a", "b", "--depth", "x"], "", 2, "",
         ("usage: polymon collapse [-h] [--lambda N|inf] [--format {text,json}]\n"
          "                        [--depth DEPTH]\n"
          "                        a b\n"
          "polymon collapse: error: argument --depth: invalid int value: 'x'\n")),
        (["export-dot", "1"], "", 2, "",
         ("usage: polymon export-dot [-h] [--lambda N|inf] [--format {text,json}]\n"
          "                          radius file\n"
          "polymon export-dot: error: the following arguments are required: file\n")),
        (["repl", "x"], "", 2, "", USAGE + "polymon: error: unrecognized arguments: x\n"),
        (["eval", "(a"], "", 2, "", "syntax error: expected ')' (position 2)\n"),
    ],
}


def _run_rows(rows):
    def test(capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # export-dot writes and reports a relative path
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
        for argv, stdin, *expected in rows:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            assert (code, *capsys.readouterr()) == tuple(expected), argv
    return test


def _run_each_row(rows):
    """One test per row, its id the row's expression (``argv[1]``)."""
    @pytest.mark.parametrize("row", rows, ids=[argv[1] for argv, *_ in rows])
    def test(capsys, monkeypatch, tmp_path, row):
        _run_rows([row])(capsys, monkeypatch, tmp_path)
    return test


# groups whose rows have always been separate test ids
PER_ROW = {"test_deep_nesting_is_a_syntax_error"}

for _name, _rows in CASES.items():
    globals()[_name] = (_run_each_row if _name in PER_ROW else _run_rows)(_rows)
ROWS = [row for rows in CASES.values() for row in rows]


def _format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def test_every_subcommand_has_cases():
    """Each subcommand has a row that exits 0 in text and one in json,
    one that exits 1 and one that exits 2; no (argv, stdin) repeats."""
    keys = [(tuple(argv), stdin) for argv, stdin, *_ in ROWS]
    assert len(set(keys)) == len(keys)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {(argv[0], code, _format(argv) if code == 0 else None) for argv, _, code, *_ in ROWS if argv}
    need = {(name, code, fmt) for name in sub.choices
            for code, fmt in ((0, "text"), (0, "json"), (1, None), (2, None))}
    assert need - found == set()


def test_readme_examples_are_rows():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh\n")[1].split("```")[0]
    argvs = [argv for argv, *_ in ROWS]
    for line in block.splitlines():
        assert shlex.split(line, comments=True)[1:] in argvs, line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_loads_only_what_it_uses():
    """Every call of ``polymon`` is a fresh process, so ``eval`` must not
    pay for the modules of other subcommands, nor for json or dataclasses."""
    out = run_python("import sys\n"
                     "before = set(sys.modules)\n"
                     "from polymon.cli import main\n"
                     "main(['eval', 'a'])\n"
                     "print(' '.join(sorted(set(sys.modules) - before)))")
    printed, loaded = out.splitlines()
    assert printed == "a"
    assert {"polymon.cli", "polymon.parsing"} <= set(loaded.split())
    assert {"dataclasses", "json", "polymon.collapse", "polymon.green", "polymon.topology"}.isdisjoint(loaded.split())


def test_collapse_loads_the_collapse_module():
    out = run_python("import sys\n"
                     "from polymon.cli import main\n"
                     "main(['collapse', \"a'a\", '1'])\n"
                     "print('polymon.collapse' in sys.modules)")
    assert out.splitlines()[-1] == "True"


# what every call loads; parsing needs rewriting for reduce
LOADED = {"polymon", "polymon.cli", "polymon.core", "polymon.errors"}
PARSES = LOADED | {"polymon.parsing", "polymon.rewriting"}
GREEN = {"polymon.green"}


def test_each_subcommand_loads_only_its_modules(tmp_path):
    """The ``polymon.*`` modules each subcommand loads in a fresh process,
    and ``json`` only for ``--format json``."""
    calls = [
        (["eval", "a"], PARSES),
        (["eval", "a", "--format", "json"], PARSES),
        (["eval", "(a"], PARSES),
        (["solve", "a", "b", "ab"], PARSES | GREEN),
        (["downset", "ab"], PARSES),
        (["rclass", "a'b"], PARSES | GREEN),
        (["ball", "1"], LOADED | GREEN),
        (["act", "a", "b"], PARSES | GREEN),
        (["continuity", "a", "--exclude", "b"], PARSES | GREEN | {"polymon.topology"}),
        (["witness", "a", "2"], PARSES | GREEN | {"polymon.topology"}),
        (["collapse", "a'a", "1"], PARSES | {"polymon.collapse"}),
        (["export-dot", "1", str(tmp_path / "x.dot")], LOADED | GREEN),
        (["repl"], PARSES),
    ]
    for argv, modules in calls:
        out = run_python("import io, sys\n"
                         "before = set(sys.modules)\n"
                         "from polymon.cli import main\n"
                         "sys.stdin, sys.stdout = io.StringIO('a\\n'), io.StringIO()\n"
                         f"code = main({argv!r})\n"
                         "sys.stdout = sys.__stdout__\n"
                         "print(code, ' '.join(sorted(set(sys.modules) - before)))")
        code, *loaded = out.split()
        assert code == ("2" if argv == ["eval", "(a"] else "0"), argv
        assert {m for m in loaded if m.startswith("polymon")} == modules, argv
        assert ("json" in loaded) == ("json" in argv), argv


def test_ball_over_cap_exits_1(capsys, monkeypatch):
    for argv in (["ball", "16"], ["ball", str(10**30)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"cap of {MAX_BALL_ELEMENTS} elements" in err
        assert err.count("\n") == 1
    monkeypatch.setattr(cli, "MAX_BALL_ELEMENTS", 18)
    assert run(capsys, "ball", "2")[0] == 0  # exactly 18 elements
    assert run(capsys, "ball", "3")[0] == 1


# witness targets by argv, each with its normal form (u, v)
WITNESS_TARGETS = {("1",): ((), ()), ("a'b",): ((0,), (1,)), ("b'a'a",): ((0, 1), (0,)), ("g30",): ((), (30,))}


def _witness_stdout(u, v, k: int, fmt: str) -> str:
    """What `witness` prints for the target (u, v), written from the
    closed form: pair i is ((u, a^i), (a^i, v)) for i = 1..k."""
    pairs = [((u, (0,) * i), ((0,) * i, v)) for i in range(1, k + 1)]
    if fmt == "json":
        def nf(p):
            return {"u": list(p[0]), "v": list(p[1])}
        return json.dumps({"target": nf((u, v)), "pairs": [[nf(x), nf(y)] for x, y in pairs]}) + "\n"

    def name(i):
        return chr(ord("a") + i) if i < 26 else f"g{i}"

    def text(p):
        return "".join(name(i) + "'" for i in reversed(p[0])) + "".join(name(i) for i in p[1])
    return "".join(f"{text(x)} {text(y)}\n" for x, y in pairs)


def test_witness_output_is_pinned(capsys):
    for lam, targets in (("2", [("1",), ("a'b",), ("b'a'a",)]), ("3", [("1",), ("a'b",), ("b'a'a",)]),
                         ("inf", [("1",), ("a'b",), ("b'a'a",), ("g30",)])):
        for c in targets:
            for k in ("1", "7", "40"):
                for fmt in ("text", "json"):
                    argv = ["witness", *c, k, "--lambda", lam, "--format", fmt]
                    code, out, err = run(capsys, *argv)
                    assert (code, err) == (0, ""), argv
                    want = _witness_stdout(*WITNESS_TARGETS[c], int(k), fmt)
                    # a mismatch names the argv and the index of its first differing line
                    assert out.splitlines(keepends=True) == want.splitlines(keepends=True), shlex.join(argv)


def test_export_dot(tmp_path, capsys):
    target = tmp_path / "ball.dot"
    code, out, _ = run(capsys, "export-dot", "1", str(target))
    assert code == 0
    assert out == f"wrote {target}: 14 nodes, 12 edges\n"
    text = target.read_text()
    assert text.startswith("digraph") and text.endswith("}\n")


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_export_dot_counts_match_the_file(tmp_path, capsys, lam, radius):
    target = tmp_path / "c.dot"
    code, out, _ = run(capsys, "export-dot", str(radius), str(target), "--lambda", str(lam), "--format", "json")
    lines = target.read_text().splitlines()
    edges = sum(1 for line in lines if "->" in line)
    nodes = sum(1 for line in lines if "label=" in line and "->" not in line)
    assert (code, json.loads(out)) == (0, {"file": str(target), "nodes": nodes, "edges": edges})


def test_export_dot_unwritable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "export-dot", "1", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_export_dot_over_cap_exits_1(tmp_path, capsys, monkeypatch):
    target = tmp_path / "big.dot"
    # 2002 elements over 1000 letters: 2 002 000 edges
    for argv in (["1", str(target), "--lambda", "1000"], ["15", str(target)]):
        code, out, err = run(capsys, "export-dot", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"cap of {MAX_BALL_ELEMENTS} edges" in err
        assert err.count("\n") == 1
    assert not target.exists()
    monkeypatch.setattr(cli, "MAX_BALL_ELEMENTS", 28)
    assert run(capsys, "export-dot", "1", str(target))[0] == 0  # 14 elements, 28 edges
    assert run(capsys, "export-dot", "2", str(target))[0] == 1


# subcommand -> (kinds of its positionals, its own flags)
FUZZ_COMMANDS = {
    "eval": (["expr"], []), "solve": (["expr"] * 3, []), "downset": (["expr"], []), "rclass": (["expr"], []),
    "ball": (["int"], []), "act": (["expr", "word"], []), "continuity": (["expr"], ["--radius", "--exclude"]),
    "witness": (["expr", "int"], []), "collapse": (["expr", "expr"], ["--depth"]),
    "export-dot": (["int", "path"], []), "repl": ([], []), "nosuch": ([], []),
}
BIG = str(10**30)
FUZZ_VALUES = {
    "expr": ["a", "b'", "a'b", "(ab)'", "a^-1 b", "0", "1", "c", "g30", "", "((a", "*"],
    "int": ["-1", "0", "1", "2", "3", "17", str(10**12), BIG, "-" + BIG, "x"],
    "word": ["", "ab", "ba", "c"],
}
FUZZ_FLAGS = {
    "--lambda": ["2", "3", "inf", "1", "x", BIG],
    "--format": ["text", "json", "xml"],
    "--depth": ["0", "2", "16", "17", "-1", BIG],
    "--radius": ["0", "3", "1000", "-1", BIG],
    "--exclude": ["1", "a,b'", "c", "(("],
}


@st.composite
def fuzz_argv(draw, paths):
    """A subcommand with its positionals (expressions, integers small and
    huge, stack words, a writable and an unwritable path), sometimes one
    too few or one too many, then up to two flags: --lambda, --format or
    its own."""
    cmd = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    kinds, own = FUZZ_COMMANDS[cmd]
    pools = {**FUZZ_VALUES, "path": paths}
    args = [draw(st.sampled_from(pools[kind])) for kind in kinds]
    arity = draw(st.sampled_from(["keep", "keep", "keep", "drop", "add"]))
    if arity == "drop":
        args = args[:-1]
    elif arity == "add":
        args.append(draw(st.sampled_from(FUZZ_VALUES["int"])))
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(["--lambda", "--format", *own]))
        args += [flag, draw(st.sampled_from(FUZZ_FLAGS[flag]))]
    return [cmd, *args]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return [str(root / "out.dot"), str(root / "missing" / "x.dot")]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_random_argv_never_crashes(fuzz_paths, data):
    argv = data.draw(fuzz_argv(fuzz_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO("a a'\n")):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
