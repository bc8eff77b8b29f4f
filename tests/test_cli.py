"""Command-line behavior: output, formats, exit codes, the REPL."""

import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python
from polymon import cli
from polymon.cli import MAX_BALL_ELEMENTS, MAX_COLLAPSE_DEPTH, MAX_WITNESS_PAIRS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    assert run(capsys, "eval", "a a'", "--lambda", "2") == (0, "1\n", "")


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


def test_collapse_loads_the_search():
    out = run_python("import sys\n"
                     "from polymon.cli import main\n"
                     "main(['collapse', \"a'a\", '1'])\n"
                     "print('polymon.collapse' in sys.modules)")
    assert out.splitlines()[-1] == "True"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "a'b", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"u": [0], "v": [1]}


def test_eval_zero(capsys):
    code, out, _ = run(capsys, "eval", "a b'")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "eval", "0", "--format", "json")
    assert json.loads(out) == {"zero": True}


def test_lambda_inf(capsys):
    code, out, _ = run(capsys, "eval", "g30 g30'", "--lambda", "inf")
    assert (code, out) == (0, "1\n")


def test_lambda_too_small_is_domain_error(capsys):
    code, _, err = run(capsys, "eval", "a", "--lambda", "1")
    assert code == 1 and "error" in err


def test_lambda_not_a_number_is_usage_error(capsys):
    # only ASCII digits count, as after g: "\u0663" is the Arabic-Indic three
    for text in ("many", "1_0", " 3 ", "+3", "-3", "\u0663"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "c", "--lambda", text])
        assert exc.value.code == 2
        assert f"invalid make_alphabet value: {text!r}" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "a^2")
    assert (code, out) == (2, "")
    assert "syntax error" in err


def test_non_ascii_digits_are_a_syntax_error(capsys):
    assert run(capsys, "eval", "g²") == (2, "", "syntax error: unexpected character '²' (position 1)\n")
    assert run(capsys, "eval", "g١", "--lambda", "3") == (2, "", "syntax error: unexpected character '١' (position 1)\n")


def test_letter_index_too_long_exits_2(capsys):
    huge = "g" + "1" * 4301  # one digit past Python's default int-conversion limit
    assert run(capsys, "eval", huge) == (2, "", "syntax error: letter index too long (position 0)\n")


def test_unknown_letter_exits_1(capsys):
    code, _, err = run(capsys, "eval", "c")
    assert code == 1 and "letter c" in err


def test_seed_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "1", "--seed", "7"])
    assert exc.value.code == 2


def test_long_prime_chain_evaluates(capsys):
    assert run(capsys, "eval", "a" + "'" * 3000) == (0, "a\n", "")


@pytest.mark.parametrize("expr", ["(" * 3000 + "a" + ")" * 3000, "a(" * 3000 + "a" + ")" * 3000])
def test_deep_nesting_is_a_syntax_error(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: parentheses nested deeper than 200")
    assert err.count("\n") == 1


def test_nesting_at_the_limit_evaluates(capsys):
    assert run(capsys, "eval", "(" * 200 + "a" + ")" * 200) == (0, "a\n", "")
    assert run(capsys, "eval", "a(" * 200 + "a" + ")" * 200) == (0, "a" * 201 + "\n", "")
    assert run(capsys, "eval", "a(" * 200 + "a" + ")'" * 200) == (0, "a\n", "")


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "a", "a'", "1")
    assert (code, out) == (0, "1, a'a\n")


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "a", "a'", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"u": [], "v": []}, {"u": [0], "v": [0]}]


def test_solve_no_solutions(capsys):
    code, out, _ = run(capsys, "solve", "1", "a", "1")
    assert (code, out) == (0, "\n")


def test_solve_zero_argument_exits_1(capsys):
    code, _, err = run(capsys, "solve", "a", "b", "0")
    assert code == 1 and "error" in err


def test_downset_text(capsys):
    code, out, _ = run(capsys, "downset", "a'b")
    assert (code, out) == (0, "1, a', a'b\n")


def test_downset_of_zero_exits_1(capsys):
    assert run(capsys, "downset", "0") == (1, "", "error: zero has no prefix set\n")


def test_rclass(capsys):
    code, out, _ = run(capsys, "rclass", "a'b")
    assert (code, out) == (0, "a'\n")
    code, out, _ = run(capsys, "rclass", "0", "--format", "json")
    assert (code, json.loads(out)) == (0, {"zero": True})


def test_ball_text(capsys):
    code, out, _ = run(capsys, "ball", "1")
    assert (code, out) == (0, "0\n1\na\nb\na'\nb'\n")


def test_ball_json(capsys):
    code, out, _ = run(capsys, "ball", "2", "--format", "json")
    assert code == 0
    members = json.loads(out)
    assert len(members) == 18
    assert members[0] == {"zero": True}


def test_ball_negative_radius_exits_1(capsys):
    code, _, err = run(capsys, "ball", "-2")
    assert code == 1 and "error" in err


def test_ball_over_cap_exits_1(capsys, monkeypatch):
    for argv in (["ball", "16"], ["ball", str(10**30)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"cap of {MAX_BALL_ELEMENTS} elements" in err
        assert err.count("\n") == 1
    monkeypatch.setattr(cli, "MAX_BALL_ELEMENTS", 18)
    assert run(capsys, "ball", "2")[0] == 0  # exactly 18 elements
    assert run(capsys, "ball", "3")[0] == 1


def test_ball_zero_over_a_huge_alphabet(tmp_path, capsys):
    # ball(0) lists no letters, but the DOT export draws an edge per letter
    assert run(capsys, "ball", "0", "--lambda", str(10**12)) == (0, "0\n1\n", "")
    code, out, err = run(capsys, "export-dot", "0", str(tmp_path / "x.dot"), "--lambda", str(10**12))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"cap of {MAX_BALL_ELEMENTS} edges" in err


def test_witness_zero_count_exits_1(capsys):
    code, _, err = run(capsys, "witness", "0")  # lone arg is K
    assert code == 1 and "error" in err


def test_act(capsys):
    code, out, _ = run(capsys, "act", "a'b", "ca", "--lambda", "3")
    assert (code, out) == (0, "cb\n")


def test_act_empty_result(capsys):
    code, out, _ = run(capsys, "act", "a'", "a")
    assert (code, out) == (0, "\n")


def test_act_undefined(capsys):
    code, out, _ = run(capsys, "act", "a'", "")
    assert (code, out) == (0, "undefined\n")
    code, out, _ = run(capsys, "act", "(ab)'", "b", "--format", "json")
    assert json.loads(out) == {"undefined": True}


def test_act_json_word(capsys):
    code, out, _ = run(capsys, "act", "a'b", "ca", "--lambda", "3", "--format", "json")
    assert json.loads(out) == {"word": [2, 1]}


def test_continuity_text(capsys):
    code, out, _ = run(capsys, "continuity", "a", "--exclude", "1")
    assert code == 0
    assert out.splitlines() == [
        "translation: a",
        "excluded input: 1",
        "excluded output: 1, a'",
        "verified radius: 6",
        "counterexamples: none",
        "trivial: no",
    ]


def test_continuity_zero_translation_json(capsys):
    code, out, _ = run(
        capsys, "continuity", "0", "--exclude", "a, b", "--radius", "3", "--format", "json"
    )
    blob = json.loads(out)
    assert code == 0
    assert blob["trivial"] is True
    assert blob["excluded_input"] == blob["excluded_output"]
    assert blob["counterexamples"] == []
    assert blob["verified_radius"] == 3


def test_continuity_empty_exclusion(capsys):
    code, out, _ = run(capsys, "continuity", "b")
    assert code == 0
    assert "excluded input: none" in out


def test_continuity_over_the_countable_alphabet(capsys):
    argv = ["continuity", "a", "--exclude", "1,b", "--radius", "4"]
    code, out, err = run(capsys, *argv, "--lambda", "inf")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv, "--lambda", "2")[1]
    assert "excluded output: 1, b, a', a'b\n" in out and "counterexamples: none\n" in out


def test_continuity_huge_radius(capsys):
    code, out, err = run(capsys, "continuity", "a", "--exclude", "1", "--radius", "1000")
    assert (code, err) == (0, "")
    _, six, _ = run(capsys, "continuity", "a", "--exclude", "1", "--radius", "6")
    assert out.replace("verified radius: 1000", "verified radius: 6") == six


def test_witness_unit_target(capsys):
    code, out, _ = run(capsys, "witness", "3")
    assert (code, out) == (0, "a a'\naa a'a'\naaa a'a'a'\n")


def test_witness_explicit_target(capsys):
    code, out, _ = run(capsys, "witness", "a'b", "2")
    assert (code, out) == (0, "a'a a'b\na'aa a'a'b\n")


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "1", "--format", "json")
    blob = json.loads(out)
    assert blob["target"] == {"u": [], "v": []}
    assert blob["pairs"] == [[{"u": [], "v": [0]}, {"u": [0], "v": []}]]


def test_witness_usage_errors(capsys):
    for argv, message in ((["a", "b", "3"], "invalid int value: 'b'"), (["1", "k"], "invalid int value: 'k'"),
                          (["1", "2", "3"], "unrecognized arguments: 3"), ([], "required: K")):
        with pytest.raises(SystemExit) as exc:
            main(["witness", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_witness_over_cap_exits_1(capsys):
    code, out, _ = run(capsys, "witness", str(MAX_WITNESS_PAIRS))
    assert code == 0 and out.count("\n") == MAX_WITNESS_PAIRS
    # checked before the target is evaluated: c is no letter over lambda = 2
    for argv in (["witness", str(MAX_WITNESS_PAIRS + 1)], ["witness", "c", str(10**30)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"cap of {MAX_WITNESS_PAIRS} pairs" in err
        assert err.count("\n") == 1


def test_witness_zero_target_exits_1(capsys):
    assert run(capsys, "witness", "0", "2") == (1, "", "error: witness families exist only for nonzero targets\n")


# sha256 of the stdout of every run in test_witness_output_is_pinned, in
# order; computed while the pairs still went through a container class
# that multiplied each pair again, so the digest holds that check's result
WITNESS_SHA256 = "a91ad8e83e36347d1085f7a6ce5073773c229ddad36a527c4b008de431ce880d"


def test_witness_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for lam, targets in (("2", ([], ["a'b"], ["b'a'a"])), ("3", ([], ["a'b"], ["b'a'a"])),
                         ("inf", ([], ["a'b"], ["b'a'a"], ["g30"]))):
        for c in targets:
            for k in ("1", "7", "40"):
                for fmt in ("text", "json"):
                    code, out, err = run(capsys, "witness", *c, k, "--lambda", lam, "--format", fmt)
                    assert (code, err) == (0, "")
                    digest.update(out.encode())
    assert digest.hexdigest() == WITNESS_SHA256


# (exit code, argv) of every run in test_every_subcommand_is_pinned: each
# subcommand in both formats, then one domain error and one usage error
# each; stdin, which only repl reads, is REPL_INPUT every time
PINNED_OK = [
    ["eval", "(ab)'"], ["solve", "a", "a'", "1"], ["downset", "a'b"], ["rclass", "a'b"], ["ball", "1"],
    ["act", "a'b", "ca", "--lambda", "3"], ["continuity", "a", "--exclude", "1,b", "--radius", "4"],
    ["witness", "a'b", "3"], ["collapse", "a'a", "1"], ["export-dot", "1", "ball.dot"], ["repl"],
]
PINNED_RUNS = [(0, argv + ["--format", fmt]) for argv in PINNED_OK for fmt in ("text", "json")] + [
    (1, ["eval", "c"]), (1, ["solve", "a", "b", "0"]), (1, ["downset", "0"]), (1, ["rclass", "c"]),
    (1, ["ball", "-1"]), (1, ["act", "a", "c"]), (1, ["continuity", "a", "--radius", "-1"]),
    (1, ["witness", "0", "1"]), (1, ["collapse", "a", "a"]), (1, ["export-dot", "1", "missing/x.dot"]),
    (1, ["repl", "--lambda", "1"]),
    (2, ["eval"]), (2, ["solve", "a", "b"]), (2, ["downset", "a", "b"]), (2, ["rclass", "a", "--lambda"]),
    (2, ["ball", "x"]), (2, ["act", "a"]), (2, ["continuity", "a", "--radius", "x"]), (2, ["witness", "a"]),
    (2, ["collapse", "a", "b", "--depth", "x"]), (2, ["export-dot", "1"]), (2, ["repl", "x"]),
    (2, []), (2, ["eval", "(a"]),
]
REPL_INPUT = "a a'\n(ab)'\nc\n\nquit\n"
# sha256 of repr((argv, exit code, stdout, stderr)) for each of PINNED_RUNS
# in order; computed while an if/elif chain on the subcommand's name still
# dispatched, so the digest holds that dispatch's output
CLI_SHA256 = "687249ebe0d08ef1061cb2cc75b8fb52579be04268fe7920cb5decc1828de0f5"


def test_every_subcommand_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # export-dot writes and reports a relative path
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    digest = hashlib.sha256()
    for expected, argv in PINNED_RUNS:
        monkeypatch.setattr("sys.stdin", io.StringIO(REPL_INPUT))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == expected, (argv, code, err)
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == CLI_SHA256


def test_collapse_fixture(capsys):
    code, out, _ = run(capsys, "collapse", "a'a", "1")
    assert code == 0
    assert out == "seed: a'a ~ 1\nleft-multiply b: 0 ~ b\nright-multiply b': 0 ~ 1\n"


def test_collapse_json(capsys):
    code, out, _ = run(capsys, "collapse", "a", "b", "--format", "json")
    blob = json.loads(out)
    assert code == 0 and blob["found"] is True
    assert blob["steps"][0]["rule"] == "seed"
    assert blob["depth"] == len(blob["steps"]) - 1


def test_collapse_not_found(capsys):
    # the long pair needs no state past depth 3 to rule out depth 5
    for pair, depth in ((("a", "b"), 0), (("a'a'b'b'a'b'b'a'a'b'a'b'", "aabbbbaabbab"), 5)):
        code, out, _ = run(capsys, "collapse", *pair, "--depth", str(depth))
        assert (code, out) == (0, f"not found within depth {depth}\n")
        code, out, _ = run(capsys, "collapse", *pair, "--depth", str(depth), "--format", "json")
        assert code == 0 and out == f'{{"found": false, "max_depth": {depth}}}\n'


def test_collapse_equal_seed_exits_1(capsys):
    code, _, err = run(capsys, "collapse", "a", "a")
    assert code == 1 and "error" in err


def test_collapse_negative_depth_exits_1(capsys):
    code, out, err = run(capsys, "collapse", "a", "b", "--depth", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_collapse_depth_over_cap_exits_1(capsys):
    code, out, _ = run(capsys, "collapse", "a'a", "1", "--depth", str(MAX_COLLAPSE_DEPTH))
    assert code == 0 and out.startswith("seed: a'a ~ 1\n")
    # checked before the pair is evaluated: c is no letter over lambda = 2
    for argv in (["a'a", "1", "--depth", str(MAX_COLLAPSE_DEPTH + 1)], ["c", "a", "--depth", str(10**30)]):
        code, out, err = run(capsys, "collapse", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"cap of {MAX_COLLAPSE_DEPTH}" in err
        assert err.count("\n") == 1


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


def test_export_dot_json(tmp_path, capsys):
    target = tmp_path / "b.dot"
    code, out, _ = run(capsys, "export-dot", "0", str(target), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"file": str(target), "nodes": 4, "edges": 4}


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


def test_repl(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a a'\nc\n\nquit\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "1\n"
    assert "error" in captured.err


def test_repl_survives_a_bad_digit(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\ng²\nb\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, "a\nb\n")
    assert captured.err == "error: unexpected character '²' (position 1)\n"


def test_repl_survives_a_letter_index_too_long(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\ng" + "1" * 4301 + "\nb\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, "a\nb\n")
    assert captured.err == "error: letter index too long (position 0)\n"


def test_repl_eof_ends(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("b'\n"))
    code = main(["repl", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"u": [1], "v": []}


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
