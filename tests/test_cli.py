"""Command-line behavior: output, formats, exit codes, the REPL."""

import io
import json

import pytest

from polymon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    assert run(capsys, "eval", "a a'", "--lambda", "2") == (0, "1\n", "")


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
    with pytest.raises(SystemExit) as exc:
        main(["eval", "a", "--lambda", "many"])
    assert exc.value.code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "a^2")
    assert (code, out) == (2, "")
    assert "syntax error" in err


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
    code, _, err = run(capsys, "downset", "0")
    assert code == 1 and "error" in err


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
    code, _, err = run(capsys, "witness", "a", "b", "3")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "witness", "1", "k")
    assert code == 2 and "usage error" in err


def test_witness_zero_target_exits_1(capsys):
    code, _, err = run(capsys, "witness", "0", "2")
    assert code == 1 and "error" in err


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
    code, out, _ = run(capsys, "collapse", "a", "b", "--depth", "0")
    assert (code, out) == (0, "not found within depth 0\n")
    code, out, _ = run(capsys, "collapse", "a", "b", "--depth", "0", "--format", "json")
    assert json.loads(out) == {"found": False, "max_depth": 0}


def test_collapse_equal_seed_exits_1(capsys):
    code, _, err = run(capsys, "collapse", "a", "a")
    assert code == 1 and "error" in err


def test_collapse_negative_depth_exits_1(capsys):
    code, out, err = run(capsys, "collapse", "a", "b", "--depth", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_dot(tmp_path, capsys):
    target = tmp_path / "ball.dot"
    code, out, _ = run(capsys, "export-dot", "1", str(target))
    assert code == 0
    assert out == f"wrote {target}: 14 nodes, 12 edges\n"
    text = target.read_text()
    assert text.startswith("digraph") and text.endswith("}\n")


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


def test_repl(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a a'\nc\n\nquit\n"))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "1\n"
    assert "error" in captured.err


def test_repl_eof_ends(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("b'\n"))
    code = main(["repl", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"u": [1], "v": []}
