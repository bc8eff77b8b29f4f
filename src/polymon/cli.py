"""polymon command line: evaluate expressions and expose every operation.

Exit status: 0 success (including a collapse search that finds nothing),
1 domain error, unwritable output file or an input over a size cap,
2 syntax/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import Alphabet, make_alphabet, one, render_word
from .errors import ExpressionSyntaxError, PolymonError
from .green import act, ball, ball_cardinality, cayley_dot, rclass_key, solve_axb
from .parsing import parse, parse_positive_word, evaluate
from .rewriting import collapse_witness
from .topology import (
    CofiniteNbhd,
    certify_translations,
    cofinite,
    joint_discontinuity_family,
    shrink_neighborhood,
)


# Size caps, checked before any work starts; an input over a cap exits 1.
# The library functions themselves take any size.

# Most elements `ball N` lists.  `export-dot N` draws one edge per element
# and letter, and its edge count is held to the same cap.
MAX_BALL_ELEMENTS = 10**6
# Most pairs `witness K` prints; pair i has words of length i, so the
# output grows with K squared.
MAX_WITNESS_PAIRS = 1000
# Largest `collapse --depth`.  It bounds the length of a derivation, not
# the number of pairs the breadth-first search visits on the way.
MAX_COLLAPSE_DEPTH = 16


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda", dest="alphabet", type=make_alphabet, default="2", metavar="N|inf",
                        help="alphabet size, an integer >= 2 or 'inf' (default 2)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(prog="polymon",
                                     description="Exact computation in polycyclic inverse monoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression to its normal form")
    p.add_argument("expr")

    p = sub.add_parser("solve", parents=[common], help="all x with A*x*B = C")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")

    p = sub.add_parser("downset", parents=[common], help="prefixes of a nonzero element")
    p.add_argument("expr")

    p = sub.add_parser("rclass", parents=[common], help="canonical representative of the R-class")
    p.add_argument("expr")

    p = sub.add_parser("ball", parents=[common],
                       help=f"enumerate the radius-N ball, at most {MAX_BALL_ELEMENTS} elements")
    p.add_argument("radius", type=int)

    p = sub.add_parser("act", parents=[common], help="apply an element to a stack word")
    p.add_argument("expr")
    p.add_argument("word")

    p = sub.add_parser("continuity", parents=[common],
                       help="shrink a neighborhood of Zero through both translations by A")
    p.add_argument("a")
    p.add_argument("--exclude", default="",
                   help="comma-separated expressions excluded by the target neighborhood")
    p.add_argument("--radius", type=int, default=6,
                   help="largest size |x| the certificate checks (default 6)")

    p = sub.add_parser("witness", parents=[common],
                       help=f"joint-discontinuity pairs for a target: witness [C] K, K at most {MAX_WITNESS_PAIRS}")
    p.add_argument("c", nargs="?", metavar="C")
    p.add_argument("k", type=int, metavar="K")

    p = sub.add_parser("collapse", parents=[common],
                       help="derive (0, 1) from identifying A with B")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=int, default=8,
                   help=f"search depth budget, at most {MAX_COLLAPSE_DEPTH} (default 8); it bounds the "
                        "derivation length, not the number of states searched")

    p = sub.add_parser("export-dot", parents=[common],
                       help=f"right-Cayley ball as DOT, at most {MAX_BALL_ELEMENTS} edges")
    p.add_argument("radius", type=int)
    p.add_argument("file")

    sub.add_parser("repl", parents=[common], help="read-evaluate-print loop on stdin")
    return parser


def _eval(text: str, alphabet: Alphabet):
    return evaluate(parse(text, alphabet), alphabet)


def _emit(args, text: str, obj) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    else:
        print(text)


def _element_list(args, elems) -> None:
    _emit(args, ", ".join(str(e) for e in elems), [e.to_json() for e in elems])


def _run(args, alphabet: Alphabet) -> int:
    cmd = args.command
    if cmd == "eval":
        x = _eval(args.expr, alphabet)
        _emit(args, str(x), x.to_json())
    elif cmd == "solve":
        sols = solve_axb(_eval(args.a, alphabet), _eval(args.b, alphabet), _eval(args.c, alphabet))
        _element_list(args, sols)
    elif cmd == "downset":
        _element_list(args, _eval(args.expr, alphabet).downset())
    elif cmd == "rclass":
        rep = rclass_key(_eval(args.expr, alphabet)).representative(alphabet)
        _emit(args, str(rep), rep.to_json())
    elif cmd == "ball":
        _check_ball(alphabet, args.radius, "elements", 1)
        b = ball(alphabet, args.radius)
        _emit(args, "\n".join(str(e) for e in b), [e.to_json() for e in b])
    elif cmd == "act":
        result = act(_eval(args.expr, alphabet), parse_positive_word(args.word, alphabet))
        if result is None:
            _emit(args, "undefined", {"undefined": True})
        else:
            _emit(args, render_word(result), {"word": list(result)})
    elif cmd == "continuity":
        return _continuity(args, alphabet)
    elif cmd == "witness":
        return _witness(args, alphabet)
    elif cmd == "collapse":
        return _collapse(args, alphabet)
    elif cmd == "export-dot":
        return _export_dot(args, alphabet)
    elif cmd == "repl":
        return _repl(args, alphabet)
    return 0


def _check_ball(alphabet: Alphabet, radius: int, what: str, per_element: int) -> None:
    """Reject a radius whose ball, counted per_element times, exceeds
    MAX_BALL_ELEMENTS.  Infinite alphabets and negative radii are left
    to ``ball`` to reject."""
    lam = alphabet.size
    if lam is None or radius < 0:
        return
    # |ball(n)| >= 2**n, so any radius past the cap's bit length is over it
    count = ball_cardinality(lam, min(radius, MAX_BALL_ELEMENTS.bit_length())) * per_element
    if count > MAX_BALL_ELEMENTS:
        raise ValueError(f"radius {radius} over {lam} letters is above the cap of {MAX_BALL_ELEMENTS} {what}")


def _continuity(args, alphabet: Alphabet) -> int:
    a = _eval(args.a, alphabet)
    items = [s for s in (piece.strip() for piece in args.exclude.split(",")) if s]
    target = cofinite(alphabet, [_eval(s, alphabet) for s in items])
    shrunk = shrink_neighborhood(a, target)
    bad = certify_translations(a, target, shrunk, args.radius)
    trivial = a.is_zero

    def fmt(nbhd: CofiniteNbhd) -> str:
        members = nbhd.excluded_sorted()
        return ", ".join(str(e) for e in members) if members else "none"

    text = "\n".join([
        f"translation: {a}",
        f"excluded input: {fmt(target)}",
        f"excluded output: {fmt(shrunk)}",
        f"verified radius: {args.radius}",
        "counterexamples: " + (", ".join(f"{x} ({side}: {prod})" for x, side, prod in bad) if bad else "none"),
        f"trivial: {'yes' if trivial else 'no'}",
    ])
    obj = {
        "translation": a.to_json(),
        "excluded_input": target.to_json()["excluded"],
        "excluded_output": shrunk.to_json()["excluded"],
        "verified_radius": args.radius,
        "counterexamples": [
            {"x": x.to_json(), "side": side, "product": prod.to_json()} for x, side, prod in bad
        ],
        "trivial": trivial,
    }
    _emit(args, text, obj)
    return 0


def _witness(args, alphabet: Alphabet) -> int:
    if args.k > MAX_WITNESS_PAIRS:
        raise ValueError(f"K = {args.k} is above the cap of {MAX_WITNESS_PAIRS} pairs")
    c = one(alphabet) if args.c is None else _eval(args.c, alphabet)
    family = joint_discontinuity_family(c, args.k)
    text = "\n".join(f"{a} {b}" for a, b in family.pairs)
    _emit(args, text, family.to_json())
    return 0


def _collapse(args, alphabet: Alphabet) -> int:
    if args.depth > MAX_COLLAPSE_DEPTH:
        raise ValueError(f"depth {args.depth} is above the cap of {MAX_COLLAPSE_DEPTH}")
    derivation = collapse_witness(_eval(args.a, alphabet), _eval(args.b, alphabet), args.depth)
    if derivation is None:
        _emit(args, f"not found within depth {args.depth}", {"found": False, "max_depth": args.depth})
        return 0
    lines = []
    for step in derivation.steps:
        head = step.rule
        if step.by is not None:
            head += f" {step.by}"
        lines.append(f"{head}: {step.pair[0]} ~ {step.pair[1]}")
    _emit(args, "\n".join(lines),
          {"found": True, "depth": derivation.depth, "steps": derivation.to_json()["steps"]})
    return 0


def _export_dot(args, alphabet: Alphabet) -> int:
    _check_ball(alphabet, args.radius, "edges", alphabet.size or 1)
    b = ball(alphabet, args.radius)
    dot = cayley_dot(b)
    with open(args.file, "w") as fh:
        fh.write(dot)
    # one edge x -> x*g per element and letter; x*g leaves the ball
    # exactly for the (r + 1) * lam**r elements x of size r
    lam, r = alphabet.size, args.radius
    n_edges = len(b) * lam
    n_nodes = len(b) + (r + 1) * lam ** (r + 1)
    _emit(args, f"wrote {args.file}: {n_nodes} nodes, {n_edges} edges",
          {"file": args.file, "nodes": n_nodes, "edges": n_edges})
    return 0


def _repl(args, alphabet: Alphabet) -> int:
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt)
        except EOFError:
            return 0
        line = line.strip()
        if line in ("quit", "exit"):
            return 0
        if not line:
            continue
        try:
            x = _eval(line, alphabet)
            _emit(args, str(x), x.to_json())
        except PolymonError as err:
            print(f"error: {err}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _run(args, args.alphabet)
    except ExpressionSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except (PolymonError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
