"""polymon command line: evaluate expressions and expose every operation.

Exit status: 0 success (including a collapse whose derivation is longer
than the depth budget), 1 domain error, unwritable output file or an
input over a size cap, 2 syntax/usage error.  Every call is a fresh
process, so the CLI reaches each library name through the package, whose
loader imports a submodule on the first use of one of its names: each
subcommand loads only the modules it uses.

Argparse does the dispatch: each subcommand's parser carries its handler
as ``run``, the handler returns its answer as text and as a JSON object,
and ``main`` prints the one ``--format`` names; only ``repl`` prints as
it reads.
"""

from __future__ import annotations

import argparse
import sys

import polymon


# Size caps, checked before any work starts; an input over a cap exits 1.
# The library functions themselves take any size.

# Most elements `ball N` lists.  `export-dot N` draws one edge per element
# and letter, and its edge count is held to the same cap.
MAX_BALL_ELEMENTS = 10**6
# Most pairs `witness C K` prints; pair i has words of length i, so the
# output grows with K squared.
MAX_WITNESS_PAIRS = 1000


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda", dest="alphabet", type=polymon.make_alphabet, default="2", metavar="N|inf",
                        help="alphabet size, an integer >= 2 or 'inf' (default 2)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(prog="polymon",
                                     description="Exact computation in polycyclic inverse monoids.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(run=run)
        return p

    p = add("eval", _eval, "evaluate an expression to its normal form")
    p.add_argument("expr")

    p = add("solve", _solve, "all x with A*x*B = C")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")

    p = add("downset", _downset, "prefixes of a nonzero element")
    p.add_argument("expr")

    p = add("rclass", _rclass, "canonical representative of the R-class")
    p.add_argument("expr")

    p = add("ball", _ball, f"enumerate the radius-N ball, at most {MAX_BALL_ELEMENTS} elements")
    p.add_argument("radius", type=int)

    p = add("act", _act, "apply an element to a stack word")
    p.add_argument("expr")
    p.add_argument("word")

    p = add("continuity", _continuity, "shrink a neighborhood of Zero through both translations by A")
    p.add_argument("a")
    p.add_argument("--exclude", default="",
                   help="comma-separated expressions excluded by the target neighborhood")
    p.add_argument("--radius", type=int, default=6,
                   help="largest size |x| the certificate checks (default 6)")

    p = add("witness", _witness,
            f"joint-discontinuity pairs for a target: witness C K, K at most {MAX_WITNESS_PAIRS}")
    p.add_argument("c", metavar="C")
    p.add_argument("k", type=int, metavar="K")

    p = add("collapse", _collapse, "derive (0, 1) from identifying A with B")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=int, default=8, help="depth budget (default 8)")

    p = add("export-dot", _export_dot, f"right-Cayley ball as DOT, at most {MAX_BALL_ELEMENTS} edges")
    p.add_argument("radius", type=int)
    p.add_argument("file")

    add("repl", _repl, "read-evaluate-print loop on stdin")
    return parser


def _element(text: str, alphabet: polymon.Alphabet):
    return polymon.evaluate(polymon.parse(text, alphabet), alphabet)


def _emit(args, text: str, obj) -> None:
    if args.format == "json":
        import json
        print(json.dumps(obj))
    else:
        print(text)


def _element_list(elems, sep: str = ", ") -> tuple:
    return sep.join(str(e) for e in elems), [e.to_json() for e in elems]


def _eval(args, alphabet: polymon.Alphabet) -> tuple:
    x = _element(args.expr, alphabet)
    return str(x), x.to_json()


def _solve(args, alphabet: polymon.Alphabet) -> tuple:
    return _element_list(polymon.solve_axb(_element(args.a, alphabet), _element(args.b, alphabet),
                                           _element(args.c, alphabet)))


def _downset(args, alphabet: polymon.Alphabet) -> tuple:
    return _element_list(_element(args.expr, alphabet).downset())


def _rclass(args, alphabet: polymon.Alphabet) -> tuple:
    key = polymon.rclass_key(_element(args.expr, alphabet))
    return str(key), key.to_json()


def _ball(args, alphabet: polymon.Alphabet) -> tuple:
    _check_ball(alphabet, args.radius, "elements", 1)
    return _element_list(polymon.ball(alphabet, args.radius), "\n")


def _act(args, alphabet: polymon.Alphabet) -> tuple:
    result = polymon.act(_element(args.expr, alphabet), polymon.parse_positive_word(args.word, alphabet))
    if result is None:
        return "undefined", {"undefined": True}
    return polymon.render_word(result), {"word": list(result)}


def _check_ball(alphabet: polymon.Alphabet, radius: int, what: str, per_element: int) -> None:
    """Reject a radius whose ball, counted per_element times, exceeds
    MAX_BALL_ELEMENTS.  Infinite alphabets and negative radii are left
    to ``ball`` to reject."""
    lam = alphabet.size
    if lam is None or radius < 0:
        return
    # |ball(n)| >= 2**n, so any radius past the cap's bit length is over it
    count = polymon.ball_cardinality(lam, min(radius, MAX_BALL_ELEMENTS.bit_length())) * per_element
    if count > MAX_BALL_ELEMENTS:
        raise ValueError(f"radius {radius} over {lam} letters is above the cap of {MAX_BALL_ELEMENTS} {what}")


def _continuity(args, alphabet: polymon.Alphabet) -> tuple:
    a = _element(args.a, alphabet)
    items = [s for s in (piece.strip() for piece in args.exclude.split(",")) if s]
    target = polymon.cofinite(alphabet, [_element(s, alphabet) for s in items])
    shrunk = polymon.shrink_neighborhood(a, target)
    bad = polymon.certify_translations(a, target, shrunk, args.radius)
    # one row per line: (label, text, JSON value); an empty text reads "none",
    # and the JSON key is the label with _ for spaces
    rows = [
        ("translation", str(a), a.to_json()),
        ("excluded input", *_element_list(target.excluded_sorted())),
        ("excluded output", *_element_list(shrunk.excluded_sorted())),
        ("verified radius", str(args.radius), args.radius),
        ("counterexamples", ", ".join(f"{x} ({side}: {prod})" for x, side, prod in bad),
         [{"x": x.to_json(), "side": side, "product": prod.to_json()} for x, side, prod in bad]),
        ("trivial", "yes" if a.is_zero else "no", a.is_zero),
    ]
    return ("\n".join(f"{label}: {text or 'none'}" for label, text, _ in rows),
            {label.replace(" ", "_"): value for label, _, value in rows})


def _witness(args, alphabet: polymon.Alphabet) -> tuple:
    if args.k > MAX_WITNESS_PAIRS:
        raise ValueError(f"K = {args.k} is above the cap of {MAX_WITNESS_PAIRS} pairs")
    c = _element(args.c, alphabet)
    pairs = polymon.joint_discontinuity_family(c, args.k)
    return ("\n".join(f"{a} {b}" for a, b in pairs),
            {"target": c.to_json(), "pairs": [[a.to_json(), b.to_json()] for a, b in pairs]})


def _collapse(args, alphabet: polymon.Alphabet) -> tuple:
    derivation = polymon.collapse_witness(_element(args.a, alphabet), _element(args.b, alphabet), args.depth)
    if derivation is None:
        return f"not found within depth {args.depth}", {"found": False, "max_depth": args.depth}
    lines = []
    for step in derivation.steps:
        head = step.rule
        if step.by is not None:
            head += f" {step.by}"
        lines.append(f"{head}: {step.pair[0]} ~ {step.pair[1]}")
    return "\n".join(lines), {"found": True, "depth": derivation.depth, "steps": derivation.to_json()["steps"]}


def _export_dot(args, alphabet: polymon.Alphabet) -> tuple:
    _check_ball(alphabet, args.radius, "edges", alphabet.size)
    b = polymon.ball(alphabet, args.radius)
    dot = polymon.cayley_dot(b)
    with open(args.file, "w") as fh:
        fh.write(dot)
    # one edge x -> x*g per element and letter; x*g leaves the ball
    # exactly for the (r + 1) * lam**r elements x of size r
    lam, r = alphabet.size, args.radius
    n_edges = len(b) * lam
    n_nodes = len(b) + (r + 1) * lam ** (r + 1)
    return (f"wrote {args.file}: {n_nodes} nodes, {n_edges} edges",
            {"file": args.file, "nodes": n_nodes, "edges": n_edges})


def _repl(args, alphabet: polymon.Alphabet) -> None:
    """Prints each answer as its line is read, so it returns nothing."""
    prompt = "> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt).strip()
        except EOFError:
            return
        if line in ("quit", "exit"):
            return
        if not line:
            continue
        try:
            x = _element(line, alphabet)
            _emit(args, str(x), x.to_json())
        except polymon.PolymonError as err:
            print(f"error: {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        answer = args.run(args, args.alphabet)
        if answer is not None:
            _emit(args, *answer)
        return 0
    except polymon.ExpressionSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except (polymon.PolymonError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
