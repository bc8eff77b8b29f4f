"""Count the code lines of each module of ``src/polymon`` and their total.

Run from anywhere in a checkout:

    python tools/codelines.py

A code line holds at least one token that is neither a comment nor a
line break, and lies in no docstring: the first statement of a module,
class or function when it is a string.  Blank lines, comment lines and
docstring lines do not count.  A statement spanning several lines counts
each of them.  Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polymon"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:5}  {path.name}")
    print(f"{total:5}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
