"""The repository's tools: ``tools/codelines.py`` counts what every
simplicity claim about ``src/polymon`` is measured in."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    """A module of ``tools/``, loaded by path: the folder is no package."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""

# a comment line

import sys


def total(x):
    """A function docstring."""
    # a comment inside the function
    y = (x +
         1 +
         2)  # a comment after code

    return y
'''


def test_code_lines_counts_only_code_and_every_line_of_a_statement():
    # import, def, the three lines of y = ... and return
    assert _load("codelines").code_lines(FIXTURE) == 6
