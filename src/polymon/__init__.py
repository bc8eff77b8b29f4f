"""Exact symbolic computation in polycyclic inverse monoids.

The package is organized by concern:

- ``core``: alphabets, normal forms, closed-form arithmetic
- ``rewriting``: the free-word oracle and congruence-collapse search
- ``green``: R-classes, the finite equation solver, balls, stack action
- ``topology``: the compact one-point model and continuity certificates
- ``parsing`` / ``cli``: expression front end and the ``polymon`` command
"""

from .core import (
    Alphabet,
    Element,
    element,
    enumeration_key,
    generator,
    letter_name,
    make_alphabet,
    one,
    render_word,
    zero,
)
from .errors import (
    AlphabetMismatch,
    EqualPair,
    ExpressionSyntaxError,
    InfiniteAlphabet,
    KeyMismatch,
    PolymonError,
    TooFewGenerators,
    UnknownLetter,
    ZeroArgument,
)
from .green import (
    Ball,
    RClassKey,
    act,
    ball,
    ball_cardinality,
    cayley_dot,
    rclass_key,
    rclass_witness,
    solve_axb,
)
from .parsing import evaluate, parse, parse_positive_word
from .rewriting import (
    Derivation,
    DerivationStep,
    collapse_witness,
    free_word,
    mul_oracle,
    reduce,
    verify_derivation,
)
from .topology import (
    CofiniteNbhd,
    certify_translations,
    cofinite,
    joint_discontinuity_family,
    shrink_neighborhood,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Element", "element", "enumeration_key", "generator",
    "letter_name", "make_alphabet", "one", "render_word", "zero",
    "PolymonError", "TooFewGenerators", "AlphabetMismatch", "UnknownLetter",
    "ZeroArgument", "KeyMismatch", "InfiniteAlphabet", "EqualPair",
    "ExpressionSyntaxError",
    "Ball", "RClassKey", "act", "ball", "ball_cardinality", "cayley_dot",
    "rclass_key", "rclass_witness", "solve_axb",
    "evaluate", "parse", "parse_positive_word",
    "Derivation", "DerivationStep", "collapse_witness", "free_word", "mul_oracle",
    "reduce", "verify_derivation",
    "CofiniteNbhd", "certify_translations", "cofinite",
    "joint_discontinuity_family", "shrink_neighborhood",
]
