"""Exact symbolic computation in polycyclic inverse monoids.

The package is organized by concern:

- ``core``: alphabets, normal forms, closed-form arithmetic
- ``rewriting``: the free-word oracle behind every product
- ``collapse``: the shortest congruence-collapse derivation and its replay
- ``green``: R-classes, the finite equation solver, balls, stack action
- ``topology``: the compact one-point model and continuity certificates
- ``parsing`` / ``cli``: expression front end and the ``polymon`` command
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, mapped to the submodule that defines it.  Importing the
# package loads no submodule: ``__getattr__`` imports a name on first use.
_HOMES = {name: module for module, names in (
    ("core", "Alphabet Element element enumeration_key generator letter_name make_alphabet one render_word zero"),
    ("errors", "PolymonError TooFewGenerators AlphabetMismatch UnknownLetter ZeroArgument KeyMismatch "
               "InfiniteAlphabet EqualPair ExpressionSyntaxError"),
    ("green", "Ball act ball ball_cardinality cayley_dot rclass_key rclass_witness solve_axb"),
    ("parsing", "evaluate parse parse_positive_word"),
    ("rewriting", "free_word mul_oracle reduce"),
    ("collapse", "Derivation DerivationStep collapse_witness verify_derivation"),
    ("topology", "CofiniteNbhd certify_translations cofinite joint_discontinuity_family shrink_neighborhood"),
) for name in names.split()}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
