"""The benchmark's own route to every answer it checks.

Nothing here imports polymon.  An element is ``None`` for Zero or a pair
``(u, v)`` of letter tuples for the normal form u'v.  Products go through
a free-word stack reduction, the stack action through a suffix rewrite,
and the text and JSON renderings follow the CLI conventions in README.md.
"""

from __future__ import annotations

ONE = ((), ())


def free(x):
    """Signed-letter word of a nonzero element: u reversed and inverted, then v."""
    u, v = x
    return tuple(-(i + 1) for i in reversed(u)) + tuple(i + 1 for i in v)


def reduce_word(word):
    """Cancel x x', and send the whole word to Zero on x y' (x != y)."""
    stack = []
    for s in word:
        if s < 0 and stack and stack[-1] > 0:
            if stack.pop() != -s:
                return None
        else:
            stack.append(s)
    k = sum(1 for s in stack if s < 0)
    return tuple(-s - 1 for s in reversed(stack[:k])), tuple(s - 1 for s in stack[k:])


def mul(*xs):
    """Product of any number of elements, left to right."""
    word = ()
    for x in xs:
        if x is None:
            return None
        word += free(x)
    return reduce_word(word)


def inv(x):
    return None if x is None else (x[1], x[0])


def act(x, word):
    """x = (u, v) rewrites a stack word ending in u to end in v instead."""
    if x is None:
        return None
    u, v = x
    cut = len(word) - len(u)
    if cut >= 0 and tuple(word[cut:]) == u:
        return tuple(word[:cut]) + v
    return None


def size(x):
    return 0 if x is None else len(x[0]) + len(x[1])


def letters(x):
    return set() if x is None else set(x[0]) | set(x[1])


def order_key(x):
    """Canonical enumeration order: Zero first, then (size, |u|, u, v)."""
    return (0,) if x is None else (1, size(x), len(x[0]), x[0], x[1])


def letter(i):
    return chr(ord("a") + i) if i < 26 else f"g{i}"


def word_text(w):
    return "".join(letter(i) for i in w)


def text(x):
    if x is None:
        return "0"
    u, v = x
    if not u and not v:
        return "1"
    return "".join(letter(i) + "'" for i in reversed(u)) + word_text(v)


def to_json(x):
    return {"zero": True} if x is None else {"u": list(x[0]), "v": list(x[1])}


def replay(steps, seed):
    """Check a derivation given as (rule, pair, by) triples with the
    reference product; True when every step follows and it ends at (0, 1)."""
    if not steps or steps[0][0] != "seed" or steps[0][1] != seed:
        return False
    for (rule, pair, by), (_, prev, _) in zip(steps[1:], steps):
        if rule == "left-multiply":
            want = (mul(by, prev[0]), mul(by, prev[1]))
        elif rule == "right-multiply":
            want = (mul(prev[0], by), mul(prev[1], by))
        elif rule == "symmetry":
            want = (prev[1], prev[0])
        else:
            return False
        if pair != want:
            return False
    return steps[-1][1] == (None, ONE)
