"""The four workloads: seeded inputs, one operation, and its checks.

Each workload builds a deck of operations from the seed in set-up, runs
one operation per ``op`` call through the callables ``tracing.bind``
returns, and checks each result with ``check`` against answers computed by
another route: ``reference`` arithmetic, a second polymon route, or text
rendered from library values computed in set-up.  Decks are stratified,
so that every seed draws the same mix of costly and cheap operations and
run-to-run spread stays small; the seed picks the concrete inputs.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
import os
import random
import sys
from types import SimpleNamespace as Item

import reference as ref


def nf(e):
    """Normal form of a polymon element in reference form."""
    return None if e.is_zero else (e.u, e.v)


def canon(v):
    """A value with every polymon object replaced by plain data and every
    set or dict put in order, for digests."""
    if hasattr(v, "is_zero"):
        return ref.text(nf(v))
    if hasattr(v, "steps"):
        return [[s.rule, canon(s.pair), canon(s.by)] for s in v.steps]
    if hasattr(v, "excluded"):
        return sorted(canon(f) for f in v.excluded)
    if hasattr(v, "elements"):
        return canon(v.elements)
    if isinstance(v, (list, tuple)):
        return [canon(i) for i in v]
    if isinstance(v, (set, frozenset)):
        return sorted(repr(canon(i)) for i in v)
    if isinstance(v, dict):
        return sorted((k, canon(i)) for k, i in v.items())
    return v


def index_products(table, products):
    """Count products in a table kept for the whole run: hashing and
    equality of elements, as a caller memoizing on them does."""
    for p in products:
        table[p] = table.get(p, 0) + 1
    return len(set(products))


def letters_of(lam):
    """Letters drawn on an alphabet; on lambda = inf they run past z (g26...)."""
    return list(range(lam if lam else 40))


def rand_word(rng, letters, n):
    return tuple(rng.choice(letters) for _ in range(n))


def rand_element(rng, letters, max_size, linked_to=None):
    """A nonzero element of size <= max_size.  With ``linked_to`` its
    inverse part is a suffix of that element's positive part, so the
    product linked_to * element is nonzero."""
    if linked_to is not None:
        v = linked_to[1]
        u = v[rng.randint(0, len(v)):][:max_size]
        return u, rand_word(rng, letters, rng.randint(0, max_size - len(u)))
    s = rng.randint(0, max_size)
    k = rng.randint(0, s)
    return rand_word(rng, letters, k), rand_word(rng, letters, s - k)


def sized_element(rng, letters, n):
    """A nonzero element of size exactly n."""
    k = rng.randint(0, n)
    return rand_word(rng, letters, k), rand_word(rng, letters, n - k)


def ref_ball(lam, n):
    """Radius-n ball in reference form, in the canonical enumeration order."""
    out = [None]
    for s in range(n + 1):
        for k in range(s + 1):
            for u in itertools.product(range(lam), repeat=k):
                for v in itertools.product(range(lam), repeat=s - k):
                    out.append((u, v))
    return out


def relabel(x, perm):
    return None if x is None else (tuple(perm[i] for i in x[0]), tuple(perm[i] for i in x[1]))


def orbit_members(items, lam, rng):
    """One seeded member of each orbit of ``items`` (tuples of elements)
    under permutations of the letters, orbits in canonical order.  Members
    of an orbit cost the same up to relabelling, so each seed draws the
    same cost mix."""
    perms = list(itertools.permutations(range(lam)))

    def key(t):
        return tuple(ref.order_key(x) for x in t)

    orbits = {}
    for t in items:
        members = {tuple(relabel(x, p) for x in t) for p in perms}
        orbits.setdefault(min(members, key=key), members)
    return [rng.choice(sorted(orbits[r], key=key)) for r in sorted(orbits, key=key)]


def spread(lo, hi, m):
    """m sizes spaced evenly over [lo, hi]."""
    return [lo + round(j * (hi - lo) / (m - 1)) if m > 1 else (lo + hi) // 2 for j in range(m)]


def planted_solve(rng, lam, bound, slot):
    """(a, x, b, c) with c = a*x*b nonzero, |a| + |b| + |c| == bound, and
    every letter of the alphabet occurring in a, b or c (the solver's
    work grows with the number of letters).  The search draws from a fixed
    stream per (lam, bound, slot), so that it costs the same on every
    seed; ``rng`` relabels the letters of what it finds."""
    letters = letters_of(lam)
    search = random.Random(f"{lam}-{bound}-{slot}")
    while True:
        a = rand_element(search, letters, 3)
        x = rand_element(search, letters, 4, a if search.random() < 0.5 else None)
        b = rand_element(search, letters, 3, x if search.random() < 0.5 else None)
        c = ref.mul(a, x, b)
        if (a != ref.ONE and b != ref.ONE and c is not None
                and ref.size(a) + ref.size(b) + ref.size(c) == bound
                and len(ref.letters(a) | ref.letters(b) | ref.letters(c)) == lam):
            perm = rng.sample(letters, lam)
            return tuple(relabel(e, perm) for e in (a, x, b, c))


def stratified_sample(rng, items, k, key):
    """k of ``items``, each class of ``key`` represented in proportion to
    its size (largest remainders first), members drawn by ``rng``."""
    classes = collections.defaultdict(list)
    for i in items:
        classes[key(i)].append(i)
    quota = {c: k * len(m) / len(items) for c, m in classes.items()}
    take = {c: int(q) for c, q in quota.items()}
    for c in sorted(quota, key=lambda c: (take[c] - quota[c], c))[:k - sum(take.values())]:
        take[c] += 1
    return sorted(i for c, m in classes.items() for i in rng.sample(m, take[c]))


def histogram(values):
    return dict(sorted(collections.Counter(values).items()))


def lam_name(lam):
    return "inf" if lam is None else str(lam)


class Workload:
    extra = {"mul": operator.mul, "index": index_products}

    def warm(self, L):
        """One operation before timing; must pass its check."""
        if not self.check(self.deck[0], self.op(L, self.deck[0])):
            raise RuntimeError(f"{self.name}: warm-up operation failed its check")

    def probes(self, L):
        """Calls made once after the traced phase, outside any operation."""

    def element(self, ab, x):
        return self.P.zero(ab) if x is None else self.P.element(ab, *x)


class Algebra(Workload):
    """Triples x, y, z: products both ways, the rewriting oracle, reduce,
    hashing, the stack action, R-classes, and parse/evaluate."""

    name = "algebra"
    tail_pct = 99.0  # 30 of the 3000 deck operations lie beyond it
    DECK = 3000
    HOT_SHARE = 0.3
    TEMPLATES = ("({x})({y})({z})", "({x}) * (({y})*({z}))", "(({z})^-1 ({y})')' ({x})'")

    def __init__(self, P, seed, paths):
        self.P = P
        rng = random.Random(seed)
        self.ab = {lam: P.make_alphabet(lam) for lam in (2, 3, None)}
        pools = {lam: [sized_element(rng, letters_of(lam), n) for n in range(9)] for lam in self.ab}
        self.table = {}
        hot = 0

        def draw(lam, linked_to):
            nonlocal hot
            if rng.random() < self.HOT_SHARE:
                hot += 1
                return rng.choice(pools[lam])
            return rand_element(rng, letters_of(lam), 8, linked_to if rng.random() < 0.5 else None)

        self.deck = []
        for i in range(self.DECK):
            lam = (2, 3, None)[i % 3]
            letters = letters_of(lam)
            x = draw(lam, None)
            y = draw(lam, x)
            z = draw(lam, y)
            if rng.random() < 0.5:
                sword = tuple(rng.choice((1, -1)) * (rng.choice(letters) + 1) for _ in range(rng.randint(0, 16)))
            else:
                sword = (ref.free(x) + ref.free(y))[:16]
            stack = rand_word(rng, letters, rng.randint(0, 6))
            if rng.random() < 0.5:
                stack += x[0]
            t = rng.randrange(len(self.TEMPLATES))
            text = self.TEMPLATES[t].format(x=ref.text(x), y=ref.text(y), z=ref.text(z))
            xy, yz, xyz = ref.mul(x, y), ref.mul(y, z), ref.mul(x, y, z)
            value = ref.mul(y, z, ref.inv(x)) if t == 2 else xyz
            self.deck.append(Item(
                lam=lam, x=x, y=y, z=z, sword=sword, xy_word=ref.free(x) + ref.free(y), stack=stack, text=text,
                xy=xy, xyz=xyz, reduced=ref.reduce_word(sword), distinct=len({xy, yz, xyz}),
                acted=ref.act(x, stack), same=x[0] == y[0], value=value))
        sizes = [ref.size(e) for it in self.deck for e in (it.x, it.y, it.z)]
        self.summary = {
            "deck": len(self.deck),
            "lambda": histogram(lam_name(it.lam) for it in self.deck),
            "element_size": histogram(sizes),
            "hot_pool_share": hot / (3 * len(self.deck)),
            "reduce_zero_share": sum(it.reduced is None for it in self.deck) / len(self.deck),
            "product_zero_share": sum(it.xy is None for it in self.deck) / len(self.deck),
            "same_rclass_share": sum(it.same for it in self.deck) / len(self.deck),
        }

    def op(self, L, it):
        ab = self.ab[it.lam]
        x = L.element(ab, *it.x)
        y = L.element(ab, *it.y)
        z = L.element(ab, *it.z)
        xy = L.mul(x, y)
        xyz_left = L.mul(xy, z)
        yz = L.mul(y, z)
        xyz_right = L.mul(x, yz)
        oracle = L.mul_oracle(x, y)
        reduced = L.reduce(ab, it.sword)
        reduced_xy = L.reduce(ab, it.xy_word)
        distinct = L.index(self.table, (xy, xyz_left, yz, xyz_right, oracle))
        acted = L.act(x, it.stack)
        same = L.rclass_key(x) == L.rclass_key(y)
        witness = L.rclass_witness(x, y) if same else None
        value = L.evaluate(L.parse(it.text, ab), ab)
        return xy, oracle, reduced_xy, xyz_left, xyz_right, reduced, distinct, acted, same, witness, value

    def check(self, it, out):
        xy, oracle, reduced_xy, xyz_left, xyz_right, reduced, distinct, acted, same, witness, value = out
        return (nf(xy) == nf(oracle) == nf(reduced_xy) == it.xy
                and nf(xyz_left) == nf(xyz_right) == it.xyz
                and nf(reduced) == it.reduced
                and distinct == it.distinct
                and acted == it.acted
                and same == it.same
                and (not same or ref.mul(it.x, nf(witness)) == it.y)
                and nf(value) == it.value)


class Continuity(Workload):
    """Shrink a cofinite neighbourhood of Zero through both translations
    by a and certify it on a ball; a fixed share are direct a*x*b = c solves."""

    name = "continuity"
    tail_pct = 87.0  # 10 of the 82 deck operations lie beyond it
    RADIUS = 5
    # Solver bounds |a| + |b| + |c| of the direct solves, two of each per pass.
    SOLVE_BOUNDS = {2: [*range(3, 10)] * 2, 3: [*range(3, 6)] * 2}
    # Radius of the ball translations come from.  On lambda = 3 it stays at
    # 1: a shrink by a translation of size 2 against a large excluded set
    # takes seconds while the solver enumerates.
    A_RADIUS = {2: 3, 3: 1}

    def __init__(self, P, seed, paths):
        self.P = P
        rng = random.Random(seed)
        self.ab = {lam: P.make_alphabet(lam) for lam in (2, 3)}
        self.deck = []
        self.ball_len = {}
        for lam in (2, 3):
            ball2 = ref_ball(lam, 2)
            self.ball_len[lam] = len(ball2)
            reps = [t[0] for t in orbit_members([(a,) for a in ref_ball(lam, self.A_RADIUS[lam])[1:]], lam, rng)]
            # Every orbit comes back with several excluded-set sizes, which
            # keeps the deck's latency distribution dense around its median.
            reps = reps * (2 if lam == 2 else 4)
            groups = collections.defaultdict(list)
            for a in reps:
                groups[ref.size(a) if lam == 2 else 0].append(a)
            for group in groups.values():
                for a, k in zip(group, spread(1, len(ball2) - 1, len(group))):
                    idx = stratified_sample(rng, range(1, len(ball2)), k, lambda i: (
                        ref.size(ball2[i]), ref.letters(ball2[i]) <= ref.letters(a)))
                    self.deck.append(Item(kind="shrink", lam=lam, a_ref=a, a=self.element(self.ab[lam], a),
                                          idx=idx, excluded={ball2[i] for i in idx}))
            for slot, bound in enumerate(self.SOLVE_BOUNDS[lam]):
                a, x, b, c = planted_solve(rng, lam, bound, slot)
                self.deck.append(Item(kind="solve", lam=lam, refs=(a, x, b, c),
                                      args=tuple(self.element(self.ab[lam], e) for e in (a, b, c))))
        rng.shuffle(self.deck)
        shrinks = [it for it in self.deck if it.kind == "shrink"]
        solves = [it for it in self.deck if it.kind == "solve"]
        self.summary = {
            "deck": len(self.deck),
            "lambda": histogram(lam_name(it.lam) for it in self.deck),
            "solve_share": len(solves) / len(self.deck),
            "translation_size": histogram(ref.size(it.a_ref) for it in shrinks),
            "excluded_size": histogram(len(it.idx) for it in shrinks),
            "solver_bound": histogram(sum(ref.size(e) for e in (it.refs[0], it.refs[2], it.refs[3])) for it in solves),
            "certify_radius": self.RADIUS,
        }

    def warm(self, L):
        # The solver enumerates up to |a| + |b| + |c|, so the warm-up takes
        # the smallest bound (3 on every seed) on the smaller alphabet.
        cheapest = min((it for it in self.deck if it.kind == "solve"),
                       key=lambda it: (sum(ref.size(e) for e in (it.refs[0], it.refs[2], it.refs[3])), it.lam))
        if not self.check(cheapest, self.op(L, cheapest)):
            raise RuntimeError("continuity: warm-up operation failed its check")

    def op(self, L, it):
        if it.kind == "solve":
            return L.solve_axb(*it.args)
        ab = self.ab[it.lam]
        ball = L.ball(ab, 2)
        target = L.cofinite(ab, [ball.elements[i] for i in it.idx])
        shrunk = L.shrink_neighborhood(it.a, target)
        return ball, target, shrunk, L.certify_translations(it.a, target, shrunk, self.RADIUS)

    def check(self, it, out):
        if it.kind == "solve":
            a, x, b, c = it.refs
            sols = [nf(s) for s in out]
            return x in sols and all(ref.mul(a, s, b) == c for s in sols)
        ball, target, shrunk, bad = out
        before = {nf(f) for f in target.excluded}
        after = {nf(f) for f in shrunk.excluded}
        a = it.a_ref
        return (len(ball) == self.ball_len[it.lam] and before == it.excluded and not bad and before <= after
                and all(ref.mul(a, x) in before or ref.mul(x, a) in before for x in after - before))


class Collapse(Workload):
    """Derive (0, 1) from identifying two distinct elements, then replay
    the derivation."""

    name = "collapse"
    tail_pct = 98.5  # 11 of the 748 deck operations lie beyond it
    DEPTH = 8
    REDUCED_DEPTH = 2
    CANONICAL = (((0,), (0,)), ref.ONE)  # a'a ~ 1, the README fixture
    CANONICAL_ORBIT = (CANONICAL, (((1,), (1,)), ref.ONE))
    FIXTURE = [("seed", "a'a", "1"), ("left-multiply", "0", "b"), ("right-multiply", "0", "1")]

    def __init__(self, P, seed, paths):
        self.P = P
        rng = random.Random(seed)
        self.deck = []
        for lam in (2, 3):
            ab = P.make_alphabet(lam)
            ball2 = ref_ball(lam, 2)
            pairs = [(x, y) for x in ball2 for y in ball2 if x != y]
            # Two seeded members of every orbit: relabelling a pair changes
            # the search's cost, and the heaviest searches set ops_per_s,
            # so one draw per orbit left it depending on the seed.
            draws = zip(orbit_members(pairs, lam, rng), orbit_members(pairs, lam, rng))
            for j, members in enumerate(draws):
                for x, y in members:
                    depth = self.REDUCED_DEPTH if j % 5 == 4 else self.DEPTH
                    if lam == 2 and (x, y) in self.CANONICAL_ORBIT:
                        (x, y), depth = self.CANONICAL, self.DEPTH
                    self.deck.append(Item(lam=lam, seed=(x, y), depth=depth,
                                          x=self.element(ab, x), y=self.element(ab, y)))
        rng.shuffle(self.deck)
        self.deck.sort(key=lambda it: it.seed != self.CANONICAL)
        self.summary = {
            "deck": len(self.deck),
            "lambda": histogram(lam_name(it.lam) for it in self.deck),
            "element_size": histogram(ref.size(e) for it in self.deck for e in it.seed),
            "depth_budget": histogram(it.depth for it in self.deck),
        }

    def op(self, L, it):
        d = L.collapse_witness(it.x, it.y, it.depth)
        if d is not None:
            L.verify_derivation(d, (it.x, it.y))
        return d

    def check(self, it, d):
        if d is None:
            return it.depth < self.DEPTH
        steps = [(s.rule, (nf(s.pair[0]), nf(s.pair[1])), None if s.by is None else nf(s.by)) for s in d.steps]
        if it.seed == self.CANONICAL and [(r, ref.text(p[0]), ref.text(p[1])) for r, p, _ in steps] != self.FIXTURE:
            return False
        return ref.replay(steps, it.seed)


def expression(rng, letters, n):
    """A product of about n tokens: letters, primes, '*' and groups in
    parentheses nested at most three deep."""
    def group(budget, depth):
        toks = []
        while len(toks) < budget:
            if toks and rng.random() < 0.1:
                toks.append("*")
            if depth < 3 and budget - len(toks) > 6 and rng.random() < 0.1:
                toks += ["(", *group(rng.randint(1, min(budget - len(toks) - 2, 40)), depth + 1), ")"]
            else:
                toks.append(ref.letter(rng.choice(letters)))
            if rng.random() < 0.3:
                toks.append("'")
        return toks
    return " ".join(group(n, 0)).replace(" '", "'")


class Cli(Workload):
    """One fresh ``python -m polymon`` process per operation."""

    name = "cli"
    # Each repeat draws one operation of every kind below: 20 in all.
    REPS = 2
    tail_pct = 75.0  # 10 of the 40 deck operations lie beyond it
    EVAL_TOKENS = (10, 100, 1000, 3000, 10000)
    SYNTAX_ERRORS = ("{e} )", "({e}", "{e} ^ a", "{e} $", "* {e}")

    def __init__(self, P, seed, paths):
        self.P = P
        rng = random.Random(seed)
        self.root, src, out_dir, self.helper = paths
        self.env = {**os.environ, "PYTHONPATH": src}
        self.tmp = os.path.relpath(os.path.join(out_dir, "tmp"), self.root)
        os.makedirs(self.tmp, exist_ok=True)
        self.extra = {**Workload.extra, "cli": self.run_cli}
        self.deck = []

        def add(kind, argv, lam, stdout, code=0, tokens=0, **more):
            self.deck.append(Item(kind=kind, argv=[*argv, "--lambda", lam_name(lam)], stdout=stdout, code=code,
                                  tokens=tokens, **more))

        def lines(*rows):
            return "\n".join(rows) + "\n"

        def text_list(elems):
            return lines(", ".join(ref.text(nf(e)) for e in elems))

        for rep in range(self.REPS):
            for n, lam in zip(self.EVAL_TOKENS, (2, 3, None, 2, 3)):
                ab = P.make_alphabet(lam)
                expr = expression(rng, letters_of(lam), round(n * rng.uniform(0.9, 1.1)))
                add("eval", ["eval", expr], lam, lines(ref.text(nf(P.evaluate(P.parse(expr, ab), ab)))),
                    tokens=len(expr.replace("'", " '").split()))
            for lam, bound in ((2, 6), (3, 4)):
                a, _, b, c = planted_solve(rng, lam, bound, f"cli-{rep}")
                ab = P.make_alphabet(lam)
                sols = P.solve_axb(*(self.element(ab, e) for e in (a, b, c)))
                add("solve", ["solve", ref.text(a), ref.text(b), ref.text(c)], lam, text_list(sols))
            for lam, radius in ((2, 5), (3, 3)):
                ball = P.ball(P.make_alphabet(lam), radius)
                add("ball", ["ball", str(radius), "--format", "json"], lam,
                    lines(json.dumps([ref.to_json(nf(e)) for e in ball])))
            for lam, depth in ((2, Collapse.DEPTH), (3, Collapse.REDUCED_DEPTH)):
                ab = P.make_alphabet(lam)
                x, y = sized_element(rng, letters_of(lam), 2), sized_element(rng, letters_of(lam), 1)
                d = P.collapse_witness(self.element(ab, x), self.element(ab, y), depth)
                if d is None:
                    out = lines(f"not found within depth {depth}")
                else:
                    out = lines(*(f"{s.rule}{'' if s.by is None else ' ' + ref.text(nf(s.by))}: "
                                  f"{ref.text(nf(s.pair[0]))} ~ {ref.text(nf(s.pair[1]))}" for s in d.steps))
                add("collapse", ["collapse", ref.text(x), ref.text(y), "--depth", str(depth)], lam, out)
            for lam, a_size in ((2, 2), (3, 1)):
                # Drawn from a fixed stream and relabelled by the seed: the
                # shrink's cost varies tenfold with the letters, so this
                # keeps set-up and the operation's cost the same on every seed.
                ab = P.make_alphabet(lam)
                fixed = random.Random(f"cli-continuity-{lam}-{rep}")
                perm = rng.sample(letters_of(lam), lam)
                a = relabel(sized_element(fixed, letters_of(lam), a_size), perm)
                excluded = [relabel(sized_element(fixed, letters_of(lam), n), perm) for n in (1, 2)]
                target = P.cofinite(ab, [self.element(ab, f) for f in excluded])
                shrunk = P.shrink_neighborhood(self.element(ab, a), target)
                bad = P.certify_translations(self.element(ab, a), target, shrunk, 4)

                def fmt(nbhd):
                    return ", ".join(ref.text(f) for f in sorted(map(nf, nbhd.excluded), key=ref.order_key)) or "none"

                add("continuity", ["continuity", ref.text(a), "--exclude", ",".join(ref.text(f) for f in excluded),
                                   "--radius", "4"], lam,
                    lines(f"translation: {ref.text(a)}", f"excluded input: {fmt(target)}",
                          f"excluded output: {fmt(shrunk)}", "verified radius: 4",
                          "counterexamples: " + (", ".join(f"{ref.text(nf(x))} ({side}: {ref.text(nf(p))})"
                                                          for x, side, p in bad) or "none"),
                          "trivial: no"))
            for lam in (2, 3):
                ab = P.make_alphabet(lam)
                x = sized_element(rng, letters_of(lam), 4)
                word = rand_word(rng, letters_of(lam), 3) + (x[0] if lam == 2 else ())
                result = P.act(self.element(ab, x), word)
                add("act", ["act", ref.text(x), ref.word_text(word)], lam,
                    lines("undefined" if result is None else ref.word_text(result)))
            lam = None
            x = sized_element(rng, letters_of(lam), 8)
            add("downset", ["downset", ref.text(x)], lam, text_list(self.element(P.make_alphabet(lam), x).downset()))
            for lam, radius in ((2, 2), (3, 1)):
                ab = P.make_alphabet(lam)
                ball = P.ball(ab, radius)
                gens = [P.generator(ab, i) for i in range(lam)]
                nodes = len(set(ball) | {x * g for x in ball for g in gens})
                path = os.path.join(self.tmp, f"cayley-{len(self.deck)}.dot")
                add("export-dot", ["export-dot", str(radius), path], lam,
                    lines(f"wrote {path}: {nodes} nodes, {len(ball) * lam} edges"), path=path, dot=P.cayley_dot(ball))
            lam = rng.choice((2, 3))
            bad_letter = ref.letter(rng.randrange(lam, 26))
            add("eval", ["eval", f"{expression(rng, letters_of(lam), 8)} {bad_letter}"], lam, "", code=1)
            expr = rng.choice(self.SYNTAX_ERRORS).format(e=expression(rng, letters_of(2), 8))
            add("eval", ["eval", expr], 2, "", code=2)
        rng.shuffle(self.deck)
        self.summary = {
            "deck": len(self.deck),
            "lambda": histogram(it.argv[-1] for it in self.deck),
            "subcommand": histogram(it.kind for it in self.deck),
            "eval_tokens": sorted(it.tokens for it in self.deck if it.kind == "eval" and it.code == 0),
            "error_input_share": sum(it.code != 0 for it in self.deck) / len(self.deck),
        }

    def run_cli(self, kind, argv):
        """Run one polymon process (a bare interpreter for "interpreter");
        returns (exit status, stdout, stderr)."""
        cmd = [sys.executable, "-c", "pass"] if kind == "interpreter" else [sys.executable, "-m", "polymon", *argv]
        return self.helper.run(cmd, self.root, self.env)

    def warm(self, L):
        if L.cli("eval", ["eval", "a"]) != (0, "a\n", ""):
            raise RuntimeError("cli: warm-up process failed")

    def op(self, L, it):
        return L.cli(it.kind, it.argv)

    def check(self, it, out):
        code, stdout, stderr = out
        if code != it.code or stdout != it.stdout or "Traceback" in stderr:
            return False
        if it.kind == "export-dot":
            with open(it.path) as fh:
                ok = fh.read() == it.dot
            os.remove(it.path)
            return ok
        return True

    def probes(self, L):
        """Start-up and bare-interpreter timings, and the inputs known to
        end in a traceback today (nesting past the recursion limit, an
        unwritable path).  They run outside the operations, so they
        show in the cli.* spans and not in the operation counts."""
        for _ in range(3):
            L.cli("startup", ["--help"])
            L.cli("interpreter", [])
        for argv in (["eval", "(" * 400 + "a" + ")" * 400], ["eval", "(" * 3000 + "a" + ")" * 3000],
                     ["eval", "a" + "'" * 3000], ["export-dot", "1", os.path.join(self.tmp, "missing", "x.dot")]):
            L.cli(argv[0], argv)


WORKLOADS = {w.name: w for w in (Algebra, Continuity, Collapse, Cli)}
