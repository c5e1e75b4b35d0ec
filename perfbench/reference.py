"""The answer key: every checked output is compared, outside the timed loop,
with ``treelang.oracle`` on all terms up to ``NODE_BOUND`` nodes.

Where the oracle has no routine (single-term verdicts, tree-homomorphism and
derivor images), the check uses a plain scalar walk defined here.  It reads
the raw operation tables and never calls the library's evaluators, so it can
check them.
"""

from __future__ import annotations

from functools import lru_cache

from treelang import Var, enumerate_all_terms, oracle, print_term, sorted_vars
from treelang.core import Hole, substitute_uniform

# Language outputs are compared on every term of at most NODE_BOUND nodes.
# The set-level oracles of substitution, iteration and quotient enumerate
# replacements per term, so they run at the smaller CLOSURE_BOUND.
NODE_BOUND = 6
CLOSURE_BOUND = 5
HOLE_VALUE = "@"  # environment key of a context's hole


class Walker:
    """Bottom-up evaluation of terms in one finite algebra, iterative so deep
    terms do not exhaust the interpreter stack."""

    def __init__(self, alg, assignment=None):
        self.sizes = dict(alg.carriers)
        self.tables = dict(alg.tables)
        self.arity = {op.name: op.arity for op in alg.signature.ops}
        self.assignment = dict(assignment or {})

    def apply(self, symbol: str, args) -> int:
        index = 0
        for a, s in zip(args, self.arity[symbol]):
            index = index * self.sizes[s] + a
        return self.tables[symbol][index]

    def value(self, term, env=None) -> int:
        env = self.assignment if env is None else {**self.assignment, **env}
        out: list[int] = []
        stack = [(term, False)]
        while stack:
            t, ready = stack.pop()
            if isinstance(t, Var):
                out.append(env[t.name])
            elif isinstance(t, Hole):
                out.append(env[HOLE_VALUE])
            elif ready:
                n = len(t.children)
                args = out[len(out) - n:]
                del out[len(out) - n:]
                out.append(self.apply(t.symbol, args))
            else:
                stack.append((t, True))
                stack.extend((c, False) for c in reversed(t.children))
        return out[0]

    def values(self, terms) -> dict[int, int]:
        """id(term) -> value for terms whose subterms are shared objects, as
        the enumerator builds them; children are smaller, so size order
        evaluates every child first."""
        memo: dict[int, int] = {}
        for t in sorted(terms, key=lambda t: t.size):
            if isinstance(t, Var):
                memo[id(t)] = self.assignment[t.name]
            else:
                memo[id(t)] = self.apply(t.symbol, [memo[id(c)] for c in t.children])
        return memo


@lru_cache(maxsize=None)
def universe(sig, vars, bound: int):
    """Every term of at most ``bound`` nodes, per sort, and all of them with
    their shared subterms in one list."""
    per_sort = enumerate_all_terms(sig, vars, bound)
    everything = [t for ts in per_sort.values() for t in ts]
    seen = {id(t) for t in everything}
    stack = list(everything)
    while stack:
        for c in getattr(stack.pop(), "children", ()):
            if id(c) not in seen:
                seen.add(id(c))
                everything.append(c)
                stack.append(c)
    return per_sort, everything


def member(rec, term) -> bool:
    return Walker(rec.algebra, rec.assignment).value(term) in rec.accepting_at(term.sort)


def hom_value(patterns, walker: Walker, var_values, term) -> int:
    """Value in the target algebra of the image of ``term`` under the
    homomorphism given by ``patterns`` (source op -> target term over
    placeholders) and ``var_values`` (source variable -> target value),
    without building the image."""
    out: list[int] = []
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if isinstance(t, Var):
            out.append(var_values[t.name])
        elif ready:
            n = len(t.children)
            args = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(walker.value(patterns[t.symbol], {f"v{i}": a for i, a in enumerate(args)}))
        else:
            stack.append((t, True))
            stack.extend((c, False) for c in reversed(t.children))
    return out[0]


def languages(rec, bound: int = NODE_BOUND):
    """The accepted terms of at most ``bound`` nodes per sort, as
    ``oracle.language_sets`` defines them, over a cached term universe."""
    per_sort, everything = universe(rec.signature, rec.vars, bound)
    value = Walker(rec.algebra, rec.assignment).values(everything)
    out = {}
    for s, terms in per_sort.items():
        acc = rec.accepting_at(s)
        out[s] = frozenset(t for t in terms if value[id(t)] in acc)
    return out


def same_language(out, want, bound: int = NODE_BOUND) -> bool:
    got = languages(out, bound)
    return all(got[s] == frozenset(want.get(s, ())) for s in out.signature.sorts)


def combine_ok(kind, r1, r2, out) -> bool:
    a, b = languages(r1), languages(r2)
    if kind == "union":
        want = {s: a[s] | b[s] for s in a}
    elif kind == "intersection":
        want = {s: a[s] & b[s] for s in a}
    else:
        want = {s: a[s] - b[s] for s in a}
    return same_language(out, want)


def empty_ok(rec, verdict: bool) -> bool:
    """A True verdict is refuted by any accepted term the oracle finds."""
    found = any(languages(rec).values())
    return not (verdict and found)


def equal_ok(r1, r2, verdict: bool) -> bool:
    """A True verdict is refuted by any term the oracle finds in exactly one
    language; a False verdict cannot be refuted at a bound."""
    a, b = languages(r1), languages(r2)
    return not (verdict and any(a[s] != b[s] for s in a))


def substitute_ok(k, family, out) -> bool:
    ks = languages(k, CLOSURE_BOUND)
    fams = {
        x: sorted(languages(lx, CLOSURE_BOUND)[k.vars.sort_of(x)], key=lambda t: t.size)
        for x, lx in family.items()
    }
    k_terms = [t for ts in ks.values() for t in ts]
    want = oracle.semantic_substitution_sets(k_terms, fams, CLOSURE_BOUND)
    return same_language(out, _by_sort(out, want), CLOSURE_BOUND)


def iterate_ok(l, z, out) -> bool:
    sort = l.vars.sort_of(z)
    l_terms = sorted(languages(l, CLOSURE_BOUND)[sort], key=lambda t: t.size)
    want = oracle.semantic_iteration_bounded(l.signature, l.vars, l_terms, z, CLOSURE_BOUND)
    return same_language(out, {sort: want}, CLOSURE_BOUND)


def quotient_ok(l, k_terms, z, out) -> bool:
    bound = max(t.size for t in k_terms)
    want = oracle.semantic_quotient_bounded(l, k_terms, z, CLOSURE_BOUND, bound)
    return same_language(out, want, CLOSURE_BOUND)


def image_ok(h, l, sort, out) -> bool:
    """Direct image along a non-erasing map: every image of at most the bound
    comes from a source term of at most the bound."""
    want = set()
    for p in languages(l)[sort]:
        image = _image(h, p)
        if image.size <= NODE_BOUND:
            want.add(image)
    return same_language(out, _by_sort(out, want))


def inverse_ok(h, l, sort, out) -> bool:
    """Inverse image: a source term is accepted exactly when its image is."""
    patterns = dict(h.patterns)
    walker = Walker(l.algebra, l.assignment)
    var_values = {x: walker.value(t) for x, t in h.var_images}
    acc = l.accepting_at(h.sort_image(sort))
    want = {
        s: frozenset(p for p in terms if s == sort and hom_value(patterns, walker, var_values, p) in acc)
        for s, terms in universe(h.source, h.source_vars, NODE_BOUND)[0].items()
    }
    return same_language(out, want)


def invtrans_ok(rec, ctx, out) -> bool:
    """Inverse translation: q is accepted exactly when ctx[q] is.  The value
    of ctx[q] depends on q only through q's value."""
    walker = Walker(rec.algebra, rec.assignment)
    acc = rec.accepting_at(ctx.root_sort)
    per_sort, everything = universe(rec.signature, rec.vars, NODE_BOUND)
    value = walker.values(everything)
    plugged: dict[int, bool] = {}
    want = set()
    for q in per_sort.get(ctx.hole_sort, ()):
        v = value[id(q)]
        if v not in plugged:
            plugged[v] = walker.value(ctx.body, {HOLE_VALUE: v}) in acc
        if plugged[v]:
            want.add(q)
    return same_language(out, {ctx.hole_sort: want})


def treehom_apply_ok(h, rec, term, image) -> bool:
    """The image evaluates in ``rec``'s algebra to the value the pattern
    semantics gives the source term."""
    walker = Walker(rec.algebra, rec.assignment)
    var_values = {x: walker.value(t) for x, t in h.var_images}
    return walker.value(image) == hom_value(dict(h.patterns), walker, var_values, term)


def derivor_apply_ok(d, alg, hall_in, hall_out, env) -> bool:
    """d(p) evaluates under a placeholder environment to the value the derivor
    semantics gives p."""
    walker = Walker(alg)
    patterns = {name: ht.term for name, ht in d.patterns}
    want = hom_value(patterns, walker, env, hall_in.term)
    return walker.value(hall_out.term, env) == want


def derive_ok(d, alg, derived) -> bool:
    walker = Walker(alg)
    patterns = {name: ht.term for name, ht in d.patterns}
    mine = Walker(derived)
    per_sort, _ = universe(d.source, sorted_vars(d.source, {}), NODE_BOUND)
    return all(
        mine.value(p) == hom_value(patterns, walker, {}, p)
        for terms in per_sort.values()
        for p in terms
    )


def enumerate_ok(rec, max_nodes: int, lines) -> bool:
    """``lines`` as printed: an empty language prints one blank line."""
    want = oracle.enumerate_language(rec, max_nodes)
    return [line for line in lines if line] == [f"{s}: {print_term(t)}" for s in rec.signature.sorts for t in want[s]]


def _by_sort(out, terms):
    by: dict[str, set] = {s: set() for s in out.signature.sorts}
    for t in terms:
        by[t.sort].add(t)
    return by


def _image(h, term):
    """Apply the hyperderivor to a small term by plain substitution."""
    if isinstance(term, Var):
        return h.var_image(term.name)
    images = {f"v{i}": _image(h, c) for i, c in enumerate(term.children)}
    return substitute_uniform(h.pattern(term.symbol), images)
