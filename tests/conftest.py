"""Shared fixtures: the two reference signatures, the parity recognizer, the
worked hyperderivor/derivor examples, and seeded random instance generators.
"""

from __future__ import annotations

import ast
import io
import itertools
import random
import re
import tokenize

import pytest

from treelang.algebra import FiniteAlgebra, finite_algebra
from treelang.congruence import partition
from treelang.core import (
    Context,
    Hole,
    Node,
    Signature,
    SortedVars,
    Term,
    ValidationError,
    Var,
    context,
    enumerate_all_terms,
    node,
    parse_term,
    signature,
    sorted_vars,
)
from treelang.derivor import Derivor, HallTerm, derivor, hall_term
from treelang.oracle import evaluate_many
from treelang.recognizer import Recognizer, recognizer
from treelang.treehom import Hyperderivor, hyperderivor, placeholder


def check_branch(branches, case, request):
    """Run one case of a module's table of validation branches, each a call
    (given ``request.getfixturevalue``), its error type and its message: the
    call raises exactly that type, with exactly that message."""
    call, error, message = branches[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call(request.getfixturevalue)
    assert raised.type is error


# one value of each kind that is not an element of a 2-element carrier
# (``algebra._member``); all but "at-size" are not sizes either
NON_ELEMENTS = {"negative": -1, "at-size": 2, "fractional": 0.5, "bool": True, "string": "a"}


def non_element_branches(name, call, message, kinds=NON_ELEMENTS):
    """Validation-branch cases ``name-kind``, one per non-element ``v`` of
    ``NON_ELEMENTS`` whose kind is in ``kinds``: ``call(fx, v)`` raises a
    ``ValidationError`` with ``message`` formatted at ``v=repr(v)``."""
    return {
        f"{name}-{kind}": (
            lambda fx, v=NON_ELEMENTS[kind]: call(fx, v),
            ValidationError,
            message.format(v=repr(NON_ELEMENTS[kind])),
        )
        for kind in kinds
    }


# tokens that hold no code: a line holding only these is not a code line
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in a module's source: the lines that hold a
    token other than a comment, line break, indent, dedent or end marker,
    outside every module, class and function docstring (the first
    statement of the body, when it is a string).  A token spanning lines,
    such as a string that is not a docstring, holds each of them."""
    docs = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, _DOCUMENTED) and ast.get_docstring(scope, clean=False) is not None:
            first = scope.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


# ---------------------------------------------------------------------------
# fixed fixtures


@pytest.fixture(scope="session")
def f1():
    return signature(
        ["s"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s")]
    )


@pytest.fixture(scope="session")
def x1(f1):
    return sorted_vars(f1, {"s": ["x", "z"]})


@pytest.fixture(scope="session")
def f2():
    return signature(
        ["e", "b"],
        [("zero", [], "e"), ("succ", ["e"], "e"), ("iszero", ["e"], "b")],
    )


@pytest.fixture(scope="session")
def x2(f2):
    return sorted_vars(f2, {"e": ["x"]})


@pytest.fixture(scope="session")
def rpar_algebra(f1):
    return finite_algebra(
        f1, {"s": 2}, {"c": [0], "g": [1, 0], "sigma": [0, 1, 1, 0]}
    )


@pytest.fixture(scope="session")
def r_par(f1, x1, rpar_algebra):
    return recognizer(x1, rpar_algebra, {"x": 0, "z": 1}, {"s": [0]})


@pytest.fixture(scope="session")
def h1(f1, x1, f2, x2):
    v0 = placeholder(0, "s")
    return hyperderivor(
        f2,
        x2,
        f1,
        x1,
        {"e": "s", "b": "s"},
        {
            "zero": parse_term("c", f1, x1),
            "succ": Node("g", (v0,), "s", 2),
            "iszero": Node("sigma", (v0, parse_term("c", f1, x1)), "s", 3),
        },
        {"x": parse_term("z", f1, x1)},
    )


@pytest.fixture(scope="session")
def d1(f1, f2, x1):
    v0 = placeholder(0, "s")
    return derivor(
        f2,
        f1,
        {"e": "s", "b": "s"},
        {
            "zero": hall_term(parse_term("c", f1, x1), [], "s"),
            "succ": hall_term(Node("g", (v0,), "s", 2), ["s"], "s"),
            "iszero": hall_term(
                Node("sigma", (v0, parse_term("c", f1, x1)), "s", 3), ["s"], "s"
            ),
        },
    )


@pytest.fixture(scope="session")
def d2(f1, x1):
    v0 = placeholder(0, "s")
    return derivor(
        f1,
        f1,
        {"s": "s"},
        {
            "c": hall_term(parse_term("c", f1, x1), [], "s"),
            "g": hall_term(Node("g", (Node("g", (v0,), "s", 2),), "s", 3), ["s"], "s"),
            "sigma": hall_term(
                Node("sigma", (placeholder(0, "s"), placeholder(1, "s")), "s", 3),
                ["s", "s"],
                "s",
            ),
        },
    )


# ---------------------------------------------------------------------------
# language comparison helpers


def accepted_sets(rec: Recognizer, universe) -> dict[str, frozenset]:
    """Per-sort accepted subset of an enumerated universe, batched."""
    out = {}
    for sort, terms in universe.items():
        values = evaluate_many(rec.algebra, dict(rec.assignment), terms)
        acc = rec.accepting_at(sort)
        out[sort] = frozenset(t for t in terms if values[id(t)] in acc)
    return out


def same_language(r1: Recognizer, r2: Recognizer, max_nodes: int) -> bool:
    universe = enumerate_all_terms(r1.signature, r1.vars, max_nodes)
    return accepted_sets(r1, universe) == accepted_sets(r2, universe)


def all_partitions_of(n: int):
    """Every partition of range(n) as a class-id array (exponential; test sizes only)."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from rec(prefix + [c], max(used, c + 1))

    yield from rec([0], 1)


def all_sorted_partitions(alg: FiniteAlgebra):
    """Every sorted partition of the carriers (brute-force oracle substrate)."""
    sorts = alg.signature.sorts
    per_sort = [list(all_partitions_of(alg.size(s))) for s in sorts]
    for combo in itertools.product(*per_sort):
        yield partition(sorts, dict(zip(sorts, combo)))


# ---------------------------------------------------------------------------
# random generators (all seeded by the caller)


VAR_POOL = [f"x{i}" for i in range(8)]


def random_signature(rng: random.Random, max_ops: int = 4, max_binary: int = 2):
    """A small signature in the style of the fixtures: 1-2 sorts, a constant,
    and a few unary/binary operations."""
    n_sorts = rng.choice([1, 1, 2])
    sorts = [f"s{i}" for i in range(n_sorts)]
    ops = [("k0", [], rng.choice(sorts))]
    n_ops = rng.randint(2, max_ops)
    binary_budget = max_binary
    for i in range(1, n_ops):
        pool = [0, 1, 1, 2, 2] if binary_budget > 0 else [0, 1, 1]
        arity_len = rng.choice(pool)
        if arity_len == 2:
            binary_budget -= 1
        arity = [rng.choice(sorts) for _ in range(arity_len)]
        ops.append((f"f{i}" if arity else f"k{i}", arity, rng.choice(sorts)))
    sig = signature(sorts, ops)
    by_sort = {}
    idx = 0
    for s in sorts:
        k = rng.choice([0, 1, 1, 2])
        by_sort[s] = VAR_POOL[idx : idx + k]
        idx += k
    return sig, sorted_vars(sig, by_sort)


def random_rich_signature(rng: random.Random):
    """A signature where every sort has a constant and every sort is reachable
    from every other through some operation argument (pattern-generation
    substrate for hyperderivor tests)."""
    n_sorts = rng.choice([1, 1, 2])
    sorts = [f"t{i}" for i in range(n_sorts)]
    ops = [(f"e{i}", [], s) for i, s in enumerate(sorts)]
    if n_sorts == 1:
        ops.append(("u0", [sorts[0]], sorts[0]))
        ops.append(("b0", [sorts[0], sorts[0]], sorts[0]))
    else:
        ops.append(("u0", [sorts[0]], sorts[0]))
        ops.append(("u1", [sorts[0]], sorts[1]))
        ops.append(("u2", [sorts[1]], sorts[0]))
        ops.append(("u3", [sorts[1]], sorts[1]))
        ops.append(("b0", [sorts[0], sorts[1]], rng.choice(sorts)))
    sig = signature(sorts, ops)
    by_sort = {}
    idx = 4
    for s in sorts:
        k = rng.choice([0, 1, 1])
        by_sort[s] = VAR_POOL[idx : idx + k]
        idx += k
    return sig, sorted_vars(sig, by_sort)


def random_algebra(
    rng: random.Random, sig: Signature, max_carrier: int = 3, carriers=None
):
    """Random tables; carrier sizes are drawn from 1..max_carrier unless given."""
    if carriers is None:
        carriers = {s: rng.randint(1, max_carrier) for s in sig.sorts}
    tables = {}
    for op in sig.ops:
        space = 1
        for s in op.arity:
            space *= carriers[s]
        n = carriers[op.result]
        tables[op.name] = [rng.randrange(n) for _ in range(space)]
    return finite_algebra(sig, carriers, tables)


def random_recognizer(
    rng: random.Random,
    sig: Signature,
    vars: SortedVars,
    max_carrier: int = 3,
    only_sort: str | None = None,
):
    alg = random_algebra(rng, sig, max_carrier)
    carriers = dict(alg.carriers)
    assignment = {
        x: rng.randrange(carriers[s]) for s, names in vars.by_sort for x in names
    }
    accepting = {}
    for s in sig.sorts:
        if only_sort is not None and s != only_sort:
            accepting[s] = []
        else:
            accepting[s] = [e for e in range(carriers[s]) if rng.random() < 0.5]
    return recognizer(vars, alg, assignment, accepting)


def termless(sig, vars):
    """The signature with a sort ``u`` added that has no constant and no
    variable: one operation into ``u`` and one out of it, each with a ``u``
    argument, so that no term has sort ``u``."""
    s0 = sig.sorts[0]
    ops = [(op.name, op.arity, op.result) for op in sig.ops]
    ops += [("ku", ["u", s0], "u"), ("hu", [s0, "u"], s0)]
    usig = signature([*sig.sorts, "u"], ops)
    return usig, sorted_vars(usig, dict(vars.by_sort))


def permuted(rng, rec):
    """The recognizer with its states renamed by a random permutation per
    sort: the same language, with other state numbers."""
    sig = rec.signature
    perm = {s: rng.sample(range(n), n) for s, n in rec.algebra.carriers}
    inverse = {s: {new: old for old, new in enumerate(p)} for s, p in perm.items()}
    tables = {}
    for op in sig.ops:
        tables[op.name] = []
        for args in itertools.product(*[range(rec.algebra.size(s)) for s in op.arity]):
            old = [inverse[s][a] for s, a in zip(op.arity, args)]
            tables[op.name].append(perm[op.result][rec.algebra.apply(op.name, old)])
    alg = finite_algebra(sig, dict(rec.algebra.carriers), tables)
    sort_of = {x: s for s, names in rec.vars.by_sort for x in names}
    assignment = {x: perm[sort_of[x]][q] for x, q in rec.assignment}
    accepting = {s: [perm[s][q] for q in qs] for s, qs in rec.accepting}
    return recognizer(rec.vars, alg, assignment, accepting)


def inflated(rng, rec, copies):
    """A non-minimal recognizer of the same language: each state ``q``
    becomes the ``copies`` states ``q * copies + c``, every table entry and
    assigned value is a random copy of the original value, and every copy
    of an accepting state accepts."""
    sig, alg = rec.signature, rec.algebra
    sizes = {s: n * copies for s, n in alg.carriers}
    tables = {}
    for op in sig.ops:
        tables[op.name] = [
            alg.apply(op.name, [a // copies for a in args]) * copies + rng.randrange(copies)
            for args in itertools.product(*[range(sizes[s]) for s in op.arity])
        ]
    assignment = {x: q * copies + rng.randrange(copies) for x, q in rec.assignment}
    accepting = {s: [q * copies + c for q in qs for c in range(copies)] for s, qs in rec.accepting}
    return recognizer(rec.vars, finite_algebra(sig, sizes, tables), assignment, accepting)


def random_term(
    rng: random.Random, sig: Signature, vars: SortedVars, sort: str, max_nodes: int
) -> Term | None:
    universe = enumerate_all_terms(sig, vars, max_nodes)[sort]
    if not universe:
        return None
    return rng.choice(universe)


def random_context(
    rng: random.Random, sig: Signature, vars: SortedVars, max_nodes: int = 5
) -> Context | None:
    """A random one-hole context, carved from a random term by replacing one
    leaf with the hole."""
    sort = rng.choice(sig.sorts)
    body = random_term(rng, sig, vars, sort, max_nodes)
    if body is None:
        return None
    return rng.choice(leaf_contexts(body))[0]


def leaf_contexts(term: Term) -> list[tuple[Context, Term]]:
    """Every one-hole context carved from the term by replacing one leaf with
    the hole, paired with the leaf it replaced; leaves in preorder."""
    return [(context(body), leaf) for body, leaf in _carvings(term)]


def _carvings(t: Term) -> list[tuple[Term, Term]]:
    if isinstance(t, Var) or not t.children:
        return [(Hole(t.sort), t)]
    out = []
    for i, child in enumerate(t.children):
        for body, leaf in _carvings(child):
            children = t.children[:i] + (body,) + t.children[i + 1 :]
            out.append((Node(t.symbol, children, t.sort, t.size), leaf))
    return out


# ---------------------------------------------------------------------------
# hyperderivor / derivor generators


class PatternImpossible(Exception):
    pass


def _ground_term(rng, sig, vars, sort, budget=3, prefer_node=False):
    universe = enumerate_all_terms(sig, vars, budget)[sort]
    if prefer_node:
        nodes = [t for t in universe if isinstance(t, Node)]
        universe = nodes or universe
    if not universe:
        raise PatternImpossible(sort)
    return rng.choice(universe)


def _build_with_leaves(rng, sig, vars, sort, required, depth):
    """A random term of the sort containing exactly the required leaves (a list
    of Var objects), each once, plus arbitrary ground filler."""
    if not required:
        return _ground_term(rng, sig, vars, sort)
    if len(required) == 1 and required[0].sort == sort and (
        depth <= 0 or rng.random() < 0.4
    ):
        return required[0]
    if depth <= 0:
        raise PatternImpossible(sort)
    candidates = [op for op in sig.ops if op.result == sort and op.arity]
    rng.shuffle(candidates)
    for op in candidates:
        for _ in range(4):
            buckets = [[] for _ in op.arity]
            for leaf in required:
                slots = [i for i, w in enumerate(op.arity)]
                buckets[rng.choice(slots)].append(leaf)
            try:
                children = [
                    _build_with_leaves(rng, sig, vars, w, bucket, depth - 1)
                    for w, bucket in zip(op.arity, buckets)
                ]
                return node(op, children)
            except PatternImpossible:
                continue
    raise PatternImpossible(sort)


def random_hyperderivor(
    rng: random.Random,
    source: Signature,
    source_vars: SortedVars,
    target: Signature,
    target_vars: SortedVars,
    nonerasing: bool = False,
    linear: bool = True,
) -> Hyperderivor:
    """Random patterns and variable images; with ``nonerasing`` every pattern
    keeps each placeholder exactly once and contains an operation node, which
    makes the induced map size-nondecreasing."""
    sort_map = {s: rng.choice(target.sorts) for s in source.sorts}
    patterns = {}
    for op in source.ops:
        placeholders = [placeholder(i, sort_map[w]) for i, w in enumerate(op.arity)]
        if nonerasing:
            required = placeholders
        else:
            required = [v for v in placeholders if rng.random() < 0.8]
            if not linear:
                required = required + [
                    v for v in placeholders if rng.random() < 0.3
                ]
        if nonerasing and not required:
            body = _ground_term(
                rng, target, target_vars, sort_map[op.result], prefer_node=True
            )
        else:
            body = _build_with_leaves(
                rng, target, target_vars, sort_map[op.result], list(required), 3
            )
        if nonerasing and not isinstance(body, Node):
            wrap_ops = [
                o
                for o in target.ops
                if o.result == sort_map[op.result]
                and len(o.arity) == 1
                and o.arity[0] == body.sort
            ]
            if not wrap_ops:
                raise PatternImpossible(sort_map[op.result])
            body = node(rng.choice(wrap_ops), [body])
        patterns[op.name] = body
    var_images = {}
    for s, names in source_vars.by_sort:
        for x in names:
            var_images[x] = _ground_term(rng, target, target_vars, sort_map[s])
    return hyperderivor(
        source, source_vars, target, target_vars, sort_map, patterns, var_images
    )


def random_hall_term(
    rng: random.Random, sig: Signature, arity, sort: str, max_extra: int = 3
) -> HallTerm:
    """A random Hall term of the given rank (placeholders may repeat or be
    dropped)."""
    arity = tuple(arity)
    placeholders = [placeholder(i, w) for i, w in enumerate(arity)]
    empty = sorted_vars(sig, {})

    def build(s: str, depth: int) -> Term:
        choices = [v for v in placeholders if v.sort == s]
        constants = [op for op in sig.ops if not op.arity and op.result == s]
        branches = [op for op in sig.ops if op.arity and op.result == s]
        if depth <= 0 or not branches:
            leaf_pool = choices + [node(op, []) for op in constants]
            if not leaf_pool:
                if branches:
                    op = rng.choice(branches)
                    return node(op, [build(w, 0) for w in op.arity])
                raise PatternImpossible(s)
            return rng.choice(leaf_pool)
        if rng.random() < 0.4 and (choices or constants):
            leaf_pool = choices + [node(op, []) for op in constants]
            return rng.choice(leaf_pool)
        op = rng.choice(branches)
        return node(op, [build(w, depth - 1) for w in op.arity])

    return hall_term(build(sort, max_extra), arity, sort)


def random_derivor(rng: random.Random, source: Signature, target: Signature) -> Derivor:
    sort_map = {s: rng.choice(target.sorts) for s in source.sorts}
    patterns = {}
    for op in source.ops:
        arity = tuple(sort_map[w] for w in op.arity)
        patterns[op.name] = random_hall_term(
            rng, target, arity, sort_map[op.result]
        )
    return derivor(source, target, sort_map, patterns)


def retrying(builder, rng: random.Random, attempts: int = 40):
    """Retry a random builder that can raise PatternImpossible."""
    for _ in range(attempts):
        try:
            return builder()
        except PatternImpossible:
            continue
    raise RuntimeError("could not generate a random instance")
