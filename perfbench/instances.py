"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and draws only table contents,
accepting sets, patterns and term shapes from it.  Signatures and carrier
sizes are fixed by the workload definitions, so two seeds differ in content
but not in the amount of structure they ask the library to build.
"""

from __future__ import annotations

import random

from treelang import (
    Node,
    Var,
    derivor,
    finite_algebra,
    hall_term,
    hyperderivor,
    recognizer,
    signature,
    sorted_vars,
)

# The one-sorted fixture signature c/g/sigma with variables x and z.
F1 = signature(["s"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s")])
X1 = sorted_vars(F1, {"s": ["x", "z"]})

# Two-sorted signatures shaped like the rich random signatures of the test
# suite: a constant per sort, unary maps between every pair of sorts and one
# binary operation.
R2 = signature(
    ["t0", "t1"],
    [
        ("e0", [], "t0"),
        ("e1", [], "t1"),
        ("u0", ["t0"], "t0"),
        ("u1", ["t0"], "t1"),
        ("u2", ["t1"], "t0"),
        ("u3", ["t1"], "t1"),
        ("b0", ["t0", "t1"], "t0"),
    ],
)
R2V = sorted_vars(R2, {"t0": ["x4"], "t1": ["x5"]})

R1 = signature(["t0"], [("e0", [], "t0"), ("u0", ["t0"], "t0"), ("b0", ["t0", "t0"], "t0")])
R1V = sorted_vars(R1, {"t0": ["x4"]})

# Source signature of the query workload's hyperderivor and derivor.
Q = signature(
    ["e", "b"],
    [
        ("zero", [], "e"),
        ("succ", ["e"], "e"),
        ("add", ["e", "e"], "e"),
        ("iszero", ["e"], "b"),
    ],
)
QV = sorted_vars(Q, {"e": ["n"]})


def random_recognizer(rng: random.Random, sig, vars, sizes, only_sort=None, accept=0.5):
    """A complete deterministic evaluator with the given carrier sizes."""
    tables = {}
    for op in sig.ops:
        space = 1
        for s in op.arity:
            space *= sizes[s]
        n = sizes[op.result]
        tables[op.name] = [rng.randrange(n) for _ in range(space)]
    alg = finite_algebra(sig, sizes, tables)
    assignment = {x: rng.randrange(sizes[s]) for s, names in vars.by_sort for x in names}
    accepting = {}
    for s in sig.sorts:
        if only_sort is not None and s != only_sort:
            accepting[s] = []
        else:
            accepting[s] = [e for e in range(sizes[s]) if rng.random() < accept]
    return recognizer(vars, alg, assignment, accepting)


def permuted(rng: random.Random, rec):
    """An isomorphic copy of ``rec`` with every carrier shuffled: same language,
    different tables."""
    sig = rec.signature
    sizes = dict(rec.algebra.carriers)
    perm = {}
    for s in sig.sorts:
        p = list(range(sizes[s]))
        rng.shuffle(p)
        perm[s] = p
    inverse = {s: {new: old for old, new in enumerate(p)} for s, p in perm.items()}
    tables = {}
    for op in sig.ops:
        space = [sizes[s] for s in op.arity]
        entries = []
        for flat in range(_prod(space)):
            digits = []
            for n in reversed(space):
                digits.append(flat % n)
                flat //= n
            args = [inverse[s][d] for s, d in zip(op.arity, reversed(digits))]
            entries.append(perm[op.result][rec.algebra.apply(op.name, args)])
        tables[op.name] = entries
    alg = finite_algebra(sig, sizes, tables)
    asg = {x: perm[rec.vars.sort_of(x)][v] for x, v in rec.assignment}
    acc = {s: [perm[s][e] for e in rec.accepting_at(s)] for s in sig.sorts}
    return recognizer(rec.vars, alg, asg, acc)


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def random_term(rng: random.Random, sig, vars, sort: str, nodes: int):
    """A random term of the sort with exactly ``nodes`` nodes; every sort of the
    signatures above has a constant and a unary operation into it, so every
    size is reachable."""
    leaves = {
        s: [Node(op.name, (), s, 1) for op in sig.ops if not op.arity and op.result == s]
        + [Var(x, s) for x in vars.names(s)]
        for s in sig.sorts
    }
    unary = {s: [op for op in sig.ops if len(op.arity) == 1 and op.result == s] for s in sig.sorts}
    binary = {s: [op for op in sig.ops if len(op.arity) == 2 and op.result == s] for s in sig.sorts}

    def build(s: str, n: int):
        if n == 1:
            return rng.choice(leaves[s])
        if n >= 3 and binary[s] and rng.random() < 0.6:
            op = rng.choice(binary[s])
            left = rng.randint(1, n - 2)
            kids = (build(op.arity[0], left), build(op.arity[1], n - 1 - left))
        else:
            op = rng.choice(unary[s])
            kids = (build(op.arity[0], n - 1),)
        return Node(op.name, kids, s, n)

    return build(sort, nodes)


def deep_text(rng: random.Random, depth: int) -> str:
    """A c/g/sigma term of the given depth, as text: a g-chain or a sigma-comb."""
    if rng.random() < 0.5:
        return "g(" * depth + "c" + ")" * depth
    return "sigma(c," * depth + "x" + ")" * depth


def deep_term(rng: random.Random, sig, depth: int):
    """A chain or right comb of the given depth over a signature with a unary
    ``succ``-like op, a binary op and a constant, built without recursion."""
    unary = next(op for op in sig.ops if len(op.arity) == 1 and op.arity[0] == op.result)
    binary = next(op for op in sig.ops if len(op.arity) == 2)
    const = next(op for op in sig.ops if not op.arity and op.result == unary.result)
    leaf = Node(const.name, (), const.result, 1)
    t = leaf
    comb = rng.random() < 0.5
    for _ in range(depth):
        if comb:
            t = Node(binary.name, (leaf, t), binary.result, t.size + 2)
        else:
            t = Node(unary.name, (t,), unary.result, t.size + 1)
    return t


def _ph(i: int, sort: str) -> Var:
    return Var(f"v{i}", sort)


def _node(sig, name: str, *children):
    op = sig.operation(name)
    return Node(name, tuple(children), op.result, 1 + sum(c.size for c in children))


def query_patterns(rng: random.Random):
    """Linear Q -> F1 patterns with every placeholder directly under the root,
    so an image is only a constant factor deeper than its source term."""
    c = _node(F1, "c")
    gc = _node(F1, "g", c)
    v0, v1 = _ph(0, "s"), _ph(1, "s")
    return {
        "zero": rng.choice([c, gc]),
        "succ": rng.choice([_node(F1, "g", v0), _node(F1, "sigma", v0, c), _node(F1, "sigma", gc, v0)]),
        "add": rng.choice([_node(F1, "sigma", v0, v1), _node(F1, "sigma", v1, v0)]),
        "iszero": rng.choice([_node(F1, "g", v0), _node(F1, "sigma", v0, gc)]),
    }


def query_hyperderivor(rng: random.Random):
    patterns = query_patterns(rng)
    image = rng.choice([Var("x", "s"), Var("z", "s"), _node(F1, "g", Var("x", "s"))])
    return hyperderivor(Q, QV, F1, X1, {"e": "s", "b": "s"}, patterns, {"n": image})


def query_derivor(rng: random.Random):
    patterns = query_patterns(rng)
    arities = {op.name: ["s"] * len(op.arity) for op in Q.ops}
    return derivor(
        Q, F1, {"e": "s", "b": "s"},
        {name: hall_term(body, arities[name], "s") for name, body in patterns.items()},
    )


def image_hyperderivor(rng: random.Random, source, source_vars, target, target_vars):
    """A linear, non-erasing hyperderivor between rich signatures: each pattern
    is one target operation node whose argument slots hold the placeholders,
    each at most once, padded with target constants.  Images are never
    smaller than their sources, so the bounded image oracle is complete."""
    constants = {s: next(op.name for op in target.ops if not op.arity and op.result == s) for s in target.sorts}
    for _ in range(100):
        sort_map = {s: rng.choice(target.sorts) for s in source.sorts}
        try:
            patterns = {op.name: _pattern(rng, target, op, sort_map, constants) for op in source.ops}
        except LookupError:
            continue
        break
    else:
        raise LookupError("no linear pattern set fits these signatures")
    images = {}
    for s, names in source_vars.by_sort:
        for x in names:
            pool = [Var(y, sort_map[s]) for y in target_vars.names(sort_map[s])]
            pool.append(_node(target, constants[sort_map[s]]))
            images[x] = rng.choice(pool)
    return hyperderivor(source, source_vars, target, target_vars, sort_map, patterns, images)


def _pattern(rng, target, op, sort_map, constants):
    want = sort_map[op.result]
    slots = [_ph(i, sort_map[w]) for i, w in enumerate(op.arity)]
    candidates = [
        t for t in target.ops
        if t.result == want and t.arity and _fits(t.arity, [p.sort for p in slots])
    ]
    if candidates:
        return _fill(rng, target, rng.choice(candidates), slots, constants)
    # two-step pattern: a slot-fitting node under a unary map into the wanted sort
    for top in target.ops:
        if top.result == want and len(top.arity) == 1:
            for t in target.ops:
                if t.result == top.arity[0] and t.arity and _fits(t.arity, [p.sort for p in slots]):
                    return _node(target, top.name, _fill(rng, target, t, slots, constants))
    raise LookupError(op.name)


def _fits(arity, needs) -> bool:
    free = list(arity)
    for s in needs:
        if s not in free:
            return False
        free.remove(s)
    return True


def _fill(rng, target, top, slots, constants):
    positions = list(range(len(top.arity)))
    rng.shuffle(positions)
    children = [None] * len(top.arity)
    for p in slots:
        i = next(i for i in positions if children[i] is None and top.arity[i] == p.sort)
        children[i] = p
    for i, s in enumerate(top.arity):
        if children[i] is None:
            children[i] = _node(target, constants[s])
    return _node(target, top.name, *children)
