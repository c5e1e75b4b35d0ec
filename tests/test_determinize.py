"""The bitmask subset construction against the frozenset one it replaced,
against the subset algebra it is a generated subalgebra of; and the checks
an NTA runs when it is built.

``reference_determinize`` is that earlier construction: it rescans every
argument tuple each round and unions the rules of every member tuple.  The
bitmask ``determinize`` must number the subsets exactly as it does, because
closure results are printed unminimized, so the two are compared field by
field rather than as languages.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

from treelang.algebra import closure_elements, finite_algebra, restrict_algebra, subset_algebra
from treelang.core import ValidationError, signature, sorted_vars
from treelang.closure import NTA, nta, table_rules
from treelang.recognizer import Recognizer, determinize, recognizer

from conftest import NON_ELEMENTS


def reference_eps_closures(machine: NTA) -> dict[str, list[frozenset[int]]]:
    """Per sort: state -> reflexive-transitive epsilon closure, by search."""
    out = {}
    eps = dict(machine.epsilon)
    for sort, n in machine.states:
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in eps.get(sort, ()):
            adj[a].add(b)
        closures = []
        for q in range(n):
            seen = {q}
            stack = [q]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closures.append(frozenset(seen))
        out[sort] = closures
    return out


def reference_determinize(machine: NTA, cap: int = 1 << 20) -> Recognizer:
    """Subset construction per sort, pruned to reachable subsets during
    construction; the result is deterministic and complete on the reachable
    subset carriers."""
    sig = machine.signature
    closures = reference_eps_closures(machine)
    leaf = dict(machine.leaf)
    rules = dict(machine.rules)
    eps = {sort: closures[sort] for sort in sig.sorts}

    def close(sort: str, states: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for q in states:
            out.update(eps[sort][q])
        return frozenset(out)

    subsets: dict[str, list[frozenset[int]]] = {s: [] for s in sig.sorts}
    index: dict[str, dict[frozenset[int], int]] = {s: {} for s in sig.sorts}

    def intern(sort: str, subset: frozenset[int]) -> int:
        got = index[sort].get(subset)
        if got is not None:
            return got
        i = len(subsets[sort])
        subsets[sort].append(subset)
        index[sort][subset] = i
        if sum(len(v) for v in subsets.values()) > cap:
            raise ValidationError("determinization state-space guard exceeded")
        return i

    # leaves first: constants in declaration order, then variables
    assignment: dict[str, int] = {}
    tables: dict[str, dict[tuple[int, ...], int]] = {op.name: {} for op in sig.ops}
    for op in sig.ops:
        if not op.arity:
            subset = close(op.result, frozenset(rules.get((op.name, ()), frozenset())))
            tables[op.name][()] = intern(op.result, subset)
    for sort, names in machine.vars.by_sort:
        for x in names:
            assignment[x] = intern(sort, close(sort, leaf.get(x, frozenset())))

    changed = True
    while changed:
        changed = False
        for op in sig.ops:
            if not op.arity:
                continue
            pools = [range(len(subsets[s])) for s in op.arity]
            for args in itertools.product(*pools):
                if args in tables[op.name]:
                    continue
                member_pools = [subsets[s][i] for s, i in zip(op.arity, args)]
                gathered: set[int] = set()
                for members in itertools.product(*member_pools):
                    hit = rules.get((op.name, members))
                    if hit:
                        gathered.update(hit)
                subset = close(op.result, frozenset(gathered))
                tables[op.name][args] = intern(op.result, subset)
                changed = True

    carriers = {s: len(subsets[s]) for s in sig.sorts}
    dense = {}
    for op in sig.ops:
        entries = []
        for args in itertools.product(*[range(carriers[s]) for s in op.arity]):
            entries.append(tables[op.name][args])
        dense[op.name] = tuple(entries)
    alg = finite_algebra(sig, carriers, dense)
    nta_accepting = dict(machine.accepting)
    accepting = {
        s: [
            i
            for i, subset in enumerate(subsets[s])
            if subset.intersection(nta_accepting.get(s, frozenset()))
        ]
        for s in sig.sorts
    }
    return recognizer(machine.vars, alg, assignment, accepting)


def random_nta(rng: random.Random) -> NTA:
    """A random NTA over sorts ``a``, ``b`` and ``u``: constants, a unary, a
    binary and a ternary operation with random argument sorts, epsilon
    edges, and a sort ``u`` that no constant or variable reaches, so its
    carrier stays empty and every table taking it is empty."""
    ab = "ab"
    sig = signature(
        ["a", "b", "u"],
        [
            ("c", [], "a"),
            ("d", [], rng.choice(ab)),
            ("f", [rng.choice(ab)], rng.choice(ab)),
            ("p", [rng.choice(ab), rng.choice(ab)], rng.choice(ab)),
            ("t", [rng.choice(ab) for _ in range(3)], rng.choice(ab)),
            ("h", ["u", rng.choice(ab)], "u"),
            ("e", ["u"], "a"),
        ],
    )
    vars = sorted_vars(sig, {"a": ["x"], "b": rng.choice([[], ["y"]])})
    states = {"a": rng.randint(1, 4), "b": rng.randint(0, 3), "u": rng.randint(0, 2)}

    def some(sort: str, p: float) -> set[int]:
        return {q for q in range(states[sort]) if rng.random() < p}

    density = rng.choice([0.3, 0.6, 1.0])
    rules = {}
    for op in sig.ops:
        for args in itertools.product(*(range(states[s]) for s in op.arity)):
            if rng.random() < density:
                rules[(op.name, args)] = some(op.result, 0.4)
    leaf = {x: some(s, 0.5) for s, names in vars.by_sort for x in names}
    epsilon = {
        s: [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
        for s, n in states.items()
        if n
    }
    accepting = {s: some(s, 0.4) for s in sig.sorts}
    return nta(sig, vars, states, leaf, rules, epsilon, accepting)


@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_bit_exact(seed):
    machine = random_nta(random.Random(seed))
    got = determinize(machine)
    want = reference_determinize(machine)
    assert got.algebra.carriers == want.algebra.carriers
    assert got.algebra.tables == want.algebra.tables
    assert got.assignment == want.assignment
    assert got.accepting == want.accepting
    # the NTA keeps its rules and edges in the order given; the output
    # does not depend on that order
    rules = list(machine.rules)
    random.Random(seed).shuffle(rules)
    epsilon = {s: edges[::-1] for s, edges in machine.epsilon}
    states, leaf, accepting = (dict(f) for f in (machine.states, machine.leaf, machine.accepting))
    rebuilt = nta(machine.signature, machine.vars, states, leaf, dict(rules), epsilon, accepting)
    assert determinize(rebuilt) == got


def test_nta_keeps_the_order_given():
    rules = {("sigma", (1, 0)): {1}, ("g", (1,)): {0}, ("c", ()): {0}, ("g", (0,)): {1}}
    epsilon = {"s": [(1, 0), (0, 1), (1, 0), (0, 0)]}
    machine = nta(F1, sorted_vars(F1, {"s": ["x"]}), {"s": 2}, {"x": {0}}, rules, epsilon, {})
    assert [key for key, _ in machine.rules] == [*rules]
    # a repeated edge is kept at its first occurrence
    assert machine.epsilon == (("s", ((1, 0), (0, 1), (0, 0))),)


def test_generator_covers_the_hard_cases():
    """The seeds above include epsilon edges, an empty carrier, nonempty
    ternary tables and subsets interned across several rounds."""
    seen = {"epsilon": 0, "empty": 0, "ternary": 0, "big": 0}
    for seed in range(40):
        machine = random_nta(random.Random(seed))
        rec = determinize(machine)
        seen["epsilon"] += any(edges for _, edges in machine.epsilon)
        seen["empty"] += rec.algebra.size("u") == 0
        seen["ternary"] += len(rec.algebra.table("t")) > 1
        seen["big"] += rec.algebra.size("a") + rec.algebra.size("b") >= 6
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# determinize is the generated subalgebra of the subset algebra

F1 = signature(["s"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s")])
RICH = signature(
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


def evaluator_machine(rng: random.Random, sig, vars):
    """The NTA of a random evaluator with 1-5 states per sort, one variable's
    leaf widened to a random state set (possibly empty), as
    ``quotient_language`` widens the leaf of the quotiented variable."""
    sizes = {s: rng.randint(1, 5) for s in sig.sorts}
    tables = {
        op.name: [rng.randrange(sizes[op.result]) for _ in itertools.product(
            *(range(sizes[s]) for s in op.arity))]
        for op in sig.ops
    }
    alg = finite_algebra(sig, sizes, tables)
    leaf = {x: {rng.randrange(sizes[s])} for s, names in vars.by_sort for x in names}
    wide = rng.choice(vars.all_names())
    leaf[wide] = {q for q in range(sizes[vars.sort_of(wide)]) if rng.random() < 0.5}
    accepting = {s: {q for q in range(n) if rng.random() < 0.5} for s, n in sizes.items()}
    machine = nta(sig, vars, sizes, leaf, {k: {v} for k, v in table_rules(alg)}, {}, accepting)
    return alg, machine


@pytest.mark.parametrize("sig_name", ["F1", "RICH"])
def test_is_the_subalgebra_of_the_subset_algebra_generated_by_the_leaves(sig_name):
    sig = {"F1": F1, "RICH": RICH}[sig_name]
    vars = sorted_vars(sig, {"s": ["x", "z"]} if sig is F1 else {"t0": ["x"], "t1": ["y"]})
    rng = random.Random(1600 + len(sig.sorts))
    for _ in range(100):
        alg, machine = evaluator_machine(rng, sig, vars)
        powerset = subset_algebra(alg)
        # the seed: constants' singletons in declaration order, then the leaves
        seed = {s: [] for s in sig.sorts}
        for op in sig.ops:
            if not op.arity:
                seed[op.result].append(1 << alg.table(op.name)[0])
        leaf = dict(machine.leaf)
        for s, names in vars.by_sort:
            seed[s] += [sum(1 << q for q in leaf[x]) for x in names]
        generated, _ = restrict_algebra(powerset, closure_elements(powerset, seed))
        assert determinize(machine).algebra == generated


# ---------------------------------------------------------------------------
# malformed automata


def small_machine(**changes) -> NTA:
    """A well-formed one-sorted NTA over ``c``, ``g`` and ``sigma`` with two
    states, with the given fields replaced (``rules`` are added)."""
    fields = {
        "states": {"s": 2},
        "leaf": {"x": {0}},
        "rules": {("c", ()): {0}, ("g", (0,)): {1}, ("g", (1,)): {0}, ("sigma", (0, 1)): {1}},
        "epsilon": {"s": [(1, 0)]},
        "accepting": {"s": {1}},
    }
    rules = {**fields["rules"], **changes.pop("rules", {})}
    fields.update(changes, rules=rules)
    return nta(F1, sorted_vars(F1, {"s": ["x"]}), **fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"rules": {("g", (0,)): {2}}}, r"rule g\(0\): state 2 out of range at sort 's'"),
        ({"rules": {("sigma", (1, 3)): {0}}}, r"rule sigma\(1, 3\): state 3 out of range"),
        ({"rules": {("h", (0,)): {0}}}, r"rule h\(0\) has unknown operation 'h'"),
        ({"rules": {("g", (0, 1)): {0}}}, r"rule g\(0, 1\) has 2 argument states, expected 1"),
        ({"rules": {("sigma", ()): {0}}}, r"rule sigma\(\) has 0 argument states, expected 2"),
        ({"rules": {("c", (1,)): {0}}}, r"rule c\(1\) has 1 argument states, expected 0"),
        ({"leaf": {"x": {0, 2}}}, r"leaf of variable 'x': state 2 out of range at sort 's'"),
        ({"leaf": {"x": {-1}}}, r"leaf of variable 'x': state -1 out of range"),
        ({"epsilon": {"s": [(0, 5)]}}, r"NTA epsilon state 5 out of range at sort 's'"),
        ({"accepting": {"s": {1, 2}}}, r"NTA accepting state 2 out of range at sort 's'"),
        ({"rules": {("g", (0,)): {-1}}}, r"rule g\(0\): state -1 out of range at sort 's'"),
        ({"rules": {("sigma", (7, 0)): {0}}}, r"rule sigma\(7, 0\): state 7 out of range"),
        ({"rules": {("sigma", (-1, 0)): {0}}}, r"rule sigma\(-1, 0\): state -1 out of range"),
        ({"rules": {("sigma", (0, -1)): {0}}}, r"rule sigma\(0, -1\): state -1 out of range"),
        ({"rules": {("g", (0, 1)): set()}}, r"rule g\(0, 1\) has 2 argument states, expected 1"),
        *[
            (changes, re.escape(message.format(v=repr(v))))
            for v in NON_ELEMENTS.values()
            for changes, message in [
                ({"leaf": {"x": {v}}}, "NTA leaf of variable 'x': state {v} out of range at sort 's'"),
                ({"rules": {("g", (0,)): {v}}}, "NTA rule g(0): state {v} out of range at sort 's'"),
                ({"rules": {("sigma", (1, v)): {0}}}, f"NTA rule sigma(1, {v}): state {{v}} out of range"),
                ({"epsilon": {"s": [(0, v)]}}, "NTA epsilon state {v} out of range at sort 's'"),
                ({"accepting": {"s": {v}}}, "NTA accepting state {v} out of range at sort 's'"),
            ]
        ],
        *[
            ({"states": {"s": v}}, re.escape(f"NTA state count {v!r} out of range at sort 's'"))
            for kind, v in NON_ELEMENTS.items()
            if kind != "at-size"  # 2 is a count
        ],
        # a state that does not compare with the ints beside it; the NTA
        # never sorts its fields, so the checks name it
        ({"rules": {("g", ("a",)): {0}}}, re.escape("NTA rule g(a): state 'a' out of range at sort 's'")),
        ({"epsilon": {"s": [(0, 1), (0, "a")]}}, re.escape("NTA epsilon state 'a' out of range at sort 's'")),
    ],
)
def test_malformed_machine_names_what_is_wrong(changes, message):
    assert determinize(small_machine())  # the unchanged machine is fine
    # ``nta`` raises when it builds the machine, before any determinization
    with pytest.raises(ValidationError, match=message):
        small_machine(**changes)


def test_states_must_list_every_sort_in_order():
    good = small_machine()
    for states in ((), (("s", 2), ("t", 1)), (("s", 2), ("s", 2))):
        with pytest.raises(ValidationError, match="^NTA states must list every sort in signature order$"):
            NTA(good.signature, good.vars, states, good.leaf, good.rules, good.epsilon, good.accepting)
