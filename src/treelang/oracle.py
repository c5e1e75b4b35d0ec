"""Independent brute-force semantics for the language operators.

These are reference implementations used as ground truth in property tests:
they enumerate terms and apply the set-level definitions directly, never
touching the automaton constructions they are checked against.  Performance
is not a goal.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .algebra import FiniteAlgebra
from .core import (
    Signature,
    SortedVars,
    Term,
    Var,
    enumerate_all_terms,
    node,
    occurrence_counts,
    substitute_occurrences,
)
from .recognizer import Recognizer


def evaluate_many(
    alg: FiniteAlgebra, assignment: Mapping[str, int], terms
) -> dict[int, int]:
    """Evaluate a batch of terms, sharing work across common subterm objects.

    Returns a mapping from ``id(term)`` to value; terms produced by the
    enumerator share children, which makes this much faster than one
    evaluation per term.  The walk reads the declared tables directly and
    shares no code with ``algebra.evaluate``, which it checks.
    """
    sizes = dict(alg.carriers)
    tables = dict(alg.tables)
    opmap = alg.signature.op_by_name
    memo: dict[int, int] = {}

    def walk(t: Term) -> int:
        got = memo.get(id(t))
        if got is not None:
            return got
        if isinstance(t, Var):
            v = assignment[t.name]
        else:
            op = opmap[t.symbol]
            index = 0
            for child, s in zip(t.children, op.arity):
                index = index * sizes[s] + walk(child)
            v = tables[t.symbol][index]
        memo[id(t)] = v
        return v

    for t in terms:
        walk(t)
    return memo


def membership_fn(rec: Recognizer):
    """A membership test for one term at a time, evaluated by ``evaluate_many``."""
    asg = dict(rec.assignment)
    acc = {s: rec.accepting_at(s) for s in rec.signature.sorts}

    def member(t: Term) -> bool:
        return evaluate_many(rec.algebra, asg, [t])[id(t)] in acc[t.sort]

    return member


def enumerate_language(rec: Recognizer, max_nodes: int) -> dict[str, list[Term]]:
    """The accepted terms with at most ``max_nodes`` nodes, per sort, in
    canonical order."""
    universe = enumerate_all_terms(rec.signature, rec.vars, max_nodes)
    out: dict[str, list[Term]] = {}
    for sort, terms in universe.items():
        values = evaluate_many(rec.algebra, dict(rec.assignment), terms)
        acc = rec.accepting_at(sort)
        out[sort] = [t for t in terms if values[id(t)] in acc]
    return out


def language_sets(rec: Recognizer, max_nodes: int) -> dict[str, frozenset[Term]]:
    return {s: frozenset(ts) for s, ts in enumerate_language(rec, max_nodes).items()}


def _occurrence_positions(term: Term) -> list[str]:
    """Variable names of the term's leaves in preorder (one entry per occurrence)."""
    out: list[str] = []

    def walk(t: Term):
        if isinstance(t, Var):
            out.append(t.name)
        else:
            for c in t.children:
                walk(c)

    walk(term)
    return out


def _bounded_choices(
    slots: Sequence[str], pools: Mapping[str, Sequence[Term]], budget: int
):
    """All ways to pick one pool member per slot with total size <= budget.

    Pools must be sorted by ascending size, which lets the scan stop at the
    first member that no longer fits.
    """
    if not slots:
        yield ()
        return
    name = slots[0]
    rest = slots[1:]
    floor_rest = len(rest)  # each later slot needs at least one node
    for q in pools[name]:
        if q.size + floor_rest > budget:
            break
        for tail in _bounded_choices(rest, pools, budget - q.size):
            yield (q, *tail)


def semantic_substitution_sets(
    k_terms: Iterable[Term],
    families: Mapping[str, Sequence[Term]],
    max_nodes: int,
) -> set[Term]:
    """All occurrence-wise substitution results of at most ``max_nodes`` nodes.

    Every occurrence of a variable with an entry in ``families`` is replaced,
    independently, by some member of its family; variables without an entry
    keep their occurrences.  Complete up to the bound because replacements
    never shrink a term.
    """
    pools = {x: sorted(pool, key=lambda t: t.size) for x, pool in families.items()}
    out: set[Term] = set()
    for p in k_terms:
        slots = [x for x in _occurrence_positions(p) if x in pools]
        budget = max_nodes - (p.size - len(slots))
        for choice in _bounded_choices(slots, pools, budget):
            replacements: dict[str, list[Term]] = {x: [] for x in pools}
            for name, q in zip(slots, choice):
                replacements[name].append(q)
            out.add(substitute_occurrences(p, replacements))
    return out


def substitution_sets_by_powerset(
    sig: Signature,
    vars: SortedVars,
    k_terms: Iterable[Term],
    families: Mapping[str, Sequence[Term]],
    max_nodes: int,
) -> set[Term]:
    """Cross-check route: set-valued bottom-up evaluation of each member, the
    explicit-set mirror of evaluating in the subset algebra."""

    def sem(t: Term) -> set[Term]:
        if isinstance(t, Var):
            if t.name in families:
                return set(families[t.name])
            return {t}
        child_sets = [sem(c) for c in t.children]
        op = sig.operation(t.symbol)
        return {node(op, combo) for combo in itertools.product(*child_sets)}

    result: set[Term] = set()
    for p in k_terms:
        result.update(sem(p))
    return {t for t in result if t.size <= max_nodes}


def semantic_iteration_bounded(
    sig: Signature,
    vars: SortedVars,
    l_terms: Iterable[Term],
    z: str,
    max_nodes: int,
) -> set[Term]:
    """Fixed point of the iteration chain inside the universe of terms with at
    most ``max_nodes`` nodes.

    Sound at the bound: substitution never shrinks a term, so every bounded
    member arises through bounded intermediates.
    """
    sort = vars.sort_of(z)
    if sort is None:
        raise ValueError(f"unknown variable {z!r}")
    members = {Var(z, sort)}
    l_list = [t for t in l_terms if t.size <= max_nodes]
    while True:
        fresh = semantic_substitution_sets(l_list, {z: members}, max_nodes)
        new = fresh - members
        if not new:
            return members
        members.update(new)


def semantic_quotient_bounded(
    l: Recognizer,
    k_terms: Iterable[Term],
    z: str,
    max_nodes: int,
    k_member_bound: int | None = None,
) -> dict[str, set[Term]]:
    """All terms of at most ``max_nodes`` nodes some z-substitution of which by
    k-members lands in l's language, per sort.

    K-members larger than ``k_member_bound`` (default: ``max_nodes``) are not
    tried; membership in l is decided exactly by the evaluator.
    """
    bound = max_nodes if k_member_bound is None else k_member_bound
    pool = [t for t in k_terms if t.size <= bound]
    sig = l.signature
    vars = l.vars
    member = membership_fn(l)
    universe = enumerate_all_terms(sig, vars, max_nodes)
    out: dict[str, set[Term]] = {}
    for sort, terms in universe.items():
        acc: set[Term] = set()
        for u in terms:
            n = occurrence_counts(u).get(z, 0)
            if n == 0:
                if member(u):
                    acc.add(u)
                continue
            if not pool:
                continue
            found = False
            for choice in itertools.product(pool, repeat=n):
                w = substitute_occurrences(u, {z: list(choice)})
                if member(w):
                    found = True
                    break
            if found:
                acc.add(u)
        out[sort] = acc
    return out
