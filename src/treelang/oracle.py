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
    Node,
    Signature,
    SortedVars,
    Term,
    ValidationError,
    Var,
    enumerate_all_terms,
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


def semantic_substitution_sets(
    k_terms: Iterable[Term],
    families: Mapping[str, Sequence[Term]],
    max_nodes: int,
) -> set[Term]:
    """All occurrence-wise substitution results of at most ``max_nodes`` nodes.

    Every occurrence of a variable with an entry in ``families`` is replaced,
    independently, by some member of its family; variables without an entry
    keep their occurrences.  Computed bottom-up, once per subterm object: a
    leaf's results are its family's members (or the leaf itself), and a
    node's are one node over each tuple of its children's results.  Results
    are kept per size, so no tuple past the bound is built; replacements
    never shrink a term, so every result within the bound is found.
    """
    terms = [p for p in k_terms if p.size <= max_nodes]  # kept alive: ids key the memo
    pools: dict[str, dict[int, list[Term]]] = {}
    for x, pool in families.items():
        pools[x] = {}
        for q in pool:
            if q.size <= max_nodes:
                pools[x].setdefault(q.size, []).append(q)
    memo: dict[int, dict[int, list[Term]]] = {}

    def walk(t: Term) -> dict[int, list[Term]]:
        got = memo.get(id(t))
        if got is not None:
            return got
        if isinstance(t, Var):
            out = pools.get(t.name, {1: [t]})
        else:
            kids = [walk(c) for c in t.children]
            tuples: dict[int, list[tuple[Term, ...]]] = {0: [()]}  # by total size
            for i, results in enumerate(kids):
                room = max_nodes - len(kids) + i  # the node and each later child take one
                grown: dict[int, list[tuple[Term, ...]]] = {}
                for size, heads in tuples.items():
                    for q_size, qs in results.items():
                        if size + q_size <= room:
                            grown.setdefault(size + q_size, []).extend(
                                (*h, q) for h in heads for q in qs
                            )
                tuples = grown
            out = {
                size + 1: [Node(t.symbol, c, t.sort, size + 1) for c in cs]
                for size, cs in tuples.items()
            }
        memo[id(t)] = out
        return out

    return {q for p in terms for qs in walk(p).values() for q in qs}


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
        raise ValidationError(f"unknown variable {z!r}")
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
    if l.vars.sort_of(z) is None:
        raise ValidationError(f"unknown variable {z!r}")
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
