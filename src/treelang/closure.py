"""Language operators producing recognizers: substitution, z-iteration, and
z-quotient.

Each operator assembles a nondeterministic automaton out of the (minimized)
input evaluators and determinizes it.  Substituted occurrences are
independent: two occurrences of one variable may receive different members of
its replacement language.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import closure_elements
from .core import ValidationError
from .recognizer import (
    NTA,
    Recognizer,
    _seed,
    combine,
    determinize,
    evaluator_nta,
    minimize,
    nta,
    table_rules,
)


def _check_family_compat(k: Recognizer, family: Mapping[str, Recognizer]) -> None:
    for x, l in family.items():
        if k.vars.sort_of(x) is None:
            raise ValidationError(f"unknown variable {x!r} in substitution family")
        if l.signature != k.signature or l.vars != k.vars:
            raise ValidationError(
                f"family recognizer for {x!r} must share signature and variables"
            )


def substitute_language(
    k: Recognizer, family: Mapping[str, Recognizer]
) -> Recognizer:
    """Replace, independently per occurrence, each variable x of members of k's
    language by members of ``family[x]``; unspecified variables default to the
    singleton of the variable itself, leaving their occurrences unchanged.

    States are the disjoint union of k's evaluator and the family evaluators;
    epsilon rules route each family-accepting state to k's assignment value of
    the corresponding variable.  A family variable's leaf in k is dropped, and
    every other variable keeps k's leaf next to its leaves in the family
    evaluators.
    """
    _check_family_compat(k, family)
    sig = k.signature
    vars = k.vars
    km = minimize(k)
    k_assignment = dict(km.assignment)
    counts = {s: km.algebra.size(s) for s in sig.sorts}
    rules: dict[tuple[str, tuple[int, ...]], set[int]] = {}
    leaf = {y: set() if y in family else {k_assignment[y]} for y in vars.all_names()}
    epsilon: dict[str, list[tuple[int, int]]] = {s: [] for s in sig.sorts}

    def add_tables(alg, shift: Mapping[str, int] | None = None):
        for key, v in table_rules(alg, shift):
            rules.setdefault(key, set()).add(v)

    add_tables(km.algebra)
    for x in vars.all_names():
        if x not in family:
            continue
        lx = minimize(family[x])
        shift = dict(counts)
        for s in sig.sorts:
            counts[s] += lx.algebra.size(s)
        add_tables(lx.algebra, shift)
        asg = dict(lx.assignment)
        for y in vars.all_names():
            leaf[y].add(shift[vars.sort_of(y)] + asg[y])
        t = vars.sort_of(x)
        for q in lx.accepting_at(t):
            epsilon[t].append((shift[t] + q, k_assignment[x]))

    accepting = {s: km.accepting_at(s) for s in sig.sorts}
    return determinize(nta(sig, vars, counts, leaf, rules, epsilon, accepting))


def iterate_language(l: Recognizer, z: str) -> Recognizer:
    """The z-iteration: the least language containing z and closed under
    substituting known members for the z-occurrences of members of l.

    One fresh top state marks recognized iteration members; it feeds back into
    l's run as the value of z.
    """
    sort = l.vars.sort_of(z)
    if sort is None:
        raise ValidationError(f"unknown variable {z!r}")
    sig = l.signature
    vars = l.vars
    lm = minimize(l)
    counts = {s: lm.algebra.size(s) for s in sig.sorts}
    top = counts[sort]
    counts[sort] += 1

    asg = dict(lm.assignment)
    leaf = {y: {asg[y]} for y in vars.all_names()}
    leaf[z].add(top)
    epsilon: dict[str, list[tuple[int, int]]] = {s: [] for s in sig.sorts}
    for q in lm.accepting_at(sort):
        epsilon[sort].append((q, top))
    epsilon[sort].append((top, asg[z]))

    machine = nta(
        sig,
        vars,
        counts,
        leaf,
        {key: {v} for key, v in table_rules(lm.algebra)},
        epsilon,
        {sort: frozenset({top})},
    )
    return determinize(machine)


def quotient_seed_values(l: Recognizer, k: Recognizer, z: str) -> frozenset[int]:
    """The set of l-evaluator values of k's members at z's sort, computed by
    reachability in the product of the two evaluators."""
    if l.signature != k.signature or l.vars != k.vars:
        raise ValidationError("quotient operands must share signature and variables")
    sort = l.vars.sort_of(z)
    if sort is None:
        raise ValidationError(f"unknown variable {z!r}")
    # product elements pair a k value with an l value, l fastest
    prod = combine("intersection", k, l)
    n_l = l.algebra.size(sort)
    reached = closure_elements(prod.algebra, _seed(prod))
    acc = k.accepting_at(sort)
    return frozenset(e % n_l for e in reached[sort] if e // n_l in acc)


def quotient_language(l: Recognizer, k: Recognizer, z: str) -> Recognizer:
    """The z-quotient of l by k: terms some substitution of k-members for all
    z-occurrences of which lands in l's language.

    The construction reroutes the z leaf to the value set of k's members under
    l's evaluator; a term without z-occurrences is kept exactly when it is in
    l already.
    """
    lm = minimize(l)
    values = quotient_seed_values(lm, k, z)
    m = evaluator_nta(lm)
    leaf = tuple((y, values if y == z else q) for y, q in m.leaf)
    return determinize(NTA(m.signature, m.vars, m.states, leaf, m.rules, m.epsilon, m.accepting))
