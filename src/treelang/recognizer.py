"""Recognizable tree languages as deterministic complete bottom-up evaluators.

A ``Recognizer`` is a finite algebra, a variable assignment, and per-sort
accepting subsets; it accepts a term when the term evaluates into the
accepting set at its sort.  Nondeterministic automata (``closure.NTA``) are
internal machinery of the language operators only; ``determinize`` is the
public entry to their subset construction, which lives with them in
``closure``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .algebra import (
    FiniteAlgebra,
    _check_elements,
    _closure,
    _index,
    _offset_rows,
    _pair_rows,
    check_assignment,
    closure_elements,
    evaluate,
    finite_algebra,
    product_algebra,
    quotient_algebra,
    restrict_algebra,
    translation_table,
)
from .core import (
    Context,
    Node,
    Signature,
    SortedVars,
    SortError,
    Term,
    ValidationError,
    Var,
    _preorder,
    _record,
    typecheck,
)


@_record
class Recognizer:
    vars: SortedVars
    algebra: FiniteAlgebra
    assignment: tuple[tuple[str, int], ...]
    accepting: tuple[tuple[str, tuple[int, ...]], ...]  # per sort, sorted elements

    def __post_init__(self):
        check_assignment(self.algebra, self.vars, dict(self.assignment))
        acc = dict(self.accepting)
        if set(acc) != set(self.algebra.signature.sorts):
            raise ValidationError("accepting sets must cover every sort")
        _check_elements(self.algebra._sizes, acc, "accepting element")
        for s, elems in acc.items():
            if tuple(sorted(set(elems))) != elems:
                raise ValidationError(f"accepting set at {s!r} must be sorted and duplicate-free")

    @property
    def signature(self) -> Signature:
        return self.algebra.signature

    def accepting_at(self, sort: str) -> frozenset[int]:
        for s, elems in self.accepting:
            if s == sort:
                return frozenset(elems)
        raise ValidationError(f"unknown sort {sort!r}")


def recognizer(
    vars: SortedVars,
    algebra: FiniteAlgebra,
    assignment: Mapping[str, int],
    accepting: Mapping[str, Sequence[int]],
) -> Recognizer:
    sig = algebra.signature
    # a missing variable is left out, for __post_init__ to report
    pairs = [(x, assignment[x]) for s in sig.sorts for x in vars.names(s) if x in assignment]
    return Recognizer(
        vars,
        algebra,
        tuple(pairs),
        tuple((s, tuple(sorted(set(accepting.get(s, ()))))) for s in sig.sorts),
    )


def accepts(rec: Recognizer, term: Term) -> bool:
    value = evaluate(rec.algebra, dict(rec.assignment), term)
    return value in rec.accepting_at(term.sort)


def empty_recognizer(sig: Signature, vars: SortedVars) -> Recognizer:
    # one state per sort, so every table has one entry
    alg = finite_algebra(sig, {s: 1 for s in sig.sorts}, {op.name: [0] for op in sig.ops})
    return recognizer(vars, alg, {x: 0 for x in vars.all_names()}, {})


def universal_recognizer(sig: Signature, vars: SortedVars) -> Recognizer:
    empty = empty_recognizer(sig, vars)
    return recognizer(vars, empty.algebra, dict(empty.assignment), {s: [0] for s in sig.sorts})


def restrict_to_sort(rec: Recognizer, sort: str) -> Recognizer:
    """Keep the language at one sort and empty it elsewhere."""
    acc = {sort: rec.accepting_at(sort)}
    return recognizer(rec.vars, rec.algebra, dict(rec.assignment), acc)


# ---------------------------------------------------------------------------
# Boolean combinations


def _check_compatible(r1: Recognizer, r2: Recognizer) -> None:
    if r1.signature != r2.signature:
        raise ValidationError("recognizers have different signatures")
    if r1.vars != r2.vars:
        raise ValidationError("recognizers have different variable sets")


# whether a product element accepts, given whether each component accepts
_KEEP = {
    "union": lambda in1, in2: in1 or in2,
    "intersection": lambda in1, in2: in1 and in2,
    "difference": lambda in1, in2: in1 and not in2,
}


def combine(kind: str, r1: Recognizer, r2: Recognizer) -> Recognizer:
    """Product construction for union, intersection, and difference."""
    _check_compatible(r1, r2)
    keep = _KEEP.get(kind)
    if keep is None:
        raise ValidationError(f"unknown combination kind {kind!r}")
    prod, projs = product_algebra([r1.algebra, r2.algebra])
    a1 = dict(r1.assignment)
    a2 = dict(r2.assignment)
    n2 = dict(r2.algebra.carriers)
    assignment = {x: a1[x] * n2[r1.vars.sort_of(x)] + a2[x] for x in r1.vars.all_names()}
    accepting = {}
    for s in r1.signature.sorts:
        m1 = r1.accepting_at(s)
        m2 = r2.accepting_at(s)
        accepting[s] = [
            e
            for e, (c1, c2) in enumerate(zip(projs[0][s], projs[1][s]))
            if keep(c1 in m1, c2 in m2)
        ]
    return recognizer(r1.vars, prod, assignment, accepting)


# ---------------------------------------------------------------------------
# emptiness, equivalence, minimization


def _seed(rec: Recognizer) -> dict[str, list[int]]:
    """Constants' values plus the assignment image, in declaration order,
    duplicates kept: ``algebra._closure`` drops them."""
    seed: dict[str, list[int]] = {s: [] for s in rec.signature.sorts}
    for op in rec.signature.ops:
        if not op.arity:
            seed[op.result].append(rec.algebra.table(op.name)[0])
    asg = dict(rec.assignment)
    for sort, names in rec.vars.by_sort:
        seed[sort].extend(asg[x] for x in names)
    return seed


def is_empty(rec: Recognizer) -> bool:
    """Language emptiness by reachability: every term evaluates into the
    generated subalgebra of the seed, and every reachable value is some term's
    value.  ``algebra._closure`` stops at the first accepting value reached,
    seed first; only an empty language closes the whole subalgebra."""
    accepting = {s: rec.accepting_at(s) for s in rec.signature.sorts}

    def stop(sort, reached, fresh):
        return not accepting[sort].isdisjoint(fresh)

    reached = _closure(rec.signature, _seed(rec), _offset_rows(rec.algebra), stop=stop)
    return not any(accepting[s].intersection(reached[s]) for s in accepting)


def _reached_pairs(r1: Recognizer, r2: Recognizer, stop=None) -> dict[str, list[int]]:
    """Per sort, the pairs of the values in ``r1`` and ``r2`` of every term,
    coded ``x * n2 + y`` as ``product_algebra`` codes its elements (``n2``
    the size of ``r2``'s carrier at the sort): ``algebra._closure`` over
    ``_pair_rows`` from the zipped seeds, in its first-reached order, and a
    prefix of that where ``stop`` holds.  No product is built."""
    n1, n2 = r1.algebra._sizes, r2.algebra._sizes
    seed2 = _seed(r2)
    seed = {s: [x * n2[s] + y for x, y in zip(xs, seed2[s])] for s, xs in _seed(r1).items()}
    sizes = {s: n1[s] * n2[s] for s in r1.signature.sorts}
    rows = _pair_rows(r1.algebra, r2.algebra)
    return _closure(r1.signature, seed, rows, sizes, stop)


def equivalent(r1: Recognizer, r2: Recognizer) -> bool:
    """Language equality by synchronized reachability over pairs of states
    (Hopcroft and Karp): the languages are equal exactly when no term's pair
    of values is discordant, accepted by one recognizer only.

    ``_reached_pairs`` stops at the first discordant pair reached (False),
    or once a sort holds more pairs than the larger of ``n1`` and ``n2``,
    its budget.  A closure that completes within the budget proves
    equality.  With equal languages and either input minimal, each reached
    value of the other input pairs with one state only, so a sort holds at
    most that input's size and the budget holds; a closure that outgrows it
    falls back to comparing the minimal recognizers.
    """
    _check_compatible(r1, r2)
    sorts = r1.signature.sorts
    n1, n2 = r1.algebra._sizes, r2.algebra._sizes
    accepting = {s: (r1.accepting_at(s), r2.accepting_at(s), n2[s]) for s in sorts}
    budget = {s: n1[s] if n1[s] > n2[s] else n2[s] for s in sorts}

    def discordant(sort, pairs):
        acc1, acc2, n = accepting[sort]
        return any((e // n in acc1) != (e % n in acc2) for e in pairs)

    def stop(sort, reached, fresh):
        return len(reached) > budget[sort] or discordant(sort, fresh)

    reached = _reached_pairs(r1, r2, stop)
    if any(discordant(s, reached[s]) for s in sorts):
        return False
    if all(len(reached[s]) <= budget[s] for s in sorts):
        return True
    return minimize(r1) == minimize(r2)


def minimize(rec: Recognizer) -> Recognizer:
    """Restrict to the reachable subalgebra, then quotient by the syntactic
    congruence of the accepting set there.

    The result's per-sort state counts are the per-sort indices of the
    syntactic congruence of the language on reachable values.  It is
    canonical, a function of the language alone, whatever the input's state
    names or duplicate states: classes are numbered by first occurrence in
    ``algebra._closure``'s first-reached order from the seed (constants in
    declaration order, then variables), in which each class first appears at
    a step fixed by the language.  ``equivalent`` relies on this when its
    pair closure outgrows its budget.

    The kernel of the accepting set is read off the reached lists, already
    numbered by first occurrence, and the result is built without
    ``Recognizer``'s checks: every value in it comes from the checked input.
    """
    # only the commands that minimize compile the congruence module
    from .congruence import _partition, cogenerated_congruence

    sorts = rec.signature.sorts
    reached = closure_elements(rec.algebra, _seed(rec))
    small, index = restrict_algebra(rec.algebra, reached)
    inside = {s: list(map(frozenset(acc).__contains__, reached[s])) for s, acc in rec.accepting}
    kernel = {s: [int(f != fs[0]) for f in fs] for s, fs in inside.items()}
    omega = cogenerated_congruence(
        small, _partition(sorts, kernel, {s: len(set(fs)) for s, fs in inside.items()})
    )
    quotient, projection = quotient_algebra(small, omega)
    asg = dict(rec.assignment)
    assignment = tuple(
        (x, projection[s][index[s][asg[x]]]) for s in sorts for x in rec.vars.names(s)
    )
    accepting = tuple(
        (s, tuple(sorted({c for c, f in zip(projection[s], inside[s]) if f}))) for s in sorts
    )
    return Recognizer._of(rec.vars, quotient, assignment, accepting)


# ---------------------------------------------------------------------------
# determinization

DETERMINIZE_BUDGET = 1 << 22


def determinize(machine, cap: int = DETERMINIZE_BUDGET) -> Recognizer:
    """The recognizer of a nondeterministic automaton (``closure.NTA``), by
    the accessible subset construction in ``closure``.  It is imported on the
    first call, so a process that never determinizes does not compile it.

    Guard: a budget of ``cap`` output table entries (default
    ``DETERMINIZE_BUDGET``, 2**22), counted as the sum over operations of the
    product of argument carrier sizes.  Exceeding it raises
    ``ValidationError``.
    """
    from .closure import _determinize

    return _determinize(machine, cap)


# ---------------------------------------------------------------------------
# basic languages


def recognize_basic(sig: Signature, vars: SortedVars, pattern: Term) -> Recognizer:
    """A recognizer for the singleton of a basic pattern: a variable, a
    constant, or a flat term ``op(x_0,...,x_{n-1})`` over variables (repeats
    allowed).

    It is the pattern's subterm automaton (``recognize_singleton``), so the
    pattern is typechecked first.  For a flat term the carriers are
    ``k_t + 1`` at a sort ``t`` holding ``k_t`` distinct argument variables
    (``k_s + 2`` at the root sort ``s``): one state per variable, one for
    the term, and a junk sink.
    """
    if not isinstance(pattern, (Var, Node)):
        raise ValidationError("pattern must be a variable, constant, or flat term")
    if isinstance(pattern, Node) and not all(isinstance(c, Var) for c in pattern.children):
        raise ValidationError("flat pattern arguments must be variables")
    return recognize_singleton(sig, vars, pattern)


def _subterm_recognizer(sig: Signature, vars: SortedVars, terms: Sequence[Term]) -> Recognizer:
    """The subterm automaton of a term list: one state per distinct subterm
    plus a junk sink per sort, accepting each term at its own sort.  Each
    term is typechecked first, so an unknown variable or operation raises.
    A sort's subterms are numbered by first occurrence in one preorder walk
    of the terms in the order given, so the work is linear in their size."""
    index: dict[str, dict[Term, int]] = {s: {} for s in sig.sorts}
    for term in terms:
        typecheck(term, sig, vars)
        for t in _preorder(term):
            index[t.sort].setdefault(t, len(index[t.sort]))
    junk = {s: len(index[s]) for s in sig.sorts}
    sizes = {s: junk[s] + 1 for s in sig.sorts}
    # every entry is the junk sink but one per node subterm
    tables = {op.name: [junk[op.result]] * math.prod(map(sizes.get, op.arity)) for op in sig.ops}
    for s in sig.sorts:
        for t, i in index[s].items():
            if isinstance(t, Node):
                args = [index[c.sort][c] for c in t.children]
                tables[t.symbol][_index(sizes, sig.operation(t.symbol).arity, args)] = i
    alg = finite_algebra(sig, sizes, tables)
    assignment = {}
    for sort, names in vars.by_sort:
        for x in names:
            assignment[x] = index[sort].get(Var(x, sort), junk[sort])
    accepting: dict[str, list[int]] = {}
    for term in terms:
        accepting.setdefault(term.sort, []).append(index[term.sort][term])
    return recognizer(vars, alg, assignment, accepting)


def recognize_singleton(sig: Signature, vars: SortedVars, term: Term) -> Recognizer:
    """A recognizer for the singleton of an arbitrary term, via the subterm
    automaton: one state per distinct subterm plus a junk sink per sort."""
    return _subterm_recognizer(sig, vars, [term])


def recognize_finite(sig: Signature, vars: SortedVars, terms: Sequence[Term]) -> Recognizer:
    """A recognizer for a finite term set: the minimized subterm automaton of
    all the terms.  The empty set gives ``empty_recognizer``, unminimized."""
    terms = list(terms)
    if not terms:
        return empty_recognizer(sig, vars)
    return minimize(_subterm_recognizer(sig, vars, terms))


# ---------------------------------------------------------------------------
# inverse translations


def inverse_translation(rec: Recognizer, ctx: Context) -> Recognizer:
    """Preimage of the language under a one-hole context: same algebra, with
    the accepting set at the hole sort replaced by the table preimage of the
    root-sort accepting set, and every other sort emptied."""
    if ctx.root_sort not in rec.signature.sorts or ctx.hole_sort not in rec.signature.sorts:
        raise SortError("context sorts do not belong to the recognizer's signature")
    table = translation_table(rec.algebra, dict(rec.assignment), ctx)
    target = rec.accepting_at(ctx.root_sort)
    preimage = [q for q, v in enumerate(table) if v in target]
    return recognizer(
        rec.vars, rec.algebra, dict(rec.assignment), {ctx.hole_sort: preimage}
    )
