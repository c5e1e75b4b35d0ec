"""Language operators producing recognizers: substitution, z-iteration, and
z-quotient; and the nondeterministic automata (``NTA``) they are built from.

Each operator assembles an NTA out of the (minimized) input evaluators with
the private ``_Builder``, as ``treehom.direct_image`` does, and determinizes
it by the subset construction here, through the public entry
``recognizer.determinize``.  Only the commands that determinize execute this
module.  Substituted occurrences are independent: two occurrences of one
variable may receive different members of its replacement language.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Mapping, Sequence

from .algebra import FiniteAlgebra, _check_counts, _check_elements, _closure
from .core import Signature, SortedVars, ValidationError, _record
from .recognizer import Recognizer, _reached_pairs, determinize, minimize, recognizer

# ---------------------------------------------------------------------------
# nondeterministic automata


@_record
class NTA:
    """Bottom-up nondeterministic automaton with epsilon rules; internal only.

    States are per-sort integers ``0..states[sort]-1``.  ``leaf`` maps variable
    names to state sets, ``rules`` maps ``(opname, state tuple)`` to state
    sets, and ``epsilon`` lists per-sort edges ``state -> state set``.  Building
    one checks that ``states`` lists every sort, and rejects a rule's unknown
    operation, other arity or state outside its sort, and a leaf, epsilon or
    accepting state outside its sort.
    """

    signature: Signature
    vars: SortedVars
    states: tuple[tuple[str, int], ...]
    leaf: tuple[tuple[str, frozenset[int]], ...]
    rules: tuple[tuple[tuple[str, tuple[int, ...]], frozenset[int]], ...]
    epsilon: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    accepting: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self):
        states, ops, leaf = dict(self.states), self.signature.op_by_name, dict(self.leaf)
        if [s for s, _ in self.states] != [*self.signature.sorts]:
            raise ValidationError("NTA states must list every sort in signature order")
        _check_counts(states, "NTA state count")
        for (name, args), targets in self.rules:
            rule, op = f"NTA rule {name}({', '.join(map(str, args))})", ops.get(name)
            if op is None:
                raise ValidationError(f"{rule} has unknown operation {name!r}")
            if len(args) != len(op.arity):
                k = len(op.arity)
                raise ValidationError(f"{rule} has {len(args)} argument states, expected {k}")
            for q, s in [*zip(args, op.arity), *((q, op.result) for q in targets)]:
                _check_elements(states, {s: [q]}, f"{rule}: state")
        for s, names in self.vars.by_sort:
            for x in names:
                _check_elements(states, {s: leaf.get(x, ())}, f"NTA leaf of variable {x!r}: state")
        edges = {s: [q for edge in es for q in edge] for s, es in self.epsilon}
        _check_elements(states, edges, "NTA epsilon state")
        _check_elements(states, dict(self.accepting), "NTA accepting state")


def nta(
    sig: Signature,
    vars: SortedVars,
    states: Mapping[str, int],
    leaf: Mapping[str, frozenset[int] | set[int]],
    rules: Mapping[tuple[str, tuple[int, ...]], frozenset[int] | set[int]],
    epsilon: Mapping[str, Sequence[tuple[int, int]]],
    accepting: Mapping[str, frozenset[int] | set[int]],
) -> NTA:
    return NTA(*_fields(sig, vars, states, leaf, rules, epsilon, accepting))


def _fields(sig, vars, states, leaf, rules, epsilon, accepting) -> tuple:
    """``nta``'s arguments as the normalized fields of an ``NTA``: the rules
    and each sort's epsilon edges in the order given, a repeated edge kept
    at its first occurrence."""
    return (
        sig,
        vars,
        tuple((s, states.get(s, 0)) for s in sig.sorts),
        tuple((x, frozenset(leaf.get(x, frozenset()))) for x in vars.all_names()),
        tuple((k, frozenset(v)) for k, v in rules.items()),
        tuple((s, tuple(dict.fromkeys(epsilon.get(s, ())))) for s in sig.sorts),
        tuple((s, frozenset(accepting.get(s, frozenset()))) for s in sig.sorts),
    )


def table_rules(alg: FiniteAlgebra, shift: Mapping[str, int] | None = None):
    """The transition rules of an evaluator, one per table entry, as
    ``((opname, args), state)`` pairs: operations in declaration order,
    argument tuples with the last argument fastest.

    ``shift`` offsets the states of each sort, to place the evaluator inside
    a larger NTA.
    """
    shift = shift or {}
    for op in alg.signature.ops:
        pools = [range(shift.get(s, 0), shift.get(s, 0) + alg.size(s)) for s in op.arity]
        base = shift.get(op.result, 0)
        for args, v in zip(itertools.product(*pools), alg.table(op.name)):
            yield (op.name, args), base + v


class _Builder:
    """An NTA under assembly, in plain containers that a construction fills
    directly: per-sort state counts, leaf state sets by variable, target state
    sets by ``(opname, state tuple)`` and per-sort epsilon edge lists.  States
    are numbered per sort in the order they are placed."""

    def __init__(self, sig: Signature, vars: SortedVars):
        self.sig, self.vars = sig, vars
        self.counts = {s: 0 for s in sig.sorts}
        self.leaf: dict[str, set[int]] = {y: set() for y in vars.all_names()}
        self.rules: dict[tuple[str, tuple[int, ...]], set[int]] = {}
        self.epsilon: dict[str, list[tuple[int, int]]] = {s: [] for s in sig.sorts}

    def add(self, rec: Recognizer, names: Iterable[str]) -> dict[str, int]:
        """Place rec's evaluator at the next free states of each sort: its
        table rules, and its assignment as leaves of the variables ``names``.
        Returns the offset of its states per sort."""
        shift = dict(self.counts)
        for s, n in rec.algebra.carriers:
            self.counts[s] += n
        rules = self.rules
        for key, v in table_rules(rec.algebra, shift):
            rules.setdefault(key, set()).add(v)
        asg = dict(rec.assignment)
        sort_of = self.vars.sort_of
        for y in names:
            self.leaf[y].add(shift[sort_of(y)] + asg[y])
        return shift

    def fresh(self, sort: str) -> int:
        state = self.counts[sort]
        self.counts[sort] += 1
        return state

    def determinize(self, accepting: Mapping[str, Iterable[int]]) -> Recognizer:
        """Determinize the NTA ``nta`` would build, unchecked: well formed by construction."""
        fields = (self.sig, self.vars, self.counts, self.leaf, self.rules, self.epsilon)
        return determinize(NTA._of(*_fields(*fields, accepting)))


def _determinize(machine: NTA, cap: int) -> Recognizer:
    """The body of ``recognizer.determinize``, the accessible subset
    construction per sort: the subalgebra of the NTA's powerset algebra
    (``subset_algebra``) generated by its leaves, built by ``algebra._closure``
    and numbered in its first-reached order from the seed, constants in
    declaration order, then variables.  State sets are bitmasks.  A row of
    subset ids grows only to the subsets reached when ``_closure`` asks, so
    no subset is interned before its turn.

    Guard: a budget of ``cap`` output table entries, counted as the sum over
    operations of the product of argument carrier sizes.  Interning a subset
    that would take the tables past it raises ``ValidationError``.
    """
    sig, states = machine.signature, dict(machine.states)
    # per sort: state -> mask of its reflexive-transitive epsilon closure,
    # the least masks with closure[a] >= closure[b] on every edge a -> b
    epsilon = dict(machine.epsilon)
    closure = {}
    for sort, n in machine.states:
        edges = epsilon.get(sort, ())
        masks = closure[sort] = [1 << q for q in range(n)]
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                if masks[b] & ~masks[a]:
                    masks[a] |= masks[b]
                    changed = True

    def close(sort: str, qs) -> int:
        m = 0
        for q in qs:
            m |= closure[sort][q]
        return m

    index: dict[str, dict[int, int]] = {s: {} for s in sig.sorts}  # mask -> subset id
    members: dict[str, list[tuple[int, ...]]] = {s: [] for s in sig.sorts}
    sizes = {s: 0 for s in sig.sorts}
    # table entries per operation; a new subset grows those that take its sort
    space = [0 if op.arity else 1 for op in sig.ops]
    grows = {s: [(i, op.arity) for i, op in enumerate(sig.ops) if s in op.arity] for s in sig.sorts}

    def intern(sort: str, mask: int) -> int:
        got = index[sort].get(mask)
        if got is not None:
            return got
        sizes[sort] += 1
        for i, arity in grows[sort]:
            space[i] = math.prod(map(sizes.__getitem__, arity))
        entries = sum(space)
        if entries > cap:
            raise ValidationError(
                f"determinization entry budget exceeded: {entries} table entries > {cap}"
            )
        # the members from the binary digits, lowest first: linear in the width
        members[sort].append(tuple(q for q, b in enumerate(bin(mask)[:1:-1]) if b == "1"))
        index[sort][mask] = got = sizes[sort] - 1
        return got

    ops = sig.op_by_name
    constants: dict[str, int] = {}
    # opname -> state prefix -> closed target masks by last state
    grouped: dict[str, dict[tuple[int, ...], list[int]]] = {op.name: {} for op in sig.ops}
    for (name, args), targets in machine.rules:
        op = ops[name]
        mask = close(op.result, targets)
        if not args:
            constants[name] = mask
            continue
        by_last = grouped[name].get(args[:-1])
        if by_last is None:
            by_last = grouped[name][args[:-1]] = [0] * states[op.arity[-1]]
        by_last[args[-1]] = mask

    # per operation: subset-id prefix -> (its subset ids by last-argument
    # subset id, the OR of its member state prefixes' masks by last state),
    # one pair per set of member state prefixes
    memo = {op.name: ({}, {}) for op in sig.ops}
    for op in sig.ops:
        if not op.arity:
            memo[op.name][0][()] = ([intern(op.result, constants.get(op.name, 0))], ())
    leaf = dict(machine.leaf)
    assignment: dict[str, int] = {}
    for sort, names in machine.vars.by_sort:
        for x in names:
            assignment[x] = intern(sort, close(sort, leaf.get(x, ())))

    def rows(op, heads, n):
        """Each subset-id prefix's row of subset ids, extended to ``n``."""
        cache, unions = memo[op.name]
        by_prefix, found = grouped[op.name], index[op.result]
        out = []
        for prefix in itertools.product(*heads):
            got = cache.get(prefix)
            if got is None:
                pools = [members[s][i] for s, i in zip(op.arity, prefix)]
                key = tuple(p for p in itertools.product(*pools) if p in by_prefix)
                got = unions.get(key)
                if got is None:
                    masks = [0] * states[op.arity[-1]]
                    for p in key:
                        masks = list(map(operator.or_, masks, by_prefix[p]))
                    got = unions[key] = ([], masks)
                cache[prefix] = got
            ids, masks = got
            if len(ids) < n:
                last = members[op.arity[-1]]
                for j in range(len(ids), n):
                    m = 0
                    for b in last[j]:
                        m |= masks[b]
                    i = found.get(m)
                    ids.append(intern(op.result, m) if i is None else i)
            out.append(ids)
        return out, None

    _closure(sig, {s: range(n) for s, n in sizes.items()}, rows)
    dense = {op.name: [] for op in sig.ops}
    for op in sig.ops:
        for prefix in itertools.product(*(range(sizes[s]) for s in op.arity[:-1])):
            dense[op.name] += memo[op.name][0][prefix][0]
    # every entry is an interned subset id, in range by construction
    alg = FiniteAlgebra._built(sig, sizes, dense)
    accepting = {}
    for s, qs in machine.accepting:
        acc = sum(1 << q for q in qs)
        accepting[s] = [i for m, i in index[s].items() if m & acc]
    return recognizer(machine.vars, alg, assignment, accepting)


# ---------------------------------------------------------------------------
# language operators


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
    vars = k.vars
    km = minimize(k)
    k_assignment = dict(km.assignment)
    machine = _Builder(k.signature, vars)
    machine.add(km, [y for y in vars.all_names() if y not in family])
    for x in vars.all_names():
        if x not in family:
            continue
        lx = minimize(family[x])
        shift = machine.add(lx, vars.all_names())
        t = vars.sort_of(x)
        for q in lx.accepting_at(t):
            machine.epsilon[t].append((shift[t] + q, k_assignment[x]))
    return machine.determinize({s: km.accepting_at(s) for s in k.signature.sorts})


def iterate_language(l: Recognizer, z: str) -> Recognizer:
    """The z-iteration: the least language containing z and closed under
    substituting known members for the z-occurrences of members of l.

    One fresh top state marks recognized iteration members; it feeds back into
    l's run as the value of z.
    """
    sort = l.vars.sort_of(z)
    if sort is None:
        raise ValidationError(f"unknown variable {z!r}")
    lm = minimize(l)
    machine = _Builder(l.signature, l.vars)
    machine.add(lm, l.vars.all_names())
    top = machine.fresh(sort)
    machine.leaf[z].add(top)
    epsilon = machine.epsilon[sort]
    epsilon += [(q, top) for q in lm.accepting_at(sort)]
    epsilon.append((top, dict(lm.assignment)[z]))
    return machine.determinize({sort: {top}})


def quotient_seed_values(l: Recognizer, k: Recognizer, z: str) -> frozenset[int]:
    """The set of l-evaluator values of k's members at z's sort, computed by
    reachability over the pairs of the two evaluators' values
    (``recognizer._reached_pairs``); no product is built."""
    if l.signature != k.signature or l.vars != k.vars:
        raise ValidationError("quotient operands must share signature and variables")
    sort = l.vars.sort_of(z)
    if sort is None:
        raise ValidationError(f"unknown variable {z!r}")
    # a pair codes a k value and an l value, l fastest
    reached = _reached_pairs(k, l)
    n_l = l.algebra.size(sort)
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
    machine = _Builder(lm.signature, lm.vars)
    machine.add(lm, [y for y in lm.vars.all_names() if y != z])
    machine.leaf[z].update(values)
    return machine.determinize({s: lm.accepting_at(s) for s in lm.signature.sorts})
