"""The table-indexed build kernels against the per-entry loops they replaced.

``reference_product_algebra``, ``reference_subset_algebra``,
``reference_closure_elements``, ``reference_restrict_algebra``,
``reference_is_congruence`` and ``reference_quotient_algebra`` are those
loops: they read every table entry through ``FiniteAlgebra.apply`` (the
product decodes each argument tuple into component tuples and encodes the
result back) and quotient in two passes (check, then one representative per
class).  ``reference_cogenerated_congruence`` refines straight from the
definition, re-signing every sort every round, where the library skips
discrete sorts.  ``reference_derived_algebra`` and
``reference_translation_table`` evaluate a pattern or context once per table
entry, where the library evaluates it once over the whole placeholder space.
``reference_recognize_finite`` unions singleton recognizers one term at a
time and minimizes after each union, where the library minimizes one subterm
automaton of all the terms.  The kernels must reproduce them exactly,
because the product numbering, the first-reached order and the class
numbering fix every state numbering the library prints, so the two are
compared field by field rather than as languages.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from treelang.algebra import (
    FiniteAlgebra,
    _closure,
    _offset_rows,
    _offsets,
    closure_elements,
    evaluate,
    finite_algebra,
    generated_subalgebra,
    product_algebra,
    quotient_algebra,
    restrict_algebra,
    subset_algebra,
    translation_table,
)
from treelang.congruence import (
    SortedPartition,
    all_in_one_partition,
    cogenerated_congruence,
    identity_partition,
    is_congruence,
    kernel_of_subset,
    partition,
    syntactic_congruence,
)
from treelang.core import (
    HOLE,
    ValidationError,
    Var,
    apply_context,
    enumerate_all_terms,
    node,
    occurrence_counts,
    signature,
    sorted_vars,
)
from treelang.oracle import enumerate_language, evaluate_many
from treelang.recognizer import (
    _seed,
    combine,
    empty_recognizer,
    equivalent,
    is_empty,
    minimize,
    recognize_finite,
    recognize_singleton,
    recognizer,
)
from treelang.treehom import derived_algebra, hyperderivor, placeholder, placeholder_index

from conftest import random_algebra, random_context, random_recognizer, random_rich_signature


def reference_product_algebra(algebras):
    sig = algebras[0].signature
    sizes = [dict(a.carriers) for a in algebras]
    carriers = {}
    for s in sig.sorts:
        n = 1
        for sz in sizes:
            n *= sz[s]
        carriers[s] = n

    def decode(sort, e):
        comps = []
        for sz in reversed(sizes):
            n = sz[sort]
            comps.append(e % n if n else 0)
            e //= n if n else 1
        return tuple(reversed(comps))

    def encode(sort, comps):
        e = 0
        for comp, sz in zip(comps, sizes):
            e = e * sz[sort] + comp
        return e

    tables = {}
    for op in sig.ops:
        entries = []
        spaces = [range(carriers[s]) for s in op.arity]
        for args in itertools.product(*spaces):
            decoded = [decode(s, a) for s, a in zip(op.arity, args)]
            comps = [
                algebras[i].apply(op.name, [d[i] for d in decoded])
                for i in range(len(algebras))
            ]
            entries.append(encode(op.result, comps))
        tables[op.name] = tuple(entries)
    product = finite_algebra(sig, carriers, tables)
    projections = []
    for i in range(len(algebras)):
        proj = {
            s: tuple(decode(s, e)[i] for e in range(carriers[s])) for s in sig.sorts
        }
        projections.append(proj)
    return product, projections


def reference_subset_algebra(alg):
    sizes = dict(alg.carriers)
    carriers = {s: 1 << n for s, n in sizes.items()}
    tables = {}
    for op in alg.signature.ops:
        entries = []
        spaces = [range(carriers[s]) for s in op.arity]
        for masks in itertools.product(*spaces):
            members = [
                [i for i in range(sizes[s]) if mask >> i & 1]
                for s, mask in zip(op.arity, masks)
            ]
            out = 0
            for args in itertools.product(*members):
                out |= 1 << alg.apply(op.name, args)
            entries.append(out)
        tables[op.name] = tuple(entries)
    return finite_algebra(alg.signature, carriers, tables)


def reference_closure_elements(alg, seed):
    reached = {s: [] for s in alg.signature.sorts}
    member = {s: set() for s in alg.signature.sorts}

    def add(sort, e):
        if e in member[sort]:
            return False
        member[sort].add(e)
        reached[sort].append(e)
        return True

    for s in alg.signature.sorts:
        for e in seed.get(s, ()):
            add(s, e)
    changed = True
    while changed:
        changed = False
        for op in alg.signature.ops:
            pools = [list(reached[s]) for s in op.arity]
            for args in itertools.product(*pools):
                v = alg.apply(op.name, args)
                if add(op.result, v):
                    changed = True
    return reached


def reference_restrict_algebra(alg, elements):
    index = {
        s: {e: i for i, e in enumerate(elements.get(s, ()))} for s in alg.signature.sorts
    }
    carriers = {s: len(elements.get(s, ())) for s in alg.signature.sorts}
    tables = {}
    for op in alg.signature.ops:
        entries = []
        pools = [elements.get(s, ()) for s in op.arity]
        for args in itertools.product(*pools):
            v = alg.apply(op.name, args)
            if v not in index[op.result]:
                raise ValidationError("element set is not closed under the tables")
            entries.append(index[op.result][v])
        tables[op.name] = tuple(entries)
    return finite_algebra(alg.signature, carriers, tables), index


def reference_is_congruence(alg, phi):
    classes = dict(phi.classes)
    for sort, ids in phi.classes:
        if len(ids) != alg.size(sort):
            raise ValidationError(f"partition size mismatch at sort {sort!r}")
    for op in alg.signature.ops:
        if not op.arity:
            continue
        seen = {}
        pools = [range(alg.size(s)) for s in op.arity]
        for args in itertools.product(*pools):
            key = tuple(classes[s][a] for s, a in zip(op.arity, args))
            cls = classes[op.result][alg.apply(op.name, args)]
            if key in seen:
                prev_cls, prev_args = seen[key]
                if prev_cls != cls:
                    return False, (op.name, prev_args, args)
            else:
                seen[key] = (cls, args)
    return True, None


def reference_quotient_algebra(alg, phi):
    ok, witness = reference_is_congruence(alg, phi)
    if not ok:
        raise ValidationError(f"partition is not a congruence: witness {witness}")
    classes = dict(phi.classes)
    counts = dict(phi.counts)
    carriers = {s: counts[s] for s in alg.signature.sorts}
    reps = {}
    for s in alg.signature.sorts:
        rep = [None] * counts[s]
        for e, c in enumerate(classes[s]):
            if rep[c] is None:
                rep[c] = e
        reps[s] = rep
    tables = {}
    for op in alg.signature.ops:
        entries = []
        for key in itertools.product(*[range(carriers[s]) for s in op.arity]):
            args = [reps[s][k] for s, k in zip(op.arity, key)]
            entries.append(classes[op.result][alg.apply(op.name, args)])
        tables[op.name] = tuple(entries)
    projection = {s: tuple(classes[s]) for s in alg.signature.sorts}
    return finite_algebra(alg.signature, carriers, tables), projection


def reference_cogenerated_congruence(alg, phi):
    """Two elements stay related while they are related and every operation,
    with them at one argument position and the other arguments anywhere,
    takes them to related results; every sort is re-signed every round until
    a round splits nothing."""
    sorts = alg.signature.sorts
    current = partition(sorts, dict(phi.classes))
    while True:
        cls = dict(current.classes)
        keys = {s: [] for s in sorts}
        for sort in sorts:
            for e in range(alg.size(sort)):
                key = [cls[sort][e]]
                for op in alg.signature.ops:
                    for i, w in enumerate(op.arity):
                        if w != sort:
                            continue
                        others = op.arity[:i] + op.arity[i + 1 :]
                        for rest in itertools.product(*[range(alg.size(s)) for s in others]):
                            args = rest[:i] + (e,) + rest[i:]
                            key.append(cls[op.result][alg.apply(op.name, args)])
                keys[sort].append(tuple(key))
        refined = partition(sorts, keys)
        if refined == current:
            return current
        current = refined


def reference_derived_algebra(h, b, b_assignment):
    carriers = {s: b.size(h.sort_image(s)) for s in h.source.sorts}
    env = dict(b_assignment)
    tables = {}
    for op in h.source.ops:
        body = h.pattern(op.name)
        names = [f"v{i}" for i in range(len(op.arity))]
        entries = []
        for args in itertools.product(*[range(carriers[s]) for s in op.arity]):
            env.update(zip(names, args))
            entries.append(evaluate(b, env, body))
        tables[op.name] = tuple(entries)
    alg = finite_algebra(h.source, carriers, tables)
    assignment = {
        x: evaluate(b, b_assignment, h.var_image(x)) for x in h.source_vars.all_names()
    }
    return alg, assignment


def reference_translation_table(alg, assignment, ctx):
    term = apply_context(ctx, Var(HOLE, ctx.hole_sort))
    env = dict(assignment)
    values = []
    for q in range(alg.size(ctx.hole_sort)):
        env[HOLE] = q
        values.append(evaluate(alg, env, term))
    return tuple(values)

# Three sorts: a ternary operation, constants at two sorts, and a sort ``e``
# that is often empty, so some tables and pools are empty.
SIG = signature(
    ["a", "b", "e"],
    [
        ("k", [], "a"),
        ("j", [], "b"),
        ("u", ["a"], "b"),
        ("t", ["a", "b", "a"], "a"),
        ("m", ["b", "b"], "b"),
        ("h", ["e", "a"], "e"),
        ("p", ["a", "e"], "a"),
    ],
)


def reference_recognize_finite(sig, vars, terms):
    out = empty_recognizer(sig, vars)
    for t in terms:
        out = combine("union", out, recognize_singleton(sig, vars, t))
        out = minimize(out)
    return out


def random_instance(rng):
    carriers = {"a": rng.randint(1, 4), "b": rng.randint(1, 4), "e": rng.choice([0, 0, 1, 2])}
    return random_algebra(rng, SIG, carriers=carriers)


def random_family(rng):
    """One to three components, with smaller carriers than ``random_instance``
    so that the ternary table of a three-fold product stays small."""
    return [
        random_algebra(
            rng,
            SIG,
            carriers={"a": rng.randint(1, 3), "b": rng.randint(1, 3), "e": rng.choice([0, 1, 2])},
        )
        for _ in range(rng.randint(1, 3))
    ]


def random_seed(rng, alg):
    return {s: rng.sample(range(n), rng.randint(0, n)) for s, n in alg.carriers}


def partitions_for(rng, alg):
    """Congruences and, mostly, non-congruences of the algebra."""
    rough = partition(
        SIG.sorts,
        {s: [rng.randrange(n // 2 + 1) for _ in range(n)] for s, n in alg.carriers},
    )
    subset = {s: frozenset(e for e in range(n) if rng.random() < 0.5) for s, n in alg.carriers}
    # discrete, but with singleton ids out of order: not the identity
    # partition, which ``partition`` would renumber it to
    permuted = SortedPartition(
        tuple((s, tuple(rng.sample(range(n), n))) for s, n in alg.carriers), alg.carriers
    )
    return [
        identity_partition(alg),
        permuted,
        all_in_one_partition(alg),
        rough,
        cogenerated_congruence(alg, rough),
        syntactic_congruence(alg, subset),
        partition(SIG.sorts, {s: [rng.randrange(2) for _ in range(n)] for s, n in alg.carriers}),
    ]


INSTANCES = 40


def test_product_algebra_matches_reference():
    rng = random.Random(606)
    lengths, empty_e = set(), set()
    for _ in range(INSTANCES):
        family = random_family(rng)
        got, projections = product_algebra(family)
        want, want_projections = reference_product_algebra(family)
        assert got.carriers == want.carriers
        assert got.tables == want.tables
        assert projections == want_projections
        lengths.add(len(family))
        empty_e.add(got.size("e") == 0)
    assert lengths == {1, 2, 3} and empty_e == {True, False}


def reference_indices(sizes, pools):
    """The mixed-radix index of every tuple of ``itertools.product`` over the
    pools, last position fastest."""
    out = []
    for args in itertools.product(*pools):
        i = 0
        for a, n in zip(args, sizes):
            i = i * n + a
        out.append(i)
    return out


def test_offsets_match_product_reference():
    """``_offsets`` with the sizes of the positions after the pools gives each
    prefix's index times the last size, and with a last weight of 1 each
    tuple's index; pools may repeat elements, come in any order or be empty."""
    rng = random.Random(623)
    seen = Counter()
    for _ in range(400):
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(0, 4))]
        pools = [rng.choices(range(n), k=rng.randint(0, n + 1)) if n else [] for n in sizes]
        index = reference_indices(sizes, pools)
        assert _offsets(pools, sizes[1:] + [1]) == index
        if sizes:
            heads = reference_indices(sizes[:-1], pools[:-1])
            assert _offsets(pools[:-1], sizes[1:]) == [i * sizes[-1] for i in heads]
        seen[min(len(sizes), 2)] += 1  # constant, unary, wider
        seen["empty pool"] += [] in pools
        seen["size 0"] += 0 in sizes
    assert len(seen) == 5 and min(seen.values()) > 0, seen


def test_product_projections_are_strided_digits():
    """Component ``i`` of product element ``e`` at a sort is ``e // stride %
    n``, with ``n`` that component's size there and ``stride`` the product of
    the later components' sizes."""
    rng = random.Random(624)
    for _ in range(INSTANCES):
        family = random_family(rng)
        product, projections = product_algebra(family)
        for s in SIG.sorts:
            stride = 1
            for alg, projection in zip(reversed(family), reversed(projections)):
                n = alg.size(s)
                assert projection[s] == tuple(e // stride % n for e in range(product.size(s)))
                stride *= n


def test_subset_algebra_matches_reference():
    rng = random.Random(607)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        got = subset_algebra(alg)
        want = reference_subset_algebra(alg)
        assert got.carriers == want.carriers
        assert got.tables == want.tables


def test_closure_elements_matches_reference():
    rng = random.Random(601)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        for _ in range(3):
            seed = random_seed(rng, alg)
            # lists, not sets: the first-reached order must agree
            assert closure_elements(alg, seed) == reference_closure_elements(alg, seed)


def counting_tables(alg, reads, names=None):
    """The algebra with each table (or each one named in ``names``) wrapped to
    add the number of entries read from it to ``reads[0]``; a slice or an
    iteration counts its length, and so does ``bytes()`` of the table, which
    iterates it."""

    class Table(tuple):
        def __getitem__(self, i):
            got = tuple.__getitem__(self, i)
            reads[0] += len(got) if isinstance(i, slice) else 1
            return got

        def __iter__(self):
            reads[0] += len(self)
            return tuple.__iter__(self)

    return FiniteAlgebra(
        alg.signature,
        alg.carriers,
        tuple((name, Table(t) if names is None or name in names else t) for name, t in alg.tables),
    )


def recording_tables(alg):
    """The algebra with each table wrapped to record the entries read from
    it, and the record: one ``(operation name, index)`` pair per entry read,
    a slice or an iteration recording each entry it covers."""
    read = []

    def table(name, entries):
        class Table(tuple):
            def __getitem__(self, i):
                got = range(len(self))[i]
                read.extend((name, j) for j in (got if isinstance(i, slice) else [got]))
                return tuple.__getitem__(self, i)

            def __iter__(self):
                read.extend((name, j) for j in range(len(self)))
                return tuple.__iter__(self)

        return Table(entries)

    tables = tuple((name, table(name, t)) for name, t in alg.tables)
    recorded = FiniteAlgebra(alg.signature, alg.carriers, tables)
    read.clear()  # the constructor's checks
    return recorded, read


def argument_tuple(alg, op, index):
    """The argument tuple at a table index: its mixed-radix digits, last
    position fastest."""
    args = []
    for s in reversed(op.arity):
        index, e = divmod(index, alg.size(s))
        args.append(e)
    return args[::-1]


def short_algebra(rng, sig, sizes, short):
    """Random tables that never give the last element of a sort in ``short``."""
    given = {s: n - (s in short) for s, n in sizes.items()}
    tables = {
        op.name: [
            rng.randrange(given[op.result]) for _ in range(math.prod(sizes[s] for s in op.arity))
        ]
        for op in sig.ops
    }
    return finite_algebra(sig, sizes, tables)


def read_count_instances(rng):
    """``SIG`` instances with random seeds and with seeds that fill every
    carrier, and instances whose tables never give the last element of a
    carrier, seeded with element 0, where no carrier but an empty one fills."""
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        yield alg, random_seed(rng, alg)
        yield alg, {s: rng.sample(range(n), n) for s, n in alg.carriers}
        sizes = {"a": rng.randint(2, 4), "b": rng.randint(2, 4), "e": rng.choice([0, 0, 2])}
        short = {s for s, n in sizes.items() if n}
        yield short_algebra(rng, SIG, sizes, short), {s: [0] for s in short}


def test_closure_elements_reads_reached_entries_at_most_once():
    """``closure_elements`` reads no table entry twice and only entries at
    tuples of reached elements.  It reads every such entry when no nonempty
    carrier fills, none when the seed fills every carrier, and never more:
    once a sort is full, no operation into it is read again."""
    rng = random.Random(612)
    seen = Counter()
    for alg, seed in read_count_instances(rng):
        recorded, read = recording_tables(alg)
        reached = closure_elements(recorded, seed)
        assert reached == reference_closure_elements(alg, seed)
        assert len(set(read)) == len(read)
        members = {s: set(es) for s, es in reached.items()}
        for name, i in read:
            op = SIG.operation(name)
            assert all(e in members[s] for s, e in zip(op.arity, argument_tuple(alg, op, i)))
        # every tuple over the reached elements: a constant is one
        every = sum(math.prod(len(reached[s]) for s in op.arity) for op in SIG.ops)
        assert len(read) <= every
        sizes = dict(alg.carriers)
        if all(len(es) < sizes[s] for s, es in reached.items() if sizes[s]):
            assert len(read) == every
            seen["none fills"] += 1
        elif all(len(set(seed.get(s, ()))) == n for s, n in sizes.items()):
            assert read == []
            seen["seed fills all"] += 1
        else:
            seen["a carrier fills"] += 1
    assert len(seen) == 3, seen


def accepting_variants(rec):
    """The recognizer with its accepting sets drawn at random, emptied, moved
    onto the elements its seed does not generate, and cut to the last element
    reached at one sort."""
    reached = closure_elements(rec.algebra, _seed(rec))
    sizes = dict(rec.algebra.carriers)
    variants = [
        dict(rec.accepting),
        {},
        {s: [e for e in range(n) if e not in reached[s]] for s, n in sizes.items()},
    ]
    variants += [{s: [es[-1]]} for s, es in reached.items() if es]
    for acc in variants:
        yield recognizer(rec.vars, rec.algebra, dict(rec.assignment), acc)


def emptiness_instances(rng, f1, x1, f2, x2):
    """Random recognizers over ``SIG`` (its sort ``e`` often has an empty
    carrier), ``f1``/``x1``, ``f2``/``x2`` and a two-sorted rich signature,
    each in its ``accepting_variants``."""
    rich = next(
        pair for pair in iter(lambda: random_rich_signature(rng), None) if len(pair[0].sorts) == 2
    )
    sig_vars = sorted_vars(SIG, {"a": ["x"], "b": ["xb"]})
    for _ in range(INSTANCES // 4):
        alg = random_instance(rng)
        sizes = dict(alg.carriers)
        assignment = {"x": rng.randrange(sizes["a"]), "xb": rng.randrange(sizes["b"])}
        accepting = {s: [e for e in range(n) if rng.random() < 0.3] for s, n in sizes.items()}
        yield from accepting_variants(recognizer(sig_vars, alg, assignment, accepting))
        for sig, vars in ((f1, x1), (f2, x2), rich):
            yield from accepting_variants(random_recognizer(rng, sig, vars, max_carrier=5))


def test_goal_closure_is_a_prefix_and_reads_no_more(f1, x1, f2, x2):
    """Stopped at the first accepting element reached, ``_closure`` returns a
    prefix of each of ``closure_elements``' lists and reads no more entries;
    it reads none when the seed accepts, and all of the full closure's when
    the language is empty.  ``is_empty`` gives the full closure's verdict and
    reads the constants' seed values and the goal closure's entries."""
    rng = random.Random(618)
    seen = Counter()
    for rec in emptiness_instances(rng, f1, x1, f2, x2):
        sig = rec.signature
        seed = _seed(rec)
        full = closure_elements(rec.algebra, seed)
        goal = {s: rec.accepting_at(s) for s in sig.sorts}
        empty = not any(goal[s] & set(full[s]) for s in sig.sorts)
        seeded = any(goal[s] & set(seed[s]) for s in sig.sorts)
        full_reads = sum(math.prod(len(full[s]) for s in op.arity) for op in sig.ops)
        reads = [0]
        counted = counting_tables(rec.algebra, reads)
        reads[0] = 0
        stop = lambda sort, reached, fresh: not goal[sort].isdisjoint(fresh)
        got = _closure(sig, seed, _offset_rows(counted), stop=stop)
        goal_reads = reads[0]
        assert {s: full[s][: len(es)] for s, es in got.items()} == got
        assert goal_reads <= full_reads
        if seeded:
            assert goal_reads == 0
        if empty:
            assert got == full and goal_reads == full_reads
        counted_rec = recognizer(rec.vars, counted, dict(rec.assignment), dict(rec.accepting))
        reads[0] = 0
        assert is_empty(counted_rec) == is_empty(rec) == empty
        constants = sum(1 for op in sig.ops if not op.arity)
        assert reads[0] == constants + goal_reads
        if empty or seeded:
            seen["empty" if empty else "seeded"] += 1
        else:
            seen["stopped early" if goal_reads < full_reads else "stopped last"] += 1
        seen["empty carrier"] += 0 in dict(rec.algebra.carriers).values()
    assert len(seen) == 5 and min(seen.values()) > 0


def test_stop_sees_each_seed_then_each_growth():
    """``_closure`` asks ``stop`` for each sort's seed first, duplicates
    dropped, then once per growth of a sort's list, with the grown list and
    exactly the elements just added; a ``stop`` that never holds changes no
    list.  One that holds at its k-th call leaves the lists as they were at
    that call, each a prefix of the full closure's."""
    rng = random.Random(625)
    for alg, seed in read_count_instances(rng):
        seed = {s: es + es[::-1] for s, es in seed.items()}
        full = closure_elements(alg, seed)
        calls = []

        def record(sort, reached, fresh):
            calls.append((sort, list(reached), list(fresh)))
            return False

        assert _closure(SIG, seed, _offset_rows(alg), stop=record) == full
        start = {s: list(dict.fromkeys(seed.get(s, ()))) for s in SIG.sorts}
        assert calls[: len(SIG.sorts)] == [(s, es, es) for s, es in start.items()]
        states, lists = [dict(start)] * len(SIG.sorts), dict(start)
        for sort, reached, fresh in calls[len(SIG.sorts) :]:
            assert fresh and reached == lists[sort] + fresh
            lists = {**lists, sort: reached}
            states.append(lists)
        assert lists == full
        for k, state in enumerate(states, 1):
            count = [0]

            def stop_at_k(sort, reached, fresh):
                count[0] += 1
                return count[0] == k

            got = _closure(SIG, seed, _offset_rows(alg), stop=stop_at_k)
            assert count[0] == k and got == state
            assert got == {s: full[s][: len(es)] for s, es in got.items()}


# two sorts, each with a constant, unary maps between every pair of sorts
# and one binary operation
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


def stop_rule_instances(rng):
    """Instances, each with a seed, the sorts whose carriers must fill and
    those that must not.  Three shapes: ``SIG`` with an empty carrier at
    ``e``; ``SIG`` seeded with the whole carrier at one sort and part of
    another, whose last element no table gives; and ``R2`` seeded with its
    constants, where ``u0`` cycles through ``t0``, so that ``t0`` fills,
    and nothing gives the last element of ``t1``."""
    for _ in range(INSTANCES):
        sizes = {"a": rng.randint(1, 4), "b": rng.randint(2, 4), "e": 0}
        alg = random_algebra(rng, SIG, carriers=sizes)
        yield alg, random_seed(rng, alg), {"e"}, set()
        full, part = rng.sample(["a", "b"], 2)
        sizes = {full: rng.randint(1, 4), part: rng.randint(2, 4), "e": rng.randint(1, 2)}
        alg = short_algebra(rng, SIG, sizes, {part})
        seed = {full: list(range(sizes[full])), part: [rng.randrange(sizes[part] - 1)]}
        yield alg, seed, {full}, {part}
        sizes = {"t0": rng.randint(2, 4), "t1": rng.randint(2, 4)}
        alg = short_algebra(rng, R2, sizes, {"t1"})
        tables = dict(alg.tables)
        tables["u0"] = [(e + 1) % sizes["t0"] for e in range(sizes["t0"])]
        alg = finite_algebra(R2, sizes, tables)
        yield alg, {"t0": tables["e0"], "t1": tables["e1"]}, {"t0"}, {"t1"}


def test_closure_elements_stops_only_when_nothing_is_left():
    """Skipping the operations into full sorts, and returning once every
    sort is full, keeps the first-reached order of the reference worklist."""
    rng = random.Random(619)
    for alg, seed, fills, stays in stop_rule_instances(rng):
        reached = closure_elements(alg, seed)
        assert reached == reference_closure_elements(alg, seed)
        full = {s for s, es in reached.items() if len(es) == alg.size(s)}
        assert fills <= full and not stays & full


def test_is_empty_when_every_carrier_element_is_reachable(f1, x1, f2, x2):
    """Recognizers that reach every element of every carrier: with no
    accepting state the language is empty, by ``is_empty`` and by the
    oracle up to 6 nodes; accepting any one state makes it nonempty."""
    rng = random.Random(620)
    rich = next(
        pair for pair in iter(lambda: random_rich_signature(rng), None) if len(pair[0].sorts) == 2
    )
    r2_vars = sorted_vars(R2, {"t0": ["x"]})
    count = 0
    for sig, vars in ((f1, x1), (f2, x2), rich, (R2, r2_vars)) * 40:
        rec = random_recognizer(rng, sig, vars)
        sizes = dict(rec.algebra.carriers)
        reached = reference_closure_elements(rec.algebra, _seed(rec))
        if any(len(es) < sizes[s] for s, es in reached.items()):
            continue
        count += 1
        asg = dict(rec.assignment)
        empty = recognizer(vars, rec.algebra, asg, {})
        assert is_empty(empty)
        assert not any(enumerate_language(empty, 6).values())
        s = rng.choice(sig.sorts)
        one = recognizer(vars, rec.algebra, asg, {s: [rng.randrange(sizes[s])]})
        assert not is_empty(one)
    assert count > 100


def test_cogenerated_congruence_of_a_discrete_input_reads_no_table():
    rng = random.Random(614)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        reads = [0]
        counted = counting_tables(alg, reads)
        reads[0] = 0
        delta = identity_partition(alg)
        assert cogenerated_congruence(counted, delta) == delta
        assert reads[0] == 0


@pytest.mark.parametrize("sorts", [2, 3])
def test_cogenerated_congruence_reads_no_table_over_discrete_sorts_only(sorts):
    """``b`` is discrete and ``a`` is not, so refinement signs ``a`` and reads
    the tables that take it; a table whose argument sorts are all discrete
    (``m``, the constants, and over ``SIG`` none more) is never read, not
    even to be converted."""
    rng = random.Random(616 + sorts)
    sig = {2: TWO, 3: SIG}[sorts]
    for _ in range(INSTANCES):
        carriers = {s: rng.randint(0 if s == "e" else 2, 6) for s in sig.sorts}
        alg = random_algebra(rng, sig, carriers=carriers)
        n = carriers["b"]
        # fewer classes than elements at ``a``
        classes = {s: [rng.randrange(max(m - 1, 1)) for _ in range(m)] for s, m in alg.carriers}
        classes["b"] = rng.sample(range(n), n)
        phi = partition(sig.sorts, classes)
        idle = {op.name for op in sig.ops if all(phi.index(s) == alg.size(s) for s in op.arity)}
        unread, read = [0], [0]
        busy = {op.name for op in sig.ops} - idle
        counted = counting_tables(counting_tables(alg, unread, idle), read, busy)
        unread[0] = read[0] = 0
        got = cogenerated_congruence(counted, phi)
        assert got == cogenerated_congruence(alg, phi)
        assert unread[0] == 0 and read[0] > 0
        assert "m" in idle and "u" not in idle


def test_identity_partition_quotients_to_the_algebra():
    rng = random.Random(613)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        phi = identity_partition(alg)
        assert is_congruence(alg, phi) == (True, None)
        q, projection = quotient_algebra(alg, phi)
        assert q is alg
        assert projection == reference_quotient_algebra(alg, phi)[1]


def test_restrict_algebra_matches_reference():
    rng = random.Random(602)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        reached = closure_elements(alg, random_seed(rng, alg))
        shuffled = {s: rng.sample(es, len(es)) for s, es in reached.items()}
        for elements in (reached, shuffled):
            got, index = restrict_algebra(alg, elements)
            want, want_index = reference_restrict_algebra(alg, elements)
            assert got.carriers == want.carriers
            assert got.tables == want.tables
            assert index == want_index


def test_restrict_algebra_rejects_open_sets_like_reference():
    rng = random.Random(603)
    rejected = 0
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        elements = {s: sorted(rng.sample(range(n), rng.randint(0, n))) for s, n in alg.carriers}
        try:
            want = reference_restrict_algebra(alg, elements)
        except ValidationError as err:
            rejected += 1
            with pytest.raises(ValidationError, match=str(err)):
                restrict_algebra(alg, elements)
        else:
            got = restrict_algebra(alg, elements)
            assert got[0].tables == want[0].tables and got[1] == want[1]
    assert rejected >= INSTANCES // 4


def test_restrict_algebra_rejects_elements_out_of_range():
    alg = random_instance(random.Random(616))
    n = alg.size("a")
    # every element, so the set is closed; -1 would read the last entry
    for bad in (-1, n):
        elements = {s: list(range(m)) for s, m in alg.carriers}
        elements["a"].append(bad)
        with pytest.raises(ValidationError, match=f"element {bad} out of range at sort 'a'"):
            restrict_algebra(alg, elements)
    # a sort the algebra lacks is named, even with no element
    elements = {s: list(range(m)) for s, m in alg.carriers}
    with pytest.raises(ValidationError, match="^element at unknown sort 't'$"):
        restrict_algebra(alg, {**elements, "t": []})
    with pytest.raises(ValidationError, match="^seed element at unknown sort 't'$"):
        generated_subalgebra(alg, {"t": [0]})


def test_restrict_algebra_reads_each_prefix_row_once():
    rng = random.Random(617)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        reached = closure_elements(alg, random_seed(rng, alg))
        shuffled = {s: rng.sample(es, len(es)) for s, es in reached.items()}
        for elements in (reached, shuffled):
            reads = [0]
            counted = counting_tables(alg, reads)
            reads[0] = 0
            got, index = restrict_algebra(counted, elements)
            want, want_index = reference_restrict_algebra(alg, elements)
            assert got.tables == want.tables and index == want_index
            # one row of the last sort's width per tuple of reached prefix
            # elements: a constant's one entry, a unary table whole
            assert reads[0] == sum(
                math.prod(len(elements[s]) for s in op.arity[:-1])
                * (alg.size(op.arity[-1]) if op.arity else 1)
                for op in SIG.ops
            )


def collapsed_instance(rng, carriers, value):
    """A random algebra whose operations into ``a`` all give ``value``, so
    that the elements reached at ``a`` are that one element."""
    alg = random_algebra(rng, SIG, carriers=carriers)
    tables = {
        name: [value] * len(t) if SIG.operation(name).result == "a" else t
        for name, t in alg.tables
    }
    return finite_algebra(SIG, carriers, tables)


def test_restrict_algebra_gathers_pools_of_every_length():
    """Pools of no, one and more elements at the last argument position,
    closed sets and open ones, against the reference."""
    rng = random.Random(618)
    lasts, rejected = set(), 0
    for _ in range(INSTANCES):
        carriers = {"a": rng.randint(1, 3), "b": rng.randint(1, 3), "e": rng.choice([0, 1, 2])}
        value = rng.randrange(carriers["a"])
        alg = collapsed_instance(rng, carriers, value)
        reached = closure_elements(alg, {})
        assert reached["a"] == [value]
        # the one element replaced by another, where there is one: ``k``'s
        # one entry then falls outside the set
        other = {**reached, "a": [(value + 1) % carriers["a"]]}
        for elements in (reached, {**reached, "e": list(range(carriers["e"]))}, other):
            try:
                want = reference_restrict_algebra(alg, elements)
            except ValidationError as err:
                rejected += 1
                with pytest.raises(ValidationError, match=str(err)):
                    restrict_algebra(alg, elements)
                continue
            got, index = restrict_algebra(alg, elements)
            assert got.carriers == want[0].carriers
            assert got.tables == want[0].tables and index == want[1]
            lasts.update(min(len(elements[op.arity[-1]]), 2) for op in SIG.ops if op.arity)
    assert lasts == {0, 1, 2} and rejected


def test_is_congruence_and_quotient_match_reference_on_small_tables():
    """Carriers of at most two elements, and an empty one: one-entry and
    empty tables in every pass."""
    rng = random.Random(619)
    entries = set()
    for _ in range(INSTANCES):
        carriers = {"a": rng.randint(1, 2), "b": rng.randint(1, 2), "e": rng.choice([0, 1])}
        alg = random_algebra(rng, SIG, carriers=carriers)
        entries.update(min(len(t), 2) for _, t in alg.tables)
        for phi in partitions_for(rng, alg):
            assert is_congruence(alg, phi) == reference_is_congruence(alg, phi)
            got = outcome(quotient_algebra, alg, phi)
            want = outcome(reference_quotient_algebra, alg, phi)
            if isinstance(want[0], type):
                assert got == want
            else:
                assert got[0].tables == want[0].tables and got[1] == want[1]
            got = cogenerated_congruence(alg, phi)
            want = reference_cogenerated_congruence(alg, phi)
            assert got.classes == want.classes and got.counts == want.counts
    assert entries == {0, 1, 2}


def test_is_congruence_and_quotient_match_reference():
    rng = random.Random(604)
    verdicts = set()
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        for phi in partitions_for(rng, alg):
            ok, witness = is_congruence(alg, phi)
            assert (ok, witness) == reference_is_congruence(alg, phi)
            verdicts.add(ok)
            if not ok:
                with pytest.raises(ValidationError) as got:
                    quotient_algebra(alg, phi)
                with pytest.raises(ValidationError) as want:
                    reference_quotient_algebra(alg, phi)
                assert str(got.value) == str(want.value)
                continue
            q, projection = quotient_algebra(alg, phi)
            want_q, want_projection = reference_quotient_algebra(alg, phi)
            assert q.carriers == want_q.carriers
            assert q.tables == want_q.tables
            assert projection == want_projection
    assert verdicts == {True, False}


def test_build_kernels_never_call_apply(monkeypatch, r_par):
    rng = random.Random(605)
    algebras = [random_instance(rng) for _ in range(10)]
    recognizers = [r_par] + [
        recognizer(
            sorted_vars(SIG, {"a": ["x"]}),
            alg,
            {"x": 0},
            {s: [e for e in range(n) if rng.random() < 0.5] for s, n in alg.carriers},
        )
        for alg in algebras
    ]
    cases = [(alg, partitions_for(rng, alg)) for alg in algebras]
    want = [reference_is_congruence(alg, phi) for alg, phis in cases for phi in phis]
    families = [random_family(rng) for _ in range(10)]
    want_products = [reference_product_algebra(family) for family in families]
    want_subsets = [reference_subset_algebra(alg) for alg in algebras]
    pairs = list(zip(recognizers[1:], recognizers[2:])) + [(r_par, r_par)]

    def refuse(self, opname, args):
        raise AssertionError("FiniteAlgebra.apply called")

    monkeypatch.setattr(FiniteAlgebra, "apply", refuse)
    for rec in recognizers:
        minimize(rec)
        is_empty(rec)
    for r1, r2 in pairs:
        for kind in ("union", "intersection", "difference"):
            combine(kind, r1, r2)
        equivalent(r1, r2)
    for family, (want_product, want_projections) in zip(families, want_products):
        product, projections = product_algebra(family)
        assert product == want_product and projections == want_projections
    assert [subset_algebra(alg) for alg in algebras] == want_subsets
    got = []
    for alg, phis in cases:
        for phi in phis:
            ok, witness = is_congruence(alg, phi)
            got.append((ok, witness))
            if ok:
                quotient_algebra(alg, phi)
            else:
                with pytest.raises(ValidationError):
                    quotient_algebra(alg, phi)
    assert got == want


# Patterns are written over SIG's target variables: ``w`` sits at the often
# empty sort ``e``, so an assignment to it can be missing.
TARGET_VARS = sorted_vars(SIG, {"a": ["y"], "b": ["z"], "e": ["w"]})
SOURCE_VARS = sorted_vars(SIG, {"a": ["x"], "b": ["xb"]})


def random_pattern(rng, sig, leaves, sort, depth=3):
    """A random term of the sort whose leaves come from ``leaves`` (variables)
    and the constants; None when the sort has no such term within the depth.
    A leaf may repeat or be left out."""
    candidates = [v for v in leaves if v.sort == sort]
    candidates += [op for op in sig.ops if op.result == sort and (depth > 0 or not op.arity)]
    rng.shuffle(candidates)
    for c in candidates:
        if isinstance(c, Var):
            return c
        children = [random_pattern(rng, sig, leaves, w, depth - 1) for w in c.arity]
        if None not in children:
            return node(c, children)
    return None


def random_hyperderivor_over_sig(rng, b, b_assignment):
    """A hyperderivor from SIG to itself whose patterns are drawn over the
    placeholders and target variables, or over none of them (ground).

    A pattern over a nonempty placeholder space mostly uses only the target
    variables that ``b_assignment`` binds, so that most pulls along it succeed;
    a pattern over an empty space may use any of them."""
    sort_map = {s: rng.choice(SIG.sorts) for s in SIG.sorts}
    targets = [Var(y, s) for s, ys in TARGET_VARS.by_sort for y in ys]
    bound = [v for v in targets if v.name in b_assignment]
    patterns = {}
    for op in SIG.ops:
        places = [placeholder(i, sort_map[w]) for i, w in enumerate(op.arity)]
        empty = 0 in [b.size(v.sort) for v in places]
        leaves = places + (targets if empty or rng.random() < 0.05 else bound)
        body = None
        if rng.random() < 0.2:
            body = random_pattern(rng, SIG, [], sort_map[op.result])
        while body is None:
            body = random_pattern(rng, SIG, leaves, sort_map[op.result])
            # a sort may have no term over the bound variables alone
            leaves = places + targets
        patterns[op.name] = body
    images = {}
    for s, xs in SOURCE_VARS.by_sort:
        for x in xs:
            images[x] = random_pattern(rng, SIG, bound, sort_map[s]) or random_pattern(
                rng, SIG, targets, sort_map[s]
            )
    return hyperderivor(SIG, SOURCE_VARS, SIG, TARGET_VARS, sort_map, patterns, images)


def outcome(f, *args):
    """The result of the call, or the type and text of the error it raised."""
    try:
        return f(*args)
    except ValidationError as err:
        return type(err), str(err)


def test_derived_algebra_matches_reference():
    rng = random.Random(608)
    kinds = set()
    compared = errors = empty_unassigned = 0
    for _ in range(INSTANCES):
        b = random_instance(rng)
        # a variable at an empty sort has no value; now and then drop another
        b_assignment = {
            y: rng.randrange(b.size(s))
            for s, ys in TARGET_VARS.by_sort
            for y in ys
            if b.size(s) and rng.random() < 0.9
        }
        h = random_hyperderivor_over_sig(rng, b, b_assignment)
        got = outcome(derived_algebra, h, b, b_assignment)
        want = outcome(reference_derived_algebra, h, b, b_assignment)
        if isinstance(want[0], type):
            assert got == want
            errors += 1
        else:
            assert not isinstance(got[0], type), got
            (alg, assignment), (want_alg, want_assignment) = got, want
            assert alg.carriers == want_alg.carriers
            assert alg.tables == want_alg.tables
            assert assignment == want_assignment
            compared += 1
        for op in SIG.ops:
            body = h.pattern(op.name)
            counts = occurrence_counts(body)
            places = {x: n for x, n in counts.items() if placeholder_index(x) is not None}
            kinds.add("ground" if not counts else "open")
            if len(places) < len(op.arity):
                kinds.add("erasing")
            if any(n > 1 for n in places.values()):
                kinds.add("nonlinear")
            if len(places) < len(counts):
                kinds.add("target")
            space = [b.size(h.sort_image(w)) for w in op.arity]
            if 0 in space and set(counts) - set(places) - set(b_assignment):
                empty_unassigned += 1
    assert kinds == {"ground", "open", "erasing", "nonlinear", "target"}
    assert compared >= INSTANCES // 2 and errors and empty_unassigned


# SIG with one sort: a constant, a unary and a binary operation
ONE = signature(["s"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s")])

# SIG without the sort ``e``
TWO = signature(
    ["a", "b"],
    [
        ("k", [], "a"),
        ("j", [], "b"),
        ("u", ["a"], "b"),
        ("t", ["a", "b", "a"], "a"),
        ("m", ["b", "b"], "b"),
    ],
)
TWO_VARS = sorted_vars(TWO, {"a": ["y"], "b": ["z"]})


@pytest.mark.parametrize("two_sorted", [False, True])
def test_translation_table_matches_reference(two_sorted, r_par):
    rng = random.Random(609)
    hole_sorts = set()
    for _ in range(INSTANCES):
        if two_sorted:
            rec = random_recognizer(rng, TWO, TWO_VARS, max_carrier=4)
            ctx = random_context(rng, TWO, TWO_VARS, max_nodes=6)
        else:
            rec = r_par
            ctx = random_context(rng, r_par.signature, r_par.vars, max_nodes=6)
        assignment = dict(rec.assignment)
        got = translation_table(rec.algebra, assignment, ctx)
        assert got == reference_translation_table(rec.algebra, assignment, ctx)
        hole_sorts.add(ctx.hole_sort)
    assert len(hole_sorts) == (2 if two_sorted else 1)


def test_translation_table_over_one_element_hole_carriers():
    rng = random.Random(620)
    widths = set()
    for _ in range(INSTANCES):
        hole_size = rng.randint(1, 2)
        ctx = None
        while ctx is None:
            ctx = random_context(rng, TWO, TWO_VARS, max_nodes=6)
        carriers = {s: hole_size if s == ctx.hole_sort else rng.randint(1, 3) for s in TWO.sorts}
        alg = random_algebra(rng, TWO, carriers=carriers)
        assignment = {"y": rng.randrange(carriers["a"]), "z": rng.randrange(carriers["b"])}
        got = translation_table(alg, assignment, ctx)
        assert got == reference_translation_table(alg, assignment, ctx)
        widths.add(len(got))
    assert widths == {1, 2}


@pytest.mark.parametrize("sorts", [1, 2, 3])
def test_cogenerated_congruence_matches_reference(sorts):
    rng = random.Random(615 + sorts)
    sig = {1: ONE, 2: TWO, 3: SIG}[sorts]
    kinds = set()
    for _ in range(INSTANCES):
        # up to 6 elements per sort; the sort ``e`` of SIG may be empty
        carriers = {s: rng.randint(0 if s == "e" else 1, 6) for s in sig.sorts}
        alg = random_algebra(rng, sig, carriers=carriers)
        subset = {s: frozenset(e for e in range(n) if rng.random() < 0.5) for s, n in alg.carriers}
        permuted = SortedPartition(
            tuple((s, tuple(rng.sample(range(n), n))) for s, n in alg.carriers), alg.carriers
        )
        rough = {s: [rng.randrange(n // 2 + 1) for _ in range(n)] for s, n in alg.carriers}
        for phi in (
            kernel_of_subset(alg, subset),
            partition(sig.sorts, rough),
            identity_partition(alg),
            permuted,
            all_in_one_partition(alg),
        ):
            got = cogenerated_congruence(alg, phi)
            want = reference_cogenerated_congruence(alg, phi)
            assert got.classes == want.classes and got.counts == want.counts
            discrete = got.counts == alg.carriers
            kinds.add("discrete" if discrete else "coarse")
            kinds.add("kept" if got == partition(sig.sorts, dict(phi.classes)) else "split")
    assert kinds == {"discrete", "coarse", "split", "kept"}


@pytest.mark.parametrize("sorts", [2, 3])
def test_cogenerated_congruence_with_a_discrete_result_sort_matches_reference(sorts):
    """``b`` is discrete, with ordered or permuted ids, and ``a`` is not: the
    tables of ``u`` and ``t`` are read through ``a``'s classes and ``b``'s
    are used as they are, as is ``m``'s for the discrete sort ``b`` itself."""
    rng = random.Random(625 + sorts)
    sig = {2: TWO, 3: SIG}[sorts]
    split = 0
    for _ in range(INSTANCES):
        carriers = {s: rng.randint(0 if s == "e" else 2, 6) for s in sig.sorts}
        alg = random_algebra(rng, sig, carriers=carriers)
        n = carriers["b"]
        for ids in (list(range(n)), rng.sample(range(n), n)):
            rough = partition(
                sig.sorts, {s: [rng.randrange(2) for _ in range(m)] for s, m in alg.carriers}
            )
            phi = SortedPartition(
                tuple((s, tuple(ids) if s == "b" else c) for s, c in rough.classes),
                tuple((s, n if s == "b" else c) for s, c in rough.counts),
            )
            got = cogenerated_congruence(alg, phi)
            want = reference_cogenerated_congruence(alg, phi)
            assert got.classes == want.classes and got.counts == want.counts
            split += got.index("a") > phi.index("a")
    assert split


# sorts ``a`` and ``b`` of any size and an empty sort ``e``; no table takes
# two large carriers, so every table is linear in the larger one
WIDE = signature(
    ["a", "b", "e"],
    [
        ("k", [], "a"),
        ("g", ["a"], "a"),
        ("u", ["a"], "b"),
        ("v", ["b"], "a"),
        ("p", ["a", "b"], "a"),
        ("q", ["b", "a"], "b"),
        ("h", ["a", "e"], "b"),
        ("w", ["e"], "e"),
    ],
)


@pytest.mark.parametrize("a, b", [(255, 3), (256, 3), (257, 3), (3, 256), (3, 257), (257, 40)])
def test_cogenerated_congruence_at_the_byte_boundary_matches_reference(a, b):
    """Tables whose result sort has at most 256 elements are mapped as bytes,
    the others as tuples: result sorts of 255, 256 and 257 elements, and
    two-sorted algebras where one call maps tables both ways."""
    rng = random.Random(617 + a + b)
    alg = random_algebra(rng, WIDE, carriers={"a": a, "b": b, "e": 0})
    largest = 0
    for phi in (
        kernel_of_subset(alg, {s: frozenset(rng.sample(range(n), n // 2)) for s, n in alg.carriers}),
        partition(WIDE.sorts, {s: [rng.randrange(3) for _ in range(n)] for s, n in alg.carriers}),
        partition(WIDE.sorts, {"a": [0] * a, "b": rng.sample(range(b), b)}),
        all_in_one_partition(alg),
    ):
        got = cogenerated_congruence(alg, phi)
        want = reference_cogenerated_congruence(alg, phi)
        assert got.classes == want.classes and got.counts == want.counts
        largest = max(largest, got.index("a" if a > b else "b"))
    # class ids reach the top of the byte range
    assert largest > 250


def test_evaluate_matches_plain_evaluator():
    rng = random.Random(610)
    leaves = [Var(y, s) for s, ys in TARGET_VARS.by_sort for y in ys]
    sizes = set()
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        assignment = {v.name: rng.randrange(alg.size(v.sort)) for v in leaves if alg.size(v.sort)}
        usable = [v for v in leaves if v.name in assignment]
        for sort in ("a", "b"):
            term = random_pattern(rng, SIG, usable, sort, depth=5)
            if term is None:
                continue
            assert evaluate(alg, assignment, term) == evaluate_many(alg, assignment, [term])[id(term)]
            sizes.add(term.size)
    assert max(sizes) >= 20


def test_recognize_finite_matches_reference(f1, x1, f2, x2):
    rng = random.Random(611)
    duplicates = mixed = 0
    for sig, vars in ((f1, x1), (f2, x2)):
        universe = enumerate_all_terms(sig, vars, 5)
        pool = [t for s in sig.sorts for t in universe[s]]
        for _ in range(INSTANCES):
            terms = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                terms.append(rng.choice(terms))
            assert recognize_finite(sig, vars, terms) == reference_recognize_finite(
                sig, vars, terms
            )
            duplicates += len(set(terms)) < len(terms)
            mixed += len({t.sort for t in terms}) > 1
    assert duplicates and mixed


def test_recognize_finite_of_nothing_is_not_minimized():
    # no term has sort ``e`` here, so minimizing would leave it no state
    vars = sorted_vars(SIG, {"a": ["x"]})
    got = recognize_finite(SIG, vars, [])
    assert got == empty_recognizer(SIG, vars) == reference_recognize_finite(SIG, vars, [])
    assert got.algebra.size("e") == 1 and minimize(got).algebra.size("e") == 0
