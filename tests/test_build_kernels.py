"""The table-indexed build kernels against the per-entry loops they replaced.

``reference_closure_elements``, ``reference_restrict_algebra``,
``reference_is_congruence`` and ``reference_quotient_algebra`` are those
loops: they read every table entry through ``FiniteAlgebra.apply`` and
quotient in two passes (check, then one representative per class).  The
kernels must reproduce them exactly, because the first-reached order and the
class numbering fix every state numbering the library prints, so the two are
compared field by field rather than as languages.
"""

from __future__ import annotations

import itertools
import random

import pytest

from treelang.algebra import (
    FiniteAlgebra,
    closure_elements,
    finite_algebra,
    quotient_algebra,
    restrict_algebra,
)
from treelang.congruence import (
    all_in_one_partition,
    cogenerated_congruence,
    identity_partition,
    is_congruence,
    partition,
    syntactic_congruence,
)
from treelang.core import ValidationError, signature, sorted_vars
from treelang.recognizer import is_empty, minimize, recognizer

from conftest import random_algebra


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


def random_instance(rng):
    carriers = {"a": rng.randint(1, 4), "b": rng.randint(1, 4), "e": rng.choice([0, 0, 1, 2])}
    return random_algebra(rng, SIG, carriers=carriers)


def random_seed(rng, alg):
    return {s: rng.sample(range(n), rng.randint(0, n)) for s, n in alg.carriers}


def partitions_for(rng, alg):
    """Congruences and, mostly, non-congruences of the algebra."""
    rough = partition(
        SIG.sorts,
        {s: [rng.randrange(n // 2 + 1) for _ in range(n)] for s, n in alg.carriers},
    )
    subset = {s: frozenset(e for e in range(n) if rng.random() < 0.5) for s, n in alg.carriers}
    return [
        identity_partition(alg),
        all_in_one_partition(alg),
        rough,
        cogenerated_congruence(alg, rough),
        syntactic_congruence(alg, subset),
        partition(SIG.sorts, {s: [rng.randrange(2) for _ in range(n)] for s, n in alg.carriers}),
    ]


INSTANCES = 40


def test_closure_elements_matches_reference():
    rng = random.Random(601)
    for _ in range(INSTANCES):
        alg = random_instance(rng)
        for _ in range(3):
            seed = random_seed(rng, alg)
            # lists, not sets: the first-reached order must agree
            assert closure_elements(alg, seed) == reference_closure_elements(alg, seed)


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

    def refuse(self, opname, args):
        raise AssertionError("FiniteAlgebra.apply called")

    monkeypatch.setattr(FiniteAlgebra, "apply", refuse)
    for rec in recognizers:
        minimize(rec)
        is_empty(rec)
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
