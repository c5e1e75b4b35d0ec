"""Laws of ``minimize`` and ``equivalent``, decided exactly on seeded draws.

``equivalent`` and ``is_empty`` decide language equality and emptiness with
no bound on term size, so a law checked through them holds for every term,
not only for the small ones the oracle enumerates; the oracle checks the
same instances up to 6 nodes.  The draws cover ``f1``/``x1``, ``f2``/``x2``
and a two-sorted rich signature, each also with a sort ``u`` that no term
has, drawn with 0 to 2 states: many-sorted algebras differ from one-sorted
ones where a sort is empty.
"""

from __future__ import annotations

import random
from collections import Counter
from importlib import import_module

import pytest

from treelang.algebra import closure_elements, quotient_algebra, restrict_algebra
from treelang.congruence import SortedPartition, syntactic_congruence
from treelang.core import SortedVars, enumerate_all_terms
from treelang.recognizer import (
    Recognizer, _reached_pairs, combine, equivalent, is_empty, minimize, recognizer
)

from conftest import (
    accepted_sets, inflated, permuted, random_algebra, random_rich_signature, termless
)

DRAWS = 60  # per signature
ORACLE_NODES = 6
RECOGNIZER_MODULE = import_module("treelang.recognizer")


def reference_equivalent(a, b):
    """Language equality by comparing the minimal recognizers, which
    ``minimize`` numbers canonically."""
    return minimize(a) == minimize(b)


def reference_minimize(rec):
    """``minimize`` through the checked builds: the reached lists, the
    restriction, the public ``syntactic_congruence`` of the reached accepting
    sets, the quotient and the checked ``recognizer``."""
    reached = closure_elements(rec.algebra, RECOGNIZER_MODULE._seed(rec))
    small, index = restrict_algebra(rec.algebra, reached)
    acc = {
        s: frozenset(index[s][e] for e in rec.accepting_at(s) if e in index[s])
        for s in rec.signature.sorts
    }
    omega = syntactic_congruence(small, acc)
    quotient, projection = quotient_algebra(small, omega)
    asg = dict(rec.assignment)
    assignment = {
        x: projection[sort][index[sort][asg[x]]] for sort, names in rec.vars.by_sort for x in names
    }
    accepting = {s: sorted({projection[s][e] for e in acc[s]}) for s in rec.signature.sorts}
    return recognizer(rec.vars, quotient, assignment, accepting), small, acc


def draws(rng, sig, vars):
    """Random recognizers over the signature, 1 to 3 states per sort and 0
    to 2 at ``u``, each state accepting with probability one half."""
    for _ in range(DRAWS):
        sizes = {s: rng.choice([0, 0, 1, 2]) if s == "u" else rng.randint(1, 3) for s in sig.sorts}
        alg = random_algebra(rng, sig, carriers=sizes)
        assignment = {x: rng.randrange(sizes[s]) for s, names in vars.by_sort for x in names}
        accepting = {s: [e for e in range(n) if rng.random() < 0.5] for s, n in sizes.items()}
        yield recognizer(vars, alg, assignment, accepting)


@pytest.fixture(scope="module")
def instances(f1, x1, f2, x2):
    """Per signature, the terms of at most ``ORACLE_NODES`` nodes and the
    drawn recognizers."""
    rng = random.Random(801)
    rich = next(
        pair for pair in iter(lambda: random_rich_signature(rng), None) if len(pair[0].sorts) == 2
    )
    out = []
    for pair in ((f1, x1), (f2, x2), rich):
        for sig, vars in (pair, termless(*pair)):
            universe = enumerate_all_terms(sig, vars, ORACLE_NODES)
            out.append((universe, list(draws(rng, sig, vars))))
    empty = [r for _, recs in out for r in recs if 0 in dict(r.algebra.carriers).values()]
    assert len(empty) > DRAWS
    return out


def test_minimize_is_idempotent(instances):
    for _, recs in instances:
        for rec in recs:
            m = minimize(rec)
            assert minimize(m) == m


def test_minimize_matches_the_checked_pipeline(instances):
    """``minimize`` and ``syntactic_congruence`` build their results without
    the records' checks; each equals, up to ``repr``, what the checked
    pipeline builds, and passes the checks when rebuilt from its fields.
    Besides each draw: its empty and full languages, a non-minimal copy, and
    its variables listed in reverse sort order."""
    rng = random.Random(806)
    for _, recs in instances:
        for rec in recs:
            vars, alg, asg = rec.vars, rec.algebra, dict(rec.assignment)
            for variant in (
                rec,
                recognizer(vars, alg, asg, {}),
                recognizer(vars, alg, asg, {s: range(n) for s, n in alg.carriers}),
                inflated(rng, rec, 2),
                Recognizer(SortedVars(vars.by_sort[::-1]), alg, rec.assignment, rec.accepting),
            ):
                m = minimize(variant)
                want, small, acc = reference_minimize(variant)
                assert repr(m) == repr(want)
                assert Recognizer(*(getattr(m, f) for f in Recognizer.__match_args__)) == want
                omega = syntactic_congruence(small, acc)
                rebuilt = SortedPartition(omega.classes, omega.counts)
                assert rebuilt == omega and repr(rebuilt) == repr(omega)


def test_minimize_keeps_the_language(instances):
    """By ``equivalent``, by emptiness of both differences, and by the
    oracle up to ``ORACLE_NODES`` nodes."""
    shrunk = 0
    for universe, recs in instances:
        for rec in recs:
            m = minimize(rec)
            assert equivalent(m, rec)
            assert is_empty(combine("difference", rec, m))
            assert is_empty(combine("difference", m, rec))
            assert accepted_sets(m, universe) == accepted_sets(rec, universe)
            shrunk += dict(m.algebra.carriers).get("u", 0) < dict(rec.algebra.carriers).get("u", 0)
    assert shrunk > 0


def test_equivalent_to_a_permuted_copy(instances):
    rng = random.Random(802)
    for _, recs in instances:
        for rec in recs:
            assert equivalent(rec, permuted(rng, rec))


def partners(rng, recs):
    """Each draw with a permuted copy, its minimization, the next draw (of
    the same signature) and a non-minimal copy of its language."""
    for i, rec in enumerate(recs):
        for other in (
            permuted(rng, rec), minimize(rec), recs[(i + 1) % len(recs)], inflated(rng, rec, 2)
        ):
            yield rec, other


def test_equivalent_agrees_with_minimal_recognizers_and_the_oracle(instances):
    rng = random.Random(803)
    seen = Counter()
    for universe, recs in instances:
        for a, b in partners(rng, recs):
            want = reference_equivalent(a, b)
            assert equivalent(a, b) == equivalent(b, a) == want
            # every unequal pair of these draws differs on a small term
            assert (accepted_sets(a, universe) == accepted_sets(b, universe)) == want
            seen[want] += 1
    assert seen[True] and seen[False], seen


def test_equal_pairs_with_a_minimal_side_decide_without_minimizing(instances, monkeypatch):
    """With equal languages and one input minimal, each reached value of the
    other input pairs with one state only, so the pair closure stays within
    its budget and never falls back to ``minimize``."""
    rng = random.Random(804)
    pairs = []
    for _, recs in instances:
        for rec in recs:
            m = minimize(rec)
            pairs += [(m, rec), (inflated(rng, rec, 3), m), (m, permuted(rng, m))]

    def refuse(rec):
        raise AssertionError("equivalent minimized")

    monkeypatch.setattr(RECOGNIZER_MODULE, "minimize", refuse)
    assert all(equivalent(a, b) for a, b in pairs)


def test_non_minimal_equal_pairs_fall_back_past_the_budget(instances, monkeypatch):
    """Two non-minimal recognizers of one language minimize both inputs
    exactly when the pair closure outgrows its budget, the larger of ``n1``
    and ``n2`` pairs, at some sort, and are equivalent either way."""
    rng = random.Random(805)
    calls = []
    minimize_ = RECOGNIZER_MODULE.minimize
    monkeypatch.setattr(RECOGNIZER_MODULE, "minimize", lambda rec: calls.append(rec) or minimize_(rec))
    seen = Counter()
    for _, recs in instances:
        for rec in recs:
            a, b = inflated(rng, rec, 3), inflated(rng, rec, 3)
            n1, n2 = dict(a.algebra.carriers), dict(b.algebra.carriers)
            reached = _reached_pairs(a, b)
            over = any(len(reached[s]) > max(n1[s], n2[s]) for s in reached)
            calls.clear()
            assert equivalent(a, b)
            assert calls == ([a, b] if over else [])
            seen[over] += 1
    assert seen[True] and seen[False], seen
