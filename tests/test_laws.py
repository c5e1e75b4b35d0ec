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

import pytest

from treelang.core import enumerate_all_terms, signature, sorted_vars
from treelang.recognizer import combine, equivalent, is_empty, minimize, recognizer

from conftest import accepted_sets, permuted, random_algebra, random_rich_signature

DRAWS = 60  # per signature
ORACLE_NODES = 6


def termless(sig, vars):
    """The signature with a sort ``u`` added that has no constant and no
    variable: one operation into ``u`` and one out of it, each with a ``u``
    argument, so that no term has sort ``u``."""
    s0 = sig.sorts[0]
    ops = [(op.name, op.arity, op.result) for op in sig.ops]
    ops += [("ku", ["u", s0], "u"), ("hu", [s0, "u"], s0)]
    usig = signature([*sig.sorts, "u"], ops)
    return usig, sorted_vars(usig, dict(vars.by_sort))


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
