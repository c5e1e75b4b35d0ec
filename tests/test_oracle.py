import itertools
import random
from typing import Iterable, Mapping, Sequence

import pytest

from treelang import oracle
from treelang.core import (
    Term,
    ValidationError,
    Var,
    enumerate_terms,
    node,
    parse_term,
    print_term,
    substitute_occurrences,
)
from treelang.oracle import (
    enumerate_language,
    semantic_iteration_bounded,
    semantic_quotient_bounded,
    semantic_substitution_sets,
)
from treelang.recognizer import empty_recognizer, universal_recognizer

from conftest import accepted_sets
from test_acceptance import MAX_NODES, iteration_instance, substitution_instance


# ---------------------------------------------------------------------------
# references: the oracle's earlier substitution routes


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


def substitution_sets_by_enumeration(
    k_terms: Iterable[Term],
    families: Mapping[str, Sequence[Term]],
    max_nodes: int,
) -> set[Term]:
    """Occurrence-wise substitution by enumerating one family member per
    occurrence and rebuilding each choice with ``substitute_occurrences``.
    A k-term with no occurrence to substitute is returned whatever its size."""
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


def substitution_sets_by_powerset(sig, k_terms, families, max_nodes) -> set[Term]:
    """Set-valued evaluation of each k-term with full images, cut to the bound
    afterwards: the explicit-set mirror of evaluating in the subset algebra."""

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


def criterion_substitution_sets(rng):
    """The k-terms and families of one criterion-1a instance, as that
    criterion hands them to the oracle."""
    sig, vars, universe, k, family = substitution_instance(rng)
    k_sets = accepted_sets(k, universe)
    k_terms = [t for s in sig.sorts for t in k_sets[s]]
    fams = {
        x: sorted(accepted_sets(lx, universe)[vars.sort_of(x)], key=lambda t: t.size)
        for x, lx in family.items()
    }
    return k_terms, fams


def criterion_iteration_input(rng):
    """The arguments of ``semantic_iteration_bounded`` for one criterion-1b instance."""
    sig, vars, universe, l, z, sort = iteration_instance(rng)
    l_terms = sorted(accepted_sets(l, universe)[sort], key=lambda t: t.size)
    return sig, vars, l_terms, z, MAX_NODES


class TestEnumerateLanguage:
    def test_parity_two_nodes(self, f1, x1, r_par):
        got = [print_term(t) for t in enumerate_language(r_par, 2)["s"]]
        assert got == ["c", "x", "g(z)"]

    def test_empty(self, f1, x1):
        got = enumerate_language(empty_recognizer(f1, x1), 4)
        assert got == {"s": []}

    def test_universal(self, f1, x1):
        got = enumerate_language(universal_recognizer(f1, x1), 4)
        assert got["s"] == enumerate_terms(f1, x1, "s", 4)


class TestSubstitutionSets:
    def test_worked_example(self, f1, x1):
        got = semantic_substitution_sets(
            [parse_term("sigma(z,z)", f1, x1)],
            {"z": [parse_term("c", f1, x1), parse_term("g(c)", f1, x1)]},
            7,
        )
        assert {print_term(t) for t in got} == {
            "sigma(c,c)",
            "sigma(c,g(c))",
            "sigma(g(c),c)",
            "sigma(g(c),g(c))",
        }

    def test_no_variables(self, f1, x1):
        c = parse_term("c", f1, x1)
        assert semantic_substitution_sets([c], {"z": [c]}, 7) == {c}

    def test_identity_families(self, f1, x1):
        terms = enumerate_terms(f1, x1, "s", 4)
        got = semantic_substitution_sets(
            terms,
            {"x": [parse_term("x", f1, x1)], "z": [parse_term("z", f1, x1)]},
            4,
        )
        assert got == set(terms)

    def test_bound_respected(self, f1, x1):
        got = semantic_substitution_sets(
            [parse_term("sigma(z,z)", f1, x1)],
            {"z": [parse_term("g(g(c))", f1, x1)]},
            5,
        )
        assert got == set()
        # a k-term with no occurrence to substitute is bounded too
        deep, c = parse_term("g(g(g(c)))", f1, x1), parse_term("c", f1, x1)
        for bound in (2, 3):
            assert semantic_substitution_sets([deep], {"x": [c]}, bound) == set()
        assert semantic_substitution_sets([deep], {"x": [c]}, 4) == {deep}

    def test_no_result_passes_the_bound(self):
        """Below the criteria's bound too, the pass returns the enumeration's
        results that fit and nothing larger."""
        rng = random.Random(0xB0)
        for bound in (1, 3, MAX_NODES):
            for _ in range(10):
                k_terms, fams = criterion_substitution_sets(rng)
                got = semantic_substitution_sets(k_terms, fams, bound)
                assert all(t.size <= bound for t in got)
                want = substitution_sets_by_enumeration(k_terms, fams, bound)
                assert got == {t for t in want if t.size <= bound}

    def test_enumeration_route_agrees_on_criterion_instances(self):
        """The first 40 instances of criteria 1a and 1b give the same sets and
        fixpoints through the bottom-up pass as through enumeration."""
        rng = random.Random(0xA1)
        for i in range(40):
            k_terms, fams = criterion_substitution_sets(rng)
            want = substitution_sets_by_enumeration(k_terms, fams, MAX_NODES)
            assert semantic_substitution_sets(k_terms, fams, MAX_NODES) == want, i
        rng = random.Random(0xA2)
        for i in range(40):
            args = criterion_iteration_input(rng)
            got = semantic_iteration_bounded(*args)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "semantic_substitution_sets", substitution_sets_by_enumeration)
                assert got == semantic_iteration_bounded(*args), i

    def test_two_routes_agree(self, f1, x1, f2, x2):
        rng = random.Random(55)
        for sig, vars in ((f1, x1), (f2, x2)):
            for _ in range(15):
                universe = {
                    s: enumerate_terms(sig, vars, s, 4) for s in sig.sorts
                }
                k_terms = [
                    t
                    for s in sig.sorts
                    for t in universe[s]
                    if rng.random() < 0.15
                ]
                families = {}
                for s, names in vars.by_sort:
                    for x in names:
                        pool = [t for t in universe[s] if rng.random() < 0.2]
                        if pool:
                            families[x] = pool
                direct = semantic_substitution_sets(k_terms, families, 8)
                powerset = substitution_sets_by_powerset(sig, k_terms, families, 8)
                assert direct == powerset
                assert direct == substitution_sets_by_enumeration(k_terms, families, 8)


class TestIterationBounded:
    def test_worked_example(self, f1, x1):
        got = semantic_iteration_bounded(
            f1, x1, [parse_term("sigma(z,z)", f1, x1)], "z", 5
        )
        assert {print_term(t) for t in got} == {
            "z",
            "sigma(z,z)",
            "sigma(sigma(z,z),z)",
            "sigma(z,sigma(z,z))",
        }

    def test_stage_zero(self, f1, x1):
        got = semantic_iteration_bounded(f1, x1, [], "z", 6)
        assert {print_term(t) for t in got} == {"z"}

    def test_z_only(self, f1, x1):
        got = semantic_iteration_bounded(f1, x1, [parse_term("z", f1, x1)], "z", 6)
        assert {print_term(t) for t in got} == {"z"}

    def test_unknown_variable(self, f1, x1):
        # the message and class of closure.iterate_language
        with pytest.raises(ValidationError, match="^unknown variable 'nope'$"):
            semantic_iteration_bounded(f1, x1, [parse_term("g(z)", f1, x1)], "nope", 3)


class TestQuotientBounded:
    def test_by_z_is_restriction(self, f1, x1, r_par):
        got = semantic_quotient_bounded(r_par, [parse_term("z", f1, x1)], "z", 4)
        want = set(enumerate_language(r_par, 4)["s"])
        assert got["s"] == want

    def test_unknown_variable(self, f1, x1):
        # the message and class of closure.quotient_language, not l's members
        from treelang.recognizer import recognize_singleton

        l = recognize_singleton(f1, x1, parse_term("g(c)", f1, x1))
        with pytest.raises(ValidationError, match="^unknown variable 'nope'$"):
            semantic_quotient_bounded(l, [parse_term("c", f1, x1)], "nope", 3)

    def test_empty_k(self, f1, x1, r_par):
        got = semantic_quotient_bounded(r_par, [], "z", 4)
        for t in got["s"]:
            assert "z" not in print_term(t)

    def test_worked_example(self, f1, x1):
        from treelang.recognizer import recognize_singleton

        l = recognize_singleton(f1, x1, parse_term("sigma(c,c)", f1, x1))
        got = semantic_quotient_bounded(l, [parse_term("c", f1, x1)], "z", 3)
        assert {print_term(t) for t in got["s"]} == {
            "sigma(z,z)",
            "sigma(z,c)",
            "sigma(c,z)",
            "sigma(c,c)",
        }
