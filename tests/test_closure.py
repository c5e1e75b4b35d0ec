import hashlib
import random

import pytest

from importlib import import_module

from treelang import closure, formats

from treelang.closure import (
    NTA,
    iterate_language,
    nta,
    quotient_language,
    quotient_seed_values,
    substitute_language,
    table_rules,
)
from treelang.core import (
    ValidationError,
    Var,
    sorted_vars,
    enumerate_all_terms,
    enumerate_terms,
    parse_term,
    print_term,
)
from treelang.oracle import (
    semantic_iteration_bounded,
    semantic_quotient_bounded,
    semantic_substitution_sets,
)
from treelang.algebra import closure_elements
from treelang.recognizer import (
    _seed,
    accepts,
    combine,
    empty_recognizer,
    equivalent,
    determinize,
    minimize,
    recognize_basic,
    recognize_finite,
    recognize_singleton,
)

from treelang.treehom import direct_image

from conftest import accepted_sets, check_branch, random_recognizer, random_signature


def reference_substitute_language(k, family):
    """The construction ``substitute_language`` had before: every variable
    outside the family gets the minimal evaluator of its singleton language,
    whose accepting state reaches k's leaf for it by an epsilon edge."""
    sig, vars = k.signature, k.vars
    full = {}
    for x in vars.all_names():
        if x in family:
            full[x] = minimize(family[x])
        else:
            full[x] = minimize(recognize_basic(sig, vars, Var(x, vars.sort_of(x))))
    km = minimize(k)
    counts = {s: km.algebra.size(s) for s in sig.sorts}
    offsets = {}
    for x in vars.all_names():
        offsets[x] = dict(counts)
        for s in sig.sorts:
            counts[s] += full[x].algebra.size(s)
    rules = {}
    leaf = {y: set() for y in vars.all_names()}
    epsilon = {s: [] for s in sig.sorts}
    for key, v in table_rules(km.algebra):
        rules.setdefault(key, set()).add(v)
    k_assignment = dict(km.assignment)
    for x in vars.all_names():
        lx, shift = full[x], offsets[x]
        for key, v in table_rules(lx.algebra, shift):
            rules.setdefault(key, set()).add(v)
        asg = dict(lx.assignment)
        for y in vars.all_names():
            leaf[y].add(shift[vars.sort_of(y)] + asg[y])
        t = vars.sort_of(x)
        for q in lx.accepting_at(t):
            epsilon[t].append((shift[t] + q, k_assignment[x]))
    accepting = {s: km.accepting_at(s) for s in sig.sorts}
    return determinize(nta(sig, vars, counts, leaf, rules, epsilon, accepting))


def reference_quotient_seed_values(l, k, z):
    """The l-evaluator values of k's members at z's sort, read from the
    elements of the intersection product reachable from its seed."""
    sort = l.vars.sort_of(z)
    prod = combine("intersection", k, l)
    n_l = l.algebra.size(sort)
    reached = closure_elements(prod.algebra, _seed(prod))
    acc = k.accepting_at(sort)
    return frozenset(e % n_l for e in reached[sort] if e // n_l in acc)


def quotient_instances(f1, x1, f2, x2):
    """Seeded ``(l, k, z)`` over ``f1`` and ``f2``: random evaluators of up
    to 5 states, the first also minimized, and finite languages ``k``."""
    rng = random.Random(2207)
    for sig, vars, z in ((f1, x1, "z"), (f2, x2, "x")):
        sort = vars.sort_of(z)
        for _ in range(30):
            l = random_recognizer(rng, sig, vars, max_carrier=5)
            k = random_recognizer(rng, sig, vars, max_carrier=5)
            terms = enumerate_terms(sig, vars, sort, 3)
            finite = recognize_finite(sig, vars, rng.sample(terms, min(len(terms), 2)))
            yield from ((l, k, z), (minimize(l), k, z), (l, finite, z))


class TestSubstitute:
    def test_flat_with_constant(self, f1, x1):
        k = recognize_basic(f1, x1, parse_term("sigma(x,x)", f1, x1))
        out = substitute_language(
            k, {"x": recognize_singleton(f1, x1, parse_term("c", f1, x1))}
        )
        got = {print_term(t) for t in enumerate_terms(f1, x1, "s", 5) if accepts(out, t)}
        assert got == {"sigma(c,c)"}

    def test_identity_family(self, f1, x1, r_par):
        assert equivalent(substitute_language(r_par, {}), r_par)

    def test_leaf_case(self, f1, x1, r_par):
        out = substitute_language(recognize_basic(f1, x1, parse_term("x", f1, x1)), {"x": r_par})
        universe = enumerate_all_terms(f1, x1, 6)
        assert accepted_sets(out, universe)["s"] == accepted_sets(r_par, universe)["s"]

    def test_occurrence_independence(self, f1, x1):
        # two occurrences of x may take different replacements
        k = recognize_basic(f1, x1, parse_term("sigma(x,x)", f1, x1))
        fam = recognize_finite(f1, x1, [parse_term("c", f1, x1), parse_term("g(c)", f1, x1)])
        out = substitute_language(k, {"x": fam})
        got = {print_term(t) for t in enumerate_terms(f1, x1, "s", 7) if accepts(out, t)}
        assert got == {
            "sigma(c,c)",
            "sigma(c,g(c))",
            "sigma(g(c),c)",
            "sigma(g(c),g(c))",
        }

    def test_vars_mismatch(self, f1, x1, f2, x2, r_par):
        from treelang.recognizer import universal_recognizer

        with pytest.raises(ValidationError):
            substitute_language(r_par, {"x": universal_recognizer(f2, x2)})

    def test_oracle_small_batch(self, f1, x1):
        rng = random.Random(101)
        for _ in range(10):
            k = random_recognizer(rng, f1, x1)
            lx = random_recognizer(rng, f1, x1)
            out = substitute_language(k, {"x": lx})
            universe = enumerate_all_terms(f1, x1, 6)
            k_sets = accepted_sets(k, universe)
            lx_terms = sorted(
                accepted_sets(lx, universe)["s"], key=lambda t: t.size
            )
            want = semantic_substitution_sets(
                [t for s in f1.sorts for t in k_sets[s]], {"x": lx_terms}, 6
            )
            got = {
                t
                for s in f1.sorts
                for t in accepted_sets(out, universe)[s]
            }
            assert got == want


    @pytest.mark.parametrize("n_family", [1, 2])
    def test_same_language_as_reference(self, n_family):
        # 60 instances per family size, each with a variable outside the
        # family; dropping its default evaluator keeps the language and never
        # adds states
        rng = random.Random(4100 + n_family)
        done = fewer = 0
        while done < 60:
            sig, vars = random_signature(rng)
            names = vars.all_names()
            if len(names) <= n_family:
                continue
            k = random_recognizer(rng, sig, vars)
            family = {x: random_recognizer(rng, sig, vars) for x in rng.sample(names, n_family)}
            got = substitute_language(k, family)
            want = reference_substitute_language(k, family)
            assert minimize(got) == minimize(want)
            for s in sig.sorts:
                assert got.algebra.size(s) <= want.algebra.size(s)
            fewer += got.algebra.carriers != want.algebra.carriers
            done += 1
        assert fewer > 10


class TestIterate:
    def test_binary_tree_language(self, f1, x1):
        l = recognize_singleton(f1, x1, parse_term("sigma(z,z)", f1, x1))
        out = iterate_language(l, "z")
        assert accepts(out, parse_term("z", f1, x1))
        assert accepts(out, parse_term("sigma(z,z)", f1, x1))
        assert accepts(out, parse_term("sigma(sigma(z,z),z)", f1, x1))
        assert not accepts(out, parse_term("sigma(c,z)", f1, x1))

    def test_contains_z_and_l(self, f1, x1):
        rng = random.Random(7)
        for _ in range(10):
            l = random_recognizer(rng, f1, x1)
            out = iterate_language(l, "z")
            assert accepts(out, parse_term("z", f1, x1))
            for t in enumerate_terms(f1, x1, "s", 5):
                if accepts(l, t):
                    assert accepts(out, t)

    def test_oracle_exact(self, f1, x1):
        rng = random.Random(8)
        for _ in range(10):
            l = random_recognizer(rng, f1, x1, only_sort="s")
            out = iterate_language(l, "z")
            universe = enumerate_all_terms(f1, x1, 7)
            l_terms = sorted(accepted_sets(l, universe)["s"], key=lambda t: t.size)
            want = semantic_iteration_bounded(f1, x1, l_terms, "z", 7)
            got = accepted_sets(out, universe)["s"]
            assert got == frozenset(want)
            # iteration output accepts only at the variable's sort
            assert all(
                not accepted_sets(out, universe)[s] for s in f1.sorts if s != "s"
            )

    def test_unknown_variable(self, f1, x1, r_par):
        with pytest.raises(ValidationError):
            iterate_language(r_par, "nope")


class TestQuotient:
    def test_example(self, f1, x1):
        l = recognize_singleton(f1, x1, parse_term("sigma(c,c)", f1, x1))
        k = recognize_singleton(f1, x1, parse_term("c", f1, x1))
        out = quotient_language(l, k, "z")
        got = {print_term(t) for t in enumerate_terms(f1, x1, "s", 5) if accepts(out, t)}
        assert got == {"sigma(z,z)", "sigma(z,c)", "sigma(c,z)", "sigma(c,c)"}

    def test_by_z_is_identity(self, f1, x1, r_par):
        k = recognize_basic(f1, x1, parse_term("z", f1, x1))
        assert equivalent(quotient_language(r_par, k, "z"), r_par)

    def test_no_occurrence_membership(self, f1, x1, r_par):
        rng = random.Random(3)
        k = random_recognizer(rng, f1, x1)
        out = quotient_language(r_par, k, "z")
        from treelang.core import count_occurrences

        for t in enumerate_terms(f1, x1, "s", 5):
            if count_occurrences(t, "z", x1) == 0:
                assert accepts(out, t) == accepts(r_par, t)

    def test_empty_k_rejects_z_users(self, f1, x1, r_par):
        from treelang.recognizer import empty_recognizer

        out = quotient_language(r_par, empty_recognizer(f1, x1), "z")
        assert not accepts(out, parse_term("z", f1, x1))
        assert not accepts(out, parse_term("g(z)", f1, x1))

    def test_oracle_exact(self, f1, x1):
        rng = random.Random(11)
        for _ in range(6):
            l = random_recognizer(rng, f1, x1)
            k_terms = [
                t
                for t in (enumerate_terms(f1, x1, "s", 3))
                if rng.random() < 0.3
            ][:3] or [parse_term("c", f1, x1)]
            k = recognize_finite(f1, x1, k_terms)
            out = quotient_language(l, k, "z")
            want = semantic_quotient_bounded(l, k_terms, "z", 5, 3)
            universe = enumerate_all_terms(f1, x1, 5)
            got = accepted_sets(out, universe)
            assert got == {s: frozenset(want[s]) for s in f1.sorts}

    def test_seed_values_determine_language(self, f1, x1, r_par):
        lm = minimize(r_par)
        k1 = recognize_singleton(f1, x1, parse_term("c", f1, x1))
        k2 = recognize_singleton(f1, x1, parse_term("g(g(c))", f1, x1))
        if quotient_seed_values(lm, k1, "z") == quotient_seed_values(lm, k2, "z"):
            assert equivalent(
                quotient_language(lm, k1, "z"), quotient_language(lm, k2, "z")
            )


    def test_seed_values_agree_with_the_product_route(self, f1, x1, f2, x2):
        sizes = set()
        for l, k, z in quotient_instances(f1, x1, f2, x2):
            values = quotient_seed_values(l, k, z)
            assert values == reference_quotient_seed_values(l, k, z)
            sizes.add(len(values))
        assert {0, 1} < sizes

    def test_seed_values_build_no_product(self, f1, x1, f2, x2, monkeypatch):
        cases = list(quotient_instances(f1, x1, f2, x2))
        want = [reference_quotient_seed_values(l, k, z) for l, k, z in cases]
        languages = [quotient_language(l, k, z) for l, k, z in cases[:12]]

        def refuse(*args):
            raise AssertionError("a product was built")

        # ``closure`` imports neither name; both are set there anyway, so a
        # return to the product route fails here
        monkeypatch.setattr(closure, "combine", refuse, raising=False)
        monkeypatch.setattr(closure, "product_algebra", refuse, raising=False)
        for name in ("treelang.recognizer", "treelang.algebra"):
            monkeypatch.setattr(import_module(name), "product_algebra", refuse)
        monkeypatch.setattr(import_module("treelang.recognizer"), "combine", refuse)
        assert [quotient_seed_values(l, k, z) for l, k, z in cases] == want
        assert [quotient_language(l, k, z) for l, k, z in cases[:12]] == languages


class TestFlatOperatorClosure:
    def test_sigma_powerset_constructor(self, f1, x1):
        # applying a symbol to recognizable languages via a flat pattern equals
        # the elementwise image language
        rng = random.Random(13)
        l1 = random_recognizer(rng, f1, x1)
        l2 = random_recognizer(rng, f1, x1)
        flat = recognize_basic(f1, x1, parse_term("sigma(x,z)", f1, x1))
        out = substitute_language(flat, {"x": l1, "z": l2})
        universe = enumerate_all_terms(f1, x1, 7)
        a = accepted_sets(l1, universe)["s"]
        b = accepted_sets(l2, universe)["s"]
        want = set()
        for p in a:
            for q in b:
                if p.size + q.size + 1 <= 7:
                    want.add(parse_term(f"sigma({print_term(p)},{print_term(q)})", f1, x1))
        got = accepted_sets(out, universe)["s"]
        assert got == frozenset(want)


# sha256 of the documents of each construction's outputs in ``numbering_digests``
PINNED = {
    "substitute": "a2b1d3df76be0b469918bf1d5130e1f0f7436c108728ed2a83a11f592fd6eaa3",
    "iterate": "79806da3d048dc200a25d56dbdd2fa465f9dd59f7067a6f3e8aae836cee00be5",
    "quotient": "9dfb743ffac688da849d2a7c9129a7ef143353eb1597ca8f769a931a94d2c29f",
    "image": "3b048e0a89a1e1d96257e7d4d662d3de02212f11071a2bd5b2fc5bc27559a320",
}


def numbering_digests(f1, x1, f2, x2, h1) -> dict[str, str]:
    """Per construction, the digest of its outputs on seeded random inputs
    over one- and two-sorted signatures, in the documents the CLI writes."""
    rng = random.Random(2105)
    docs: dict[str, list[str]] = {"substitute": [], "iterate": [], "quotient": [], "image": []}

    def add(kind, out):
        docs[kind].append(formats.dump_document(formats.recognizer_to_doc(out)))

    for i in range(6):
        for sig, vars, z in ((f1, x1, "z"), (f2, x2, "x")):
            k, lx, l, lk = (random_recognizer(rng, sig, vars) for _ in range(4))
            # on f1, every other family leaves z out
            family = {x: lx for x in vars.all_names()[: 1 + i % 2]}
            add("substitute", substitute_language(k, family))
            add("iterate", iterate_language(l, z))
            add("quotient", quotient_language(l, lk, z))
        for sort in f2.sorts:
            add("image", direct_image(h1, random_recognizer(rng, f2, x2), sort))
    return {kind: hashlib.sha256("".join(texts).encode()).hexdigest() for kind, texts in docs.items()}


def test_output_numbering_is_pinned(f1, x1, f2, x2, h1):
    # the constructions number their NTA states, so their outputs' states,
    # exactly as the recorded digests did; equal languages are not enough
    assert numbering_digests(f1, x1, f2, x2, h1) == PINNED


def test_builder_machines_pass_the_checked_constructor(f1, x1, f2, x2, h1, monkeypatch):
    """``_Builder`` builds its machines without ``NTA``'s checks; rebuilt
    through ``NTA(...)``, every machine of the pinned constructions passes
    them and determinizes to the same outputs."""
    rebuilt = []

    def checked(machine):
        rebuilt.append(NTA(*(getattr(machine, f) for f in NTA.__match_args__)))
        return determinize(rebuilt[-1])

    monkeypatch.setattr(closure, "determinize", checked)
    assert numbering_digests(f1, x1, f2, x2, h1) == PINNED
    assert len(rebuilt) == 48


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "family-unknown-variable": (
        lambda fx: substitute_language(fx("r_par"), {"y": fx("r_par")}),
        ValidationError, "unknown variable 'y' in substitution family",
    ),
    "quotient-other-signature": (
        lambda fx: quotient_language(fx("r_par"), empty_recognizer(fx("f2"), fx("x2")), "x"),
        ValidationError, "quotient operands must share signature and variables",
    ),
    "quotient-other-variables": (
        lambda fx: quotient_language(
            fx("r_par"), empty_recognizer(fx("f1"), sorted_vars(fx("f1"), {"s": ["x"]})), "x"
        ),
        ValidationError, "quotient operands must share signature and variables",
    ),
    "quotient-unknown-variable": (
        lambda fx: quotient_language(fx("r_par"), fx("r_par"), "y"),
        ValidationError, "unknown variable 'y'",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
