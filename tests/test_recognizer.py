import itertools
import random
import tracemalloc
from collections import Counter
from importlib import import_module

import pytest

from treelang.core import (
    Hole,
    Node,
    SortError,
    SortedVars,
    ValidationError,
    Var,
    _preorder,
    enumerate_all_terms,
    enumerate_terms,
    parse_context,
    parse_term,
    print_term,
    signature,
    sorted_vars,
    subterms_of,
    typecheck,
)
from treelang.recognizer import (
    Recognizer,
    _seed,
    accepts,
    combine,
    determinize,
    empty_recognizer,
    equivalent,
    inverse_translation,
    is_empty,
    minimize,
    recognize_basic,
    recognize_finite,
    recognize_singleton,
    recognizer,
    restrict_to_sort,
    universal_recognizer,
)
from treelang.algebra import _closure, _offset_rows, closure_elements, finite_algebra
from treelang.closure import nta, table_rules
from treelang.oracle import enumerate_language

from conftest import (
    accepted_sets,
    check_branch,
    non_element_branches,
    permuted,
    random_recognizer,
    same_language,
    termless,
)
from test_build_kernels import counting_tables

# the module itself: the package's ``recognizer`` attribute is the function
RECOGNIZER_MODULE = import_module("treelang.recognizer")


# ``u`` has no constant and no variable, so no term has sort ``u``
U_SIG = signature(
    ["s", "u"],
    [("c", [], "s"), ("g", ["s"], "s"), ("h", ["u", "s"], "s"), ("k", ["u", "s"], "u")],
)
U_VARS = sorted_vars(U_SIG, {"s": ["x"]})

# three sorts, of which ``u`` (added by ``termless``) has no term
_BASE3 = signature(
    ["a", "b"],
    [("ca", [], "a"), ("cb", [], "b"), ("f", ["a", "a"], "b"),
     ("h", ["b", "a"], "a"), ("m", ["a", "b", "a"], "a")],
)
SIG3, VARS3 = termless(_BASE3, sorted_vars(_BASE3, {"a": ["x", "y"], "b": ["w"]}))


class TestAccepts:
    def test_parity(self, f1, x1, r_par):
        assert accepts(r_par, parse_term("g(g(c))", f1, x1))
        assert not accepts(r_par, parse_term("g(c)", f1, x1))
        assert accepts(r_par, parse_term("sigma(z,z)", f1, x1))


class TestBuild:
    def test_missing_variable_is_a_validation_error(self, x1, rpar_algebra):
        with pytest.raises(ValidationError, match="^assignment missing variable 'z'$"):
            recognizer(x1, rpar_algebra, {"x": 0}, {"s": [0]})

    def test_variable_at_unknown_sort(self, rpar_algebra):
        # the builder leaves y out of the assignment, and still fails as
        # direct construction does (tests/test_core.py)
        with_y = SortedVars((("s", ("x", "z")), ("t", ("y",))))
        with pytest.raises(ValidationError, match="^variable 'y' at unknown sort 't'$"):
            recognizer(with_y, rpar_algebra, {"x": 0, "z": 1, "y": 0}, {})

    @pytest.mark.parametrize("x, z", [(0.5, 0), (0, True), (-1, 0), (0, 2)])
    def test_assignment_values_are_carrier_elements(self, x1, rpar_algebra, x, z):
        # a float or bool value used to build, and then fail in ``accepts``
        name = "x" if x != 0 else "z"
        with pytest.raises(ValidationError, match=f"^assignment for '{name}' out of carrier range$"):
            recognizer(x1, rpar_algebra, {"x": x, "z": z}, {"s": [0]})

    def test_assignment_is_checked_once(self, x1, rpar_algebra, monkeypatch):
        calls = []
        check = RECOGNIZER_MODULE.check_assignment
        monkeypatch.setattr(
            RECOGNIZER_MODULE, "check_assignment", lambda *args: calls.append(args) or check(*args)
        )
        recognizer(x1, rpar_algebra, {"x": 0, "z": 1}, {"s": [0]})
        assert len(calls) == 1


class TestCombine:
    def test_union_with_empty(self, f1, x1, r_par):
        assert equivalent(combine("union", r_par, empty_recognizer(f1, x1)), r_par)

    def test_intersection_self(self, r_par):
        assert equivalent(combine("intersection", r_par, r_par), r_par)

    def test_difference_self_empty(self, r_par):
        assert is_empty(combine("difference", r_par, r_par))

    def test_exhaustive_boolean_semantics(self, f1, x1, r_par):
        rng = random.Random(2)
        other = random_recognizer(rng, f1, x1)
        universe = enumerate_all_terms(f1, x1, 6)
        a = accepted_sets(r_par, universe)
        b = accepted_sets(other, universe)
        for kind, fn in (
            ("union", lambda p, q: p | q),
            ("intersection", lambda p, q: p & q),
            ("difference", lambda p, q: p - q),
        ):
            got = accepted_sets(combine(kind, r_par, other), universe)
            assert got == {s: fn(a[s], b[s]) for s in universe}

    def test_de_morgan(self, f1, x1, r_par):
        rng = random.Random(3)
        a = random_recognizer(rng, f1, x1)
        b = random_recognizer(rng, f1, x1)
        u = universal_recognizer(f1, x1)
        left = combine("difference", u, combine("union", a, b))
        right = combine(
            "intersection", combine("difference", u, a), combine("difference", u, b)
        )
        assert equivalent(left, right)

    def test_complement_involution(self, f1, x1, r_par):
        u = universal_recognizer(f1, x1)
        twice = combine("difference", u, combine("difference", u, r_par))
        assert equivalent(twice, r_par)

    def test_signature_mismatch(self, f1, x1, f2, x2, r_par):
        other = universal_recognizer(f2, x2)
        with pytest.raises(ValidationError):
            combine("union", r_par, other)


class TestEmptiness:
    def test_empty_m(self, f1, x1):
        assert is_empty(empty_recognizer(f1, x1))

    def test_parity_nonempty(self, r_par):
        assert not is_empty(r_par)

    def test_unreachable_accepting(self, f2):
        # no variables at all; b-value 0 is never produced (iszero always gives 1)
        from treelang.core import sorted_vars

        no_vars = sorted_vars(f2, {})
        alg = finite_algebra(
            f2, {"e": 1, "b": 2}, {"zero": [0], "succ": [0], "iszero": [1]}
        )
        rec = recognizer(no_vars, alg, {}, {"b": [0]})
        assert is_empty(rec)
        rec2 = recognizer(no_vars, alg, {}, {"b": [1]})
        assert not is_empty(rec2)

    def test_accepting_value_reached_in_the_last_round(self, f1):
        # c is 0 and g counts up to n - 1, first reached in the last round
        # that reaches anything; sigma keeps its left argument
        n = 6
        tables = {
            "c": [0],
            "g": [min(i + 1, n - 1) for i in range(n)],
            "sigma": [a for a in range(n) for _ in range(n)],
        }
        alg = finite_algebra(f1, {"s": n}, tables)
        no_vars = sorted_vars(f1, {})
        full = closure_elements(alg, {"s": [0]})
        assert full == {"s": list(range(n))}
        for accepting, empty in (([n - 1], False), ([], True), ([0, n - 1], False)):
            rec = recognizer(no_vars, alg, {}, {"s": accepting})
            assert is_empty(rec) == empty
            accepted = rec.accepting_at("s")
            stop = lambda sort, reached, fresh: not accepted.isdisjoint(fresh)
            got = _closure(f1, _seed(rec), _offset_rows(alg), stop=stop)
            assert got == ({"s": [0]} if 0 in accepting else full)

    def test_empty_carrier_and_unreachable_accepting_values(self):
        # u has no term and no state; s reaches 0 and 1 of its 4 states
        tables = {"c": [0], "g": [1, 0, 3, 2], "h": [], "k": []}
        alg = finite_algebra(U_SIG, {"s": 4, "u": 0}, tables)
        for accepting, empty in (([2, 3], True), ([], True), ([3, 1], False), ([0], False)):
            rec = recognizer(U_VARS, alg, {"x": 0}, {"s": accepting})
            assert is_empty(rec) == empty

    def test_agrees_with_enumeration(self, f1, x1, f2, x2):
        rng = random.Random(9)
        for sig, vars in ((f1, x1), (f2, x2)):
            for _ in range(25):
                rec = random_recognizer(rng, sig, vars)
                enumerated = enumerate_language(rec, 7)
                has_term = any(enumerated[s] for s in sig.sorts)
                assert is_empty(rec) == (not has_term)


class TestEquivalence:
    def test_reflexive(self, r_par):
        assert equivalent(r_par, r_par)

    def test_minimize_preserves(self, r_par):
        assert equivalent(r_par, minimize(r_par))

    def test_complement_differs(self, f1, x1, r_par):
        flipped = recognizer(
            x1, r_par.algebra, dict(r_par.assignment), {"s": [1]}
        )
        assert not equivalent(r_par, flipped)

    def test_other_inputs_are_rejected_before_any_table_is_read(self, f1, x1, f2, x2, r_par):
        reads = [0]
        algebra = counting_tables(r_par.algebra, reads)
        counted = recognizer(x1, algebra, dict(r_par.assignment), dict(r_par.accepting))
        reads[0] = 0
        for other in (empty_recognizer(f2, x2), empty_recognizer(f1, sorted_vars(f1, {"s": ["x"]}))):
            for pair in ((counted, other), (other, counted)):
                with pytest.raises(ValidationError, match="^recognizers have different "):
                    equivalent(*pair)
        assert reads[0] == 0

    def test_disagreeing_constants_read_only_the_seed(self, f1, x1, f2, x2):
        """A pair told apart by a constant, whose values only one of the two
        accepts, is decided at the seed: ``equivalent`` reads each
        constant's one entry, for the seed, and no other table entry."""
        rng = random.Random(47)
        reads = [0]

        def counted(rec, accepting):
            algebra = counting_tables(rec.algebra, reads)
            return recognizer(rec.vars, algebra, dict(rec.assignment), accepting)

        for sig, vars in ((f1, x1), (f2, x2), (U_SIG, U_VARS)):
            c = next(op for op in sig.ops if not op.arity)
            constants = sum(1 for op in sig.ops if not op.arity)
            for _ in range(10):
                rec = random_recognizer(rng, sig, vars)
                copy = permuted(rng, rec)
                accepting = dict(copy.accepting)
                accepting[c.result] = set(accepting[c.result]) ^ {copy.algebra.table(c.name)[0]}
                pair = counted(rec, dict(rec.accepting)), counted(copy, accepting)
                reads[0] = 0
                assert not equivalent(*pair)
                assert reads[0] == 2 * constants

    def test_builds_no_product(self, monkeypatch, f1, x1, f2, x2, r_par):
        rng = random.Random(31)
        pairs = [(r_par, r_par), (r_par, permuted(rng, r_par))]
        pairs.append((r_par, recognizer(x1, r_par.algebra, dict(r_par.assignment), {"s": [1]})))
        for sig, vars in ((f1, x1), (f2, x2), (U_SIG, U_VARS)):
            for _ in range(15):
                rec = random_recognizer(rng, sig, vars, max_carrier=6)
                pairs.append((rec, permuted(rng, rec)))
                pairs.append((rec, random_recognizer(rng, sig, vars, max_carrier=6)))
        # the verdicts of the difference-product check
        want = [
            is_empty(combine("difference", a, b)) and is_empty(combine("difference", b, a))
            for a, b in pairs
        ]
        assert True in want and False in want

        def refuse(*args):
            raise AssertionError("equivalent built a product")

        monkeypatch.setattr(RECOGNIZER_MODULE, "product_algebra", refuse)
        monkeypatch.setattr(RECOGNIZER_MODULE, "combine", refuse)
        assert [equivalent(a, b) for a, b in pairs] == want


class TestMinimize:
    def test_diagonal_product(self, f1, x1, r_par):
        prod = combine("intersection", r_par, r_par)
        assert prod.algebra.size("s") == 4
        m = minimize(prod)
        assert m.algebra.size("s") == 2
        assert equivalent(m, r_par)

    def test_already_minimal(self, r_par):
        m = minimize(r_par)
        assert minimize(m).algebra.carriers == m.algebra.carriers

    def test_empty_language_single_state(self, f1, x1):
        m = minimize(empty_recognizer(f1, x1))
        assert m.algebra.size("s") == 1

    def test_language_preserved_exhaustively(self, f1, x1):
        rng = random.Random(13)
        for _ in range(20):
            rec = random_recognizer(rng, f1, x1)
            assert same_language(rec, minimize(rec), 6)

    def test_idempotent_state_counts(self, f1, x1, f2, x2):
        rng = random.Random(15)
        for sig, vars in ((f1, x1), (f2, x2)):
            for _ in range(10):
                m = minimize(random_recognizer(rng, sig, vars))
                assert minimize(m).algebra.carriers == m.algebra.carriers

    def test_canonical_form(self, f1, x1, f2, x2):
        """Recognizers of one language minimize to equal recognizers, however
        their states are named and however many equivalent states they keep."""
        rng = random.Random(23)
        shrunk = 0
        for sig, vars in ((f1, x1), (f2, x2), (U_SIG, U_VARS)):
            for _ in range(70):
                rec = random_recognizer(rng, sig, vars, max_carrier=6)
                m = minimize(rec)
                assert minimize(permuted(rng, rec)) == m
                assert minimize(m) == m
                assert minimize(combine("union", rec, permuted(rng, rec))) == m
                shrunk += sig is U_SIG and m.algebra.size("u") == 0
        assert shrunk == 70


class TestDeterminize:
    def test_single_leaf_language(self, f1, x1):
        machine = nta(f1, x1, {"s": 2}, {"z": {0, 1}}, {}, {}, {"s": {0, 1}})
        rec = determinize(machine)
        got = {t for t in enumerate_terms(f1, x1, "s", 3) if accepts(rec, t)}
        assert got == {Var("z", "s")}

    def test_evaluator_roundtrip(self, f1, x1, r_par):
        rules = {key: {v} for key, v in table_rules(r_par.algebra)}
        machine = nta(f1, x1, {"s": 2}, {"x": {0}, "z": {1}}, rules, {}, {"s": {0}})
        assert equivalent(determinize(machine), r_par)

    def test_empty_machine(self, f1, x1):
        machine = nta(f1, x1, {"s": 0}, {}, {}, {}, {})
        rec = determinize(machine)
        assert is_empty(rec)

    def test_epsilon_closure(self, f1, x1):
        # leaf z -> 0, epsilon 0 -> 1, accepting {1}
        machine = nta(f1, x1, {"s": 2}, {"z": {0}}, {}, {"s": [(0, 1)]}, {"s": {1}})
        rec = determinize(machine)
        assert accepts(rec, parse_term("z", f1, x1))
        assert not accepts(rec, parse_term("x", f1, x1))

    def test_guard(self, f1, x1):
        machine = nta(f1, x1, {"s": 2}, {"z": {0, 1}}, {}, {}, {"s": {0, 1}})
        with pytest.raises(ValidationError):
            determinize(machine, cap=1)

    def test_guard_counts_table_entries(self, f1, x1):
        # subsets {} (c), {0} (x), {1} (z): the tables of c, g and sigma then
        # hold 1 + 3 + 3*3 = 13 entries
        machine = nta(f1, x1, {"s": 2}, {"x": {0}, "z": {1}}, {}, {}, {"s": {0}})
        assert determinize(machine, cap=13).algebra.size("s") == 3
        with pytest.raises(ValidationError, match=r"budget exceeded: 13 .* > 12"):
            determinize(machine, cap=12)


def reference_recognize_basic(sig, vars, pattern):
    """``recognize_basic`` as a construction of its own, before it became the
    pattern's subterm automaton: a two-element sink algebra with a
    characteristic assignment for a variable; a two-element algebra where
    only the constant gives 1; and, for a flat term, carriers ``k_t + 1``
    (``k_s + 2`` at the root sort ``s``) with one table entry detecting the
    coded argument tuple.  It does not typecheck the pattern."""

    def sparse(sizes, default, hits):
        tables = {
            op.name: [
                hits.get((op.name, args), default[op.result])
                for args in itertools.product(*(range(sizes[s]) for s in op.arity))
            ]
            for op in sig.ops
        }
        return finite_algebra(sig, sizes, tables)

    if isinstance(pattern, Var) or not pattern.children:
        named = pattern.name if isinstance(pattern, Var) else None
        assignment = {x: int(x == named) for x in vars.all_names()}
        hits = {} if isinstance(pattern, Var) else {(pattern.symbol, ()): 1}
        alg = sparse({s: 2 for s in sig.sorts}, {s: 0 for s in sig.sorts}, hits)
        return recognizer(vars, alg, assignment, {pattern.sort: [1]})
    root = sig.operation(pattern.symbol).result
    # the distinct argument variables per sort, in first-occurrence order
    codes = {s: {} for s in sig.sorts}
    for child in pattern.children:
        codes[child.sort].setdefault(child.name, len(codes[child.sort]))
    junk = {s: len(codes[s]) for s in sig.sorts}
    sizes = {s: junk[s] + (2 if s == root else 1) for s in sig.sorts}
    wanted = tuple(codes[c.sort][c.name] for c in pattern.children)
    alg = sparse(sizes, junk, {(pattern.symbol, wanted): junk[root] + 1})
    assignment = {x: codes[s].get(x, junk[s]) for s, names in vars.by_sort for x in names}
    return recognizer(vars, alg, assignment, {root: [junk[root] + 1]})


def basic_patterns(sig, vars):
    """Every basic pattern: each variable, each constant, and each flat term
    over the variables, repeats included."""
    yield from (Var(x, s) for s, names in vars.by_sort for x in names)
    for op in sig.ops:
        for names in itertools.product(*map(vars.names, op.arity)):
            children = tuple(Var(x, s) for x, s in zip(names, op.arity))
            yield Node(op.name, children, op.result, len(children) + 1)


class TestRecognizeBasic:
    def test_matches_the_reference_construction(self, f1, x1, f2, x2):
        """The same language as the reference on every basic pattern of
        ``f1``, ``f2`` and a three-sorted signature whose sort ``u`` no term
        has; a flat pattern gets the same carriers, and a variable or a
        constant one sink state at each sort it does not reach."""
        kinds = Counter()
        for sig, vars in ((f1, x1), (f2, x2), (SIG3, VARS3)):
            for pattern in basic_patterns(sig, vars):
                got = recognize_basic(sig, vars, pattern)
                want = reference_recognize_basic(sig, vars, pattern)
                assert got == recognize_singleton(sig, vars, pattern)
                assert equivalent(got, want) and minimize(got) == minimize(want)
                flat = isinstance(pattern, Node) and bool(pattern.children)
                if flat:
                    assert got.algebra.carriers == want.algebra.carriers
                else:
                    sinks = {s: 1 + (s == pattern.sort) for s in sig.sorts}
                    assert dict(got.algebra.carriers) == sinks
                repeated = flat and len({c.name for c in pattern.children}) < len(pattern.children)
                kinds["flat" if flat else "leaf", repeated] += 1
        assert kinds == {("leaf", False): 10, ("flat", False): 12, ("flat", True): 6}, kinds

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ("x", {"x"}),
            ("c", {"c"}),
            ("sigma(x,z)", {"sigma(x,z)"}),
            ("sigma(x,x)", {"sigma(x,x)"}),
            ("g(z)", {"g(z)"}),
        ],
    )
    def test_singletons(self, f1, x1, pattern, expected):
        rec = recognize_basic(f1, x1, parse_term(pattern, f1, x1))
        got = {
            print_term(t) for t in enumerate_terms(f1, x1, "s", 3) if accepts(rec, t)
        }
        assert got == expected

    def test_non_flat_rejected(self, f1, x1):
        with pytest.raises(ValidationError):
            recognize_basic(f1, x1, parse_term("sigma(g(x),z)", f1, x1))

    def test_state_counts_match_construction(self, f1, x1):
        # flat case carriers: root sort gets k_s + 2
        rec = recognize_basic(f1, x1, parse_term("sigma(x,z)", f1, x1))
        assert rec.algebra.size("s") == 4  # two coded variables + junk + hit


def reference_subterm_recognizer(sig, vars, terms):
    """The subterm automaton as it was built before it numbered subterms by
    first occurrence: each sort's distinct subterms gathered in a set and
    sorted by the flat key of the canonical order, the (size, rank) pairs
    of the preorder, which walks each subterm whole, so the work is
    quadratic in a term's depth."""
    by_sort = {}
    for term in terms:
        typecheck(term, sig, vars)
        for s, found in subterms_of(term).items():
            by_sort.setdefault(s, set()).update(found)
    op_rank = {op.name: i for i, op in enumerate(sig.ops)}
    var_rank = {x: len(op_rank) + i for i, x in enumerate(vars.all_names())}

    def key(term):
        out: list[int] = []
        for t in _preorder(term):
            if t.__class__ is Var:
                out += (1, var_rank[t.name])
            else:
                out += (t.size, op_rank[t.symbol])
        return tuple(out)

    index = {
        s: {t: i for i, t in enumerate(sorted(by_sort.get(s, ()), key=key))} for s in sig.sorts
    }
    junk = {s: len(index[s]) for s in sig.sorts}
    hits = {
        (t.symbol, tuple(index[c.sort][c] for c in t.children)): i
        for s in sig.sorts
        for t, i in index[s].items()
        if isinstance(t, Node)
    }
    tables = {
        op.name: [
            hits.get((op.name, args), junk[op.result])
            for args in itertools.product(*(range(junk[s] + 1) for s in op.arity))
        ]
        for op in sig.ops
    }
    alg = finite_algebra(sig, {s: n + 1 for s, n in junk.items()}, tables)
    assignment = {x: index[s].get(Var(x, s), junk[s]) for s, names in vars.by_sort for x in names}
    accepting = {}
    for term in terms:
        accepting.setdefault(term.sort, []).append(index[term.sort][term])
    return recognizer(vars, alg, assignment, accepting)


def iszero_chain(depth):
    """``iszero(succ^depth(x))`` over ``f2``."""
    t = Var("x", "e")
    for size in range(2, depth + 2):
        t = Node("succ", (t,), "e", size)
    return Node("iszero", (t,), "b", depth + 2)


class TestSubtermAutomaton:
    def test_matches_the_sorted_construction(self, f1, x1, f2, x2):
        """On seeded term lists over ``f1``, ``f2`` and the three-sorted
        signature, with repeated terms and shared subterms, numbering by
        first occurrence gives the sorted construction's carriers, its
        language and, once minimized, the same recognizer."""
        rng = random.Random(38)
        subterm_recognizer = RECOGNIZER_MODULE._subterm_recognizer
        for sig, vars in ((f1, x1), (f2, x2), (SIG3, VARS3)):
            universe = enumerate_all_terms(sig, vars, 6)
            pool = [t for s in sig.sorts for t in universe[s]]
            for _ in range(40):
                # enumerated terms share their subterm objects
                terms = rng.sample(pool, rng.randint(1, 4))
                # a repeated term, and a subterm of a listed term listed too
                terms += rng.choices(terms, k=rng.randint(0, 2))
                nodes = [t for t in terms if isinstance(t, Node) and t.children]
                if nodes:
                    terms.append(rng.choice(rng.choice(nodes).children))
                rng.shuffle(terms)
                got = subterm_recognizer(sig, vars, terms)
                want = reference_subterm_recognizer(sig, vars, terms)
                assert got.algebra.carriers == want.algebra.carriers
                assert equivalent(got, want)
                assert repr(minimize(got)) == repr(minimize(want))
                assert repr(recognize_finite(sig, vars, terms)) == repr(minimize(want))

    def test_deep_chain(self, f2, x2):
        """Linear in the term's size: a 20,000-deep chain is accepted, and
        the chain one level shorter is not."""
        term = iszero_chain(20_000)
        rec = recognize_singleton(f2, x2, term)
        assert dict(rec.algebra.carriers) == {"e": 20_002, "b": 2}
        assert accepts(rec, term) and not accepts(rec, iszero_chain(19_999))

    def test_deep_chain_memory(self, f2, x2):
        """The construction keeps no per-subterm key: at depth 4,000 its
        allocation peak stays under 16 MB, where a sort by the flat key of
        ``reference_subterm_recognizer`` holds a key as long as each
        subterm, about 123 MB in all."""
        term = iszero_chain(4_000)
        tracemalloc.start()
        try:
            rec = recognize_singleton(f2, x2, term)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accepts(rec, term)
        assert peak < 16 * 2**20, peak


class TestRecognizeSingleton:
    def test_exact(self, f1, x1):
        term = parse_term("g(sigma(c,x))", f1, x1)
        rec = recognize_singleton(f1, x1, term)
        got = {t for t in enumerate_terms(f1, x1, "s", 6) if accepts(rec, t)}
        assert got == {term}

    def test_finite_set(self, f1, x1):
        terms = [parse_term("c", f1, x1), parse_term("g(z)", f1, x1)]
        rec = recognize_finite(f1, x1, terms)
        got = {t for t in enumerate_terms(f1, x1, "s", 4) if accepts(rec, t)}
        assert got == set(terms)

    def test_multi_sorted(self, f2, x2):
        term = parse_term("iszero(succ(x))", f2, x2)
        rec = recognize_singleton(f2, x2, term)
        universe = enumerate_all_terms(f2, x2, 5)
        got = {
            t
            for sort in f2.sorts
            for t in universe[sort]
            if accepts(rec, t)
        }
        assert got == {term}


    def test_unknown_variable_or_operation_rejected(self, f1, x1):
        # x1 declares x and z only, and f1 has no operation h
        stray = Node("g", (Var("y", "s"),), "s", 2)
        unknown = Node("h", (), "s", 1)
        good = parse_term("g(x)", f1, x1)
        for build in (
            lambda t: recognize_singleton(f1, x1, t),
            lambda t: recognize_finite(f1, x1, [good, t]),
        ):
            with pytest.raises(SortError, match="unknown variable 'y'"):
                build(stray)
            with pytest.raises(ValidationError, match="unknown operation symbol 'h'"):
                build(unknown)


class TestInverseTranslation:
    def test_flip(self, f1, x1, r_par):
        inv = inverse_translation(r_par, parse_context("g(@)", f1, x1))
        universe = enumerate_terms(f1, x1, "s", 6)
        for t in universe:
            wrapped = parse_term(f"g({print_term(t)})", f1, x1)
            assert accepts(inv, t) == accepts(r_par, wrapped)

    def test_identity_context_restricts(self, f1, x1, r_par):
        from treelang.core import hole_context

        inv = inverse_translation(r_par, hole_context("s"))
        assert equivalent(inv, restrict_to_sort(r_par, "s"))

    def test_xor_context(self, f1, x1, r_par):
        inv = inverse_translation(r_par, parse_context("sigma(@,z)", f1, x1))
        assert accepts(inv, parse_term("g(c)", f1, x1))
        assert not accepts(inv, parse_term("c", f1, x1))

    def test_other_sorts_emptied(self, f2, x2):
        rng = random.Random(21)
        rec = random_recognizer(rng, f2, x2)
        ctx = parse_context("iszero(@)", f2, x2)
        inv = inverse_translation(rec, ctx)
        assert inv.accepting_at("b") == frozenset()


class TestSortedDecomposition:
    def test_union_of_restrictions(self, f2, x2):
        # a recognizer equals the union over sorts of its single-sort restrictions
        rng = random.Random(19)
        for _ in range(10):
            rec = random_recognizer(rng, f2, x2)
            parts = [restrict_to_sort(rec, s) for s in f2.sorts]
            merged = parts[0]
            for p in parts[1:]:
                merged = combine("union", merged, p)
            assert equivalent(merged, rec)

    def test_unknown_sort(self, r_par):
        with pytest.raises(ValidationError, match=r"^unknown sort 'nope'$"):
            restrict_to_sort(r_par, "nope")
        with pytest.raises(ValidationError, match=r"^unknown sort 'nope'$"):
            r_par.accepting_at("nope")


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "accepting-misses-sort": (
        lambda fx: Recognizer(fx("x1"), fx("rpar_algebra"), (("x", 0), ("z", 1)), ()),
        ValidationError, "accepting sets must cover every sort",
    ),
    "accepting-unsorted": (
        lambda fx: Recognizer(fx("x1"), fx("rpar_algebra"), (("x", 0), ("z", 1)), (("s", (1, 0)),)),
        ValidationError, "accepting set at 's' must be sorted and duplicate-free",
    ),
    "combine-other-signatures": (
        lambda fx: combine("union", fx("r_par"), empty_recognizer(fx("f2"), fx("x2"))),
        ValidationError, "recognizers have different signatures",
    ),
    "combine-other-variables": (
        lambda fx: combine(
            "union", fx("r_par"), empty_recognizer(fx("f1"), sorted_vars(fx("f1"), {"s": ["x"]}))
        ),
        ValidationError, "recognizers have different variable sets",
    ),
    "equivalent-other-signatures": (
        lambda fx: equivalent(fx("r_par"), empty_recognizer(fx("f2"), fx("x2"))),
        ValidationError, "recognizers have different signatures",
    ),
    "equivalent-other-variables": (
        lambda fx: equivalent(
            fx("r_par"), empty_recognizer(fx("f1"), sorted_vars(fx("f1"), {"s": ["x"]}))
        ),
        ValidationError, "recognizers have different variable sets",
    ),
    "unknown-combination": (
        lambda fx: combine("xor", fx("r_par"), fx("r_par")),
        ValidationError, "unknown combination kind 'xor'",
    ),
    "basic-hole": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Hole("s")),
        ValidationError, "pattern must be a variable, constant, or flat term",
    ),
    "basic-not-flat": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), parse_term("g(g(x))", fx("f1"), fx("x1"))),
        ValidationError, "flat pattern arguments must be variables",
    ),
    # the pattern is typechecked: each of these built a recognizer, mostly of
    # the empty language, or ended in a bare KeyError
    "basic-unknown-variable": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Var("nope", "s")),
        SortError, "unknown variable 'nope'",
    ),
    "basic-variable-sort": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Var("x", "t")),
        SortError, "variable 'x' tagged with wrong sort 't'",
    ),
    "basic-unknown-constant": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Node("h", (), "s", 1)),
        ValidationError, "unknown operation symbol 'h'",
    ),
    "basic-unknown-argument": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Node("g", (Var("nope", "s"),), "s", 2)),
        SortError, "unknown variable 'nope'",
    ),
    "basic-argument-sort": (
        lambda fx: recognize_basic(
            fx("f1"), fx("x1"), Node("sigma", (Var("x", "s"), Var("x", "t")), "s", 3)
        ),
        SortError, "variable 'x' tagged with wrong sort 't'",
    ),
    "basic-node-sort": (
        lambda fx: recognize_basic(fx("f1"), fx("x1"), Node("g", (Var("x", "s"),), "t", 2)),
        SortError, "node 'g' tagged with wrong sort 't'",
    ),
    "context-over-foreign-sorts": (
        lambda fx: inverse_translation(fx("r_par"), parse_context("iszero(@)", fx("f2"), fx("x2"))),
        SortError, "context sorts do not belong to the recognizer's signature",
    ),
    **non_element_branches(
        "accepting",
        lambda fx, v: recognizer(fx("x1"), fx("rpar_algebra"), {"x": 0, "z": 1}, {"s": [v]}),
        "accepting element {v} out of range at sort 's'",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
