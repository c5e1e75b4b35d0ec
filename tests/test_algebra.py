import itertools
import random
import re

import pytest

from treelang import core
from treelang.algebra import (
    _getter,
    _member,
    _values,
    check_assignment,
    evaluate,
    finite_algebra,
    generated_subalgebra,
    product_algebra,
    quotient_algebra,
    restrict_algebra,
    subset_algebra,
    translation_table,
)
from treelang.congruence import all_in_one_partition, identity_partition, partition
from treelang.core import (
    HOLE,
    Hole,
    Node,
    ValidationError,
    Var,
    apply_context,
    context,
    enumerate_all_terms,
    enumerate_terms,
    node,
    parse_context,
    parse_term,
    signature,
    sorted_vars,
    _preorder,
)
from treelang.oracle import evaluate_many
from treelang.recognizer import inverse_translation
from treelang.treehom import derived_algebra, hom_to_hyperderivor, placeholder

from conftest import (
    check_branch,
    non_element_branches,
    leaf_contexts,
    random_algebra,
    random_hyperderivor,
    random_recognizer,
    random_rich_signature,
    random_signature,
    retrying,
)


ASG = {"x": 0, "z": 1}


def singleton_embedding(alg):
    """The injective homomorphism from the algebra into its subset algebra."""
    return {s: tuple(1 << e for e in range(n)) for s, n in alg.carriers}


class TestEvaluate:
    def test_examples(self, f1, x1, rpar_algebra):
        assert evaluate(rpar_algebra, ASG, parse_term("g(g(c))", f1, x1)) == 0
        assert evaluate(rpar_algebra, ASG, parse_term("sigma(z,z)", f1, x1)) == 0
        assert evaluate(rpar_algebra, ASG, parse_term("x", f1, x1)) == 0

    def test_missing_assignment(self, f1, x1, rpar_algebra):
        with pytest.raises(ValidationError):
            evaluate(rpar_algebra, {}, parse_term("x", f1, x1))

    def test_homomorphism_law_exhaustive(self, f1, x1, rpar_algebra):
        # evaluate(op(children)) == table(op)(evaluate(children)) for all terms <= 5 nodes
        universe = enumerate_terms(f1, x1, "s", 5)
        values = evaluate_many(rpar_algebra, ASG, universe)
        for t in universe:
            if not getattr(t, "children", ()):
                continue
            args = [values[id(c)] for c in t.children]
            assert values[id(t)] == rpar_algebra.apply(t.symbol, args)


def _agreement_instances(f1, x1, f2, x2):
    """Seeded (signature, variables, algebra, assignment) instances over
    ``f1``/``x1``, ``f2``/``x2`` and a rich two-sorted signature."""
    rng = random.Random(28)
    rich = None
    while rich is None or len(rich[0].sorts) != 2:
        rich = random_rich_signature(rng)
    for sig, vars in ((f1, x1), (f2, x2), rich):
        for _ in range(6):
            rec = random_recognizer(rng, sig, vars, max_carrier=4)
            yield sig, vars, rec.algebra, dict(rec.assignment)


# sorts s and t; no term of sort t is ground, so t's carrier may be empty
EMPTY_T = signature(["s", "t"], [("k", [], "s"), ("f", ["t"], "s"), ("h", ["t", "s"], "t")])


def reference_values(alg, assignment, term, free):
    """``algebra._values`` as it was before it held values over subspaces:
    every value that depends on a free variable is a tuple over the whole
    space, a free variable is its projection column, and a node folds its
    children's columns elementwise into one index list."""
    sizes = alg._sizes
    ops = {op.name: ([sizes[s] for s in op.arity], alg._tables[op.name]) for op in alg.signature.ops}
    space = 1
    for v in free:
        if v.sort not in sizes:
            raise ValidationError(f"variable {v.name!r} at unknown sort {v.sort!r}")
        space *= sizes[v.sort]
    if not space:
        return ()
    columns = {}
    stride = space
    for v in free:
        n = sizes[v.sort]
        stride //= n
        columns[v.name] = tuple(e // stride % n for e in range(space))
    stack = []
    for t in reversed([*_preorder(term)]):
        if t.__class__ is not Node:
            value = columns.get(HOLE if t.__class__ is Hole else t.name)
            if value is None:
                if t.__class__ is Hole:
                    raise ValidationError("cannot evaluate a context hole outside a translation")
                if t.name not in assignment:
                    raise ValidationError(f"no assignment for variable {t.name!r}")
                if t.sort not in sizes:
                    raise ValidationError(f"variable {t.name!r} at unknown sort {t.sort!r}")
                value = columns[t.name] = assignment[t.name]
                if not _member(value, sizes[t.sort]):
                    raise ValidationError(f"assignment for {t.name!r} out of carrier range")
        else:
            op = ops.get(t.symbol)
            if op is None:
                raise ValidationError(f"unknown operation {t.symbol!r}")
            radices, table = op
            if len(t.children) != len(radices):
                raise ValidationError(
                    f"{t.symbol!r} expects {len(radices)} arguments, got {len(t.children)}"
                )
            index = 0
            for n in radices:
                value = stack.pop()
                if type(index) is not list:
                    if type(value) is not tuple:
                        index = index * n + value
                    else:
                        index = [index * n + v for v in value]
                elif type(value) is not tuple:
                    index = [i * n + value for i in index]
                else:
                    index = [i * n + v for i, v in zip(index, value)]
            value = table[index] if type(index) is not list else _getter(index)(table)
        stack.append(value)
    value = stack.pop()
    return value if type(value) is tuple else (value,) * space


# sorts s and t, a ternary operation; t has no ground term, so its carrier
# may be empty
TERNARY = signature(
    ["s", "t"],
    [("a", [], "s"), ("f", ["s", "t", "s"], "s"), ("h", ["t", "s"], "t"), ("k", ["t"], "s")],
)
TERNARY_VARS = sorted_vars(TERNARY, {"s": ["x", "y", "z"], "t": ["u", "v"]})


def _random_ternary_term(rng, sort, budget):
    """A random well-sorted term over ``TERNARY`` of about ``budget`` nodes."""
    ops = [op for op in TERNARY.ops if op.result == sort]
    if budget <= 1 or rng.random() < 0.2:
        leaves = [Var(x, sort) for x in TERNARY_VARS.names(sort)]
        return rng.choice(leaves + [node(op, ()) for op in ops if not op.arity])
    op = rng.choice([op for op in ops if op.arity])
    share = (budget - 1) // len(op.arity)
    return node(op, [_random_ternary_term(rng, w, share) for w in op.arity])


def _outcome(call):
    try:
        return call()
    except ValidationError as e:
        return ValidationError, str(e)


class TestFlatEvaluation:
    """``_values``, behind ``evaluate``, ``translation_table`` and
    ``derived_algebra``, agrees with independent evaluations and checks
    each input where it reads it."""

    def test_evaluate_agrees_with_oracle(self, f1, x1, f2, x2):
        for sig, vars, alg, asg in _agreement_instances(f1, x1, f2, x2):
            for terms in enumerate_all_terms(sig, vars, 5).values():
                want = evaluate_many(alg, asg, terms)
                assert [evaluate(alg, asg, t) for t in terms] == [want[id(t)] for t in terms]

    def test_values_agree_with_full_space_reference(self):
        """``_values`` holds a value over only the free variables it
        contains and returns what the full-space pass returned, errors
        included: random terms over a two-sorted signature with a ternary
        operation, 0-3 free variables (repeated, unused and in any order),
        the other variables bound, carriers of 0-4 elements."""
        rng = random.Random(30)
        names = TERNARY_VARS.all_names()
        sort_of = TERNARY_VARS.sort_of
        nested = 0
        for _ in range(3000):
            carriers = {"s": rng.randint(1, 4), "t": rng.randint(0, 4)}
            alg = random_algebra(rng, TERNARY, carriers=carriers)
            free = [Var(x, sort_of(x)) for x in rng.choices(names, k=rng.choice((0, 1, 2, 3, 3)))]
            # every name is bound; a free one is read as free (a value 0 at
            # an empty carrier is out of range)
            asg = {x: rng.randrange(max(carriers[sort_of(x)], 1)) for x in names}
            term = _random_ternary_term(rng, rng.choice(TERNARY.sorts), rng.randint(1, 20))
            want = _outcome(lambda: reference_values(alg, asg, term, free))
            assert _outcome(lambda: _values(alg, asg, term, free)) == want
            # a node with an argument over two or more free variables
            free_names = {v.name for v in free}
            nested += bool(want) and want[0] is not ValidationError and any(
                len({v.name for v in _preorder(c) if v.__class__ is Var} & free_names) > 1
                for t in _preorder(term) if t.__class__ is Node for c in t.children
            )
        assert nested > 250

    def test_translation_table_agrees_with_plugged_evaluation(self, f1, x1, f2, x2):
        for sig, vars, alg, asg in _agreement_instances(f1, x1, f2, x2):
            for terms in enumerate_all_terms(sig, vars, 4).values():
                for term in terms:
                    for ctx, _ in leaf_contexts(term):
                        # a fresh variable takes each hole value in turn
                        plugged = apply_context(ctx, Var("w", ctx.hole_sort))
                        want = tuple(
                            evaluate(alg, {**asg, "w": q}, plugged)
                            for q in range(alg.size(ctx.hole_sort))
                        )
                        assert translation_table(alg, asg, ctx) == want

    def test_derived_tables_agree_with_pattern_evaluation(self, f1, x1, f2, x2):
        """Over ``f1``, ``f2`` and ``TERNARY``, whose ternary operation's
        pattern can hold a subterm over two of its three placeholders."""
        rng = random.Random(281)
        nested = 0
        for target, target_vars, b, b_asg in _agreement_instances(f1, x1, f2, x2):
            sources = [(f1, x1), (f2, x2)]
            # f2 has no operation that could hold several placeholders
            if target != f2:
                sources.append((TERNARY, TERNARY_VARS))
            for source, source_vars in sources:
                h = retrying(
                    lambda: random_hyperderivor(
                        rng, source, source_vars, target, target_vars, linear=False
                    ),
                    rng,
                )
                alg, _ = derived_algebra(h, b, b_asg)
                for op in source.ops:
                    names = [placeholder(i, w).name for i, w in enumerate(op.arity)]
                    pools = [range(alg.size(w)) for w in op.arity]
                    want = tuple(
                        evaluate(b, {**b_asg, **dict(zip(names, args))}, h.pattern(op.name))
                        for args in itertools.product(*pools)
                    )
                    assert alg.table(op.name) == want
                    nested += len(op.arity) == 3 and any(
                        len({v.name for v in _preorder(c) if v.__class__ is Var}) == 2
                        for t in _preorder(h.pattern(op.name)) if t.__class__ is Node
                        for c in t.children
                    )
        assert nested > 5

    def test_derived_algebra_passes_the_record_checks(self, f1, x1, f2, x2):
        """``derived_algebra`` builds its algebra without ``FiniteAlgebra``'s
        checks; its carriers and tables pass them, into an equal algebra."""
        rng = random.Random(283)
        for target, target_vars, b, b_asg in _agreement_instances(f1, x1, f2, x2):
            for source, source_vars in ((f1, x1), (f2, x2)):
                h = retrying(
                    lambda: random_hyperderivor(
                        rng, source, source_vars, target, target_vars, linear=False
                    ),
                    rng,
                )
                alg, _ = derived_algebra(h, b, b_asg)
                checked = finite_algebra(source, dict(alg.carriers), dict(alg.tables))
                assert checked == alg and hash(checked) == hash(alg)

    def test_empty_carrier_gives_empty_tables(self):
        alg = finite_algebra(EMPTY_T, {"s": 2, "t": 0}, {"k": [1], "f": [], "h": []})
        vars = sorted_vars(EMPTY_T, {"s": ["x"]})
        assert translation_table(alg, {"x": 0}, parse_context("f(@)", EMPTY_T, vars)) == ()
        assert evaluate(alg, {"x": 0}, parse_term("k", EMPTY_T, vars)) == 1
        # the identity patterns f(v0) and h(v0,v1) take a placeholder at t
        h = hom_to_hyperderivor(EMPTY_T, vars, vars, {"x": Var("x", "s")})
        derived, _ = derived_algebra(h, alg, {"x": 0})
        assert derived.tables == alg.tables
        assert derived.table("f") == derived.table("h") == ()

    C = Node("c", (), "s", 1)
    MALFORMED = {
        "one-child-too-many": (Node("g", (C, C), "s", 3), ASG, "'g' expects 1 arguments, got 2"),
        "one-child-too-few": (Node("sigma", (C,), "s", 2), ASG, "'sigma' expects 2 arguments, got 1"),
        "negative-value": (Var("x", "s"), {"x": -1}, "assignment for 'x' out of carrier range"),
        "value-at-size": (Var("x", "s"), {"x": 2}, "assignment for 'x' out of carrier range"),
        "fractional-value": (Var("x", "s"), {"x": 0.5}, "assignment for 'x' out of carrier range"),
        "bool-value": (Var("x", "s"), {"x": True}, "assignment for 'x' out of carrier range"),
        "unknown-sort": (Var("y", "t"), {"y": 0}, "variable 'y' at unknown sort 't'"),
        "unassigned": (Var("y", "s"), ASG, "no assignment for variable 'y'"),
        "unknown-operation": (Node("h", (), "s", 1), ASG, "unknown operation 'h'"),
        "hole": (
            Node("g", (Hole("s"),), "s", 2), ASG,
            "cannot evaluate a context hole outside a translation",
        ),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_input_is_named(self, rpar_algebra, case):
        """Each fault raises its own ``ValidationError``, as the term's root
        and under a node, where no value or bare ``IndexError`` comes back."""
        term, asg, message = self.MALFORMED[case]
        under = Node("g", (term,), "s", 1 + term.size)
        under = Node("sigma", (under, self.C), "s", 2 + under.size)
        for t in (term, under):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                evaluate(rpar_algebra, asg, t)

    def test_malformed_context_is_named(self, rpar_algebra):
        body = Node("sigma", (Node("g", (self.C, Hole("s")), "s", 3), self.C), "s", 5)
        ctx = core.Context._of(body, "s", "s")
        with pytest.raises(ValidationError, match="^'g' expects 1 arguments, got 2$"):
            translation_table(rpar_algebra, ASG, ctx)
        with pytest.raises(ValidationError, match="^variable '@' at unknown sort 't'$"):
            translation_table(rpar_algebra, ASG, core.Context._of(Hole("t"), "t", "t"))

    def test_bound_value_checked_once_per_name(self, f1, x1, rpar_algebra):
        reads = []

        class Counting(dict):
            def __getitem__(self, name):
                reads.append(name)
                return super().__getitem__(name)

        term = parse_term("sigma(x,sigma(z,sigma(x,g(x))))", f1, x1)
        want = evaluate_many(rpar_algebra, ASG, [term])[id(term)]
        assert evaluate(rpar_algebra, Counting(ASG), term) == want
        assert sorted(reads) == ["x", "z"]

    def test_translation_table_builds_no_term(self, f1, x1, r_par, monkeypatch):
        """The hole is read in place: no node is built, through
        ``apply_context`` or otherwise."""
        built = []
        new_node = core._new_node
        monkeypatch.setattr(core, "_new_node", lambda *args: built.append(args) or new_node(*args))
        ctx = parse_context("sigma(g(@),sigma(x,c))", f1, x1)
        built.clear()
        assert inverse_translation(r_par, ctx).accepting_at("s") == {1}
        assert built == []
        # a positive control: plugging the context builds its nodes
        apply_context(ctx, Var("x", "s"))
        assert len(built) == 4


class TestProduct:
    def test_sizes(self, rpar_algebra):
        prod, _ = product_algebra([rpar_algebra, rpar_algebra])
        assert prod.size("s") == 4

    def test_componentwise_evaluation(self, f1, x1, rpar_algebra):
        prod, projs = product_algebra([rpar_algebra, rpar_algebra])
        paired = {x: ASG[x] * 2 + ASG[x] for x in ASG}
        for t in enumerate_terms(f1, x1, "s", 5):
            e = evaluate(prod, paired, t)
            v = evaluate(rpar_algebra, ASG, t)
            assert projs[0]["s"][e] == v and projs[1]["s"][e] == v

    def test_single_component(self, rpar_algebra):
        prod, projs = product_algebra([rpar_algebra])
        assert prod.tables == rpar_algebra.tables
        assert projs[0]["s"] == (0, 1)

    def test_signature_mismatch(self, rpar_algebra, f2):
        other = finite_algebra(
            f2, {"e": 1, "b": 1}, {"zero": [0], "succ": [0], "iszero": [0]}
        )
        with pytest.raises(ValidationError):
            product_algebra([rpar_algebra, other])


class TestGenerated:
    def test_flip_reaches_all(self, rpar_algebra):
        assert generated_subalgebra(rpar_algebra, {"s": [0]})["s"] == frozenset({0, 1})

    def test_full_seed_is_fixed(self, rpar_algebra):
        full = {"s": [0, 1]}
        assert generated_subalgebra(rpar_algebra, full)["s"] == frozenset({0, 1})

    def test_f2_one_step(self, f2):
        alg = finite_algebra(
            f2, {"e": 1, "b": 2}, {"zero": [0], "succ": [0], "iszero": [1]}
        )
        out = generated_subalgebra(alg, {"e": [0], "b": []})
        assert out == {"e": frozenset({0}), "b": frozenset({1})}

    def test_closure_operator_laws(self):
        rng = random.Random(11)
        for _ in range(25):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig)
            carriers = dict(alg.carriers)
            seed = {
                s: sorted(rng.sample(range(n), rng.randint(0, n))) for s, n in carriers.items()
            }
            closed = generated_subalgebra(alg, seed)
            # extensive
            assert all(set(seed[s]) <= closed[s] for s in carriers)
            # idempotent
            again = generated_subalgebra(alg, {s: sorted(closed[s]) for s in closed})
            assert again == closed
            # monotone
            bigger_seed = {
                s: sorted(set(seed[s]) | ({0} if carriers[s] else set()))
                for s in carriers
            }
            bigger = generated_subalgebra(alg, bigger_seed)
            assert all(closed[s] <= bigger[s] for s in carriers)


class TestQuotient:
    def test_identity_partition(self, rpar_algebra):
        q, proj = quotient_algebra(rpar_algebra, identity_partition(rpar_algebra))
        assert q.carriers == rpar_algebra.carriers
        assert q.tables == rpar_algebra.tables

    def test_all_in_one(self, rpar_algebra):
        q, _ = quotient_algebra(rpar_algebra, all_in_one_partition(rpar_algebra))
        assert q.size("s") == 1

    def test_parity_partition_is_itself(self, rpar_algebra):
        q, _ = quotient_algebra(rpar_algebra, partition(["s"], {"s": [0, 1]}))
        assert q.tables == rpar_algebra.tables

    def test_non_congruence_rejected(self):
        sig = signature(["s"], [("g", ["s"], "s")])
        alg = finite_algebra(sig, {"s": 3}, {"g": [0, 2, 2]})
        with pytest.raises(ValidationError):
            quotient_algebra(alg, partition(["s"], {"s": [0, 0, 1]}))


class TestSubsetAlgebra:
    def test_elementwise_image(self, rpar_algebra):
        sa = subset_algebra(rpar_algebra)
        assert sa.apply("sigma", [0b11, 0b01]) == 0b11

    def test_singleton_homomorphism(self, rpar_algebra):
        sa = subset_algebra(rpar_algebra)
        embed = singleton_embedding(rpar_algebra)
        for op in rpar_algebra.signature.ops:
            pools = [range(rpar_algebra.size(s)) for s in op.arity]
            for args in itertools.product(*pools):
                masks = [embed[s][a] for s, a in zip(op.arity, args)]
                assert sa.apply(op.name, masks) == embed[op.result][
                    rpar_algebra.apply(op.name, args)
                ]

    def test_empty_argument_gives_empty(self, rpar_algebra):
        sa = subset_algebra(rpar_algebra)
        assert sa.apply("sigma", [0, 0b11]) == 0
        assert sa.apply("g", [0]) == 0

    def test_guard(self):
        sig = signature(["s"], [("k", [], "s")])
        alg = finite_algebra(sig, {"s": 13}, {"k": [0]})
        with pytest.raises(ValidationError):
            subset_algebra(alg)

    def test_term_level_naturality(self, f1, x1, rpar_algebra):
        # evaluating in the subset algebra with singleton leaves equals the
        # singleton of the base evaluation, terms <= 5 nodes
        sa = subset_algebra(rpar_algebra)
        embed = singleton_embedding(rpar_algebra)
        mask_asg = {x: embed["s"][v] for x, v in ASG.items()}
        universe = enumerate_terms(f1, x1, "s", 5)
        base = evaluate_many(rpar_algebra, ASG, universe)
        lifted = evaluate_many(sa, mask_asg, universe)
        for t in universe:
            assert lifted[id(t)] == embed["s"][base[id(t)]]


class TestTranslationTable:
    def test_flip(self, f1, x1, rpar_algebra):
        assert translation_table(rpar_algebra, ASG, parse_context("g(@)", f1, x1)) == (1, 0)

    def test_identity(self, f1, x1, rpar_algebra):
        from treelang.core import hole_context

        assert translation_table(rpar_algebra, ASG, hole_context("s")) == (0, 1)

    def test_xor_with_z(self, f1, x1, rpar_algebra):
        assert translation_table(
            rpar_algebra, ASG, parse_context("sigma(@,z)", f1, x1)
        ) == (1, 0)

    def test_composition_is_table_composition(self, f1, x1, rpar_algebra):
        from treelang.core import compose_contexts

        outer = parse_context("g(@)", f1, x1)
        inner = parse_context("sigma(@,z)", f1, x1)
        t_outer = translation_table(rpar_algebra, ASG, outer)
        t_inner = translation_table(rpar_algebra, ASG, inner)
        t_both = translation_table(rpar_algebra, ASG, compose_contexts(outer, inner))
        assert t_both == tuple(t_outer[v] for v in t_inner)

    def test_matches_oracle_on_carved_contexts(self, f1, x1, f2, x2, rpar_algebra):
        # a context's table at the removed leaf's value is the whole term's
        # value, for every context carved from a term of at most 5 nodes
        two_sorted = random_recognizer(random.Random(12), f2, x2, max_carrier=4)
        cases = [
            (f1, x1, rpar_algebra, ASG),
            (f2, x2, two_sorted.algebra, dict(two_sorted.assignment)),
        ]
        for sig, vars, alg, asg in cases:
            for terms in enumerate_all_terms(sig, vars, 5).values():
                values = evaluate_many(alg, asg, terms)
                for term in terms:
                    for ctx, leaf in leaf_contexts(term):
                        table = translation_table(alg, asg, ctx)
                        assert table[values[id(leaf)]] == values[id(term)]


class TestValidation:
    def test_table_length(self, f1):
        with pytest.raises(ValidationError):
            finite_algebra(f1, {"s": 2}, {"c": [0], "g": [1], "sigma": [0] * 4})

    def test_table_range(self, f1):
        with pytest.raises(ValidationError):
            finite_algebra(f1, {"s": 2}, {"c": [2], "g": [0, 1], "sigma": [0] * 4})

    @pytest.mark.parametrize(
        "carriers, tables, message",
        [
            ({}, {"c": [0], "g": [1, 0], "sigma": [0] * 4},
             "carriers must list every sort in signature order"),
            ({"s": 2}, {"c": [0], "sigma": [0] * 4},
             "tables must list every operation in signature order"),
        ],
        ids=["missing-carrier", "missing-table"],
    )
    def test_builder_missing_key(self, f1, carriers, tables, message):
        # a key the builder's mapping lacks is the record's error, not a KeyError
        with pytest.raises(ValidationError, match=f"^{message}$"):
            finite_algebra(f1, carriers, tables)

    APPLY = {
        "too-few": ("sigma", [1], "'sigma' expects 2 arguments, got 1"),
        "too-many": ("g", [0, 1, 1], "'g' expects 1 arguments, got 3"),
        "negative": ("g", [-1], "argument -1 out of carrier range at sort 's'"),
        "at-size": ("g", [5], "argument 5 out of carrier range at sort 's'"),
        "fractional": ("sigma", [0, 0.5], "argument 0.5 out of carrier range at sort 's'"),
        "bool": ("g", [True], "argument True out of carrier range at sort 's'"),
    }

    @pytest.mark.parametrize("case", APPLY)
    def test_apply_checks_its_arguments(self, rpar_algebra, case):
        opname, args, message = self.APPLY[case]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            rpar_algebra.apply(opname, args)
        assert rpar_algebra.apply("sigma", [1, 1]) == 0

    @pytest.mark.parametrize("value", [-1, 2, 0.5, True, "0", None])
    def test_assignment_values_are_carrier_elements(self, x1, rpar_algebra, value):
        with pytest.raises(ValidationError, match="^assignment for 'x' out of carrier range$"):
            check_assignment(rpar_algebra, x1, {"x": value, "z": 0})
        check_assignment(rpar_algebra, x1, {"x": 1, "z": 0})

    def test_empty_carrier_permitted(self):
        sig = signature(["s", "t"], [("k", [], "s"), ("f", ["t"], "s")])
        alg = finite_algebra(sig, {"s": 1, "t": 0}, {"k": [0], "f": []})
        assert alg.size("t") == 0
        assert generated_subalgebra(alg, {"s": [0], "t": []})["t"] == frozenset()


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "negative-carrier": (
        lambda fx: finite_algebra(fx("f1"), {"s": -1}, {"c": [0], "g": [], "sigma": []}),
        ValidationError, "carrier sizes must be nonnegative",
    ),
    "empty-product": (
        lambda fx: product_algebra([]), ValidationError, "product of an empty family is not supported"
    ),
    **non_element_branches(
        "seed",
        lambda fx, v: generated_subalgebra(fx("rpar_algebra"), {"s": [0, v]}),
        "seed element {v} out of range at sort 's'",
    ),
    **non_element_branches(
        "restricted-element",
        lambda fx, v: restrict_algebra(fx("rpar_algebra"), {"s": [0, 1, v]}),
        "element {v} out of range at sort 's'",
    ),
    **non_element_branches(
        "table-entry",
        lambda fx, v: finite_algebra(fx("f1"), {"s": 2}, {"c": [v], "g": [1, 0], "sigma": [0] * 4}),
        "table for 'c': entry {v} out of range at sort 's'",
    ),
    # -1 is "negative-carrier", and 2 is a size
    **non_element_branches(
        "carrier-size",
        lambda fx, v: finite_algebra(fx("f1"), {"s": v}, {"c": [0], "g": [0], "sigma": [0]}),
        "carrier size {v} out of range at sort 's'",
        kinds=["fractional", "bool", "string"],
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
