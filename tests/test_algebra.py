import itertools
import random

import pytest

from treelang.algebra import (
    evaluate,
    finite_algebra,
    generated_subalgebra,
    product_algebra,
    quotient_algebra,
    subset_algebra,
    translation_table,
)
from treelang.congruence import all_in_one_partition, identity_partition, partition
from treelang.core import (
    ValidationError,
    enumerate_all_terms,
    enumerate_terms,
    parse_context,
    parse_term,
    signature,
)
from treelang.oracle import evaluate_many

from conftest import leaf_contexts, random_algebra, random_recognizer, random_signature


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

    def test_empty_carrier_permitted(self):
        sig = signature(["s", "t"], [("k", [], "s"), ("f", ["t"], "s")])
        alg = finite_algebra(sig, {"s": 1, "t": 0}, {"k": [0], "f": []})
        assert alg.size("t") == 0
        assert generated_subalgebra(alg, {"s": [0], "t": []})["t"] == frozenset()
