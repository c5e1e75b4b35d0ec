import random

import pytest

from treelang.algebra import finite_algebra, quotient_algebra
from treelang.congruence import (
    SortedPartition,
    all_in_one_partition,
    cogenerated_congruence,
    identity_partition,
    is_congruence,
    kernel_of_subset,
    meet_partitions,
    partition,
    refines,
    saturate,
    syntactic_congruence,
)
from treelang.core import ValidationError, signature

from conftest import (
    all_sorted_partitions,
    check_branch,
    non_element_branches,
    random_algebra,
    random_signature,
)


@pytest.fixture
def alg3():
    sig = signature(["s"], [("g", ["s"], "s")])
    return finite_algebra(sig, {"s": 3}, {"g": [0, 2, 2]})


def random_subset(rng, alg):
    return {
        s: frozenset(e for e in range(n) if rng.random() < 0.5) for s, n in alg.carriers
    }


def random_partition(rng, alg):
    classes = {}
    for s, n in alg.carriers:
        ids = [rng.randrange(max(1, n)) for _ in range(n)]
        classes[s] = ids
    return partition(alg.signature.sorts, classes)


def reference_refines(finer, coarser):
    """``refines`` by its earlier loop: each finer class keeps the coarser
    class of its first element, and every later element must share it."""
    coarse = dict(coarser.classes)
    for sort, ids in finer.classes:
        seen: dict[int, int] = {}
        for e, c in enumerate(ids):
            target = coarse[sort][e]
            if c in seen:
                if seen[c] != target:
                    return False
            else:
                seen[c] = target
    return True


def refinement_algebras(rng):
    """Ten random algebras of at most three elements per sort, then a
    two-sorted one with an empty carrier at ``t``."""
    for _ in range(10):
        sig, _ = random_signature(rng)
        yield random_algebra(rng, sig, max_carrier=3)
    ops = [("c", [], "s"), ("g", ["s"], "s"), ("f", ["s", "t"], "t"), ("h", ["t"], "s")]
    yield random_algebra(rng, signature(["s", "t"], ops), carriers={"s": 3, "t": 0})


class TestIsCongruence:
    def test_parity_identity(self, rpar_algebra):
        ok, _ = is_congruence(rpar_algebra, identity_partition(rpar_algebra))
        assert ok

    def test_nabla_always(self, rpar_algebra):
        ok, _ = is_congruence(rpar_algebra, all_in_one_partition(rpar_algebra))
        assert ok

    def test_witness(self, alg3):
        ok, witness = is_congruence(alg3, partition(["s"], {"s": [0, 0, 1]}))
        assert not ok
        opname, args1, args2 = witness
        assert opname == "g" and {args1[0], args2[0]} == {0, 1}


class TestCogenerated:
    def test_congruence_unchanged(self, rpar_algebra):
        phi = partition(["s"], {"s": [0, 1]})
        assert cogenerated_congruence(rpar_algebra, phi) == phi

    def test_delta_and_nabla_fixed(self, rpar_algebra, alg3):
        for alg in (rpar_algebra, alg3):
            delta = identity_partition(alg)
            nabla = all_in_one_partition(alg)
            assert cogenerated_congruence(alg, delta) == delta
            assert cogenerated_congruence(alg, nabla) == nabla

    def test_forced_split(self, alg3):
        out = cogenerated_congruence(alg3, partition(["s"], {"s": [0, 0, 1]}))
        assert dict(out.classes)["s"] == (0, 1, 2)

    def test_non_canonical_input_gives_canonical_classes(self):
        """Hand-built ids may be contiguous without being numbered by first
        occurrence; the result is canonical at every sort, including a sort
        that does not split, a discrete sort and an empty one."""
        sig = signature(
            ["a", "d", "e"],
            [("g", ["a"], "a"), ("h", ["d", "d"], "d"), ("w", ["a", "e"], "e")],
        )
        alg = finite_algebra(
            sig, {"a": 3, "d": 3, "e": 0}, {"g": [0, 1, 2], "h": [0, 1, 2] * 3, "w": []}
        )
        phi = SortedPartition(
            (("a", (1, 0, 1)), ("d", (2, 0, 1)), ("e", ())), (("a", 2), ("d", 3), ("e", 0))
        )
        out = cogenerated_congruence(alg, phi)
        assert repr(out) == repr(partition(sig.sorts, dict(out.classes)))
        assert out.classes == (("a", (0, 1, 0)), ("d", (0, 1, 2)), ("e", ()))

    def test_greatest_congruence_below(self):
        # brute force: the output must be a congruence, refine the input, and
        # be refined by every congruence refining the input
        rng = random.Random(23)
        cases = []
        for _ in range(20):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=3)
            cases.append((alg, random_partition(rng, alg)))
        # a ternary operation whose middle sort has runs of 3 entries, 9 apart,
        # and whose outer sorts differ in size; and an empty carrier, which
        # empties the tables of the operations taking it
        sig = signature(
            ["a", "b", "c", "e"],
            [
                ("k", [], "a"),
                ("j", [], "b"),
                ("l", [], "c"),
                ("m", ["b", "a", "c"], "a"),
                ("w", ["a", "e"], "a"),
                ("v", ["e"], "e"),
            ],
        )
        for _ in range(40):
            alg = random_algebra(rng, sig, carriers={"a": 3, "b": 2, "c": 3, "e": 0})
            cases.append((alg, random_partition(rng, alg)))
        for alg, phi in cases:
            omega = cogenerated_congruence(alg, phi)
            assert is_congruence(alg, omega)[0]
            assert refines(omega, phi)
            for psi in all_sorted_partitions(alg):
                if refines(psi, phi) and is_congruence(alg, psi)[0]:
                    assert refines(psi, omega)


class TestPartitionSize:
    def test_mismatch_rejected_everywhere(self, alg3):
        fits = partition(["s"], {"s": [0, 0, 1]})
        # too long and too short for the 3-element carrier
        cases = [(partition(["s"], {"s": ids}), "partition size mismatch at sort 's'")
                 for ids in ([0, 1, 2, 3], [0, 1])]
        # over a sort the algebra lacks, without or beside its own
        cases += [
            (partition(["t"], {"t": [0, 1, 2]}), r"partition sorts \['t'\] differ from carrier sorts \['s'\]"),
            (partition(["s", "t"], {"s": [0, 0, 1], "t": [0]}), r"partition sorts \['s', 't'\] differ"),
        ]
        for phi, message in cases:
            for check in (cogenerated_congruence, is_congruence, quotient_algebra):
                with pytest.raises(ValidationError, match=message):
                    check(alg3, phi)
            with pytest.raises(ValidationError, match=message):
                refines(phi, fits)
        with pytest.raises(ValidationError, match=r"partition sorts \['s'\] differ from carrier sorts \['t'\]"):
            refines(fits, cases[2][0])


class TestSyntactic:
    def test_parity(self, rpar_algebra):
        out = syntactic_congruence(rpar_algebra, {"s": frozenset({0})})
        assert dict(out.classes)["s"] == (0, 1)

    def test_full_subset_gives_nabla(self, rpar_algebra):
        out = syntactic_congruence(rpar_algebra, {"s": frozenset({0, 1})})
        assert out == all_in_one_partition(rpar_algebra)

    def test_complement_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=3)
            subset = random_subset(rng, alg)
            complement = {
                s: frozenset(set(range(n)) - subset[s]) for s, n in alg.carriers
            }
            assert syntactic_congruence(alg, subset) == syntactic_congruence(
                alg, complement
            )

    def test_saturates_and_is_greatest(self):
        rng = random.Random(17)
        for _ in range(12):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=3)
            subset = random_subset(rng, alg)
            omega = syntactic_congruence(alg, subset)
            assert saturate(omega, subset) == subset
            kernel = kernel_of_subset(alg, subset)
            for psi in all_sorted_partitions(alg):
                if is_congruence(alg, psi)[0] and refines(psi, kernel):
                    assert refines(psi, omega)


class TestSaturate:
    def test_delta_fixes_everything(self, rpar_algebra):
        delta = identity_partition(rpar_algebra)
        subset = {"s": frozenset({1})}
        assert saturate(delta, subset) == subset

    def test_nabla_fills_support(self, rpar_algebra):
        nabla = all_in_one_partition(rpar_algebra)
        assert saturate(nabla, {"s": frozenset({1})}) == {"s": frozenset({0, 1})}
        assert saturate(nabla, {"s": frozenset()}) == {"s": frozenset()}

    def test_class_union(self):
        phi = partition(["s"], {"s": [0, 0, 1]})
        assert saturate(phi, {"s": frozenset({0})}) == {"s": frozenset({0, 1})}

    def test_closure_operator_laws(self):
        rng = random.Random(29)
        for _ in range(40):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=4)
            phi = random_partition(rng, alg)
            a = random_subset(rng, alg)
            b = random_subset(rng, alg)
            sa = saturate(phi, a)
            # extensive, idempotent
            assert all(a[s] <= sa[s] for s in sa)
            assert saturate(phi, sa) == sa
            # monotone
            union = {s: a[s] | b[s] for s in a}
            su = saturate(phi, union)
            assert all(sa[s] <= su[s] for s in sa)
            # completely additive
            sb = saturate(phi, b)
            assert su == {s: sa[s] | sb[s] for s in sa}

    def test_meet_saturation_bound(self):
        # saturate(meet(phi,psi), X) <= saturate(phi,X) & saturate(psi,X)
        rng = random.Random(31)
        for _ in range(40):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=4)
            phi = random_partition(rng, alg)
            psi = random_partition(rng, alg)
            x = random_subset(rng, alg)
            met = saturate(meet_partitions(phi, psi), x)
            both = saturate(phi, x)
            other = saturate(psi, x)
            assert all(met[s] <= both[s] & other[s] for s in met)

    def test_refinement_characterization(self):
        # phi refines psi iff saturating a psi-saturated set with phi is a
        # fixpoint; and refines agrees with its earlier loop on every pair
        rng = random.Random(37)
        for alg in refinement_algebras(rng):
            phi = random_partition(rng, alg)
            psi = random_partition(rng, alg)
            lhs = refines(phi, psi)
            rhs = all(
                saturate(phi, saturate(psi, subset)) == saturate(psi, subset)
                for subset in _all_subsets(alg)
            )
            assert lhs == rhs
            partitions = list(all_sorted_partitions(alg))
            for a in partitions:
                for b in partitions:
                    assert refines(a, b) == reference_refines(a, b)


def _all_subsets(alg):
    import itertools

    sorts = alg.signature.sorts
    pools = []
    for s in sorts:
        n = alg.size(s)
        pools.append([frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)])
    for combo in itertools.product(*pools):
        yield dict(zip(sorts, combo))


class TestSaturationVsRefinement:
    def test_saturates_iff_refines_syntactic(self):
        # for a congruence, fixing the subset under saturation is the same as
        # refining the subset's syntactic congruence (both directions)
        rng = random.Random(43)
        for _ in range(12):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=3)
            subset = random_subset(rng, alg)
            omega = syntactic_congruence(alg, subset)
            for psi in all_sorted_partitions(alg):
                if not is_congruence(alg, psi)[0]:
                    continue
                fixes = saturate(psi, subset) == subset
                assert fixes == refines(psi, omega)

    def test_inverse_translation_monotone(self):
        # the syntactic congruence of a language refines that of any of its
        # translation preimages
        from treelang.algebra import translation_table

        from conftest import random_context, random_recognizer

        rng = random.Random(47)
        done = 0
        while done < 20:
            sig, vars = random_signature(rng)
            rec = random_recognizer(rng, sig, vars, max_carrier=3)
            ctx = random_context(rng, sig, vars)
            if ctx is None:
                continue
            alg = rec.algebra
            subset = {s: rec.accepting_at(s) for s in sig.sorts}
            table = translation_table(alg, dict(rec.assignment), ctx)
            preimage = {
                s: frozenset(
                    q for q, v in enumerate(table) if v in subset[ctx.root_sort]
                )
                if s == ctx.hole_sort
                else frozenset()
                for s in sig.sorts
            }
            assert refines(
                syntactic_congruence(alg, subset),
                syntactic_congruence(alg, preimage),
            )
            done += 1


class TestMeet:
    def test_meet_with_nabla(self, rpar_algebra):
        phi = partition(["s"], {"s": [0, 1]})
        assert meet_partitions(phi, all_in_one_partition(rpar_algebra)) == phi

    def test_meet_idempotent(self, rpar_algebra):
        phi = partition(["s"], {"s": [0, 1]})
        assert meet_partitions(phi, phi) == phi

    def test_block_intersection(self):
        a = partition(["s"], {"s": [0, 0, 1]})
        b = partition(["s"], {"s": [0, 1, 1]})
        assert dict(meet_partitions(a, b).classes)["s"] == (0, 1, 2)

    def test_meet_of_congruences_is_congruence(self):
        rng = random.Random(41)
        for _ in range(15):
            sig, _ = random_signature(rng)
            alg = random_algebra(rng, sig, max_carrier=3)
            congs = [
                p for p in all_sorted_partitions(alg) if is_congruence(alg, p)[0]
            ]
            phi = rng.choice(congs)
            psi = rng.choice(congs)
            met = meet_partitions(phi, psi)
            assert is_congruence(alg, met)[0]
            assert all(
                met.index(s) <= phi.index(s) * psi.index(s)
                for s in alg.signature.sorts
            )


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "class-ids-out-of-range": (
        lambda fx: SortedPartition((("s", (0, 2)),), (("s", 2),)),
        ValidationError, "class ids out of range at sort 's'",
    ),
    "class-ids-not-contiguous": (
        lambda fx: SortedPartition((("s", (0, 0)),), (("s", 2),)),
        ValidationError, "class ids not contiguous at sort 's'",
    ),
    "meet-other-sorts": (
        lambda fx: meet_partitions(partition(["s"], {"s": [0]}), partition(["t"], {"t": [0]})),
        ValidationError, "partitions are over different sort sets",
    ),
    "meet-other-sizes": (
        lambda fx: meet_partitions(partition(["s"], {"s": [0]}), partition(["s"], {"s": [0, 0]})),
        ValidationError, "carrier size mismatch at sort 's'",
    ),
    **non_element_branches(
        "class-id",
        lambda fx, v: SortedPartition((("s", (0, 1, v)),), (("s", 2),)),
        "class ids out of range at sort 's'",
    ),
    # 2 is a count
    **non_element_branches(
        "partition-count",
        lambda fx, v: SortedPartition((("s", (0, 1)),), (("s", v),)),
        "partition count {v} out of range at sort 's'",
        kinds=["negative", "fractional", "bool", "string"],
    ),
    **non_element_branches(
        "saturated-subset",
        lambda fx, v: saturate(partition(["s"], {"s": [0, 1]}), {"s": {0, v}}),
        "subset element {v} out of range at sort 's'",
    ),
    **non_element_branches(
        "syntactic-subset",
        lambda fx, v: syntactic_congruence(fx("rpar_algebra"), {"s": {0, v}}),
        "subset element {v} out of range at sort 's'",
    ),
    "saturated-subset-unknown-sort": (
        lambda fx: saturate(partition(["s"], {"s": [0, 1]}), {"t": {0}}),
        ValidationError, "subset element at unknown sort 't'",
    ),
    "syntactic-subset-unknown-sort": (
        lambda fx: syntactic_congruence(fx("rpar_algebra"), {"t": frozenset()}),
        ValidationError, "subset element at unknown sort 't'",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
