import random

import pytest

from treelang.algebra import finite_algebra
from treelang.core import Node, ValidationError, Var, parse_term, print_term, signature, sorted_vars
from treelang.derivor import (
    Derivor,
    HallTerm,
    apply_derivor_term,
    compose_derivors,
    derived_algebra_derivor,
    derivor,
    derivor_to_hyperderivor,
    hall_term,
    identity_derivor,
    projection,
    xi_substitute,
)
from treelang.treehom import Hyperderivor, placeholder

from conftest import (
    PatternImpossible,
    check_branch,
    random_derivor,
    random_hall_term,
    random_rich_signature,
    random_signature,
)


class TestProjection:
    def test_examples(self):
        p = projection(["s", "s"], 1)
        assert print_term(p.term) == "v1" and p.sort == "s"
        q = projection(["e", "b"], 0)
        assert q.sort == "e" and q.arity == ("e", "b")

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            projection(["s"], 3)


class TestXiSubstitute:
    def test_hand_example(self, f1, x1):
        p = hall_term(
            Node("sigma", (placeholder(0, "s"), Node("g", (placeholder(1, "s"),), "s", 2)), "s", 4),
            ["s", "s"],
            "s",
        )
        qs = [
            hall_term(parse_term("c", f1, x1), ["s"], "s"),
            hall_term(placeholder(0, "s"), ["s"], "s"),
        ]
        out = xi_substitute(p, qs)
        assert print_term(out.term) == "sigma(c,g(v0))"
        assert out.arity == ("s",) and out.sort == "s"

    def test_rank_mismatch(self, f1, x1):
        p = hall_term(placeholder(0, "s"), ["s"], "s")
        with pytest.raises(ValidationError):
            xi_substitute(p, [])

    def test_projection_law(self, f1, x1):
        qs = [
            hall_term(parse_term("g(v0)", f1, _vars_v0(f1)), ["s"], "s"),
            hall_term(parse_term("c", f1, x1), ["s"], "s"),
        ]
        for i in range(2):
            assert xi_substitute(projection(["s", "s"], i), qs) == qs[i]

    def test_identity_law(self, f1):
        p = random_hall_term(random.Random(5), f1, ["s", "s"], "s")
        identities = [
            hall_term(placeholder(i, "s"), ["s", "s"], "s") for i in range(2)
        ]
        assert xi_substitute(p, identities) == p


def _vars_v0(sig):
    from treelang.core import sorted_vars

    return sorted_vars(sig, {"s": ["v0"]})


class TestHallAxioms:
    def test_axioms_random(self, f1, f2):
        rng = random.Random(99)
        for _ in range(150):
            sig = rng.choice([f1, f2])
            sorts = sig.sorts
            w = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
            u = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
            s = rng.choice(sorts)
            try:
                p = random_hall_term(rng, sig, w, s)
                qs = [random_hall_term(rng, sig, v, wi) for wi in w]
                rs = [random_hall_term(rng, sig, u, vi) for vi in v]
            except Exception:
                continue
            # H1 projection
            for i in range(len(w)):
                assert xi_substitute(projection(w, i), qs) == qs[i]
            # H2 identity
            ident = [hall_term(placeholder(i, wi), w, wi) for i, wi in enumerate(w)]
            assert xi_substitute(p, ident) == p
            # H3 associativity
            left = xi_substitute(xi_substitute(p, qs), rs, u)
            right = xi_substitute(p, [xi_substitute(q, rs, u) for q in qs], u)
            assert left == right

    def test_constant_invariance(self, f1, x1):
        # from H3 with an empty inner word: substituting into a constant
        # pattern changes nothing but the rank
        const = hall_term(parse_term("g(c)", f1, x1), [], "s")
        lifted = xi_substitute(const, [], ["s", "s"])
        assert lifted.term == const.term and lifted.arity == ("s", "s")


class TestDerivorChecks:
    def test_ill_sorted_child_rejected(self, f1):
        target = signature(
            ["e", "b"], [("zero", [], "e"), ("succ", ["e"], "e"), ("t", [], "b")]
        )
        zero = Node("zero", (), "e", 1)
        succ_t = Node("succ", (Node("t", (), "b", 1),), "e", 2)
        with pytest.raises(ValidationError, match="pattern for 'g'"):
            derivor(
                f1,
                target,
                {"s": "e"},
                {
                    "c": hall_term(zero, [], "e"),
                    "g": hall_term(succ_t, ["e"], "e"),
                    "sigma": hall_term(zero, ["e", "e"], "e"),
                },
            )


class TestApplyDerivorTerm:
    def test_identity(self, f2, d1):
        ident = identity_derivor(f2)
        ht = random_hall_term(random.Random(1), f2, ["e"], "b")
        out = apply_derivor_term(ident, ht)
        assert out == ht

    def test_worked_example(self, d1):
        ht = hall_term(
            Node("iszero", (Node("succ", (placeholder(0, "e"),), "e", 2),), "b", 3),
            ["e"],
            "b",
        )
        out = apply_derivor_term(d1, ht)
        assert print_term(out.term) == "sigma(g(v0),c)"
        assert out.arity == ("s",) and out.sort == "s"

    def test_placeholder_stays(self, d1):
        ht = hall_term(placeholder(0, "e"), ["e"], "e")
        out = apply_derivor_term(d1, ht)
        assert print_term(out.term) == "v0" and out.sort == "s"

    def test_commutes_with_xi(self, f1, f2, d1):
        rng = random.Random(31)
        for _ in range(60):
            w = tuple(rng.choice(f2.sorts) for _ in range(rng.randint(1, 2)))
            u = tuple(rng.choice(f2.sorts) for _ in range(rng.randint(1, 2)))
            s = rng.choice(f2.sorts)
            p = random_hall_term(rng, f2, w, s)
            qs = [random_hall_term(rng, f2, u, wi) for wi in w]
            left = apply_derivor_term(d1, xi_substitute(p, qs))
            right = xi_substitute(
                apply_derivor_term(d1, p),
                [apply_derivor_term(d1, q) for q in qs],
                tuple(d1.sort_image(t) for t in u),
            )
            assert left == right


class TestCompose:
    def test_identity_neutral(self, f1, f2, d1):
        left = compose_derivors(identity_derivor(f1), d1)
        right = compose_derivors(d1, identity_derivor(f2))
        for op in f2.ops:
            assert left.pattern(op.name) == d1.pattern(op.name)
            assert right.pattern(op.name) == d1.pattern(op.name)

    def test_worked_example(self, d1, d2):
        comp = compose_derivors(d2, d1)
        assert print_term(comp.pattern("succ").term) == "g(g(v0))"

    def test_associativity_random(self):
        rng = random.Random(63)
        for _ in range(25):
            a, _ = random_signature(rng)
            b, _ = random_rich_signature(rng)
            c, _ = random_rich_signature(rng)
            d, _ = random_rich_signature(rng)
            d1_ = random_derivor(rng, a, b)
            d2_ = random_derivor(rng, b, c)
            d3_ = random_derivor(rng, c, d)
            left = compose_derivors(d3_, compose_derivors(d2_, d1_))
            right = compose_derivors(compose_derivors(d3_, d2_), d1_)
            assert left == right

    def test_middle_mismatch(self, f1, f2, d1):
        with pytest.raises(ValidationError):
            compose_derivors(d1, d1)


class TestDerivedAlgebra:
    def test_identity(self, f1, rpar_algebra):
        out = derived_algebra_derivor(identity_derivor(f1), rpar_algebra)
        assert out.tables == rpar_algebra.tables

    def test_worked_example(self, d1, rpar_algebra):
        out = derived_algebra_derivor(d1, rpar_algebra)
        assert out.table("iszero") == (0, 1)

    def test_functoriality(self, d1, d2, rpar_algebra):
        comp = compose_derivors(d2, d1)
        lhs = derived_algebra_derivor(comp, rpar_algebra)
        rhs = derived_algebra_derivor(d1, derived_algebra_derivor(d2, rpar_algebra))
        assert lhs.tables == rhs.tables and lhs.carriers == rhs.carriers


class TestToHyperderivor:
    def test_d1_gives_h1(self, d1, h1, f1, x1, x2):
        built = derivor_to_hyperderivor(d1, x2, x1, {"x": parse_term("z", f1, x1)})
        assert built == h1

    def test_identity_renaming_shape(self, f1, x1):
        from treelang.core import Var, sorted_vars
        from treelang.treehom import hom_to_hyperderivor

        y1 = sorted_vars(f1, {"s": ["y"]})
        images = {"x": Var("y", "s"), "z": Var("y", "s")}
        built = derivor_to_hyperderivor(identity_derivor(f1), x1, y1, images)
        assert built == hom_to_hyperderivor(f1, x1, y1, images)

    def test_linearity_transfer(self, d1, d2, x1, x2, f1):
        assert d2.is_linear
        built = derivor_to_hyperderivor(d2, x1, x1, {"x": parse_term("x", f1, x1), "z": parse_term("z", f1, x1)})
        assert built.is_linear

    def test_image_routes_agree(self, d1, h1, f1, x1, x2, r_par):
        from treelang.recognizer import equivalent
        from treelang.treehom import inverse_image

        built = derivor_to_hyperderivor(d1, x2, x1, {"x": parse_term("z", f1, x1)})
        assert equivalent(
            inverse_image(built, r_par, "e"), inverse_image(h1, r_par, "e")
        )


V0 = placeholder(0, "s")
C = Node("c", (), "s", 1)
K = Node("k", (), "t", 1)
D1_SORT_MAP = {"e": "s", "b": "s"}
D1_PATTERNS = {
    "zero": hall_term(C, [], "s"),
    "succ": hall_term(Node("g", (V0,), "s", 2), ["s"], "s"),
    "iszero": hall_term(Node("sigma", (V0, C), "s", 3), ["s"], "s"),
}


class TestDerivorFaults:
    """A derivor with one fault is refused in the same words, whichever
    check catches it."""

    # f1 with a second sort, so a pattern can be ill-sorted or ranked at t
    @pytest.fixture
    def target(self):
        return signature(
            ["s", "t"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s"), ("k", [], "t")]
        )

    @pytest.mark.parametrize(
        "sort_map, message",
        [
            ({"e": "s"}, "sort map must cover every source sort"),
            ({**D1_SORT_MAP, "n": "s"}, "sort map must cover every source sort"),
            ({"e": "s", "b": "u"}, "sort map hits unknown target sort 'u'"),
        ],
        ids=["missing-sort", "extra-sort", "unknown-target-sort"],
    )
    def test_sort_map(self, f2, target, sort_map, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Derivor(f2, target, tuple(sort_map.items()), tuple(D1_PATTERNS.items()))

    @pytest.mark.parametrize(
        "names", [("zero", "iszero"), ("zero", "succ", "iszero", "pred")], ids=["missing", "extra"]
    )
    def test_patterns_not_one_per_operation(self, f2, target, names):
        patterns = tuple((name, D1_PATTERNS.get(name, D1_PATTERNS["zero"])) for name in names)
        with pytest.raises(ValidationError, match="^patterns must cover every source operation$"):
            Derivor(f2, target, tuple(D1_SORT_MAP.items()), patterns)

    @pytest.mark.parametrize(
        "sort_map, patterns, message",
        [
            ({"e": "s"}, D1_PATTERNS, "sort map must cover every source sort"),
            (D1_SORT_MAP, {"zero": D1_PATTERNS["zero"], "iszero": D1_PATTERNS["iszero"]},
             "patterns must cover every source operation"),
        ],
        ids=["missing-sort", "missing-pattern"],
    )
    def test_builder_missing_key(self, f2, target, sort_map, patterns, message):
        # a key the builder's mapping lacks is the record's error, not a KeyError
        with pytest.raises(ValidationError, match=f"^{message}$"):
            derivor(f2, target, sort_map, patterns)

    @pytest.mark.parametrize(
        "succ, rank",
        [
            (hall_term(Node("g", (V0,), "s", 2), ["s", "s"], "s"), "(('s', 's'), 's')"),
            (hall_term(C, [], "s"), "((), 's')"),
            (hall_term(K, ["s"], "t"), "(('s',), 't')"),
        ],
        ids=["unused-trailing-placeholder", "short-arity", "wrong-result-sort"],
    )
    def test_rank_mismatch(self, f2, target, succ, rank):
        message = f"pattern for 'succ' has rank {rank}, expected (('s',), 's')"
        with pytest.raises(ValidationError) as err:
            derivor(f2, target, D1_SORT_MAP, {**D1_PATTERNS, "succ": succ})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "succ, message",
        [
            (Node("g", (K,), "s", 2), "pattern for 'succ': child of 'g' has sort 't', expected 's'"),
            (Node("h", (V0,), "s", 2), "pattern for 'succ': unknown operation symbol 'h'"),
        ],
        ids=["ill-sorted-child", "unknown-operation"],
    )
    def test_ill_typed_pattern(self, f2, target, succ, message):
        with pytest.raises(ValidationError) as err:
            derivor(f2, target, D1_SORT_MAP, {**D1_PATTERNS, "succ": hall_term(succ, ["s"], "s")})
        assert str(err.value) == message


class TestApplyDerivorTermChecks:
    def test_root_tag_disagreeing_with_its_symbol(self):
        # k has result sort w, but this Hall term tags its root u; the
        # derivor keeps u and w apart, so the image's root has sort w
        sig = signature(["u", "w"], [("a", [], "u"), ("h", ["u"], "u"), ("k", ["u"], "w")])
        d = identity_derivor(sig)
        bad = hall_term(Node("k", (placeholder(0, "u"),), "u", 2), ["u"], "u")
        with pytest.raises(ValidationError, match="^hall term has sort 'w', rank says 'u'$"):
            apply_derivor_term(d, bad)

    def test_sort_outside_the_source(self, d1):
        p = hall_term(Node("g", (placeholder(0, "s"),), "s", 2), ["s"], "s")
        with pytest.raises(ValidationError, match="^unknown source sort 's'$"):
            apply_derivor_term(d1, p)

    def test_operation_outside_the_source(self, d1):
        p = hall_term(Node("g", (placeholder(0, "e"),), "e", 2), ["e"], "e")
        with pytest.raises(ValidationError, match="^unknown source operation symbol 'g'$"):
            apply_derivor_term(d1, p)

    def test_images_are_hall_terms(self):
        # the image is not re-checked when built; checking it again must pass
        rng = random.Random(17)
        for _ in range(30):
            a, _ = random_signature(rng)
            b, _ = random_rich_signature(rng)
            d = random_derivor(rng, a, b)
            arity = [rng.choice(a.sorts) for _ in range(rng.randint(0, 3))]
            try:
                p = random_hall_term(rng, a, arity, rng.choice(a.sorts))
            except PatternImpossible:
                continue
            out = apply_derivor_term(d, p)
            assert hall_term(out.term, out.arity, out.sort) == out


class TestHeldHyperderivor:
    def test_deriving_builds_no_hyperderivor(self, d1, f1, rpar_algebra, monkeypatch):
        # ``_record`` binds ``__post_init__`` when it decorates the class, so
        # the constructor is what a patch sees
        built = []
        init = Hyperderivor.__init__
        monkeypatch.setattr(Hyperderivor, "__init__", lambda h, *a, **k: built.append(h) or init(h, *a, **k))
        identity_derivor(f1)  # builds the hyperderivor it holds
        assert len(built) == 1
        first = derived_algebra_derivor(d1, rpar_algebra)
        assert derived_algebra_derivor(d1, rpar_algebra) == first
        assert len(built) == 1

    def test_deriving_compiles_nothing(self, d2, rpar_algebra):
        d = compose_derivors(d2, d2)
        derived_algebra_derivor(d, rpar_algebra)
        assert not hasattr(d._hyperderivor, "_templates")

    def test_it_is_the_derivor_without_variables(self, d1, f1, f2):
        empty = derivor_to_hyperderivor(d1, sorted_vars(f2, {}), sorted_vars(f1, {}), {})
        assert d1._hyperderivor == empty


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "hall-term-sort": (
        lambda fx: HallTerm(placeholder(0, "e"), ("e",), "b"),
        ValidationError, "hall term has sort 'e', rank says 'b'",
    ),
    "hall-term-leaf": (
        lambda fx: hall_term(Var("x", "s"), ["s"], "s"),
        ValidationError,
        "hall term leaves must be placeholders of the arity word ('s',), got 'x' of sort 's'",
    ),
    "projection-index": (
        lambda fx: projection(["s"], 1), ValidationError, "projection index 1 out of range for |w|=1"
    ),
    "xi-replacement-count": (
        lambda fx: xi_substitute(projection(["s"], 0), []),
        ValidationError, "xi needs 1 replacement terms, got 0",
    ),
    "xi-arity-words": (
        lambda fx: xi_substitute(
            projection(["s", "s"], 0), [projection(["s"], 0), projection(["s", "s"], 0)]
        ),
        ValidationError, "xi replacements must share an arity word",
    ),
    "xi-result-arity": (
        lambda fx: xi_substitute(projection(["s"], 0), [projection(["s"], 0)], ["s", "s"]),
        ValidationError, "result arity disagrees with the replacements",
    ),
    "xi-replacement-sort": (
        lambda fx: xi_substitute(projection(["e"], 0), [projection(["b"], 0)]),
        ValidationError, "replacement 0 has sort 'b', expected 'e'",
    ),
    "derived-algebra-other-signature": (
        lambda fx: derived_algebra_derivor(
            identity_derivor(fx("f1")),
            finite_algebra(fx("f2"), {"e": 1, "b": 1}, {"zero": [0], "succ": [0], "iszero": [0]}),
        ),
        ValidationError, "algebra is not over the derivor's target signature",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)
