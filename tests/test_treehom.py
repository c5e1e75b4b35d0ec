import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from treelang import treehom
from treelang.algebra import evaluate, finite_algebra
from treelang.closure import _Builder
from treelang.core import (
    Hole,
    Node,
    SortError,
    ValidationError,
    Var,
    _new_node,
    enumerate_all_terms,
    enumerate_terms,
    parse_term,
    print_term,
    sorted_vars,
    substitute_uniform,
)
from treelang.derivor import Derivor, apply_derivor_term, compose_derivors, derivor, hall_term
from treelang.recognizer import (
    accepts,
    empty_recognizer,
    equivalent,
    minimize,
    recognize_singleton,
    recognizer,
    universal_recognizer,
)
from treelang.treehom import (
    Hyperderivor,
    apply_treehom,
    derived_algebra,
    direct_image,
    hom_to_hyperderivor,
    hyperderivor,
    identity_pattern,
    inverse_image,
    placeholder,
    placeholder_index,
)

from conftest import (
    accepted_sets,
    check_branch,
    random_algebra,
    random_derivor,
    random_hall_term,
    random_hyperderivor,
    random_recognizer,
    random_rich_signature,
    random_signature,
    random_term,
    retrying,
    termless,
)


class TestBuilderMissingKey:
    """A key that one of ``hyperderivor``'s mappings lacks is the record's
    validation error, not a ``KeyError``."""

    @pytest.mark.parametrize(
        "part, key, message",
        [
            (0, "b", "sort map must cover every source sort"),
            (1, "succ", "patterns must cover every source operation"),
            (2, "x", "variable images must cover every source variable"),
        ],
        ids=["sort", "pattern", "image"],
    )
    def test_h1_part(self, h1, part, key, message):
        parts = [dict(h1.sort_map), dict(h1.patterns), dict(h1.var_images)]
        del parts[part][key]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            hyperderivor(h1.source, h1.source_vars, h1.target, h1.target_vars, *parts)

    def test_identity_missing_image(self, f1, x1):
        patterns = {op.name: identity_pattern(op) for op in f1.ops}
        images = {"x": Var("x", "s")}  # none for z
        with pytest.raises(ValidationError, match="^variable images must cover every source variable$"):
            hyperderivor(f1, x1, f1, x1, {"s": "s"}, patterns, images)


class TestApply:
    def test_worked_example(self, h1, f2, x2):
        out = apply_treehom(h1, parse_term("iszero(succ(zero))", f2, x2))
        assert print_term(out) == "sigma(g(c),c)"

    def test_leaf(self, h1, f2, x2):
        assert print_term(apply_treehom(h1, parse_term("x", f2, x2))) == "z"

    def test_identity_shape_renames(self, f1, x1):
        y1 = sorted_vars(f1, {"s": ["y"]})
        h = hom_to_hyperderivor(f1, x1, y1, {"x": Var("y", "s"), "z": Var("y", "s")})
        out = apply_treehom(h, parse_term("sigma(x,g(z))", f1, x1))
        assert print_term(out) == "sigma(y,g(y))"

    def test_operation_outside_the_source(self, h1, f1, x1):
        with pytest.raises(ValidationError, match="^unknown source operation symbol 'g'$"):
            apply_treehom(h1, parse_term("g(c)", f1, x1))

    def test_hom_expansion(self, f1, x1):
        y1 = sorted_vars(f1, {"s": ["y"]})
        g_of_y = parse_term("g(y)", f1, y1)
        h = hom_to_hyperderivor(f1, x1, y1, {"x": g_of_y, "z": Var("y", "s")})
        out = apply_treehom(h, parse_term("sigma(x,x)", f1, x1))
        assert print_term(out) == "sigma(g(y),g(y))"
        assert h.is_linear


def reference_extend(term, leaf, pattern):
    """The homomorphic extension by substitution: each node substitutes its
    children's images into its pattern with ``substitute_uniform``."""
    if isinstance(term, Var):
        return leaf(term)
    images = {f"v{i}": reference_extend(c, leaf, pattern) for i, c in enumerate(term.children)}
    return substitute_uniform(pattern(term.symbol), images)


def compiled(m):
    """Whether the map's templates are compiled; a derivor's live on the
    hyperderivor it holds."""
    return hasattr(getattr(m, "_hyperderivor", m), "_templates")


class TestTemplates:
    """Application instantiates patterns compiled on first use; it must
    build exactly the terms substitution builds."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_apply_treehom_is_substitution(self, seed, linear):
        # random patterns drop placeholders (erasing), repeat them unless
        # linear, and hold target variables and ground subterms
        rng = random.Random(seed)
        source, source_vars = random_signature(rng)
        target, target_vars = random_rich_signature(rng)
        h = retrying(
            lambda: random_hyperderivor(rng, source, source_vars, target, target_vars, linear=linear),
            rng,
        )
        for sort in source.sorts:
            for _ in range(4):
                t = random_term(rng, source, source_vars, sort, 7)
                if t is None:
                    break
                want = reference_extend(t, lambda v: h.var_image(v.name), h.pattern)
                got = apply_treehom(h, t)
                assert got == want and print_term(got) == print_term(want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32))
    def test_apply_derivor_term_and_compose_are_substitution(self, seed):
        rng = random.Random(seed)
        a, _ = random_signature(rng)
        b, _ = random_rich_signature(rng)
        c, _ = random_rich_signature(rng)
        inner, outer = random_derivor(rng, a, b), random_derivor(rng, b, c)

        def want(p):
            leaf = lambda v: Var(v.name, outer.sort_image(v.sort))
            return reference_extend(p.term, leaf, lambda name: outer.pattern(name).term)

        composed = compose_derivors(outer, inner)
        for op in a.ops:
            p = inner.pattern(op.name)
            assert apply_derivor_term(outer, p).term == want(p)
            assert composed.pattern(op.name).term == want(p)
        # Hall terms whose placeholders repeat or are dropped
        for _ in range(4):
            arity = [rng.choice(b.sorts) for _ in range(rng.randint(0, 3))]
            p = retrying(lambda: random_hall_term(rng, b, arity, rng.choice(b.sorts)), rng)
            assert apply_derivor_term(outer, p).term == want(p)

    def test_applied_maps_keep_equality_hash_and_pickling(self, h1, d1, f2, x2):
        term = parse_term("iszero(succ(succ(x)))", f2, x2)
        p = hall_term(Node("iszero", (Node("succ", (placeholder(0, "e"),), "e", 2),), "b", 3), ["e"], "b")
        fresh_h = Hyperderivor(
            h1.source, h1.source_vars, h1.target, h1.target_vars,
            h1.sort_map, h1.patterns, h1.var_images,
        )
        fresh_d = Derivor(d1.source, d1.target, d1.sort_map, d1.patterns)
        image, p_image = apply_treehom(h1, term), apply_derivor_term(d1, p)
        for applied, fresh in ((h1, fresh_h), (d1, fresh_d)):
            assert compiled(applied) and not compiled(fresh)
            assert applied == fresh and hash(applied) == hash(fresh)
            copy = pickle.loads(pickle.dumps(applied))
            assert copy == applied and not compiled(copy)
        assert apply_treehom(pickle.loads(pickle.dumps(h1)), term) == image
        assert apply_derivor_term(pickle.loads(pickle.dumps(d1)), p) == p_image

    def test_building_and_deriving_compile_nothing(self, f1, x1, rpar_algebra):
        h = hom_to_hyperderivor(f1, x1, x1, {"x": Var("x", "s"), "z": Var("z", "s")})
        derived_algebra(h, rpar_algebra, {"x": 0, "z": 1})
        assert not hasattr(h, "_templates")


V0 = placeholder(0, "e")
Y = Var("y", "e")


class TestChecks:
    @pytest.mark.parametrize(
        "key, term, message",
        [
            ("succ", Node("succ", (placeholder(1, "e"),), "e", 2), "unknown variable 'v1'"),
            ("succ", Node("succ", (Var("v0", "b"),), "e", 2), "wrong sort 'b'"),
            ("succ", Node("pred", (V0,), "e", 2), "unknown operation symbol 'pred'"),
            ("succ", Node("succ", (V0, V0), "e", 3), "arity mismatch"),
            ("succ", Node("succ", (Node("iszero", (V0,), "b", 2),), "e", 3), "has sort 'b'"),
            ("succ", Node("succ", (Hole("e"),), "e", 2), "hole"),
            ("x", V0, "unknown variable 'v0'"),
            ("x", Node("iszero", (Y,), "b", 2), "has sort 'b', expected 'e'"),
        ],
        ids=[
            "placeholder-beyond-arity", "wrong-sorted-placeholder", "unknown-op",
            "arity-mismatch", "ill-sorted-child", "hole", "placeholder-in-image",
            "image-of-wrong-sort",
        ],
    )
    def test_rejected(self, f2, x2, key, term, message):
        y2 = sorted_vars(f2, {"e": ["y"]})
        patterns = {
            "zero": Node("zero", (), "e", 1),
            "succ": Node("succ", (V0,), "e", 2),
            "iszero": Node("iszero", (V0,), "b", 2),
        }
        images = {"x": Y}
        what = f"pattern for {key!r}" if key in patterns else f"image of {key!r}"
        (patterns if key in patterns else images)[key] = term
        identity = {"e": "e", "b": "b"}
        with pytest.raises(ValidationError, match=f"{what}.*{message}"):
            hyperderivor(f2, x2, f2, y2, identity, patterns, images)


class TestDerivedAlgebra:
    def test_tables(self, h1, rpar_algebra):
        alg, asg = derived_algebra(h1, rpar_algebra, {"x": 0, "z": 1})
        assert alg.table("succ") == rpar_algebra.table("g")
        assert alg.table("iszero") == (0, 1)
        assert alg.table("zero") == (0,)
        assert asg == {"x": 1}

    def test_identity_shape_preserves_tables(self, f1, x1, rpar_algebra):
        y1 = sorted_vars(f1, {"s": ["y"]})
        h = hom_to_hyperderivor(f1, x1, y1, {"x": Var("y", "s"), "z": Var("y", "s")})
        alg, _ = derived_algebra(h, rpar_algebra, {"y": 0})
        assert alg.tables == rpar_algebra.tables

    def test_evaluation_commutes(self, h1, f2, x2, rpar_algebra):
        alg, asg = derived_algebra(h1, rpar_algebra, {"x": 0, "z": 1})
        universe = enumerate_all_terms(f2, x2, 6)
        for sort in f2.sorts:
            for t in universe[sort]:
                assert evaluate(alg, asg, t) == evaluate(
                    rpar_algebra, {"x": 0, "z": 1}, apply_treehom(h1, t)
                )

    def test_commutes_on_random_instances(self):
        rng = random.Random(51)
        for _ in range(15):
            source, source_vars = random_signature(rng)
            target, target_vars = random_rich_signature(rng)
            h = retrying(
                lambda: random_hyperderivor(
                    rng, source, source_vars, target, target_vars
                ),
                rng,
            )
            b = random_recognizer(rng, target, target_vars)
            alg, asg = derived_algebra(h, b.algebra, dict(b.assignment))
            universe = enumerate_all_terms(source, source_vars, 5)
            for sort in source.sorts:
                for t in universe[sort]:
                    assert evaluate(alg, asg, t) == evaluate(
                        b.algebra, dict(b.assignment), apply_treehom(h, t)
                    )


class TestInverseImage:
    def test_parity_preimage(self, h1, f2, x2, r_par):
        inv = inverse_image(h1, r_par, "e")
        assert not accepts(inv, parse_term("x", f2, x2))
        assert not accepts(inv, parse_term("succ(zero)", f2, x2))
        assert accepts(inv, parse_term("succ(succ(zero))", f2, x2))

    def test_pointwise_exhaustive(self, h1, f2, x2, r_par):
        for sort in f2.sorts:
            inv = inverse_image(h1, r_par, sort)
            for t in enumerate_terms(f2, x2, sort, 6):
                assert accepts(inv, t) == accepts(r_par, apply_treehom(h1, t))

    def test_universal_and_empty(self, h1, f1, x1, f2, x2):
        inv_u = inverse_image(h1, universal_recognizer(f1, x1), "e")
        inv_e = inverse_image(h1, empty_recognizer(f1, x1), "e")
        from treelang.recognizer import is_empty, restrict_to_sort

        assert equivalent(inv_u, restrict_to_sort(universal_recognizer(f2, x2), "e"))
        assert is_empty(inv_e)

    def test_sort_mismatch(self, h1, r_par):
        with pytest.raises(ValidationError):
            inverse_image(h1, r_par, "nope")


class TestDirectImage:
    def test_worked_example(self, h1, f1, x1, f2, x2):
        l = recognize_singleton(f2, x2, parse_term("iszero(zero)", f2, x2))
        out = direct_image(h1, l, "b")
        got = {
            print_term(t) for t in enumerate_terms(f1, x1, "s", 6) if accepts(out, t)
        }
        assert got == {"sigma(c,c)"}

    def test_empty_language(self, h1, f2, x2):
        from treelang.recognizer import is_empty

        out = direct_image(h1, empty_recognizer(f2, x2), "e")
        assert is_empty(out)

    def test_renaming_hom(self, f1, x1, r_par):
        y1 = sorted_vars(f1, {"s": ["y"]})
        h = hom_to_hyperderivor(f1, x1, y1, {"x": Var("y", "s"), "z": Var("y", "s")})
        out = direct_image(h, r_par, "s")
        universe_src = enumerate_all_terms(f1, x1, 5)
        universe_tgt = enumerate_all_terms(f1, y1, 5)
        want = {
            apply_treehom(h, t)
            for t in accepted_sets(r_par, universe_src)["s"]
        }
        got = set(accepted_sets(out, universe_tgt)["s"])
        assert got == want

    def test_nonlinear_refused(self, f1, x1, f2, x2):
        v0 = placeholder(0, "s")
        nonlinear = hyperderivor(
            f2,
            x2,
            f1,
            x1,
            {"e": "s", "b": "s"},
            {
                "zero": parse_term("c", f1, x1),
                "succ": Node("sigma", (v0, v0), "s", 3),
                "iszero": Node("g", (v0,), "s", 2),
            },
            {"x": parse_term("z", f1, x1)},
        )
        assert not nonlinear.is_linear
        l = universal_recognizer(f2, x2)
        with pytest.raises(ValidationError):
            direct_image(nonlinear, l, "e")

    def test_soundness_with_erasure(self, f1, x1, f2, x2):
        # an erasing pattern: every image of an accepted source term is accepted
        v0 = placeholder(0, "s")
        erasing = hyperderivor(
            f2,
            x2,
            f1,
            x1,
            {"e": "s", "b": "s"},
            {
                "zero": parse_term("c", f1, x1),
                "succ": parse_term("g(c)", f1, x1),  # erases its argument
                "iszero": Node("g", (v0,), "s", 2),
            },
            {"x": parse_term("z", f1, x1)},
        )
        assert erasing.is_linear
        rng = random.Random(3)
        l = random_recognizer(rng, f2, x2, only_sort="e")
        out = direct_image(erasing, l, "e")
        universe = enumerate_all_terms(f2, x2, 6)
        for t in accepted_sets(l, universe)["e"]:
            assert accepts(out, apply_treehom(erasing, t))

    def test_sound_and_complete_nonerasing(self):
        rng = random.Random(77)
        for _ in range(10):
            source, source_vars = random_signature(rng)
            target, target_vars = random_rich_signature(rng)
            h = retrying(
                lambda: random_hyperderivor(
                    rng, source, source_vars, target, target_vars, nonerasing=True
                ),
                rng,
            )
            sort = rng.choice(source.sorts)
            l = random_recognizer(rng, source, source_vars, only_sort=sort)
            out = direct_image(h, l, sort)
            src_universe = enumerate_all_terms(source, source_vars, 6)
            tgt_universe = enumerate_all_terms(target, target_vars, 6)
            want = {
                apply_treehom(h, t)
                for t in accepted_sets(l, src_universe)[sort]
                if apply_treehom(h, t).size <= 6
            }
            got = {
                t
                for s in target.sorts
                for t in accepted_sets(out, tgt_universe)[s]
            }
            assert got == want


def _identity(fx, target_vars=None):
    """The identity hyperderivor over ``f1``, into ``target_vars`` (``x1``)."""
    f1, x1 = fx("f1"), fx("x1")
    target_vars = target_vars or x1
    images = {x: parse_term("c", f1, x1) for x in x1.all_names()}
    patterns = {op.name: identity_pattern(op) for op in f1.ops}
    return hyperderivor(f1, x1, f1, target_vars, {"s": "s"}, patterns, images)


F2_ALGEBRA = {"e": 1, "b": 1}, {"zero": [0], "succ": [0], "iszero": [0]}

# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "target-variable-like-placeholder": (
        lambda fx: _identity(fx, sorted_vars(fx("f1"), {"s": ["v0"]})),
        ValidationError, "target variable 'v0' collides with reserved placeholders",
    ),
    "apply-to-hole": (
        lambda fx: apply_treehom(_identity(fx), Node("g", (Hole("s"),), "s", 2)),
        SortError, "cannot apply a tree homomorphism to a context hole",
    ),
    "apply-unknown-source-variable": (
        lambda fx: apply_treehom(_identity(fx), Var("y", "s")),
        SortError, "unknown source variable 'y'",
    ),
    "derived-algebra-other-signature": (
        lambda fx: derived_algebra(_identity(fx), finite_algebra(fx("f2"), *F2_ALGEBRA), {}),
        ValidationError, "algebra is not over the hyperderivor's target signature",
    ),
    "inverse-image-other-signature": (
        lambda fx: inverse_image(_identity(fx), universal_recognizer(fx("f2"), fx("x2")), "s"),
        ValidationError, "recognizer is not over the hyperderivor's target",
    ),
    "inverse-image-unknown-sort": (
        lambda fx: inverse_image(_identity(fx), fx("r_par"), "t"),
        ValidationError, "unknown source sort 't'",
    ),
    "direct-image-other-signature": (
        lambda fx: direct_image(_identity(fx), universal_recognizer(fx("f2"), fx("x2")), "s"),
        ValidationError, "recognizer is not over the hyperderivor's source",
    ),
    "direct-image-unknown-sort": (
        lambda fx: direct_image(_identity(fx), fx("r_par"), "t"),
        ValidationError, "unknown source sort 't'",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)


# ---------------------------------------------------------------------------
# the flat pattern compilers against the recursive ones they replaced


def reference_template(pattern, arity):
    """``treehom._template`` as a recursive walk: each node's statement
    after its children's, left to right."""
    consts = {"new_node": _new_node}
    lines = []

    def const(t):
        name = f"t{len(consts) - 1}"
        consts[name] = t
        return name

    def emit(t):
        if isinstance(t, Var):
            return t.name if placeholder_index(t.name) is not None else None
        children = [emit(c) for c in t.children]
        if all(c is None for c in children):
            return None
        args = [const(u) if c is None else c for c, u in zip(children, t.children)]
        fixed = 1 + sum(u.size for c, u in zip(children, t.children) if c is None)
        name = f"n{len(lines)}"
        size = " + ".join([str(fixed)] + [f"{c}.size" for c in children if c is not None])
        lines.append(f"    {name} = new_node({t.symbol!r}, ({', '.join(args)},), {t.sort!r}, {size})")
        return name

    root = emit(pattern) or const(pattern)
    params = ", ".join(f"v{i}" for i in range(arity))
    exec("\n".join([f"def template({params}):", *lines, f"    return {root}"]), consts)
    return consts["template"]


def reference_direct_image(h, l, sort):
    """``direct_image`` with a recursive production compiler: every state of
    a production body after its children's, left to right, and the
    productions in table order by ``itertools.product`` over the
    nonterminals."""
    lm = minimize(l)
    machine = _Builder(h.target, h.target_vars)
    nonterminal = {
        s: [machine.fresh(h.sort_image(s)) for _ in range(lm.algebra.size(s))]
        for s in h.source.sorts
    }

    def compile_rhs(body, env):
        if isinstance(body, Var):
            if body.name in env:
                return env[body.name]
            state = machine.fresh(body.sort)
            machine.leaf[body.name].add(state)
            return state
        args = tuple(compile_rhs(c, env) for c in body.children)
        state = machine.fresh(body.sort)
        machine.rules.setdefault((body.symbol, args), set()).add(state)
        return state

    def produce(body, env, head):
        root = compile_rhs(body, env)
        if root != head:
            machine.epsilon[body.sort].append((root, head))

    for op in h.source.ops:
        args = itertools.product(*(nonterminal[w] for w in op.arity))
        for states, result in zip(args, lm.algebra.table(op.name)):
            env = {f"v{i}": q for i, q in enumerate(states)}
            produce(h.pattern(op.name), env, nonterminal[op.result][result])
    asg = dict(lm.assignment)
    for s, names in h.source_vars.by_sort:
        for x in names:
            produce(h.var_image(x), {}, nonterminal[s][asg[x]])
    accepting = {nonterminal[sort][q] for q in lm.accepting_at(sort)}
    return machine.determinize({h.sort_image(sort): accepting})


def applied(monkeypatch, m, apply, inputs):
    """``apply(m, x)`` for each input, by the flat compiler and, on a fresh
    copy of the map, by the recursive one."""
    got = [apply(m, x) for x in inputs]
    copy = type(m)(*(getattr(m, f) for f in m.__match_args__))
    with monkeypatch.context() as patched:
        patched.setattr(treehom, "_template", reference_template)
        want = [apply(copy, x) for x in inputs]
    return got, want


C = Node("c", (), "s", 1)


def sigma(a, b):
    return Node("sigma", (a, b), "s", a.size + b.size + 1)


def random_pattern(rng, arity, depth, linear, variables):
    """A pattern over ``f1`` in the placeholders ``v0..v(arity-1)`` at ``s``,
    a spine of ``depth`` ``g`` and ``sigma`` nodes.  A placeholder is left
    out with probability 0.2 and, unless linear, may be used twice or have
    its spine squared.  The spine's other arguments are ground terms, target
    variables (given ``variables``) and one placeholder-free subterm shared
    by all of them."""
    leaves = [placeholder(i, "s") for i in range(arity) if rng.random() < 0.8]
    if not linear:
        leaves += [v for v in leaves if rng.random() < 0.5]
    rng.shuffle(leaves)
    fillers = [C, Node("g", (C,), "s", 2), *(Var(y, "s") for y in "xy" if variables)]
    fillers.append(sigma(rng.choice(fillers), rng.choice(fillers)))
    t = leaves.pop() if leaves else rng.choice(fillers)
    squares = 0 if linear else 2
    for _ in range(depth):
        if rng.random() < 0.5:
            t = Node("g", (t,), "s", t.size + 1)
            continue
        if squares and rng.random() < 0.05:
            other, squares = t, squares - 1
        else:
            other = leaves.pop() if leaves and rng.random() < 0.3 else rng.choice(fillers)
        t = sigma(t, other) if rng.random() < 0.5 else sigma(other, t)
    for v in leaves:
        t = sigma(v, t)
    return t


DEPTHS = (0, 1, 3, 12, 60, 400)


class TestFlatCompilers:
    """The flat pattern compilers give what the recursive ones gave: equal
    images, sharing the pattern's placeholder-free subterms, and
    ``repr``-identical direct images, although the flat walk numbers the
    NTA's states right to left (the subset construction numbers subsets in
    first-reached order, whatever their states are called)."""

    @pytest.mark.parametrize("linear", [True, False])
    def test_apply_treehom(self, monkeypatch, f1, x1, linear):
        rng = random.Random(3501 + linear)
        source, source_vars = termless(f1, x1)
        target_vars = sorted_vars(f1, {"s": ["x", "y"]})
        terms = enumerate_all_terms(source, source_vars, 5)["s"]
        for depth in DEPTHS:
            for _ in range(4):
                patterns = {
                    op.name: random_pattern(rng, len(op.arity), rng.randint(0, depth), linear, True)
                    for op in source.ops
                }
                images = {x: rng.choice([C, Var("y", "s"), sigma(Var("x", "s"), C)]) for x in "xz"}
                sort_map = {"s": "s", "u": "s"}
                h = hyperderivor(source, source_vars, f1, target_vars, sort_map, patterns, images)
                got, want = applied(monkeypatch, h, apply_treehom, rng.sample(terms, 12))
                assert got == want and list(map(repr, got)) == list(map(repr, want))
                # a pattern without placeholders is its own image
                assert apply_treehom(h, C) is h.pattern("c")

    def test_apply_derivor_term(self, monkeypatch, f1):
        rng = random.Random(3503)
        for depth in DEPTHS:
            for linear in (True, False):
                patterns = {
                    op.name: hall_term(
                        random_pattern(rng, len(op.arity), rng.randint(0, depth), linear, False),
                        op.arity,
                        "s",
                    )
                    for op in f1.ops
                }
                d = derivor(f1, f1, {"s": "s"}, patterns)
                arities = [["s"] * rng.randint(0, 3) for _ in range(6)]
                ps = [retrying(lambda: random_hall_term(rng, f1, a, "s"), rng) for a in arities]
                got, want = applied(monkeypatch, d, apply_derivor_term, ps)
                assert got == want and list(map(repr, got)) == list(map(repr, want))

    def test_direct_image(self, f1, x1):
        rng = random.Random(3505)
        # no term has sort u, so every minimized carrier there is empty
        source, source_vars = termless(f1, x1)
        target_vars = sorted_vars(f1, {"s": ["x", "y"]})
        for depth in DEPTHS[:-1] + (300,):
            for _ in range(3):
                patterns = {
                    op.name: random_pattern(rng, len(op.arity), rng.randint(0, depth), True, True)
                    for op in source.ops
                }
                images = {x: rng.choice([C, Var("y", "s"), sigma(Var("x", "s"), C)]) for x in "xz"}
                h = hyperderivor(
                    source, source_vars, f1, target_vars, {"s": "s", "u": "s"}, patterns, images
                )
                sizes = {"s": rng.randint(1, 3), "u": rng.randint(0, 2)}
                alg = random_algebra(rng, source, carriers=sizes)
                asg = {x: rng.randrange(sizes["s"]) for x in "xz"}
                for sort in source.sorts:
                    accepting = {sort: [e for e in range(sizes[sort]) if rng.random() < 0.6]}
                    l = recognizer(source_vars, alg, asg, accepting)
                    assert repr(direct_image(h, l, sort)) == repr(reference_direct_image(h, l, sort))

    def test_on_random_signatures(self, monkeypatch):
        # many-sorted targets, the patterns of ``random_hyperderivor``
        rng = random.Random(3507)
        for linear in (True, False) * 10:
            source, source_vars = random_signature(rng)
            target, target_vars = random_rich_signature(rng)
            h = retrying(
                lambda: random_hyperderivor(
                    rng, source, source_vars, target, target_vars, linear=linear
                ),
                rng,
            )
            terms = [t for ts in enumerate_all_terms(source, source_vars, 4).values() for t in ts]
            got, want = applied(monkeypatch, h, apply_treehom, terms[:30])
            assert got == want
            if h.is_linear:
                for sort in source.sorts:
                    l = random_recognizer(rng, source, source_vars, only_sort=sort)
                    assert repr(direct_image(h, l, sort)) == repr(reference_direct_image(h, l, sort))
