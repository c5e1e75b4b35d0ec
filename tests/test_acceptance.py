"""Acceptance suite: one test per criterion, printing a pass line each.

Every tolerance here is exact: constructions must agree with the brute-force
oracles on all enumerated terms, and every stated inequality must hold on
every randomized instance.
"""

import random

from treelang.algebra import closure_elements, product_algebra, restrict_algebra
from treelang.closure import (
    iterate_language,
    quotient_language,
    quotient_seed_values,
    substitute_language,
)
from treelang.congruence import (
    cogenerated_congruence,
    is_congruence,
    kernel_of_subset,
    meet_partitions,
    partition,
    refines,
    saturate,
    syntactic_congruence,
)
from treelang.core import Var, apply_context, enumerate_all_terms, parse_term, subterms_of
from treelang.derivor import (
    compose_derivors,
    derived_algebra_derivor,
    derivor_to_hyperderivor,
    hall_term,
    identity_derivor,
    projection,
    xi_substitute,
)
from treelang.oracle import (
    membership_fn,
    semantic_iteration_bounded,
    semantic_quotient_bounded,
    semantic_substitution_sets,
)
from treelang.recognizer import (
    combine,
    equivalent,
    inverse_translation,
    minimize,
    recognize_basic,
    recognize_finite,
    recognize_singleton,
    recognizer,
    universal_recognizer,
)
from treelang.treehom import (
    apply_treehom,
    derived_algebra,
    direct_image,
    inverse_image,
    placeholder,
)
from treelang.algebra import evaluate

from conftest import (
    accepted_sets,
    all_sorted_partitions,
    random_algebra,
    random_context,
    random_derivor,
    random_hall_term,
    random_hyperderivor,
    random_recognizer,
    random_rich_signature,
    random_signature,
    retrying,
)

INSTANCES = 200
MAX_NODES = 7


def _passed(text):
    print(f"PASS {text}")


def sample_signature(rng, need_var=False, max_terms=3000, max_nodes=MAX_NODES):
    """A random fixture-class signature whose term universe is desk-sized."""
    while True:
        sig, vars = random_signature(rng)
        if need_var and not vars.all_names():
            continue
        universe = enumerate_all_terms(sig, vars, max_nodes)
        if 1 <= sum(len(v) for v in universe.values()) <= max_terms:
            return sig, vars, universe


def sample_rich_signature(rng, max_terms=3000, max_nodes=MAX_NODES):
    while True:
        sig, vars = random_rich_signature(rng)
        universe = enumerate_all_terms(sig, vars, max_nodes)
        if 1 <= sum(len(v) for v in universe.values()) <= max_terms:
            return sig, vars, universe


def meet_indices(recs):
    """Per-sort index of the meet of the recognizers' evaluator kernels: the
    size of the reachable part of the product of their (minimized) algebras."""
    algs = [r.algebra for r in recs]
    prod, _ = product_algebra(algs)
    sizes = [dict(a.carriers) for a in algs]
    seed = {s: [] for s in prod.signature.sorts}
    for op in prod.signature.ops:
        if not op.arity:
            v = prod.apply(op.name, [])
            if v not in seed[op.result]:
                seed[op.result].append(v)
    for sort, names in recs[0].vars.by_sort:
        for x in names:
            e = 0
            for r, sz in zip(recs, sizes):
                e = e * sz[sort] + dict(r.assignment)[x]
            if e not in seed[sort]:
                seed[sort].append(e)
    reached = closure_elements(prod, seed)
    return {s: len(reached[s]) for s in prod.signature.sorts}


def default_family(sig, vars, family):
    """The substitution family completed with variable singletons."""
    full = {}
    for x in vars.all_names():
        full[x] = family.get(x) or recognize_basic(sig, vars, Var(x, vars.sort_of(x)))
    return full


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence for the six operators


def substitution_instance(rng):
    sig, vars, universe = sample_signature(rng, need_var=True)
    k = random_recognizer(rng, sig, vars, only_sort=rng.choice(sig.sorts))
    family = {}
    for x in vars.all_names():
        if rng.random() < 0.6:
            family[x] = random_recognizer(rng, sig, vars, only_sort=vars.sort_of(x))
    return sig, vars, universe, k, family


def test_criterion_1_substitution_oracle_equivalence():
    rng = random.Random(0xA1)
    for i in range(INSTANCES):
        sig, vars, universe, k, family = substitution_instance(rng)
        out = substitute_language(k, family)
        k_sets = accepted_sets(k, universe)
        fams = {
            x: sorted(
                accepted_sets(lx, universe)[vars.sort_of(x)], key=lambda t: t.size
            )
            for x, lx in family.items()
        }
        want = semantic_substitution_sets(
            [t for s in sig.sorts for t in k_sets[s]], fams, MAX_NODES
        )
        got = accepted_sets(out, universe)
        for s in sig.sorts:
            assert got[s] == frozenset(t for t in want if t.sort == s), (i, s)
    _passed(
        f"criterion 1a: substitution construction == oracle on all terms <= "
        f"{MAX_NODES} nodes ({INSTANCES} instances)"
    )


def iteration_instance(rng):
    while True:
        sig, vars, universe = sample_signature(rng, need_var=True)
        sorts_with_vars = [s for s, names in vars.by_sort if names]
        if sorts_with_vars:
            break
    sort = rng.choice(sorts_with_vars)
    z = rng.choice(vars.names(sort))
    l = random_recognizer(rng, sig, vars, only_sort=sort)
    return sig, vars, universe, l, z, sort


def test_criterion_1_iteration_oracle_equivalence():
    rng = random.Random(0xA2)
    for i in range(INSTANCES):
        sig, vars, universe, l, z, sort = iteration_instance(rng)
        out = iterate_language(l, z)
        l_terms = sorted(accepted_sets(l, universe)[sort], key=lambda t: t.size)
        want = semantic_iteration_bounded(sig, vars, l_terms, z, MAX_NODES)
        got = accepted_sets(out, universe)
        assert got[sort] == frozenset(want), i
        assert all(not got[s] for s in sig.sorts if s != sort), i
    _passed(
        f"criterion 1b: iteration construction == oracle on all terms <= "
        f"{MAX_NODES} nodes ({INSTANCES} instances)"
    )


def quotient_instance(rng):
    sig, vars, universe, l, z, zsort = iteration_instance(rng)
    l = random_recognizer(rng, sig, vars, only_sort=rng.choice(sig.sorts))
    pool = [t for t in universe[zsort] if t.size <= 3]
    k_terms = rng.sample(pool, min(len(pool), rng.randint(1, 3))) if pool else []
    return sig, vars, universe, l, k_terms, z


def test_criterion_1_quotient_oracle_equivalence():
    rng = random.Random(0xA3)
    for i in range(INSTANCES):
        sig, vars, universe, l, k_terms, z = quotient_instance(rng)
        k = recognize_finite(sig, vars, k_terms)
        out = quotient_language(l, k, z)
        want = semantic_quotient_bounded(l, k_terms, z, MAX_NODES, 3)
        got = accepted_sets(out, universe)
        assert got == {s: frozenset(want[s]) for s in sig.sorts}, i
    _passed(
        f"criterion 1c: quotient construction == oracle on all terms <= "
        f"{MAX_NODES} nodes ({INSTANCES} instances)"
    )


def test_criterion_1_inverse_translation_oracle_equivalence():
    rng = random.Random(0xA4)
    done = 0
    while done < INSTANCES:
        sig, vars, universe = sample_signature(rng)
        ctx = random_context(rng, sig, vars)
        if ctx is None:
            continue
        rec = random_recognizer(rng, sig, vars)
        out = inverse_translation(rec, ctx)
        member_rec = membership_fn(rec)
        member_out = membership_fn(out)
        for q in universe[ctx.hole_sort]:
            assert member_out(q) == member_rec(apply_context(ctx, q))
        for s in sig.sorts:
            if s != ctx.hole_sort:
                assert not any(member_out(t) for t in universe[s])
        done += 1
    _passed(
        f"criterion 1d: inverse translation == context-plugging oracle on all "
        f"terms <= {MAX_NODES} nodes ({INSTANCES} instances)"
    )


def test_criterion_1_treehom_inverse_oracle_equivalence():
    rng = random.Random(0xA5)
    for i in range(INSTANCES):
        src, srcv, src_universe = sample_signature(rng)
        tgt, tgtv, _ = sample_rich_signature(rng, max_nodes=4)
        h = retrying(lambda: random_hyperderivor(rng, src, srcv, tgt, tgtv), rng)
        l = random_recognizer(rng, tgt, tgtv)
        sort = rng.choice(src.sorts)
        out = inverse_image(h, l, sort)
        member_l = membership_fn(l)
        member_out = membership_fn(out)
        for p in src_universe[sort]:
            assert member_out(p) == member_l(apply_treehom(h, p)), i
        for r in src.sorts:
            if r != sort:
                assert not any(member_out(t) for t in src_universe[r]), i
    _passed(
        f"criterion 1e: tree-homomorphism inverse image == apply-then-test "
        f"oracle on all terms <= {MAX_NODES} nodes ({INSTANCES} instances)"
    )


def direct_image_instance(rng):
    src, srcv, src_universe = sample_signature(rng)
    tgt, tgtv, tgt_universe = sample_rich_signature(rng)
    h = retrying(
        lambda: random_hyperderivor(rng, src, srcv, tgt, tgtv, nonerasing=True), rng
    )
    sort = rng.choice(src.sorts)
    l = random_recognizer(rng, src, srcv, only_sort=sort)
    return src, tgt, src_universe, tgt_universe, h, l, sort


def test_criterion_1_treehom_direct_oracle_equivalence():
    rng = random.Random(0xA6)
    for i in range(INSTANCES):
        src, tgt, src_universe, tgt_universe, h, l, sort = direct_image_instance(rng)
        out = direct_image(h, l, sort)
        want = set()
        for p in accepted_sets(l, src_universe)[sort]:
            image = apply_treehom(h, p)
            if image.size <= MAX_NODES:
                want.add(image)
        got = {t for r in tgt.sorts for t in accepted_sets(out, tgt_universe)[r]}
        assert got == want, i
    _passed(
        f"criterion 1f: linear direct image == image-set oracle on all terms "
        f"<= {MAX_NODES} nodes ({INSTANCES} size-nondecreasing instances)"
    )


# ---------------------------------------------------------------------------
# criterion 2: Boolean closure


def test_criterion_2_boolean_closure(f1, x1, r_par):
    rng = random.Random(0xB1)
    semantics = {
        "union": lambda p, q: p | q,
        "intersection": lambda p, q: p & q,
        "difference": lambda p, q: p - q,
    }
    for i in range(40):
        sig, vars, _ = sample_signature(rng, max_nodes=6)
        universe = enumerate_all_terms(sig, vars, 6)
        a = random_recognizer(rng, sig, vars)
        b = random_recognizer(rng, sig, vars)
        a_sets = accepted_sets(a, universe)
        b_sets = accepted_sets(b, universe)
        for kind, fn in semantics.items():
            got = accepted_sets(combine(kind, a, b), universe)
            assert got == {s: fn(a_sets[s], b_sets[s]) for s in sig.sorts}, (i, kind)
        u = universal_recognizer(sig, vars)
        demorgan_left = combine("difference", u, combine("union", a, b))
        demorgan_right = combine(
            "intersection", combine("difference", u, a), combine("difference", u, b)
        )
        assert equivalent(demorgan_left, demorgan_right), i
        involution = combine("difference", u, combine("difference", u, a))
        assert equivalent(involution, a), i
    universe = enumerate_all_terms(f1, x1, 6)
    r_sets = accepted_sets(r_par, universe)
    got = accepted_sets(combine("difference", r_par, r_par), universe)
    assert got == {s: frozenset() for s in f1.sorts}
    _passed(
        "criterion 2: boolean combinations match set semantics on all terms "
        "<= 6 nodes; De Morgan and complement involution hold (40 instances)"
    )


# ---------------------------------------------------------------------------
# criterion 3: syntactic-congruence characterization


def test_criterion_3_syntactic_congruence_characterization():
    rng = random.Random(0xC1)
    for i in range(30):
        sig, vars = random_signature(rng)
        alg = random_algebra(rng, sig, max_carrier=4)
        subset = {
            s: frozenset(e for e in range(n) if rng.random() < 0.5)
            for s, n in alg.carriers
        }
        omega = syntactic_congruence(alg, subset)
        # (a) the syntactic congruence saturates the subset
        assert saturate(omega, subset) == subset, i
        # (b) every congruence saturating the subset refines it (brute force)
        kernel = kernel_of_subset(alg, subset)
        for psi in all_sorted_partitions(alg):
            if is_congruence(alg, psi)[0] and refines(psi, kernel):
                assert refines(psi, omega), i
    # (c) minimize state counts equal the per-sort indices of the syntactic
    # congruence on the reachable part, cross-checked by brute force
    for i in range(20):
        sig, vars = random_signature(rng)
        rec = random_recognizer(rng, sig, vars, max_carrier=3)
        m = minimize(rec)
        reached = closure_elements(rec.algebra, _constants_and_assignment_seed(rec))
        small, index = restrict_algebra(rec.algebra, reached)
        acc = {
            s: frozenset(index[s][e] for e in rec.accepting_at(s) if e in index[s])
            for s in sig.sorts
        }
        omega = syntactic_congruence(small, acc)
        assert {s: n for s, n in m.algebra.carriers} == dict(omega.counts), i
        # brute-force cross-check: omega is itself a saturating congruence and
        # every saturating congruence refines it
        kernel = kernel_of_subset(small, acc)
        assert is_congruence(small, omega)[0] and refines(omega, kernel), i
        for psi in all_sorted_partitions(small):
            if is_congruence(small, psi)[0] and refines(psi, kernel):
                assert refines(psi, omega), i
    _passed(
        "criterion 3: syntactic congruence saturates, is coarsest among "
        "saturating congruences (brute force), and fixes minimize state counts "
        "(30 + 20 instances)"
    )


def _constants_and_assignment_seed(rec):
    from treelang.recognizer import _seed

    return _seed(rec)


# ---------------------------------------------------------------------------
# criterion 4: index bounds from the proofs


def test_criterion_4_substitution_index_bound():
    rng = random.Random(0xD1)
    for i in range(INSTANCES):
        sig, vars, universe, k, family = substitution_instance(rng)
        out = substitute_language(k, family)
        full = default_family(sig, vars, family)
        mins = [minimize(k)] + [minimize(full[x]) for x in vars.all_names()]
        k_r = meet_indices(mins)
        mo = minimize(out)
        for s in sig.sorts:
            assert mo.algebra.size(s) <= k_r[s] * 2 ** k_r[s], (i, s)
    _passed(
        f"criterion 4a: substitution minimal state counts within k*2^k of the "
        f"meet-congruence index ({INSTANCES} instances)"
    )


def test_criterion_4_iteration_index_bound():
    rng = random.Random(0xD2)
    for i in range(INSTANCES):
        sig, vars, universe, l, z, sort = iteration_instance(rng)
        out = iterate_language(l, z)
        z_singleton = recognize_basic(sig, vars, Var(z, sort))
        k_r = meet_indices([minimize(l), minimize(z_singleton)])
        mo = minimize(out)
        for s in sig.sorts:
            assert mo.algebra.size(s) <= k_r[s] * 2 ** k_r[s], (i, s)
    _passed(
        f"criterion 4b: iteration minimal state counts within k*2^k "
        f"({INSTANCES} instances)"
    )


def test_criterion_4_quotient_index_bound():
    rng = random.Random(0xD3)
    for i in range(INSTANCES):
        sig, vars, universe, l, k_terms, z = quotient_instance(rng)
        k = recognize_finite(sig, vars, k_terms)
        out = quotient_language(l, k, z)
        lm = minimize(l)
        k_r = {s: lm.algebra.size(s) for s in sig.sorts}
        mo = minimize(out)
        for s in sig.sorts:
            assert mo.algebra.size(s) <= k_r[s] * 2 ** k_r[s], (i, s)
    _passed(
        f"criterion 4c: quotient minimal state counts within k*2^k "
        f"({INSTANCES} instances)"
    )


def test_criterion_4_direct_image_index_bound():
    rng = random.Random(0xD4)
    for i in range(INSTANCES):
        src, tgt, src_universe, tgt_universe, h, l, sort = direct_image_instance(rng)
        out = direct_image(h, l, sort)
        tgtv = h.target_vars
        # a: total class count of the meet of the variable-image singleton
        # congruences on the target term algebra
        image_recs = [
            minimize(recognize_singleton(tgt, tgtv, h.var_image(x)))
            for x in h.source_vars.all_names()
        ]
        if image_recs:
            a = sum(meet_indices(image_recs).values())
        else:
            mu = minimize(universal_recognizer(tgt, tgtv))
            a = sum(n for _, n in mu.algebra.carriers)
        b = len(src.ops)
        d = max(
            max((len(ts) for ts in subterms_of(body).values()), default=1)
            for _, body in h.patterns
        )
        e = max((len(op.arity) for op in src.ops), default=0)
        lm = minimize(l)
        card_k = sum(lm.algebra.size(s) for s in src.sorts)
        bound = a * 2 ** (b * d * card_k**e)
        mo = minimize(out)
        for t in tgt.sorts:
            assert mo.algebra.size(t) <= bound, (i, t)
    _passed(
        f"criterion 4d: direct-image minimal state counts within a*2^(b*d*k^e) "
        f"({INSTANCES} instances)"
    )


# ---------------------------------------------------------------------------
# criterion 5: finitely many quotients


def test_criterion_5_finitely_many_quotients(f1, x1, r_par):
    rng = random.Random(0xE1)
    universe = enumerate_all_terms(f1, x1, 4)
    fixed_ls = [
        r_par,
        recognize_singleton(f1, x1, parse_term("sigma(c,c)", f1, x1)),
        random_recognizer(rng, f1, x1, only_sort="s"),
    ]
    summary = []
    for l in fixed_ls:
        lm = minimize(l)
        outputs = []
        value_sets = set()
        for _ in range(50):
            k_terms = rng.sample(universe["s"], rng.randint(1, 3))
            k = recognize_finite(f1, x1, k_terms)
            value_sets.add(quotient_seed_values(lm, k, "z"))
            outputs.append(minimize(quotient_language(lm, k, "z")))
        classes = []
        for out in outputs:
            for cls in classes:
                if equivalent(out, cls[0]):
                    cls.append(out)
                    break
            else:
                classes.append([out])
        assert len(classes) <= len(value_sets)
        summary.append((len(classes), len(value_sets)))
    assert any(n_classes > 1 for n_classes, _ in summary)
    _passed(
        f"criterion 5: for 3 fixed languages, 50 random quotients each fall "
        f"into {[c for c, _ in summary]} language classes, bounded by "
        f"{[v for _, v in summary]} distinct value sets"
    )


# ---------------------------------------------------------------------------
# criterion 6: Hall axioms, derivor composition, functoriality


def test_criterion_6_hall_axioms_and_derivor_laws(f1, f2):
    rng = random.Random(0xF1)
    sigs = [f1, f2]
    checked = 0
    while checked < 500:
        sig = rng.choice(sigs)
        sorts = sig.sorts
        w = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
        v = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
        u = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
        s = rng.choice(sorts)
        p = random_hall_term(rng, sig, w, s)
        qs = [random_hall_term(rng, sig, v, wi) for wi in w]
        rs = [random_hall_term(rng, sig, u, vi) for vi in v]
        for i in range(len(w)):
            assert xi_substitute(projection(w, i), qs) == qs[i]
        ident = [hall_term(placeholder(i, wi), w, wi) for i, wi in enumerate(w)]
        assert xi_substitute(p, ident) == p
        left = xi_substitute(xi_substitute(p, qs), rs, u)
        right = xi_substitute(p, [xi_substitute(q, rs, u) for q in qs], u)
        assert left == right
        checked += 1
    # derivor composition: associativity and identity
    for i in range(40):
        a, _ = random_signature(rng)
        b, _ = random_rich_signature(rng)
        c, _ = random_rich_signature(rng)
        d, _ = random_rich_signature(rng)
        d1_ = random_derivor(rng, a, b)
        d2_ = random_derivor(rng, b, c)
        d3_ = random_derivor(rng, c, d)
        assert compose_derivors(d3_, compose_derivors(d2_, d1_)) == compose_derivors(
            compose_derivors(d3_, d2_), d1_
        ), i
        assert compose_derivors(identity_derivor(b), d1_) == d1_, i
        assert compose_derivors(d1_, identity_derivor(a)) == d1_, i
    # functoriality of derived algebras, tablewise
    for i in range(30):
        a, _ = random_signature(rng)
        b, _ = random_rich_signature(rng)
        c, _ = random_rich_signature(rng)
        d1_ = random_derivor(rng, a, b)
        d2_ = random_derivor(rng, b, c)
        alg = random_algebra(rng, c)
        lhs = derived_algebra_derivor(compose_derivors(d2_, d1_), alg)
        rhs = derived_algebra_derivor(d1_, derived_algebra_derivor(d2_, alg))
        assert lhs.tables == rhs.tables and lhs.carriers == rhs.carriers, i
    _passed(
        "criterion 6: Hall axioms H1-H3 hold on 500 random instances; derivor "
        "composition is associative and unital (40); derived algebras are "
        "functorial tablewise (30)"
    )


# ---------------------------------------------------------------------------
# criterion 7: commutation laws and route equality


def test_criterion_7_commutation_and_route_equality(f1, x1, f2, x2, h1, d1, r_par):
    # evaluate(derived(h,B,b), P) == evaluate(B, b, apply(h, P)) exhaustively
    rng = random.Random(0x71)
    alg, asg = derived_algebra(h1, r_par.algebra, dict(r_par.assignment))
    universe = enumerate_all_terms(f2, x2, 6)
    for sort in f2.sorts:
        for t in universe[sort]:
            assert evaluate(alg, asg, t) == evaluate(
                r_par.algebra, dict(r_par.assignment), apply_treehom(h1, t)
            )
    for i in range(20):
        src, srcv, src_universe = sample_signature(rng, max_nodes=6)
        tgt, tgtv, _ = sample_rich_signature(rng, max_nodes=4)
        h = retrying(lambda: random_hyperderivor(rng, src, srcv, tgt, tgtv), rng)
        b = random_recognizer(rng, tgt, tgtv)
        derived, dasg = derived_algebra(h, b.algebra, dict(b.assignment))
        for sort in src.sorts:
            for t in src_universe[sort]:
                assert evaluate(derived, dasg, t) == evaluate(
                    b.algebra, dict(b.assignment), apply_treehom(h, t)
                ), i
    # derivor-route images equal treehom-route images
    built = derivor_to_hyperderivor(d1, x2, x1, {"x": parse_term("z", f1, x1)})
    assert equivalent(inverse_image(built, r_par, "e"), inverse_image(h1, r_par, "e"))
    liz = recognize_singleton(f2, x2, parse_term("iszero(zero)", f2, x2))
    assert equivalent(direct_image(built, liz, "b"), direct_image(h1, liz, "b"))
    for i in range(20):
        src, srcv, _ = sample_signature(rng, max_nodes=5)
        tgt, tgtv, _ = sample_rich_signature(rng, max_nodes=5)
        d = random_derivor(rng, src, tgt)
        images = {}
        try:
            for sort, names in srcv.by_sort:
                for x in names:
                    pool = enumerate_all_terms(tgt, tgtv, 3)[d.sort_image(sort)]
                    if not pool:
                        raise StopIteration
                    images[x] = rng.choice(pool)
        except StopIteration:
            continue
        hd = derivor_to_hyperderivor(d, srcv, tgtv, images)
        l = random_recognizer(rng, tgt, tgtv)
        sort = rng.choice(src.sorts)
        via_derivor = recognizer(
            srcv,
            *_derived_recognizer_parts(d, hd, l, sort),
        )
        via_treehom = inverse_image(hd, l, sort)
        assert equivalent(via_derivor, via_treehom), i
    _passed(
        "criterion 7: evaluation commutes with tree-homomorphism application "
        "(exhaustive <= 6 nodes, 20 random instances); derivor-route images "
        "equal treehom-route images"
    )


def _derived_recognizer_parts(d, hd, l, sort):
    """The inverse image assembled through the derivor functor: the derived
    algebra of the derivor plus variable images evaluated in l's algebra."""
    alg = derived_algebra_derivor(d, l.algebra)
    assignment = {
        x: evaluate(l.algebra, dict(l.assignment), hd.var_image(x))
        for x in hd.source_vars.all_names()
    }
    accepting = {sort: sorted(l.accepting_at(d.sort_image(sort)))}
    return alg, assignment, accepting


# ---------------------------------------------------------------------------
# criterion 8: kernel-operator and saturation laws


def test_criterion_8_kernel_and_saturation_laws():
    rng = random.Random(0x81)
    for i in range(40):
        sig, _ = random_signature(rng)
        alg = random_algebra(rng, sig, max_carrier=4)
        phi = _random_partition(rng, alg)
        psi = _random_partition(rng, alg)
        omega_phi = cogenerated_congruence(alg, phi)
        # contractive
        assert refines(omega_phi, phi), i
        # idempotent
        assert cogenerated_congruence(alg, omega_phi) == omega_phi, i
        # isotone on a comparable pair: phi refines its own coarsening
        coarse = _coarsen(rng, phi)
        assert refines(omega_phi, cogenerated_congruence(alg, coarse)), i
        # meet preservation
        met = meet_partitions(phi, psi)
        assert cogenerated_congruence(alg, met) == meet_partitions(
            cogenerated_congruence(alg, phi), cogenerated_congruence(alg, psi)
        ), i
    for i in range(40):
        sig, _ = random_signature(rng)
        alg = random_algebra(rng, sig, max_carrier=4)
        phi = _random_partition(rng, alg)
        a = {
            s: frozenset(e for e in range(n) if rng.random() < 0.5)
            for s, n in alg.carriers
        }
        b = {
            s: frozenset(e for e in range(n) if rng.random() < 0.5)
            for s, n in alg.carriers
        }
        sat_a = saturate(phi, a)
        assert all(a[s] <= sat_a[s] for s in sat_a), i
        assert saturate(phi, sat_a) == sat_a, i
        union = {s: a[s] | b[s] for s in a}
        assert saturate(phi, union) == {
            s: sat_a[s] | saturate(phi, b)[s] for s in a
        }, i
    _passed(
        "criterion 8: cogenerated congruence is a meet-preserving kernel "
        "operator and saturation is a completely additive closure operator "
        "(40 + 40 instances)"
    )


def _random_partition(rng, alg):
    classes = {}
    for s, n in alg.carriers:
        classes[s] = [rng.randrange(max(1, n)) for _ in range(n)]
    return partition(alg.signature.sorts, classes)


def _coarsen(rng, phi):
    """Merge two random classes per sort (where possible)."""
    classes = {}
    for s, ids in phi.classes:
        n_classes = max(ids) + 1 if ids else 0
        merged = list(ids)
        if n_classes >= 2:
            a, b = rng.sample(range(n_classes), 2)
            merged = [a if c == b else c for c in merged]
        classes[s] = merged
    return partition([s for s, _ in phi.classes], classes)
