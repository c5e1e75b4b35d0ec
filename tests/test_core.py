import copy
import dataclasses
import pickle
import random
import re
import tracemalloc
from types import SimpleNamespace
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from treelang import closure, core
from treelang.algebra import evaluate, product_algebra, translation_table
from treelang.core import (
    HOLE,
    Context,
    Hole,
    Node,
    ParseError,
    Signature,
    SortError,
    SortedVars,
    Term,
    ValidationError,
    Operation,
    Var,
    _new_node,
    _preorder,
    apply_context,
    compose_contexts,
    context,
    count_occurrences,
    enumerate_all_terms,
    enumerate_terms,
    hole_context,
    parse_context,
    parse_term,
    print_context,
    print_term,
    signature,
    sorted_vars,
    occurrence_counts,
    substitute_occurrences,
    substitute_uniform,
    subterms_of,
    typecheck,
    variables_of,
)
from treelang.congruence import cogenerated_congruence, partition
from treelang.derivor import apply_derivor_term, hall_term, projection, xi_substitute
from treelang.closure import NTA, nta, table_rules
from treelang.recognizer import inverse_translation, minimize
from treelang.treehom import (
    apply_treehom,
    derived_algebra,
    direct_image,
    hyperderivor,
    identity_pattern,
    inverse_image,
)

from conftest import check_branch, leaf_contexts, random_signature, random_term

F1_G = Operation("g", ("s",), "s")


def p1(f1, x1, text):
    return parse_term(text, f1, x1)


class TestParse:
    def test_node(self, f1, x1):
        t = parse_term("g(c)", f1, x1)
        assert print_term(t) == "g(c)"
        assert t.sort == "s"

    def test_variable(self, f1, x1):
        t = parse_term("x", f1, x1)
        assert isinstance(t, Var) and t.sort == "s"

    def test_arity_mismatch(self, f1, x1):
        with pytest.raises((ParseError, SortError)):
            parse_term("sigma(c)", f1, x1)

    def test_unknown_symbol(self, f1, x1):
        with pytest.raises(ParseError):
            parse_term("nope(c)", f1, x1)

    def test_whitespace_insignificant(self, f1, x1):
        a = parse_term("sigma( x , g( c ) )", f1, x1)
        assert a == parse_term("sigma(x,g(c))", f1, x1)

    def test_trailing_garbage(self, f1, x1):
        with pytest.raises(ParseError):
            parse_term("c c", f1, x1)

    @pytest.mark.parametrize(
        "text, char, offset",
        [("g(c) $", "$", 5), ("sigma(x,1)", "1", 8), ("1x", "1", 0), ("g(\tc-)", "-", 4), ("é", "é", 0)],
    )
    def test_unexpected_character(self, f1, x1, text, char, offset):
        message = f"unexpected character {char!r} at offset {offset}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_term(text, f1, x1)


# every parse error, by the exact message it gives: (text, context?, message)
PARSE_ERRORS = [
    ("", False, "unexpected end of input"),
    ("g(", False, "unexpected end of input"),
    ("g(c", False, "unexpected end of input"),
    ("sigma(c,", False, "unexpected end of input"),
    ("g(c c)", False, "expected ')'"),
    ("sigma(c x)", True, "expected ')'"),
    ("g(c,c)", False, "too many arguments for 'g'"),
    ("sigma(@,c,x)", True, "too many arguments for 'sigma'"),
    ("x(c)", False, "variable 'x' cannot take arguments"),
    ("g(z())", True, "variable 'z' cannot take arguments"),
    ("nope(c)", False, "unknown symbol 'nope'"),
    ("g(y)", True, "unknown symbol 'y'"),
    ("g(@)", False, "a term cannot contain the hole '@'"),
    ("(c)", False, "expected a name, got '('"),
    ("g(,c)", True, "expected a name, got ','"),
    ("sigma(c,))", False, "expected a name, got ')'"),
    ("c c", False, "trailing input at token 'c'"),
    ("g(@) x", True, "trailing input at token 'x'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, holes, message", PARSE_ERRORS)
    def test_message(self, f1, x1, text, holes, message):
        parse = parse_context if holes else parse_term
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text, f1, x1)

    def test_bare_hole_over_two_sorts(self, f2, x2):
        message = "bare hole is ambiguous over a multi-sorted signature"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_context("@", f2, x2)

    def test_operation_named_like_punctuation_is_never_parsed(self):
        # operation names are not checked against the name syntax, but the
        # parser only reads names as operations
        sig = signature(["s"], [("c", [], "s"), ("@", [], "s"), ("(", [], "s")])
        none = sorted_vars(sig, {})
        with pytest.raises(ParseError, match="^a term cannot contain the hole '@'$"):
            parse_term("@", sig, none)
        with pytest.raises(ParseError, match=r"^expected a name, got '\('$"):
            parse_term("(", sig, none)
        assert parse_context("@", sig, none).body == Hole("s")


class TestNodeConstructor:
    def test_frozen(self):
        built = _new_node("c", (), "s", 1)
        with pytest.raises(FrozenInstanceError):
            built.size = 2


# one value of each record type, from the conftest fixtures
RECORDS = {
    "Operation": lambda fx: F1_G,
    "Signature": lambda fx: fx("f2"),
    "SortedVars": lambda fx: fx("x1"),
    "Var": lambda fx: Var("x", "s"),
    "Node": lambda fx: parse_term("sigma(x,g(c))", fx("f1"), fx("x1")),
    "Hole": lambda fx: Hole("s"),
    "Context": lambda fx: parse_context("sigma(x,g(@))", fx("f1"), fx("x1")),
    "FiniteAlgebra": lambda fx: fx("rpar_algebra"),
    "SortedPartition": lambda fx: partition(["s", "t"], {"s": [0, 1, 0], "t": [5]}),
    "Recognizer": lambda fx: fx("r_par"),
    "NTA": lambda fx: nta(
        fx("f1"), fx("x1"), {"s": 2}, {"x": {0}, "z": {1}},
        {key: {v} for key, v in table_rules(fx("rpar_algebra"))}, {}, {"s": {0}},
    ),
    "Hyperderivor": lambda fx: fx("h1"),
    "HallTerm": lambda fx: projection(["s", "e"], 1),
    "Derivor": lambda fx: fx("d1"),
}


def builder_machine(fx) -> NTA:
    """The NTA that ``closure._Builder.determinize`` determinizes."""
    builder = closure._Builder(fx("f1"), fx("x1"))
    builder.add(fx("r_par"), ["x", "z"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "determinize", lambda machine: machine)
        return builder.determinize({"s": {0}})


# the paths that build a record without running its checks, with the type
# each one builds; ``tests/test_api.py`` finds every such path in the package
UNCHECKED = {
    "_new_node": ("Node", lambda fx: _new_node("g", (Node("c", (), "s", 1),), "s", 2)),
    "product_algebra": ("FiniteAlgebra", lambda fx: product_algebra([fx("rpar_algebra")] * 2)[0]),
    "apply_derivor_term": ("HallTerm", lambda fx: apply_derivor_term(fx("d2"), fx("d2").pattern("g"))),
    "_Builder.determinize": ("NTA", builder_machine),
    "context": ("Context", lambda fx: context(Node("g", (Hole("s"),), "s", 2))),
    "minimize": ("Recognizer", lambda fx: minimize(fx("r_par"))),
    "cogenerated_congruence": ("SortedPartition", lambda fx: cogenerated_congruence(
        fx("rpar_algebra"), partition(["s"], {"s": [0, 1]}))),
}


OWN_METHODS = {"Var": ["__repr__"], "Node": ["__eq__", "__hash__", "__repr__"], "Hole": ["__repr__"]}


def layout(value):
    """Where the value keeps its attributes: its filled slots in declaration
    order, or else its instance-dict keys in insertion order."""
    if hasattr(value, "__dict__"):
        return list(value.__dict__)
    slots = [s for c in reversed(type(value).__mro__) for s in c.__dict__.get("__slots__", ())]
    return [s for s in slots if hasattr(value, s)]


@pytest.mark.parametrize("path", [*RECORDS, *UNCHECKED])
def test_record_behaves_as_a_frozen_dataclass(path, request):
    name, build = UNCHECKED.get(path, (path, RECORDS.get(path)))
    value = build(request.getfixturevalue)
    cls = type(value)
    assert cls.__name__ == name
    names = list(cls.__annotations__)
    fields = [getattr(value, f) for f in names]
    # the methods the class defines itself stay, and the reference has them too
    own = {
        method: cls.__dict__[method]
        for method in ("__eq__", "__hash__", "__repr__")
        if cls.__dict__[method].__qualname__ == f"{name}.{method}"
    }
    assert list(own) == OWN_METHODS.get(name, [])
    reference = dataclasses.make_dataclass(name, names, frozen=True, namespace=own)
    made, ref = cls(*fields), reference(*fields)
    by_keyword = dict(reversed(list(zip(names, fields))))
    keyword, mixed = cls(**by_keyword), cls(fields[0], **{f: by_keyword[f] for f in names[1:]})
    assert made == value and keyword == value and mixed == value and not made != value
    assert value == made
    # one layout whichever path built the value, read before hashing fills a
    # cache; a fixture's value may hold a cache already, so only a value this
    # test built is compared
    unpickled = pickle.loads(pickle.dumps(value))
    layouts = [layout(v) for v in (made, keyword, mixed, unpickled)]
    if path in UNCHECKED:
        layouts.append(layout(value))
    assert layouts == [layouts[0]] * len(layouts) and layouts[0][: len(names)] == names
    if isinstance(value, Term):
        assert not any(hasattr(v, "__dict__") for v in (value, made, keyword, mixed, unpickled))
    assert made != ref and ref != made  # equality needs the same class
    assert hash(made) == hash(keyword) == hash(ref) == hash(tuple(fields)) == hash(value)
    assert repr(made) == repr(ref)
    assert cls.__match_args__ == reference.__match_args__
    for obj in (made, ref):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{names[0]}'"):
            setattr(obj, names[0], fields[0])
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{names[-1]}'"):
            delattr(obj, names[-1])
    for wrong in (fields[:-1], [*fields, None]):
        with pytest.raises(TypeError):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(*fields, **{names[0]: fields[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, fields)), nonesuch=None)
    again = pickle.loads(pickle.dumps(made))
    assert type(again) is cls and again == made and hash(again) == hash(made)
    assert copy.copy(made) is made and copy.deepcopy(made) is made
    assert unpickled == value
    if cls is Node:  # the hash computed above is a cache, not pickled
        assert not hasattr(pickle.loads(pickle.dumps(value)), "_hash")


def test_unpickling_rechecks_invariants(request):
    """A record pickles as its fields, so unpickling runs its checks again,
    and fails as direct construction does."""
    # the partition's classes are at 's' and 't', the recognizer's algebra
    # has the one sort 's'
    with_y = SortedVars((("s", ("x", "z")), ("t", ("y",))))
    cases = [
        ("Recognizer", {"assignment": (("x", 99), ("z", 99))}, "assignment for 'x' out of carrier range"),
        ("Recognizer", {"vars": with_y, "assignment": (("x", 0), ("z", 1), ("y", 0))},
         "variable 'y' at unknown sort 't'"),
        ("NTA", {"accepting": (("s", frozenset({2})),)}, "NTA accepting state 2 out of range at sort 's'"),
        ("SortedPartition", {"counts": (("s", 2),)}, "partition class sorts ['s', 't'] differ from count sorts ['s']"),
        ("SortedPartition", {"counts": (("s", 2), ("t", 1), ("u", 3))},
         "partition class sorts ['s', 't'] differ from count sorts ['s', 't', 'u']"),
        ("SortedPartition", {"classes": (("s", (0,)), ("s", (0, 0))), "counts": (("s", 1),)},
         "partition classes list sort 's' twice"),
        ("SortedPartition", {"classes": (("s", (0,)),), "counts": (("s", 1), ("s", 1))},
         "partition counts list sort 's' twice"),
        ("SortedVars", {"by_sort": (("s", ("x",)), ("s", ("y",)))}, "variables list sort 's' twice"),
    ]
    for kind, values, message in cases:
        good = RECORDS[kind](request.getfixturevalue)
        cls = type(good)
        fields = [values.get(f, getattr(good, f)) for f in cls.__match_args__]
        bad = cls._of(*fields)
        for build in (lambda: cls(*fields), lambda: pickle.loads(pickle.dumps(bad))):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build()


DEPTH = 20_000  # the depth of the deep terms below


class TestTypecheck:
    def test_f1(self, f1, x1):
        assert typecheck(parse_term("sigma(x,g(c))", f1, x1), f1, x1) == "s"

    def test_f2(self, f2, x2):
        assert typecheck(parse_term("iszero(zero)", f2, x2), f2, x2) == "b"

    def test_sort_error(self, f2, x2):
        with pytest.raises(SortError):
            parse_term("succ(iszero(zero))", f2, x2)

    def test_hole_rejected(self, f1, x1):
        with pytest.raises(SortError, match="hole"):
            typecheck(parse_context("g(@)", f1, x1).body, f1, x1)

    # one fault each, over zero: e, succ: e -> e, iszero: e -> b and x: e;
    # every term is tagged with sort e, so it can end a chain of succ
    ZERO = Node("zero", (), "e", 1)
    FAULTS = {
        "unknown-variable": (Var("y", "e"), SortError, "unknown variable 'y'"),
        "wrong-sorted-variable": (Var("x", "b"), SortError, "variable 'x' tagged with wrong sort 'b'"),
        "hole": (Hole("e"), SortError, "a term cannot contain the hole '@'"),
        "unknown-operation": (
            Node("pred", (ZERO,), "e", 2), ValidationError, "unknown operation symbol 'pred'"
        ),
        "arity-mismatch": (Node("succ", (ZERO, ZERO), "e", 3), SortError, "'succ' arity mismatch"),
        "wrong-sorted-child": (
            Node("succ", (Node("iszero", (ZERO,), "b", 2),), "e", 3),
            SortError, "child of 'succ' has sort 'b', expected 'e'",
        ),
        "wrong-sorted-node": (Node("zero", (), "b", 1), SortError, "node 'zero' tagged with wrong sort 'b'"),
    }

    @pytest.mark.parametrize("depth", [0, DEPTH], ids=["root", "bottom"])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_single_fault(self, f2, x2, fault, depth):
        """Each fault gives its own message, at the root or under a chain
        of ``depth`` well-sorted nodes."""
        term, error, message = self.FAULTS[fault]
        for _ in range(depth):
            term = Node("succ", (term,), "e", term.size + 1)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as raised:
            typecheck(term, f2, x2)
        assert raised.type is error


class TestOccurrences:
    def test_two(self, f1, x1):
        assert count_occurrences(parse_term("sigma(z,g(z))", f1, x1), "z", x1) == 2

    def test_zero(self, f1, x1):
        assert count_occurrences(parse_term("c", f1, x1), "x", x1) == 0

    def test_repeated(self, f1, x1):
        assert count_occurrences(parse_term("sigma(x,sigma(z,x))", f1, x1), "x", x1) == 2

    def test_unknown_variable(self, f1, x1):
        with pytest.raises(ValidationError):
            count_occurrences(parse_term("c", f1, x1), "nope", x1)

    def test_additive_over_children(self, f1, x1):
        rng = random.Random(7)
        universe = enumerate_terms(f1, x1, "s", 6)
        for t in rng.sample(universe, 60):
            if not hasattr(t, "children") or not t.children:
                continue
            for v in ("x", "z"):
                assert count_occurrences(t, v, x1) == sum(
                    count_occurrences(c, v, x1) for c in t.children
                )


class TestVariablesAndSubterms:
    def test_var_set(self, f1, x1):
        assert variables_of(parse_term("sigma(x,g(c))", f1, x1)) == {"s": {"x"}}
        assert variables_of(parse_term("c", f1, x1)) == {}

    def test_var_set_f2(self, f2, x2):
        assert variables_of(parse_term("iszero(succ(x))", f2, x2)) == {"e": {"x"}}

    def test_subterms(self, f1, x1):
        subt = subterms_of(parse_term("g(c)", f1, x1))
        assert {print_term(t) for t in subt["s"]} == {"g(c)", "c"}

    def test_subterms_f2(self, f2, x2):
        subt = subterms_of(parse_term("iszero(zero)", f2, x2))
        assert {print_term(t) for t in subt["b"]} == {"iszero(zero)"}
        assert {print_term(t) for t in subt["e"]} == {"zero"}

    def test_subterm_of_variable(self, f1, x1):
        assert subterms_of(parse_term("x", f1, x1)) == {"s": {Var("x", "s")}}


def _chain(leaf, depth=DEPTH):
    t = leaf
    for _ in range(depth):
        t = Node("g", (t,), "s", t.size + 1)
    return t


def _message(call):
    """The message of the ``ValidationError`` the call raises."""
    with pytest.raises(ValidationError) as err:
        call()
    return str(err.value)


def _recursive(name):
    walk = RECURSIVE[name]
    return pytest.param(
        name,
        marks=pytest.mark.xfail(
            strict=True,
            raises=RecursionError,
            reason=f"{walk} recurses; ROADMAP item 4 makes it depth-safe",
        ),
    )


# the table of g^DEPTH in the parity algebra, where g flips 0 and 1
G_DEPTH = (DEPTH % 2, 1 - DEPTH % 2)


# every public term operation on a chain g(g(...x)) of depth DEPTH (a Hall
# term's chain ends in the placeholder v0, and so does the pattern of g in
# ``deep_h``); the recursive ones are expected to fail, so making one
# depth-safe is a test edit
DEEP_OPERATIONS = {
    "print_term": lambda deep, fx: print_term(deep) == "g(" * DEPTH + "x" + ")" * DEPTH,
    "repr": lambda deep, fx: repr(deep).startswith("Node(g(g("),
    "count_occurrences": lambda deep, fx: count_occurrences(deep, "x", fx.vars) == 1,
    "occurrence_counts": lambda deep, fx: occurrence_counts(deep) == {"x": 1},
    "variables_of": lambda deep, fx: variables_of(deep) == {"s": {"x"}},
    "subterms_of": lambda deep, fx: len(subterms_of(deep)["s"]) == DEPTH + 1,
    "hash": lambda deep, fx: hash(deep) == hash(_chain(Var("x", "s"))),
    "==": lambda deep, fx: deep == _chain(Var("x", "s")) != _chain(Var("z", "s")),
    # a record is immutable, so its copies are itself
    "copy": lambda deep, fx: copy.copy(deep) is deep and copy.copy(fx.deep_h) is fx.deep_h,
    "deepcopy": lambda deep, fx: copy.deepcopy(deep) is deep
    and copy.deepcopy(fx.deep_h) is fx.deep_h,
    "context": lambda deep, fx: context(_chain(Hole("s"))).hole_sort == "s",
    "parse_context": lambda deep, fx: parse_context(print_term(fx.ctx.body), fx.f1, fx.vars)
    == fx.ctx,
    "compose_contexts": lambda deep, fx: compose_contexts(fx.ctx, fx.ctx).body.size
    == 2 * DEPTH + 1,
    "hall_term": lambda deep, fx: hall_term(fx.hall, ["s"], "s").term is fx.hall,
    "xi_substitute": lambda deep, fx: xi_substitute(
        hall_term(fx.hall, ["s"], "s"), [projection(["s"], 0)]
    ).term
    == fx.hall,
    "parse_term": lambda deep, fx: parse_term(print_term(deep), fx.f1, fx.vars) == deep,
    "typecheck": lambda deep, fx: typecheck(deep, fx.f1, fx.vars) == "s",
    "evaluate": lambda deep, fx: evaluate(fx.rpar_algebra, {"x": 0, "z": 1}, deep) == DEPTH % 2,
    "translation_table": lambda deep, fx: translation_table(fx.rpar_algebra, fx.asg, fx.ctx)
    == G_DEPTH,
    "inverse_translation": lambda deep, fx: inverse_translation(fx.r_par, fx.ctx).accepting_at("s")
    == {G_DEPTH.index(0)},
    "derived_algebra": lambda deep, fx: derived_algebra(fx.deep_h, fx.rpar_algebra, fx.asg)[0].table("g")
    == G_DEPTH,
    "inverse_image": lambda deep, fx: inverse_image(fx.deep_h, fx.r_par, "s").algebra.table("g")
    == G_DEPTH,
    "substitute_uniform": lambda deep, fx: substitute_uniform(deep, {"x": fx.c}).size
    == DEPTH + 1,
    "substitute_occurrences": lambda deep, fx: substitute_occurrences(deep, {"x": [fx.c]}).size
    == DEPTH + 1,
    "apply_context": lambda deep, fx: apply_context(fx.ctx, fx.c).size == DEPTH + 1,
    # a pattern and a variable image, each a chain, are typechecked when built
    "hyperderivor": lambda deep, fx: hyperderivor(
        fx.f1, fx.vars, fx.f1, fx.vars, {"s": "s"}, {**fx.patterns, "g": fx.hall}, {"x": deep, "z": fx.c}
    ).pattern("g") is fx.hall,
    "apply_treehom": lambda deep, fx: apply_treehom(fx.identity, deep) == deep,
    "apply_treehom_deep_pattern": lambda deep, fx: apply_treehom(fx.deep_h, fx.gc).size
    == DEPTH + 1,
    # the image of g's chain needs more subsets than the determinization
    # budget allows: at 2,048 subsets, sigma alone has 2,048 ** 2 entries
    "direct_image_deep_pattern": lambda deep, fx: _message(
        lambda: direct_image(fx.deep_h, fx.r_par, "s")
    )
    == "determinization entry budget exceeded: 4196353 table entries > 4194304",
    "apply_derivor_term": lambda deep, fx: apply_derivor_term(
        fx.d2, hall_term(fx.hall, ["s"], "s")
    ).term.size
    == 2 * DEPTH + 1,
}
# operation -> the walk that still recurses under it
RECURSIVE = {
    "parse_term": "core._Parser.parse",
    "parse_context": "core._Parser.parse",
    "compose_contexts": "core._rebuild",
    "xi_substitute": "core._rebuild",
    "substitute_uniform": "core._rebuild",
    "substitute_occurrences": "core._rebuild",
    "apply_context": "core._rebuild",
    "apply_treehom": "core._rebuild",
    "apply_derivor_term": "core._rebuild",
}


class TestDeepTerms:
    @pytest.mark.parametrize(
        "operation",
        [_recursive(name) if name in RECURSIVE else name for name in DEEP_OPERATIONS],
    )
    def test_depth_inventory(self, operation, f1, x1, rpar_algebra, r_par, d2):
        patterns = {op.name: identity_pattern(op) for op in f1.ops}
        hall = _chain(Var("v0", "s"))
        fx = SimpleNamespace(
            f1=f1, vars=x1, rpar_algebra=rpar_algebra, r_par=r_par, d2=d2, patterns=patterns,
            identity=hyperderivor(f1, x1, f1, x1, {"s": "s"}, patterns, {x: Var(x, "s") for x in "xz"}),
            deep_h=hyperderivor(
                f1, x1, f1, x1, {"s": "s"}, {**patterns, "g": hall}, {x: Var(x, "s") for x in "xz"}
            ),
            c=parse_term("c", f1, x1), gc=parse_term("g(c)", f1, x1), hall=hall,
            ctx=context(_chain(Hole("s"))),
            asg={"x": 0, "z": 1},
        )
        try:
            assert DEEP_OPERATIONS[operation](_chain(Var("x", "s")), fx)
        except RecursionError:  # without its thousand frames, which pytest would format
            raise RecursionError(operation) from None

    def test_collection_walks(self, f1):
        deep = _chain(Var("v0", "s"), 10**5)
        assert variables_of(deep) == {"s": {"v0"}}
        assert len(subterms_of(deep)["s"]) == 10**5 + 1
        # the hash the generated dataclass hash gave, so set orders stay put
        assert hash(deep) == hash((deep.symbol, deep.children, deep.sort, deep.size))
        assert context(_chain(Hole("s"), 10**5)).hole_sort == "s"

    def test_equality(self):
        # built separately, so equality must walk both chains
        a, b = _chain(Var("v0", "s"), 10**5), _chain(Var("v0", "s"), 10**5)
        other = _chain(Var("v1", "s"), 10**5)
        assert a == b and not a != b
        assert a != other and not a == other
        assert len({a, b}) == 1 and b in {a}
        assert len({a, other}) == 2
        assert a != a.children[0]

    def test_variable_against_node(self, f1, x1):
        """A variable and a node at one position make the terms unequal, also
        at the bottom of two chains that agree everywhere else."""
        assert parse_term("g(x)", f1, x1) != parse_term("g(c)", f1, x1)
        assert parse_term("sigma(x,c)", f1, x1) != parse_term("sigma(c,x)", f1, x1)
        over_x, over_c = _chain(Var("x", "s")), _chain(Node("c", (), "s", 1))
        assert over_x.size == over_c.size
        assert over_x != over_c and not over_c == over_x


# The walks the library had before one leaf-replacing walk served
# substitution and plugging and one explicit-stack walk printed, kept as
# references.


def reference_substitute_occurrences(term, replacements):
    counts = occurrence_counts(term)
    sorts_of_vars = {x: s for s, names in variables_of(term).items() for x in names}
    for name, seq in replacements.items():
        want = counts.get(name, 0)
        if len(seq) != want:
            raise ValidationError(
                f"variable {name!r} occurs {want} times but got {len(seq)} replacements"
            )
        if want:
            sort = sorts_of_vars[name]
            for q in seq:
                if q.sort != sort:
                    raise SortError(
                        f"replacement for {name!r} has sort {q.sort!r}, expected {sort!r}"
                    )
    cursor = {name: 0 for name in replacements}

    def walk(t):
        if isinstance(t, Var):
            if t.name in replacements:
                i = cursor[t.name]
                cursor[t.name] = i + 1
                return replacements[t.name][i]
            return t
        children = tuple(walk(c) for c in t.children)
        return Node(t.symbol, children, t.sort, 1 + sum(c.size for c in children))

    return walk(term)


def reference_substitute_uniform(term, mapping):
    if not mapping:
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    children = tuple(reference_substitute_uniform(c, mapping) for c in term.children)
    return Node(term.symbol, children, term.sort, 1 + sum(c.size for c in children))


def reference_print(t):
    """The recursive printer ``print_term`` replaced."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Hole):
        return HOLE
    if not t.children:
        return t.symbol
    return f"{t.symbol}({','.join(reference_print(c) for c in t.children)})"


def reference_plug(t, q):
    if isinstance(t, Hole):
        return q
    if isinstance(t, Var):
        return t
    children = tuple(reference_plug(c, q) for c in t.children)
    return Node(t.symbol, children, t.sort, 1 + sum(c.size for c in children))


def reference_term_sort_key(sig, vars):
    """The nested key of the canonical order: size, then the root's rank
    (operations before variables), then the children's keys."""
    op_rank = {op.name: i for i, op in enumerate(sig.ops)}
    var_rank = {x: i for i, x in enumerate(vars.all_names())}

    def key(t):
        if isinstance(t, Var):
            return (1, (1, var_rank[t.name]), ())
        return (t.size, (0, op_rank[t.symbol]), tuple(key(c) for c in t.children))

    return key


def _outcome(f, *args):
    """The value, or the type and message of the validation error raised."""
    try:
        return f(*args)
    except ValidationError as err:
        return type(err), str(err)


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _random_instance(seed):
    """A random signature with variables, and a random term over it."""
    rng = random.Random(seed)
    sig, vars = random_signature(rng)
    term = random_term(rng, sig, vars, rng.choice(sig.sorts), 7)
    return rng, sig, vars, term


class TestRebuildAgainstReferences:
    @PROPERTY
    @given(st.integers(0, 2**32))
    def test_substitute_uniform(self, seed):
        rng, sig, vars, term = _random_instance(seed)
        if term is None:
            return
        mapping = {}
        for sort, names in vars.by_sort:
            for x in names:
                q = random_term(rng, sig, vars, sort, 4)
                if q is not None and rng.random() < 0.7:
                    mapping[x] = q
        got = substitute_uniform(term, mapping)
        assert got == reference_substitute_uniform(term, mapping)
        assert got.size == len(list(_preorder(got)))

    @PROPERTY
    @given(st.integers(0, 2**32), st.sampled_from(["exact", "fewer", "more", "sort"]))
    def test_substitute_occurrences(self, seed, fault):
        rng, sig, vars, term = _random_instance(seed)
        if term is None:
            return
        counts = occurrence_counts(term)
        replacements = {}
        for sort, names in vars.by_sort:
            for x in names:
                if rng.random() < 0.8:
                    pool = [random_term(rng, sig, vars, sort, 4) for _ in range(counts.get(x, 0))]
                    if None not in pool:
                        replacements[x] = pool
        names = list(replacements)
        rng.shuffle(names)
        replacements = {x: replacements[x] for x in names}  # any order
        if replacements and fault != "exact":
            x = rng.choice(names)
            seq = replacements[x]
            others = [random_term(rng, sig, vars, s, 3) for s in sig.sorts if s != vars.sort_of(x)]
            others = [q for q in others if q is not None]
            if fault == "fewer" and seq:
                replacements[x] = seq[:-1]
            elif fault == "more":
                replacements[x] = [*seq, (seq or others or [Var(x, vars.sort_of(x))])[0]]
            elif fault == "sort" and seq and others:
                replacements[x] = [*seq[:-1], others[0]]
        got = _outcome(substitute_occurrences, term, replacements)
        assert got == _outcome(reference_substitute_occurrences, term, replacements)

    @PROPERTY
    @given(st.integers(0, 2**32))
    def test_contexts(self, seed):
        rng, sig, vars, term = _random_instance(seed)
        if term is None:
            return
        outer = rng.choice(leaf_contexts(term))[0]
        inner_term = random_term(rng, sig, vars, outer.hole_sort, 5)
        q = random_term(rng, sig, vars, outer.hole_sort, 4)
        assert apply_context(outer, q) == reference_plug(outer.body, q)
        inner = rng.choice(leaf_contexts(inner_term))[0]
        want = Context(reference_plug(outer.body, inner.body), inner.hole_sort, outer.root_sort)
        assert compose_contexts(outer, inner) == want
        r = random_term(rng, sig, vars, inner.hole_sort, 4)
        assert apply_context(want, r) == apply_context(outer, apply_context(inner, r))

    @PROPERTY
    @given(st.integers(0, 2**32))
    def test_print_term(self, seed):
        rng, sig, vars, term = _random_instance(seed)
        if term is None:
            return
        ctx = rng.choice(leaf_contexts(term))[0]
        for t in (term, ctx.body):
            assert print_term(t) == reference_print(t)
        if isinstance(term, Node):
            assert repr(term) == f"Node({reference_print(term)})"


# a constant, a unary, a binary and a ternary operation, with variables at
# both sorts
KEY_SIG = signature(
    ["s", "t"], [("c", [], "s"), ("g", ["s"], "s"), ("h", ["s", "t"], "s"), ("k", ["s", "t", "s"], "t")]
)
KEY_VARS = sorted_vars(KEY_SIG, {"s": ["x", "y"], "t": ["u"]})
# a 4-ary operation over mixed sorts, a termless sort and variables at two
# sorts; b has terms at every size
WIDE_SIG = signature(
    ["a", "b", "e"],
    [("q", ["a", "b", "a", "b"], "b"), ("p", ["b", "a"], "a"), ("c", [], "a"), ("f", ["e"], "a"),
     ("h", ["e"], "e"), ("d", [], "b"), ("r", ["b"], "b")],
)
WIDE_VARS = sorted_vars(WIDE_SIG, {"a": ["y", "x"], "b": ["w"]})
# a variable set built directly, listing a sort outside its signature
# first; enumeration reads only the signature's sorts
OUTSIDE_VARS = SortedVars((("zz", ("v",)), ("t", ("u",)), ("s", ("y", "x"))))


class TestSortKeyAgainstReference:
    def test_enumeration_order(self):
        """Each sort's terms come in the order of the nested key, each term
        once, and only at the signature's sorts; a smaller bound gives a
        prefix of each list. Building child tuples by their size tuple
        first breaks the order over ``KEY_SIG`` from 7 nodes on, where the
        ternary ``k``'s second child can have 1 node or 4, and over
        ``WIDE_SIG`` from 6, through ``q``."""
        rng = random.Random(25)
        for sig, vars, bound in (KEY_SIG, KEY_VARS, 7), (WIDE_SIG, WIDE_VARS, 8), (KEY_SIG, OUTSIDE_VARS, 7):
            nested = reference_term_sort_key(sig, vars)
            full = enumerate_all_terms(sig, vars, bound)
            assert list(full) == list(sig.sorts)
            for terms in full.values():
                assert len(set(terms)) == len(terms)
                shuffled = rng.sample(terms, len(terms))
                assert sorted(shuffled, key=nested) == terms
            for small in (0, 1, 2):
                got = enumerate_all_terms(sig, vars, small)
                assert got == {s: [t for t in ts if t.size <= small] for s, ts in full.items()}
        assert enumerate_all_terms(WIDE_SIG, WIDE_VARS, 8)["e"] == []

    def test_memory(self, f1):
        """The enumerator keeps no key per term: over ``c/g/sigma`` with one
        variable, its 61,802 terms of at most 11 nodes peak under 14 MB
        (about 8.6 MB), where a sort by a flat key per term peaked at 21 MB."""
        vars = sorted_vars(f1, {"s": ["x"]})
        tracemalloc.start()
        try:
            terms = enumerate_all_terms(f1, vars, 11)["s"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(terms) == 61_802
        assert peak < 14 * 2**20, peak


class TestSubstitution:
    def test_occurrence_indexed(self, f1, x1):
        p = parse_term("sigma(z,g(z))", f1, x1)
        out = substitute_occurrences(
            p, {"z": [parse_term("c", f1, x1), parse_term("g(c)", f1, x1)]}
        )
        assert print_term(out) == "sigma(c,g(g(c)))"

    def test_no_variables(self, f1, x1):
        p = parse_term("c", f1, x1)
        assert substitute_occurrences(p, {}) == p

    def test_leaf(self, f1, x1):
        p = parse_term("x", f1, x1)
        q = parse_term("g(c)", f1, x1)
        assert substitute_occurrences(p, {"x": [q]}) == q

    def test_identity_family(self, f1, x1):
        rng = random.Random(3)
        for t in rng.sample(enumerate_terms(f1, x1, "s", 6), 50):
            repl = {
                v: [Var(v, "s")] * count_occurrences(t, v, x1) for v in ("x", "z")
            }
            assert substitute_occurrences(t, repl) == t

    def test_count_mismatch(self, f1, x1):
        with pytest.raises(ValidationError):
            substitute_occurrences(
                parse_term("sigma(z,z)", f1, x1), {"z": [parse_term("c", f1, x1)]}
            )

    def test_sort_mismatch(self, f2, x2):
        p = parse_term("iszero(x)", f2, x2)
        bad = parse_term("iszero(zero)", f2, x2)  # sort b, x needs e
        # both substitutions, with one message
        for substitute, replacements in ((substitute_uniform, {"x": bad}), (substitute_occurrences, {"x": [bad]})):
            with pytest.raises(SortError, match="^replacement for 'x' has sort 'b', expected 'e'$"):
                substitute(p, replacements)

    @pytest.mark.parametrize(
        "substitute, replacements",
        [(substitute_uniform, {"x": "c"}), (substitute_occurrences, {}),
         (substitute_occurrences, {"x": []})],
        ids=["uniform", "occurrences", "occurrences-of-x"],
    )
    def test_hole_is_a_sort_error(self, f1, x1, substitute, replacements):
        body = parse_context("sigma(x,g(@))", f1, x1).body
        parsed = {
            x: parse_term(q, f1, x1) if isinstance(q, str) else q
            for x, q in replacements.items()
        }
        with pytest.raises(SortError, match="^a term cannot contain the hole '@'$"):
            substitute(body, parsed)

    # over zero: e, iszero: e -> b, both: e b -> b and x: e, y: b, in the term
    # both(x,both(x,y)); counts are checked before sorts, per variable in the
    # order of the replacements
    FAULTS = [
        ({"x": ["zero"], "y": ["y"]}, ValidationError, "variable 'x' occurs 2 times but got 1 replacements"),
        ({"y": ["y", "y"], "x": ["zero"]}, ValidationError, "variable 'y' occurs 1 times but got 2 replacements"),
        ({"x": ["zero"] * 3, "y": ["zero"]}, ValidationError, "variable 'x' occurs 2 times but got 3 replacements"),
        ({"x": ["zero", "iszero(zero)"], "y": []}, SortError, "replacement for 'x' has sort 'b', expected 'e'"),
        ({"y": [], "x": ["zero", "iszero(zero)"]}, ValidationError, "variable 'y' occurs 1 times but got 0 replacements"),
        ({"x": ["zero", "zero"], "y": ["zero"]}, SortError, "replacement for 'y' has sort 'e', expected 'b'"),
        ({"y": ["y"], "w": ["zero"]}, ValidationError, "variable 'w' occurs 0 times but got 1 replacements"),
    ]

    @pytest.mark.parametrize("replacements, error, message", FAULTS)
    def test_faults(self, replacements, error, message):
        sig = signature(
            ["e", "b"], [("zero", [], "e"), ("iszero", ["e"], "b"), ("both", ["e", "b"], "b")]
        )
        vars = sorted_vars(sig, {"e": ["x"], "b": ["y"]})
        term = parse_term("both(x,both(x,y))", sig, vars)
        parsed = {x: [parse_term(q, sig, vars) for q in seq] for x, seq in replacements.items()}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            substitute_occurrences(term, parsed)
        assert _outcome(reference_substitute_occurrences, term, parsed) == (error, message)


class TestContexts:
    def test_apply(self, f1, x1):
        ctx = parse_context("g(@)", f1, x1)
        assert print_term(apply_context(ctx, parse_term("c", f1, x1))) == "g(c)"

    def test_compose(self, f1, x1):
        outer = parse_context("g(@)", f1, x1)
        inner = parse_context("sigma(@,z)", f1, x1)
        both = compose_contexts(outer, inner)
        assert print_term(apply_context(both, parse_term("c", f1, x1))) == "g(sigma(c,z))"

    def test_identity(self, f1, x1):
        ident = hole_context("s")
        q = parse_term("sigma(x,c)", f1, x1)
        assert apply_context(ident, q) == q

    def test_compose_associates(self, f1, x1):
        a = parse_context("g(@)", f1, x1)
        b = parse_context("sigma(@,z)", f1, x1)
        c = parse_context("sigma(x,@)", f1, x1)
        left = compose_contexts(compose_contexts(a, b), c)
        right = compose_contexts(a, compose_contexts(b, c))
        assert left == right

    def test_hole_identity_neutral(self, f1, x1):
        t = parse_context("sigma(@,z)", f1, x1)
        ident = hole_context("s")
        assert compose_contexts(t, ident) == t
        assert compose_contexts(ident, t) == t

    def test_parse_walks_the_body_once(self, f1, x1, monkeypatch):
        walks = []
        preorder = core._preorder
        monkeypatch.setattr(core, "_preorder", lambda t: walks.append(t) or preorder(t))
        ctx = parse_context("sigma(x,g(@))", f1, x1)
        assert walks == [ctx.body]

    def test_two_holes_rejected(self, f1, x1):
        with pytest.raises(ValidationError):
            parse_context("sigma(@,@)", f1, x1)

    def test_declared_sorts_must_match_the_body(self):
        # f: a -> b; a context that declared hole sort b would plug a term of
        # sort b into f's argument
        body = Node("f", (Hole("a"),), "b", 2)
        assert Context(body, "a", "b") == context(body)
        for hole_sort, root_sort in (("b", "a"), ("b", "b"), ("a", "a")):
            with pytest.raises(SortError, match=(
                f"^context declares hole sort '{hole_sort}' and root sort '{root_sort}', "
                "but its body has 'a' and 'b'$"
            )):
                Context(body, hole_sort, root_sort)

    def test_sort_mismatch(self, f2, x2):
        ctx = parse_context("iszero(@)", f2, x2)
        with pytest.raises(SortError):
            apply_context(ctx, parse_term("iszero(zero)", f2, x2))

    def test_print_roundtrip(self, f1, x1, f2, x2):
        # every context carved from a term of at most 5 nodes, with the hole
        # at each leaf in turn, over both signatures; the text comes from the
        # term's tokens, not from the context printer
        for sig, vars in ((f1, x1), (f2, x2)):
            for terms in enumerate_all_terms(sig, vars, 5).values():
                for term in terms:
                    self._check_carved(sig, vars, term)

    def _check_carved(self, sig, vars, term):
        tokens = re.findall(r"\w+|[(),]", print_term(term))
        spots = [
            i
            for i, tok in enumerate(tokens)
            if tok not in "()," and tokens[i + 1 : i + 2] != ["("]
        ]
        carved = leaf_contexts(term)
        assert len(carved) == len(spots)
        for i, (ctx, leaf) in zip(spots, carved):
            text = "".join(tokens[:i] + [HOLE] + tokens[i + 1 :])
            with pytest.raises(ParseError):
                parse_term(text, sig, vars)
            if text == HOLE and len(sig.sorts) > 1:
                with pytest.raises(ParseError):  # a bare hole has no sort
                    parse_context(text, sig, vars)
                continue
            parsed = parse_context(text, sig, vars)
            assert parsed == ctx, text
            assert print_context(parsed) == text
            assert apply_context(parsed, leaf) == term


class TestEnumeration:
    def test_f1_one_node(self, f1, x1):
        assert [print_term(t) for t in enumerate_terms(f1, x1, "s", 1)] == ["c", "x", "z"]

    def test_f2_two_nodes(self, f2, x2):
        assert [print_term(t) for t in enumerate_terms(f2, x2, "b", 2)] == [
            "iszero(zero)",
            "iszero(x)",
        ]

    def test_f2_no_boolean_constants(self, f2, x2):
        assert enumerate_terms(f2, x2, "b", 1) == []

    def test_monotone_and_typed(self, f1, x1):
        smaller = set(enumerate_terms(f1, x1, "s", 4))
        bigger = set(enumerate_terms(f1, x1, "s", 5))
        assert smaller <= bigger
        for t in bigger:
            assert typecheck(t, f1, x1) == "s"

    def test_exact_sizes(self, f1, x1):
        for t in enumerate_terms(f1, x1, "s", 6):
            assert t.size <= 6

    @pytest.mark.parametrize("max_nodes", [7])
    def test_parse_print_roundtrip(self, f1, x1, f2, x2, max_nodes):
        for sig, vars in ((f1, x1), (f2, x2)):
            universe = enumerate_all_terms(sig, vars, max_nodes)
            for sort, terms in universe.items():
                for t in terms:
                    assert parse_term(print_term(t), sig, vars) == t


class TestSignatureValidation:
    def test_duplicate_op_name(self):
        with pytest.raises(ValidationError):
            signature(["s"], [("f", [], "s"), ("f", ["s"], "s")])

    def test_unknown_sort(self):
        with pytest.raises(ValidationError):
            signature(["s"], [("f", ["t"], "s")])

    def test_empty_sorts(self):
        with pytest.raises(ValidationError):
            signature([], [])

    def test_variable_collides_with_op(self, f1):
        with pytest.raises(ValidationError):
            sorted_vars(f1, {"s": ["g"]})

    def test_variable_globally_unique(self, f2):
        with pytest.raises(ValidationError):
            sorted_vars(f2, {"e": ["x"], "b": ["x"]})


# validation branches no other test reaches: a call, its error, its message
BRANCHES = {
    "duplicate-sorts": (
        lambda fx: Signature(("s", "s"), ()), ValidationError, "duplicate sort names"
    ),
    "vars-at-unknown-sort": (
        lambda fx: sorted_vars(fx("f1"), {"t": ["y"]}),
        ValidationError, "variables declared at unknown sort 't'",
    ),
    "bad-variable-name": (
        lambda fx: sorted_vars(fx("f1"), {"s": ["1x"]}), ValidationError, "bad variable name '1x'"
    ),
    "variable-named-like-operation": (
        lambda fx: parse_term("c", fx("f1"), SortedVars((("s", ("c",)),))),
        ValidationError, "variable names collide with operation names: ['c']",
    ),
    "compose-mismatched-sorts": (
        lambda fx: compose_contexts(
            parse_context("iszero(@)", fx("f2"), fx("x2")),
            parse_context("iszero(@)", fx("f2"), fx("x2")),
        ),
        SortError, "cannot compose: inner root sort 'b' vs outer hole sort 'e'",
    ),
    "enumerate-unknown-sort": (
        lambda fx: enumerate_terms(fx("f1"), fx("x1"), "t", 3), ValidationError, "unknown sort 't'"
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_validation_branches(case, request):
    check_branch(BRANCHES, case, request)


def test_enumeration_below_one_node_is_empty(f2, x2):
    assert enumerate_all_terms(f2, x2, 0) == {"e": [], "b": []}
