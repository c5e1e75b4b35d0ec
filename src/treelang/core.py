"""Signatures, sorted variables, terms, contexts, and term enumeration.

Terms are immutable trees over a many-sorted signature and a finite sorted
variable set.  Every value in this module is frozen after construction and
safe to share.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


class ValidationError(ValueError):
    """An input violated a structural invariant."""


class ParseError(ValidationError):
    pass


class SortError(ValidationError):
    pass


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _frozen(self, name, *value):
    from dataclasses import FrozenInstanceError  # on the error path only
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


_new = object.__new__


def _record(cls):
    """``dataclass(frozen=True)`` from closures: no ``exec``, no ``dataclasses``
    import.  ``__init__`` sets the fields in order through ``object.__setattr__``,
    inline or in the slots the class declares; what ``__post_init__`` adds is
    not a field.  ``cls._of(*fields)`` sets them the same way without running
    ``__post_init__``, for values the library vouches for.  A record pickles
    as its fields, so unpickling runs ``__init__`` and its checks again and
    carries no lookup or cache over.  A record is immutable, so a copy,
    shallow or deep, is the record itself."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n, post_init = len(names), getattr(cls, "__post_init__", None)
    indices, set_field = range(n), object.__setattr__
    key = attrgetter(*names) if n > 1 else lambda self, get=attrgetter(*names): (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if len(args) + len(kwargs) != n or {*names[: len(args)], *kwargs} != {*names}:
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            args = (*args, *map(kwargs.__getitem__, names[len(args) :]))
        for i in indices:
            set_field(self, names[i], args[i])
        if post_init is not None:
            post_init(self)

    def _of(*args):
        self = _new(cls)
        for i in indices:
            set_field(self, names[i], args[i])
        return self

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in names)})"

    methods = {
        "__eq__": __eq__,
        "__hash__": lambda self: hash(key(self)),
        "__repr__": __repr__,
        "__reduce__": lambda self: (self.__class__, key(self)),
        "__copy__": lambda self: self,
        "__deepcopy__": lambda self, memo: self,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:  # a method the class defines stays
            setattr(cls, name, method)
    cls.__init__, cls.__match_args__, cls._of = __init__, names, staticmethod(_of)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@_record
class Operation:
    name: str
    arity: tuple[str, ...]
    result: str


@_record
class Signature:
    """A finite sort set plus operation symbols with arity words and result sorts.

    Operation names are unique: the same name at two ranks is rejected so that
    term parsing stays deterministic.
    """

    sorts: tuple[str, ...]
    ops: tuple[Operation, ...]

    def __post_init__(self):
        if not self.sorts:
            raise ValidationError("signature needs at least one sort")
        if len(set(self.sorts)) != len(self.sorts):
            raise ValidationError("duplicate sort names")
        seen = set()
        for op in self.ops:
            if op.name in seen:
                raise ValidationError(f"operation {op.name!r} declared at two ranks")
            seen.add(op.name)
            for s in (*op.arity, op.result):
                if s not in self.sorts:
                    raise ValidationError(f"operation {op.name!r} uses unknown sort {s!r}")
        # name -> operation, not a field (see ``_record``); callers must not mutate it
        object.__setattr__(self, "op_by_name", {op.name: op for op in self.ops})

    def operation(self, name: str) -> Operation:
        try:
            return self.op_by_name[name]
        except KeyError:
            raise ValidationError(f"unknown operation symbol {name!r}") from None


def signature(sorts: Sequence[str], ops: Iterable[tuple[str, Sequence[str], str]]) -> Signature:
    """Convenience builder: ``signature(["s"], [("c", [], "s"), ("g", ["s"], "s")])``."""
    return Signature(tuple(sorts), tuple(Operation(n, tuple(a), r) for n, a, r in ops))


def _check_sorts_once(pairs: Iterable[tuple[str, object]], what: str) -> None:
    """Reject a per-sort table that lists a sort twice."""
    seen = set()
    for sort, _ in pairs:
        if sort in seen:
            raise ValidationError(f"{what} list sort {sort!r} twice")
        seen.add(sort)


@_record
class SortedVars:
    """Per-sort finite ordered variable sets; names are globally unique."""

    by_sort: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        _check_sorts_once(self.by_sort, "variables")
        # name -> sort and the names in order, not fields (see ``_record``)
        sorts = {x: s for s, xs in self.by_sort for x in xs}
        if len(sorts) != sum(len(xs) for _, xs in self.by_sort):
            raise ValidationError("variable names must be globally unique across sorts")
        object.__setattr__(self, "_sorts", sorts)
        object.__setattr__(self, "_names", tuple(sorts))

    def names(self, sort: str) -> tuple[str, ...]:
        return tuple(x for x, s in self._sorts.items() if s == sort)

    def sort_of(self, name: str) -> str | None:
        return self._sorts.get(name)

    def all_names(self) -> tuple[str, ...]:
        return self._names


def sorted_vars(signature: Signature, by_sort: Mapping[str, Sequence[str]]) -> SortedVars:
    """Build a variable set over the signature's sorts, disjoint from its op names."""
    opnames = {op.name for op in signature.ops}
    for sort, names in by_sort.items():
        if sort not in signature.sorts:
            raise ValidationError(f"variables declared at unknown sort {sort!r}")
        for x in names:
            if x in opnames:
                raise ValidationError(f"variable {x!r} collides with an operation name")
            if not NAME_RE.fullmatch(x):
                raise ValidationError(f"bad variable name {x!r}")
    pairs = tuple((s, tuple(by_sort.get(s, ()))) for s in signature.sorts)
    return SortedVars(pairs)


class Term:
    """Base class for sorted terms: either a Var leaf or an operation Node."""

    __slots__ = ()
    sort: str
    size: int


@_record
class Var(Term):
    __slots__ = ("name", "sort")
    name: str
    sort: str

    @property
    def size(self) -> int:
        return 1

    def __repr__(self):
        return f"Var({self.name})"


@_record
class Node(Term):
    __slots__ = ("symbol", "children", "sort", "size", "_hash")
    symbol: str
    children: tuple[Term, ...]
    sort: str
    size: int

    def __hash__(self):
        """The hash ``_record`` generates, kept in the ``_hash`` slot once
        computed (not a field, so equality sees only the declared data).
        Subterms not yet hashed are hashed bottom-up with an explicit stack,
        so hashing a children tuple never recurses.  Computing it on first
        use, not at construction, keeps terms that are never hashed cheap."""
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            t = stack[-1]
            pending = [c for c in t.children if isinstance(c, Node) and not hasattr(c, "_hash")]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            # a shared subterm may be stacked twice; it hashes to the same value
            object.__setattr__(t, "_hash", hash((t.symbol, t.children, t.sort, t.size)))
        return self._hash

    def __eq__(self, other):
        """The equality ``_record`` generates (same class, symbol,
        children, sort and size), walked with an explicit stack, so comparing
        deep terms never recurses.  Shared subterms compare by identity."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if not isinstance(a, Node):
                if a != b:
                    return False
            elif (a.symbol, a.sort, a.size, len(a.children)) != (
                b.symbol, b.sort, b.size, len(b.children)
            ):
                return False
            else:
                stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"Node({print_term(self)})"


_set_symbol, _set_children, _set_sort, _set_size = (
    Node.symbol.__set__, Node.children.__set__, Node.sort.__set__, Node.size.__set__
)


def _new_node(symbol: str, children: tuple[Term, ...], sort: str, size: int) -> Node:
    """A ``Node`` from data the caller vouches for, without ``node``'s checks:
    ``Node._of`` unrolled, each slot written through its descriptor, because
    the generic loop costs nearly twice as much on the build-heavy read path."""
    t = _new(Node)
    _set_symbol(t, symbol)
    _set_children(t, children)
    _set_sort(t, sort)
    _set_size(t, size)
    return t


HOLE = "@"


@_record
class Hole(Term):
    __slots__ = ("sort",)
    sort: str

    @property
    def size(self) -> int:
        return 1

    def __repr__(self):
        return f"Hole({self.sort})"


def node(op: Operation, children: Sequence[Term]) -> Node:
    """Build a well-sorted operation node, checking child count and sorts."""
    children = tuple(children)
    arity = op.arity
    if len(children) != len(arity):
        raise SortError(
            f"{op.name!r} expects {len(arity)} arguments, got {len(children)}"
        )
    size = 1
    for child, want in zip(children, arity):
        if child.sort != want:
            i = next(i for i, c in enumerate(children) if c.sort != arity[i])
            raise SortError(
                f"argument {i} of {op.name!r} must have sort {arity[i]!r}, "
                f"got {children[i].sort!r}"
            )
        size += child.size
    return _new_node(op.name, children, op.result, size)


def _check_disjoint(sig: Signature, vars: SortedVars) -> None:
    opnames = {op.name for op in sig.ops}
    clash = opnames.intersection(vars.all_names())
    if clash:
        raise ValidationError(f"variable names collide with operation names: {sorted(clash)}")


# ---------------------------------------------------------------------------
# parsing and printing


# a token, or any other visible character, which ``findall`` reports as ""
_TOKEN_RE = re.compile(r"([(),@]|[A-Za-z_][A-Za-z0-9_]*)|\S")
_PUNCTUATION = frozenset("(),@")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        bad = next(m for m in _TOKEN_RE.finditer(text) if m.group(1) is None)
        raise ParseError(f"unexpected character {bad.group()!r} at offset {bad.start()}")
    return tokens


class _Parser:
    """Recursive descent over the token list, for terms and contexts alike.

    Each argument position passes its expected sort down, so a hole ``@``
    takes the sort of the position it fills; only a context parser
    (``holes=True``) accepts it.
    """

    def __init__(self, text: str, sig: Signature, vars: SortedVars, holes: bool):
        _check_disjoint(sig, vars)
        # a None sentinel ends the tokens, so a read never runs off the end
        self.tokens = _tokenize(text) + [None]
        self.pos = 0
        self.sig = sig
        # a name is looked up as an operation first; operation names are not
        # checked, so one named like a punctuation token is left out here and
        # that token still gets its own error
        opmap = sig.op_by_name
        if not opmap.keys().isdisjoint(_PUNCTUATION):
            opmap = {name: op for name, op in opmap.items() if name not in _PUNCTUATION}
        self.opmap = opmap
        # one leaf per variable, shared by its occurrences
        self.leaves = {x: Var(x, sort) for sort, xs in vars.by_sort for x in xs}
        self.holes = holes

    def parse(self, expected: str | None) -> Term:
        """One term or context body; ``expected`` is the sort its position
        demands, or None at the root."""
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        op = self.opmap.get(tok)
        if op is not None:
            args: list[Term] = []
            if tokens[self.pos] == "(":
                self.pos += 1
                if tokens[self.pos] != ")":
                    for want in op.arity:
                        args.append(self.parse(want))
                        if tokens[self.pos] != ",":
                            break
                        self.pos += 1
                    else:  # a comma after the last argument
                        raise ParseError(f"too many arguments for {tok!r}")
                close = tokens[self.pos]
                if close is None:
                    raise ParseError("unexpected end of input")
                if close != ")":
                    raise ParseError("expected ')'")
                self.pos += 1
            return node(op, args)
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == HOLE:
            if not self.holes:
                raise ParseError("a term cannot contain the hole '@'")
            if expected is None:
                if len(self.sig.sorts) != 1:
                    raise ParseError("bare hole is ambiguous over a multi-sorted signature")
                expected = self.sig.sorts[0]
            return Hole(expected)
        if tok in _PUNCTUATION:  # every other token is a name
            raise ParseError(f"expected a name, got {tok!r}")
        var = self.leaves.get(tok)
        if var is None:
            raise ParseError(f"unknown symbol {tok!r}")
        if tokens[self.pos] == "(":
            raise ParseError(f"variable {tok!r} cannot take arguments")
        return var

    def parse_all(self) -> Term:
        body = self.parse(None)
        trailing = self.tokens[self.pos]
        if trailing is not None:
            raise ParseError(f"trailing input at token {trailing!r}")
        return body


def parse_term(text: str, sig: Signature, vars: SortedVars) -> Term:
    """Parse prefix syntax ``name`` / ``name(t1,...,tn)`` into a well-sorted term."""
    return _Parser(text, sig, vars, holes=False).parse_all()


def print_term(term: Term) -> str:
    """Prefix syntax; a context hole prints as ``@``.  One explicit-stack walk
    appends the tokens to one list, so printing is linear at any depth."""
    out: list[str] = []
    stack: list = [term]  # terms, and the punctuation due after them
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        t = pop()
        cls = t.__class__
        if cls is str:
            emit(t)
        elif cls is Var:
            emit(t.name)
        elif cls is Hole:
            emit(HOLE)
        elif not t.children:
            emit(t.symbol)
        else:
            emit(t.symbol + "(")
            push(")")
            for c in t.children[:0:-1]:
                push(c)
                push(",")
            push(t.children[0])
    return "".join(out)


def typecheck(term: Term, sig: Signature, vars: SortedVars) -> str:
    """Re-validate an untrusted term; returns its unique sort.  Each node is
    checked against the sorts its children carry, after them (the reversed
    preorder), so a fault is reported at its own node, at any depth."""
    _check_disjoint(sig, vars)
    for t in reversed([*_preorder(term)]):
        if isinstance(t, Var):
            sort = vars.sort_of(t.name)
            if sort is None:
                raise SortError(f"unknown variable {t.name!r}")
            if sort != t.sort:
                raise SortError(f"variable {t.name!r} tagged with wrong sort {t.sort!r}")
            continue
        if isinstance(t, Hole):
            raise SortError("a term cannot contain the hole '@'")
        op = sig.operation(t.symbol)
        if len(t.children) != len(op.arity):
            raise SortError(f"{t.symbol!r} arity mismatch")
        for child, want in zip(t.children, op.arity):
            if child.sort != want:
                raise SortError(f"child of {t.symbol!r} has sort {child.sort!r}, expected {want!r}")
        if t.sort != op.result:
            raise SortError(f"node {t.symbol!r} tagged with wrong sort {t.sort!r}")
    return term.sort


# ---------------------------------------------------------------------------
# occurrences, variables, subterms


def count_occurrences(term: Term, name: str, vars: SortedVars) -> int:
    """Number of occurrences of the variable in the term (preorder leaves)."""
    if vars.sort_of(name) is None:
        raise ValidationError(f"unknown variable {name!r}")
    return occurrence_counts(term).get(name, 0)


def occurrence_counts(term: Term) -> dict[str, int]:
    """Per-variable occurrence counts, keyed by variable name."""
    counts: dict[str, int] = {}
    for t in _preorder(term):
        if isinstance(t, Var):
            counts[t.name] = counts.get(t.name, 0) + 1
    return counts


def variables_of(term: Term) -> dict[str, set[str]]:
    """The sorted variable set of the term: sort -> set of names."""
    out: dict[str, set[str]] = {}
    for t in _preorder(term):
        if isinstance(t, Var):
            out.setdefault(t.sort, set()).add(t.name)
    return out


def subterms_of(term: Term) -> dict[str, set[Term]]:
    """All subterms, grouped by sort (the set is downward closed under children)."""
    out: dict[str, set[Term]] = {}
    for t in _preorder(term):
        out.setdefault(t.sort, set()).add(t)
    return out


def _preorder(term: Term):
    """Every subterm occurrence in preorder.  The stack is explicit, so a
    deep term does not exhaust the interpreter's recursion limit."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if t.__class__ is Node:
            stack += t.children[::-1]


def _rebuild(term: Term, leaf, nodes=None) -> Term:
    """The term with each variable or hole ``t`` replaced by ``leaf(t)``,
    called in preorder: the one rebuild walk, for substitution, context
    plugging and tree homomorphisms.  A node is rebuilt over its children's
    images, or, given ``nodes`` (symbol -> function of the children's
    images), is its symbol's function of them: the homomorphic extension of
    the leaf map.  The function is looked up before the children are
    walked, so an unknown symbol raises ``KeyError`` outermost first.  It
    recurses, one frame per level, so like the parser it fails on terms
    deeper than the interpreter's recursion limit."""
    if term.__class__ is not Node:
        return leaf(term)
    if nodes is None:
        children = tuple([_rebuild(c, leaf) for c in term.children])
        return _new_node(term.symbol, children, term.sort, 1 + sum([c.size for c in children]))
    build = nodes[term.symbol]
    return build(*[_rebuild(c, leaf, nodes) for c in term.children])


def substitute_occurrences(
    term: Term, replacements: Mapping[str, Sequence[Term]]
) -> Term:
    """Occurrence-indexed substitution.

    For each variable x the sequence supplies one replacement per occurrence of
    x, in preorder; occurrence alpha of x becomes ``replacements[x][alpha]``.
    Variables without an entry keep their occurrences.  Each replacement must
    have the variable's sort, and the sequence length must equal the
    occurrence count.
    """
    counts = dict.fromkeys(replacements, 0)
    sorts: dict[str, str] = {}

    def leaf(t: Term) -> Term:
        if t.__class__ is Hole:
            raise SortError("a term cannot contain the hole '@'")
        i = counts.get(t.name)
        if i is None:
            return t
        counts[t.name] = i + 1
        sorts[t.name] = t.sort
        seq = replacements[t.name]
        return seq[i] if i < len(seq) else t

    out = _rebuild(term, leaf)
    for name, seq in replacements.items():
        want = counts[name]
        if len(seq) != want:
            raise ValidationError(
                f"variable {name!r} occurs {want} times but got {len(seq)} replacements"
            )
        for q in seq:
            if q.sort != sorts[name]:
                raise SortError(
                    f"replacement for {name!r} has sort {q.sort!r}, expected {sorts[name]!r}"
                )
    return out


def substitute_uniform(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace every occurrence of each mapped variable by one term of its sort."""
    if not mapping:
        return term

    def leaf(t: Term) -> Term:
        if t.__class__ is Hole:
            raise SortError("a term cannot contain the hole '@'")
        q = mapping.get(t.name, t)
        if q.sort != t.sort:
            raise SortError(f"replacement for {t.name!r} has sort {q.sort!r}, expected {t.sort!r}")
        return q

    return _rebuild(term, leaf)


# ---------------------------------------------------------------------------
# contexts


@_record
class Context:
    """A term with exactly one hole of a declared sort.

    Plugging a term of the hole sort yields a well-sorted term of the root
    sort; composition of contexts plugs one context into another's hole.
    """

    body: Term  # contains exactly one Hole leaf
    hole_sort: str
    root_sort: str

    def __post_init__(self):
        hole = _hole(self.body)
        if (hole.sort, self.body.sort) != (self.hole_sort, self.root_sort):
            raise SortError(
                f"context declares hole sort {self.hole_sort!r} and root sort "
                f"{self.root_sort!r}, but its body has {hole.sort!r} and {self.body.sort!r}"
            )


def context(body: Term) -> Context:
    """The context of a body with one hole, its sorts read off the body."""
    return Context._of(body, _hole(body).sort, body.sort)


def _hole(body: Term) -> Hole:
    holes = [h for h in _preorder(body) if isinstance(h, Hole)]
    if len(holes) != 1:
        raise ValidationError(f"context must have exactly one hole, found {len(holes)}")
    return holes[0]


def hole_context(sort: str) -> Context:
    """The identity translation: a context that is just the hole."""
    return Context(Hole(sort), sort, sort)


def apply_context(ctx: Context, q: Term) -> Term:
    if q.sort != ctx.hole_sort:
        raise SortError(
            f"context hole has sort {ctx.hole_sort!r}, got term of sort {q.sort!r}"
        )
    return _rebuild(ctx.body, lambda t: q if t.__class__ is Hole else t)


def compose_contexts(outer: Context, inner: Context) -> Context:
    """The context ``outer(inner(.))``; inner's root must fit outer's hole."""
    if inner.root_sort != outer.hole_sort:
        raise SortError(
            f"cannot compose: inner root sort {inner.root_sort!r} vs outer hole sort "
            f"{outer.hole_sort!r}"
        )
    return Context(apply_context(outer, inner.body), inner.hole_sort, outer.root_sort)


def parse_context(text: str, sig: Signature, vars: SortedVars) -> Context:
    """Parse a context; the hole is written ``@`` and an optional sort cannot be
    inferred from syntax, so the hole takes the sort demanded by its position.

    A bare ``@`` needs the signature to have a single sort; elsewhere the hole
    sort is fixed by the argument position it fills.
    """
    return context(_Parser(text, sig, vars, holes=True).parse_all())


def print_context(ctx: Context) -> str:
    return print_term(ctx.body)


# ---------------------------------------------------------------------------
# canonical ordering and enumeration


def enumerate_all_terms(
    sig: Signature, vars: SortedVars, max_nodes: int
) -> dict[str, list[Term]]:
    """All well-sorted terms with at most ``max_nodes`` nodes, per sort, in
    canonical order: by size, then by the root symbol in declaration order
    (operations before variables), then by the children lexicographically,
    each child ordered by its size and then canonically."""
    _check_disjoint(sig, vars)
    # by_size[n][sort] lists the terms with exactly n nodes, in canonical
    # order, so the result is the layers joined and nothing is sorted
    by_size: list[dict[str, list[Term]]] = [{s: [] for s in sig.sorts}]
    for n in range(1, max_nodes + 1):
        layer: dict[str, list[Term]] = {s: [] for s in sig.sorts}
        for op in sig.ops:
            k = len(op.arity)
            # suffixes[r] lists the tuples of terms of the sorts op.arity[i:]
            # with r nodes in all, in canonical order
            suffixes: dict[int, list[tuple[Term, ...]]] = {0: [()]}
            for i in range(k - 1, -1, -1):
                # every position takes at least one node, the first all that
                # the later ones leave of n - 1
                later = k - 1 - i
                suffixes = {
                    r: [
                        (t, *rest)
                        for m in range(1, r - later + 1)
                        for t in by_size[m][op.arity[i]]
                        for rest in suffixes.get(r - m, ())
                    ]
                    for r in (range(later + 1, n - i) if i else (n - 1,))
                }
            layer[op.result] += [
                _new_node(op.name, children, op.result, n) for children in suffixes.get(n - 1, ())
            ]
        if n == 1:
            for s in sig.sorts:
                layer[s] += [Var(x, s) for x in vars.names(s)]
        by_size.append(layer)
    return {s: [t for layer in by_size for t in layer[s]] for s in sig.sorts}


def enumerate_terms(
    sig: Signature, vars: SortedVars, sort: str, max_nodes: int
) -> list[Term]:
    if sort not in sig.sorts:
        raise ValidationError(f"unknown sort {sort!r}")
    return enumerate_all_terms(sig, vars, max_nodes)[sort]
