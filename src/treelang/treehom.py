"""Hyperderivors and the tree homomorphisms they determine: application,
derived algebras, inverse images, and direct images of linear maps.

A hyperderivor maps a source signature-with-variables to a target one: a sort
map, one target-term pattern per operation symbol over the reserved
placeholders ``v0, v1, ...``, and a target term per source variable.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Sequence

from .algebra import FiniteAlgebra, _values, evaluate
from .core import (
    Hole,
    Node,
    Operation,
    Signature,
    SortedVars,
    SortError,
    Term,
    ValidationError,
    Var,
    _new_node,
    _preorder,
    _rebuild,
    _record,
    node,
    occurrence_counts,
    sorted_vars,
    typecheck,
)
from .recognizer import Recognizer, minimize, recognizer

PLACEHOLDER_RE = re.compile(r"v(\d+)")


def placeholder(i: int, sort: str) -> Var:
    return Var(f"v{i}", sort)


def identity_pattern(op: Operation) -> Node:
    """The pattern ``op(v0,...,vn-1)`` that maps the operation to itself."""
    return node(op, [placeholder(i, w) for i, w in enumerate(op.arity)])


def placeholder_index(name: str) -> int | None:
    m = PLACEHOLDER_RE.fullmatch(name)
    return int(m.group(1)) if m else None


def _checked_sort_map(source: Signature, target: Signature, sort_map) -> dict[str, str]:
    """The sort map as a dict, checked to send each source sort to a target sort."""
    smap = dict(sort_map)
    if set(smap) != set(source.sorts):
        raise ValidationError("sort map must cover every source sort")
    for t in smap.values():
        if t not in target.sorts:
            raise ValidationError(f"sort map hits unknown target sort {t!r}")
    return smap


@_record
class Hyperderivor:
    source: Signature
    source_vars: SortedVars
    target: Signature
    target_vars: SortedVars
    sort_map: tuple[tuple[str, str], ...]  # source sort -> target sort
    patterns: tuple[tuple[str, Term], ...]  # source opname -> target term
    var_images: tuple[tuple[str, Term], ...]  # source variable -> target term

    def __post_init__(self):
        smap = _checked_sort_map(self.source, self.target, self.sort_map)
        patterns = dict(self.patterns)
        images = dict(self.var_images)
        # lookups for sort_image/pattern/var_image, not fields (see ``core._record``)
        object.__setattr__(self, "_sort_map", smap)
        object.__setattr__(self, "_patterns", patterns)
        object.__setattr__(self, "_var_images", images)
        for y in self.target_vars.all_names():
            if placeholder_index(y) is not None:
                raise ValidationError(
                    f"target variable {y!r} collides with reserved placeholders"
                )
        if set(patterns) != {op.name for op in self.source.ops}:
            raise ValidationError("patterns must cover every source operation")
        for op in self.source.ops:
            arity = tuple(smap[w] for w in op.arity)
            env = placeholder_vars(self.target, arity, self.target_vars)
            _typecheck_as(
                f"pattern for {op.name!r}", patterns[op.name], self.target, env, smap[op.result]
            )
        if set(images) != set(self.source_vars.all_names()):
            raise ValidationError("variable images must cover every source variable")
        # an image is written in the target variables alone: a placeholder
        # in it is an unknown variable
        for sort, names in self.source_vars.by_sort:
            for x in names:
                _typecheck_as(
                    f"image of {x!r}", images[x], self.target, self.target_vars, smap[sort]
                )

    def sort_image(self, sort: str) -> str:
        return self._sort_map[sort]

    def pattern(self, opname: str) -> Term:
        return self._patterns[opname]

    def var_image(self, name: str) -> Term:
        return self._var_images[name]

    @property
    def is_linear(self) -> bool:
        """No placeholder occurs more than once in any pattern."""
        for body in self._patterns.values():
            counts = occurrence_counts(body)
            for name, n in counts.items():
                if placeholder_index(name) is not None and n > 1:
                    return False
        return True


def hyperderivor(
    source: Signature,
    source_vars: SortedVars,
    target: Signature,
    target_vars: SortedVars,
    sort_map: Mapping[str, str],
    patterns: Mapping[str, Term],
    var_images: Mapping[str, Term],
) -> Hyperderivor:
    # a missing key is left out, for __post_init__ to report
    return Hyperderivor(
        source,
        source_vars,
        target,
        target_vars,
        tuple((s, sort_map[s]) for s in source.sorts if s in sort_map),
        tuple((op.name, patterns[op.name]) for op in source.ops if op.name in patterns),
        tuple((x, var_images[x]) for x in source_vars.all_names() if x in var_images),
    )


def placeholder_vars(
    sig: Signature, arity: Sequence[str], base: SortedVars | None = None
) -> SortedVars:
    """The variables a pattern of this arity word is written in: the
    variables of ``base`` plus the placeholders ``v0..v(n-1)`` at the sorts
    of the word."""
    by_sort: dict[str, list[str]] = {s: list(xs) for s, xs in base.by_sort} if base else {}
    for i, w in enumerate(arity):
        by_sort.setdefault(w, []).append(f"v{i}")
    return sorted_vars(sig, by_sort)


def _typecheck_as(what: str, term: Term, sig: Signature, vars: SortedVars, sort: str) -> None:
    """Check with ``typecheck`` that the term has the sort; errors name ``what``."""
    try:
        got = typecheck(term, sig, vars)
    except ValidationError as err:
        raise ValidationError(f"{what}: {err}") from None
    if got != sort:
        raise ValidationError(f"{what} has sort {got!r}, expected {sort!r}")


def _template(pattern: Term, arity: int) -> Callable[..., Term]:
    """Compile a pattern into a function of the images of ``v0..v(arity-1)``
    that returns the instantiated pattern: one statement builds each node
    above a placeholder from its children, children first (the reversed
    preorder, as ``core.typecheck`` walks), and a subterm without
    placeholders is the pattern's own, shared by every image.  Only
    generated names and ``repr``s of symbols and sorts enter the source.

    ``sigma(g(c), v0)`` at arity 1 compiles to::

        def template(v0):
            n0 = new_node('sigma', (t0, v0,), 's', 3 + v0.size)
            return n0
    """
    consts: dict[str, object] = {"new_node": _new_node}
    lines: list[str] = []

    def const(t: Term) -> str:
        name = f"t{len(consts) - 1}"
        consts[name] = t
        return name

    # per subterm, the expression of its image, or None when it holds no
    # placeholder; a node pops its children's, the first child's on top
    stack: list[str | None] = []
    for t in reversed([*_preorder(pattern)]):
        if isinstance(t, Var):
            stack.append(t.name if placeholder_index(t.name) is not None else None)
            continue
        children = [stack.pop() for _ in t.children]
        if all(c is None for c in children):
            stack.append(None)
            continue
        args = [const(u) if c is None else c for c, u in zip(children, t.children)]
        fixed = 1 + sum(u.size for c, u in zip(children, t.children) if c is None)
        name = f"n{len(lines)}"
        size = " + ".join([str(fixed)] + [f"{c}.size" for c in children if c is not None])
        call = f"new_node({t.symbol!r}, ({', '.join(args)},), {t.sort!r}, {size})"
        lines.append(f"    {name} = {call}")
        stack.append(name)
    root = stack.pop() or const(pattern)
    params = ", ".join(f"v{i}" for i in range(arity))
    exec("\n".join([f"def template({params}):", *lines, f"    return {root}"]), consts)
    return consts["template"]


def _image(h: Hyperderivor, term: Term, leaf: Callable[[Var], Term]) -> Term:
    """The homomorphic extension of the leaf map, ``core._rebuild`` with a
    node as its symbol's template instantiated at its children's images.
    The templates of the hyperderivor's patterns are kept on it from its
    first application on (compiling them at construction costs memory for
    the many maps never applied).  They are not a field, so a pickled copy
    compiles its own.  A symbol outside the source signature has no
    template; that fails once, here."""
    templates = getattr(h, "_templates", None)
    if templates is None:
        templates = {op.name: _template(h.pattern(op.name), len(op.arity)) for op in h.source.ops}
        object.__setattr__(h, "_templates", templates)
    try:
        return _rebuild(term, leaf, templates)
    except KeyError as err:
        raise ValidationError(f"unknown source operation symbol {err.args[0]!r}") from None


def apply_treehom(h: Hyperderivor, term: Term) -> Term:
    """The tree homomorphism: variables through their images, nodes by
    substituting the children's images for the placeholders of the pattern."""

    def leaf(v: Var) -> Term:
        if v.__class__ is Hole:
            raise SortError("cannot apply a tree homomorphism to a context hole")
        if h.source_vars.sort_of(v.name) != v.sort:
            raise SortError(f"unknown source variable {v.name!r}")
        return h.var_image(v.name)

    return _image(h, term, leaf)


def derived_algebra(
    h: Hyperderivor, b: FiniteAlgebra, b_assignment: Mapping[str, int]
):
    """Pull a target algebra back along the hyperderivor: carriers are reused
    at mapped sorts, each source operation acts by evaluating its pattern, and
    source variables evaluate their images.

    Returns the source-signature algebra plus the induced source assignment.
    """
    if b.signature != h.target:
        raise ValidationError("algebra is not over the hyperderivor's target signature")
    carriers = {s: b.size(h.sort_image(s)) for s in h.source.sorts}
    # a pattern's table is its value over the whole placeholder space; no
    # target variable can be named like a placeholder
    tables = {
        op.name: _values(
            b,
            b_assignment,
            h.pattern(op.name),
            [placeholder(i, h.sort_image(w)) for i, w in enumerate(op.arity)],
        )
        for op in h.source.ops
    }
    # each entry is a value of ``b``'s carrier at the result sort's image
    alg = FiniteAlgebra._built(h.source, carriers, tables)
    assignment = {
        x: evaluate(b, b_assignment, h.var_image(x))
        for x in h.source_vars.all_names()
    }
    return alg, assignment


def inverse_image(h: Hyperderivor, l: Recognizer, sort: str) -> Recognizer:
    """The source-sort language of terms whose image lies in l's language at
    the mapped sort."""
    if l.signature != h.target or l.vars != h.target_vars:
        raise ValidationError("recognizer is not over the hyperderivor's target")
    if sort not in h.source.sorts:
        raise ValidationError(f"unknown source sort {sort!r}")
    alg, assignment = derived_algebra(h, l.algebra, dict(l.assignment))
    target_sort = h.sort_image(sort)
    accepting = {sort: l.accepting_at(target_sort)}
    return recognizer(h.source_vars, alg, assignment, accepting)


def direct_image(h: Hyperderivor, l: Recognizer, sort: str) -> Recognizer:
    """The image language of a linear tree homomorphism, by inlining the
    minimized evaluator of l as a regular tree grammar over the target.

    Nonterminals are the evaluator's states; each table entry emits its
    pattern with placeholders rewired to argument nonterminals, and each
    source variable emits its ground image.  The grammar compiles to an NTA
    (one state per production subterm position) and is determinized.
    """
    if not h.is_linear:
        raise ValidationError("direct images require a linear hyperderivor")
    if l.signature != h.source or l.vars != h.source_vars:
        raise ValidationError("recognizer is not over the hyperderivor's source")
    if sort not in h.source.sorts:
        raise ValidationError(f"unknown source sort {sort!r}")
    from .closure import _Builder, table_rules  # only the commands that determinize compile it

    lm = minimize(l)
    machine = _Builder(h.target, h.target_vars)
    fresh, leaf, rules, epsilon = machine.fresh, machine.leaf, machine.rules, machine.epsilon
    # the nonterminals, first: l's states by source sort, at the mapped
    # sort, from each source sort's offset
    offsets = {}
    for s, n in lm.algebra.carriers:
        offsets[s] = machine.counts[h.sort_image(s)]
        machine.counts[h.sort_image(s)] += n

    def produce(body: Term, env: Mapping[str, int], head: int) -> None:
        """Install states computing the production body, children first,
        and an epsilon edge from its state to the head nonterminal.

        ``env`` maps placeholder names to nonterminal states; target variables
        get leaf rules and operation nodes get transition rules.
        """
        stack: list[int] = []
        for t in reversed([*_preorder(body)]):
            if isinstance(t, Var):
                state = env.get(t.name)
                if state is None:
                    state = fresh(t.sort)
                    leaf[t.name].add(state)
            else:
                args = tuple([stack.pop() for _ in t.children])
                state = fresh(t.sort)
                rules.setdefault((t.symbol, args), set()).add(state)
            stack.append(state)
        # the last state placed is the root's
        if state != head:
            epsilon[body.sort].append((state, head))

    # one production per table entry, and one per source variable
    for (name, args), head in table_rules(lm.algebra, offsets):
        produce(h.pattern(name), {f"v{i}": q for i, q in enumerate(args)}, head)
    lm_assignment = dict(lm.assignment)
    for s, names in h.source_vars.by_sort:
        for x in names:
            produce(h.var_image(x), {}, offsets[s] + lm_assignment[x])

    accepting = {offsets[sort] + q for q in lm.accepting_at(sort)}
    return machine.determinize({h.sort_image(sort): accepting})


def hom_to_hyperderivor(
    sig: Signature,
    x_vars: SortedVars,
    y_vars: SortedVars,
    mapping: Mapping[str, Term],
) -> Hyperderivor:
    """The hyperderivor of a plain free-algebra homomorphism: identity sort
    map, patterns ``op(v0,...,vn-1)``, and the given variable images."""
    return hyperderivor(
        sig,
        x_vars,
        sig,
        y_vars,
        {s: s for s in sig.sorts},
        {op.name: identity_pattern(op) for op in sig.ops},
        dict(mapping),
    )

