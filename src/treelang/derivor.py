"""Hall-algebra term operations and derivors between many-sorted signatures.

A Hall term is a term over the standard placeholders ``v0, v1, ...`` carrying
its rank (arity word, result sort); xi-substitution replaces placeholders
uniformly.  A derivor assigns to every source operation a target Hall term of
the mapped rank; derivors compose by substitution and act on target algebras
by term-operation evaluation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import FiniteAlgebra
from .core import (
    Node,
    Signature,
    SortedVars,
    Term,
    ValidationError,
    Var,
    _preorder,
    _record,
    print_term,
    sorted_vars,
    substitute_uniform,
)
from .treehom import (
    Hyperderivor,
    _checked_sort_map,
    _image,
    derived_algebra,
    hyperderivor,
    identity_pattern,
    placeholder,
)


@_record
class HallTerm:
    """A term over placeholders ``v0..v(|arity|-1)`` tagged with its rank."""

    term: Term
    arity: tuple[str, ...]
    sort: str

    def __post_init__(self):
        if self.term.sort != self.sort:
            raise ValidationError(
                f"hall term has sort {self.term.sort!r}, rank says {self.sort!r}"
            )
        sorts = {f"v{i}": w for i, w in enumerate(self.arity)}
        for t in _preorder(self.term):
            if not isinstance(t, Node) and (not isinstance(t, Var) or sorts.get(t.name) != t.sort):
                raise ValidationError(
                    f"hall term leaves must be placeholders of the arity word {self.arity}, "
                    f"got {print_term(t)!r} of sort {t.sort!r}"
                )


def hall_term(term: Term, arity: Sequence[str], sort: str) -> HallTerm:
    return HallTerm(term, tuple(arity), sort)


def projection(arity: Sequence[str], i: int) -> HallTerm:
    """The i-th projection at the given arity word."""
    arity = tuple(arity)
    if not (0 <= i < len(arity)):
        raise ValidationError(f"projection index {i} out of range for |w|={len(arity)}")
    return HallTerm(placeholder(i, arity[i]), arity, arity[i])


def xi_substitute(
    p: HallTerm, qs: Sequence[HallTerm], result_arity: Sequence[str] | None = None
) -> HallTerm:
    """Uniform substitution: every occurrence of ``vi`` in p becomes ``qs[i]``.

    The replacements must share one arity word u and have sorts matching p's
    arity; the result has rank (u, p.sort).  When p is a constant pattern
    (empty arity) the result arity cannot be inferred and must be passed
    explicitly; it defaults to the empty word.
    """
    if len(qs) != len(p.arity):
        raise ValidationError(
            f"xi needs {len(p.arity)} replacement terms, got {len(qs)}"
        )
    if qs:
        u = qs[0].arity
        for q in qs:
            if q.arity != u:
                raise ValidationError("xi replacements must share an arity word")
        if result_arity is not None and tuple(result_arity) != u:
            raise ValidationError("result arity disagrees with the replacements")
    else:
        u = tuple(result_arity) if result_arity is not None else ()
    for i, q in enumerate(qs):
        if q.sort != p.arity[i]:
            raise ValidationError(
                f"replacement {i} has sort {q.sort!r}, expected {p.arity[i]!r}"
            )
    mapping = {f"v{i}": q.term for i, q in enumerate(qs)}
    return HallTerm(substitute_uniform(p.term, mapping), u, p.sort)


def identity_hall_term(sig: Signature, opname: str) -> HallTerm:
    op = sig.operation(opname)
    return HallTerm(identity_pattern(op), op.arity, op.result)


@_record
class Derivor:
    """A signature morphism: sort map plus a target Hall term per operation.
    It is checked, applied and pulled back as the hyperderivor without
    variables that it holds."""

    source: Signature
    target: Signature
    sort_map: tuple[tuple[str, str], ...]
    patterns: tuple[tuple[str, HallTerm], ...]

    def __post_init__(self):
        patterns = dict(self.patterns)
        # lookups, not fields (see ``core._record``)
        object.__setattr__(self, "_patterns", patterns)
        smap = _checked_sort_map(self.source, self.target, self.sort_map)
        # a Hall term may leave a placeholder unused, so typing its term
        # cannot catch a wrong rank; the hyperderivor checks the rest
        for op in self.source.ops:
            ht = patterns.get(op.name)
            want = (tuple(smap[w] for w in op.arity), smap[op.result])
            if ht is not None and (ht.arity, ht.sort) != want:
                raise ValidationError(
                    f"pattern for {op.name!r} has rank {(ht.arity, ht.sort)}, expected {want}"
                )
        bodies = tuple((name, ht.term) for name, ht in self.patterns)
        x, y = sorted_vars(self.source, {}), sorted_vars(self.target, {})
        h = Hyperderivor(self.source, x, self.target, y, self.sort_map, bodies, ())
        object.__setattr__(self, "_hyperderivor", h)

    def sort_image(self, sort: str) -> str:
        return self._hyperderivor.sort_image(sort)

    def pattern(self, opname: str) -> HallTerm:
        return self._patterns[opname]

    @property
    def is_linear(self) -> bool:
        return self._hyperderivor.is_linear


def derivor(
    source: Signature,
    target: Signature,
    sort_map: Mapping[str, str],
    patterns: Mapping[str, HallTerm],
) -> Derivor:
    # a missing key is left out, for __post_init__ to report
    return Derivor(
        source,
        target,
        tuple((s, sort_map[s]) for s in source.sorts if s in sort_map),
        tuple((op.name, patterns[op.name]) for op in source.ops if op.name in patterns),
    )


def identity_derivor(sig: Signature) -> Derivor:
    return derivor(
        sig,
        sig,
        {s: s for s in sig.sorts},
        {op.name: identity_hall_term(sig, op.name) for op in sig.ops},
    )


def apply_derivor_term(d: Derivor, p: HallTerm) -> HallTerm:
    """The homomorphic extension of the derivor to Hall terms: placeholders
    stay in place (re-sorted along the sort map) and each node becomes its
    pattern xi-substituted with the children's images.  Commutes with
    xi_substitute."""
    h = d._hyperderivor
    try:
        target_arity = tuple(map(h.sort_image, p.arity))
        sort = h.sort_image(p.sort)
    except KeyError as err:
        raise ValidationError(f"unknown source sort {err.args[0]!r}") from None
    images = {v.name: v for v in map(placeholder, range(len(target_arity)), target_arity)}
    body = _image(h, p.term, lambda v: images[v.name])
    # every variable of the image is a placeholder at its sort in the target
    # arity word by construction, so of the Hall-term checks only the root
    # sort can fail, and the image is not walked again
    if body.sort != sort:
        raise ValidationError(f"hall term has sort {body.sort!r}, rank says {sort!r}")
    return HallTerm._of(body, target_arity, sort)


def compose_derivors(e: Derivor, d: Derivor) -> Derivor:
    """The derivor applying d first, then e; patterns compose by applying e to
    d's patterns."""
    if d.target != e.source:
        raise ValidationError("derivors do not compose: middle signatures differ")
    smap = {s: e.sort_image(d.sort_image(s)) for s in d.source.sorts}
    patterns = {
        op.name: apply_derivor_term(e, d.pattern(op.name)) for op in d.source.ops
    }
    return derivor(d.source, e.target, smap, patterns)


def derived_algebra_derivor(d: Derivor, b: FiniteAlgebra) -> FiniteAlgebra:
    """Pull a target algebra back along the derivor: every source operation
    acts as the term operation of its pattern.  This is ``derived_algebra``
    of the derivor read as a hyperderivor without variables."""
    if b.signature != d.target:
        raise ValidationError("algebra is not over the derivor's target signature")
    return derived_algebra(d._hyperderivor, b, {})[0]


def derivor_to_hyperderivor(
    d: Derivor,
    x_vars: SortedVars,
    y_vars: SortedVars,
    var_images: Mapping[str, Term],
) -> Hyperderivor:
    """Read the derivor's patterns as target terms over variables-plus-
    placeholders and attach variable images; linearity carries over, and
    inverse/direct images then reduce to the tree-homomorphism operators."""
    h = d._hyperderivor
    return hyperderivor(d.source, x_vars, d.target, y_vars, h._sort_map, h._patterns, var_images)
