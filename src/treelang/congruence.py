"""Sorted partitions, congruence testing, cogenerated (syntactic) congruences,
and saturation.

The cogenerated congruence is computed by signature refinement, in pure
Python.  For each sort in declaration order, every operation table that takes
the sort is mapped once through the current classes of its result sort (a
discrete result sort's table is used as it is: equal entries give equal
signatures, and first-occurrence numbering sees the same equalities).  When
the result sort has at most 256 elements, its entries and class ids fit a
byte: the table is read as ``bytes`` the first time a round reads it, kept
for the rest of the call, and mapped by ``bytes.translate`` through a
256-byte table of the sort's classes, made when a round first maps through
it and again only after the sort splits.  Any other table is mapped through
``algebra._getter``'s gather.  An element's signature is its current class plus, for each argument
position of that sort, the mapped entries where the element sits at that
position (the co-arguments range over the whole carriers).  Elements with
equal signatures stay together; the new classes are numbered by first
occurrence and replace the old ones at once, so later sorts of the same round
see them.  A discrete sort (all classes singletons) cannot split and is not
re-signed; rounds repeat until no sort that can still split does split, so a
discrete input reads no table.  Class ids are numbered by first occurrence
everywhere, so outputs are reproducible.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Mapping, Sequence

from .algebra import (
    FiniteAlgebra, _check_counts, _check_elements, _getter, _offsets, _outside, _weights
)
from .core import ValidationError, _check_sorts_once, _record


@_record
class SortedPartition:
    """Per-sort class-id arrays over the carriers; ids are contiguous 0..count-1."""

    classes: tuple[tuple[str, tuple[int, ...]], ...]
    counts: tuple[tuple[str, int], ...]

    def __post_init__(self):
        _check_sorts_once(self.classes, "partition classes")
        _check_sorts_once(self.counts, "partition counts")
        classes, counts = dict(self.classes), dict(self.counts)
        if classes.keys() != counts.keys():
            raise ValidationError(
                f"partition class sorts {[*classes]} differ from count sorts {[*counts]}"
            )
        _check_counts(counts, "partition count")
        for sort, ids in self.classes:
            n = counts[sort]
            if _outside(ids, n):
                raise ValidationError(f"class ids out of range at sort {sort!r}")
            if set(ids) != set(range(n)):
                raise ValidationError(f"class ids not contiguous at sort {sort!r}")
        # per-sort lookups, not fields (see ``core._record``)
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_counts", counts)

    def index(self, sort: str) -> int:
        return self._counts[sort]


def _canonical(ids: Sequence[Hashable]) -> tuple[tuple[int, ...], int]:
    """Renumber class ids, which may be any hashable values, by first occurrence."""
    remap: dict[Hashable, int] = {}
    out = []
    for c in ids:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out), len(remap)


def partition(
    sig_sorts: Sequence[str], classes: Mapping[str, Sequence[Hashable]]
) -> SortedPartition:
    """Build a canonical partition from per-sort class-id arrays."""
    cls = []
    counts = []
    for s in sig_sorts:
        ids, n = _canonical(classes.get(s, ()))
        cls.append((s, ids))
        counts.append((s, n))
    return SortedPartition(tuple(cls), tuple(counts))


def _partition(
    sig_sorts: Sequence[str], classes: Mapping[str, Sequence[int]], counts: Mapping[str, int]
) -> SortedPartition:
    """A partition of class lists that are already canonical, numbered by
    first occurrence, built without ``SortedPartition``'s checks."""
    phi = SortedPartition._of(
        tuple((s, tuple(classes[s])) for s in sig_sorts), tuple((s, counts[s]) for s in sig_sorts)
    )
    object.__setattr__(phi, "_classes", dict(phi.classes))
    object.__setattr__(phi, "_counts", dict(phi.counts))
    return phi


def identity_partition(alg: FiniteAlgebra) -> SortedPartition:
    return partition(alg.signature.sorts, {s: list(range(n)) for s, n in alg.carriers})


def all_in_one_partition(alg: FiniteAlgebra) -> SortedPartition:
    return partition(alg.signature.sorts, {s: [0] * n for s, n in alg.carriers})


def kernel_of_subset(alg: FiniteAlgebra, subset: Mapping[str, frozenset[int]]) -> SortedPartition:
    """The two-block-per-sort equivalence separating a subset from its complement."""
    _check_elements(alg._sizes, subset, "subset element")
    classes = {}
    for s, n in alg.carriers:
        inside = subset.get(s, frozenset())
        classes[s] = [0 if e in inside else 1 for e in range(n)]
    return partition(alg.signature.sorts, classes)


def refines(finer: SortedPartition, coarser: SortedPartition) -> bool:
    """True when every class of ``finer`` is contained in a class of ``coarser``."""
    _check_sizes(finer, {s: len(ids) for s, ids in coarser.classes})
    coarse = coarser._classes
    # each finer class meets one coarser class: as many class pairs as finer classes
    return all(len({*zip(ids, coarse[s])}) == finer._counts[s] for s, ids in finer.classes)


def meet_partitions(phi: SortedPartition, psi: SortedPartition) -> SortedPartition:
    """Pairwise class intersection; the meet of two congruences is a congruence."""
    a = phi._classes
    b = psi._classes
    if set(a) != set(b):
        raise ValidationError("partitions are over different sort sets")
    classes = {}
    for sort in a:
        if len(a[sort]) != len(b[sort]):
            raise ValidationError(f"carrier size mismatch at sort {sort!r}")
        # the class of an element is its pair of classes; partition
        # renumbers the pairs by first occurrence
        classes[sort] = list(zip(a[sort], b[sort]))
    return partition([s for s, _ in phi.classes], classes)


def saturate(
    phi: SortedPartition, subset: Mapping[str, frozenset[int]]
) -> dict[str, frozenset[int]]:
    """Union of all classes meeting the subset, per sort."""
    _check_elements({s: len(ids) for s, ids in phi.classes}, subset, "subset element")
    out = {}
    for sort, ids in phi.classes:
        hit = {ids[e] for e in subset.get(sort, frozenset())}
        out[sort] = frozenset(e for e, c in enumerate(ids) if c in hit)
    return out


def is_congruence(alg: FiniteAlgebra, phi: SortedPartition):
    """Check compatibility with every table.

    Returns ``(True, None)`` or ``(False, (opname, args, args2))`` where the two
    argument tuples are classwise related but map to unrelated results:
    ``args2`` is the first such tuple in table order and ``args`` the earliest
    tuple with the same argument classes.
    """
    _, witness = _quotient_tables(alg, phi)
    return witness is None, witness


def _check_sizes(phi: SortedPartition, sizes: Mapping[str, int]) -> None:
    if phi._classes.keys() != sizes.keys():
        raise ValidationError(f"partition sorts {[*phi._classes]} differ from carrier sorts {[*sizes]}")
    for sort, ids in phi.classes:
        if len(ids) != sizes[sort]:
            raise ValidationError(f"partition size mismatch at sort {sort!r}")


def _quotient_tables(alg: FiniteAlgebra, phi: SortedPartition):
    """One pass over every table that builds the quotient tables and checks
    the partition on the way.

    Each entry's result class is written at the mixed-radix index of its
    argument classes.  Returns ``(tables, None)``, or ``(None, witness)`` with
    the witness of ``is_congruence`` at the first conflict.  The identity
    partition (class ids ``range(n)`` at every sort) reads no table and
    returns the algebra's own tables.
    """
    classes, counts = phi._classes, phi._counts
    _check_sizes(phi, alg._sizes)
    if all(counts[s] == len(ids) and ids == tuple(range(len(ids))) for s, ids in phi.classes):
        # the identity partition: the quotient tables are the algebra's own
        return alg._tables, None
    tables = {}
    for op in alg.signature.ops:
        keys = _offsets([classes[s] for s in op.arity], [counts[s] for s in op.arity[1:]] + [1])
        results = _getter(alg.table(op.name))(classes[op.result])
        # written in reverse, so each class key keeps its earliest tuple's class
        first = dict(zip(reversed(keys), reversed(results)))
        if _getter(keys)(first) != results:
            pos = next(i for i, (k, c) in enumerate(zip(keys, results)) if first[k] != c)
            tuples = list(itertools.product(*(range(alg.size(s)) for s in op.arity)))
            return None, (op.name, tuples[keys.index(keys[pos])], tuples[pos])
        # every class is nonempty, so every class key occurs
        tables[op.name] = _getter(range(len(first)))(first)
    return tables, None


def cogenerated_congruence(alg: FiniteAlgebra, phi: SortedPartition) -> SortedPartition:
    """The coarsest congruence refining the given equivalence.

    Iterated splitting: two elements stay related only if every one-step table
    application, with the co-arguments ranging over the whole carriers, keeps
    them in one current class.  Stops when stable; the result is a congruence
    contained in the input.  The input's ids are renumbered by first
    occurrence once, at the start, and every split numbers its classes so
    too, so the result is canonical as it stands and is not renumbered again.
    """
    sizes = alg._sizes
    _check_sizes(phi, sizes)
    cls = {sort: _canonical(ids)[0] for sort, ids in phi.classes}
    count = dict(phi._counts)  # a sort is discrete when its count is its size
    # per sort of at most 256 elements that a round has mapped through since
    # it last split, its classes as a translation table
    trans: dict[str, bytes] = {}
    as_bytes: dict[str, bytes] = {}  # the tables read so far, as bytes
    changed = True
    while changed:
        changed = False
        for sort in alg.signature.sorts:
            n = sizes[sort]
            if count[sort] == n:
                continue
            columns = [cls[sort]]
            for op in alg.signature.ops:
                if sort not in op.arity:
                    continue
                mapped = alg.table(op.name)
                small = sizes[op.result] <= 256
                if small:  # the entries fit a byte: convert on first read
                    mapped = as_bytes[op.name] = as_bytes.get(op.name) or bytes(mapped)
                # classes of a discrete sort are a bijection: signatures
                # through it are equal where the entries are
                if count[op.result] < sizes[op.result]:
                    if small:
                        if op.result not in trans:
                            trans[op.result] = bytes(cls[op.result]).ljust(256)
                        mapped = mapped.translate(trans[op.result])
                    else:
                        mapped = _getter(mapped)(cls[op.result])
                for arg_sort, stride in zip(op.arity, _weights(sizes, op.arity)):
                    if arg_sort == sort:
                        columns.append(_positional_slices(mapped, n, stride))
            ids: dict[tuple, int] = {}
            new_ids = [ids.setdefault(key, len(ids)) for key in zip(*columns)]
            # the current class leads every signature, so classes only split
            if len(ids) > count[sort]:
                changed = True
                cls[sort], count[sort] = new_ids, len(ids)
                trans.pop(sort, None)
    return _partition(alg.signature.sorts, cls, count)


def _positional_slices(mapped: bytes | tuple[int, ...], n: int, stride: int) -> list:
    """For each element e of an argument position with ``n`` values and the
    given stride, the entries of a flat table whose argument there is e, as
    contiguous runs of ``stride`` entries in table order; at the first
    position there is one run per element, and it is the signature itself.
    The table is ``bytes`` or a tuple, and each run is a slice of it."""
    if not mapped:  # an empty carrier at another position
        return [()] * n
    if stride == 1:
        return [mapped[e::n] for e in range(n)]
    block = n * stride
    if block == len(mapped):  # no position before it varies: one run per element
        return [mapped[b : b + stride] for b in range(0, block, stride)]
    return [
        tuple(mapped[b : b + stride] for b in range(e * stride, len(mapped), block))
        for e in range(n)
    ]


def syntactic_congruence(
    alg: FiniteAlgebra, subset: Mapping[str, frozenset[int]]
) -> SortedPartition:
    """The greatest congruence saturating the subset: the cogenerated
    congruence of the two-block kernel partition."""
    return cogenerated_congruence(alg, kernel_of_subset(alg, subset))
