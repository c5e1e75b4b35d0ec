"""Sorted partitions, congruence testing, cogenerated (syntactic) congruences,
and saturation.

The refinement loop is Moore-style: split classes until every operation table
maps classwise-related argument tuples to related results.  Class ids are
renumbered by first occurrence so outputs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import FiniteAlgebra
from .core import ValidationError


@dataclass(frozen=True)
class SortedPartition:
    """Per-sort class-id arrays over the carriers; ids are contiguous 0..count-1."""

    classes: tuple[tuple[str, tuple[int, ...]], ...]
    counts: tuple[tuple[str, int], ...]

    def __post_init__(self):
        counts = dict(self.counts)
        for sort, ids in self.classes:
            n = counts[sort]
            if ids and (min(ids) < 0 or max(ids) >= n):
                raise ValidationError(f"class ids out of range at sort {sort!r}")
            if set(ids) != set(range(n)):
                raise ValidationError(f"class ids not contiguous at sort {sort!r}")

    def class_of(self, sort: str, element: int) -> int:
        return dict(self.classes)[sort][element]

    def index(self, sort: str) -> int:
        return dict(self.counts)[sort]


def _canonical(ids: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Renumber class ids by first occurrence."""
    remap: dict[int, int] = {}
    out = []
    for c in ids:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out), len(remap)


def partition(sig_sorts: Sequence[str], classes: Mapping[str, Sequence[int]]) -> SortedPartition:
    """Build a canonical partition from per-sort class-id arrays."""
    cls = []
    counts = []
    for s in sig_sorts:
        ids, n = _canonical(classes.get(s, ()))
        cls.append((s, ids))
        counts.append((s, n))
    return SortedPartition(tuple(cls), tuple(counts))


def identity_partition(alg: FiniteAlgebra) -> SortedPartition:
    return partition(alg.signature.sorts, {s: list(range(n)) for s, n in alg.carriers})


def all_in_one_partition(alg: FiniteAlgebra) -> SortedPartition:
    return partition(alg.signature.sorts, {s: [0] * n for s, n in alg.carriers})


def kernel_of_subset(alg: FiniteAlgebra, subset: Mapping[str, frozenset[int]]) -> SortedPartition:
    """The two-block-per-sort equivalence separating a subset from its complement."""
    classes = {}
    for s, n in alg.carriers:
        inside = subset.get(s, frozenset())
        classes[s] = [0 if e in inside else 1 for e in range(n)]
    return partition(alg.signature.sorts, classes)


def refines(finer: SortedPartition, coarser: SortedPartition) -> bool:
    """True when every class of ``finer`` is contained in a class of ``coarser``."""
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


def meet_partitions(phi: SortedPartition, psi: SortedPartition) -> SortedPartition:
    """Pairwise class intersection; the meet of two congruences is a congruence."""
    a = dict(phi.classes)
    b = dict(psi.classes)
    if set(a) != set(b):
        raise ValidationError("partitions are over different sort sets")
    classes = {}
    for sort in a:
        if len(a[sort]) != len(b[sort]):
            raise ValidationError(f"carrier size mismatch at sort {sort!r}")
        pairs = list(zip(a[sort], b[sort]))
        remap: dict[tuple[int, int], int] = {}
        ids = []
        for p in pairs:
            if p not in remap:
                remap[p] = len(remap)
            ids.append(remap[p])
        classes[sort] = ids
    return partition([s for s, _ in phi.classes], classes)


def saturate(
    phi: SortedPartition, subset: Mapping[str, frozenset[int]]
) -> dict[str, frozenset[int]]:
    """Union of all classes meeting the subset, per sort."""
    out = {}
    for sort, ids in phi.classes:
        hit = {ids[e] for e in subset.get(sort, frozenset())}
        out[sort] = frozenset(e for e, c in enumerate(ids) if c in hit)
    return out


def is_congruence(alg: FiniteAlgebra, phi: SortedPartition):
    """Check compatibility with every table.

    Returns ``(True, None)`` or ``(False, (opname, args, args2))`` where the two
    argument tuples are classwise related but map to unrelated results.
    """
    classes = dict(phi.classes)
    for sort, ids in phi.classes:
        if len(ids) != alg.size(sort):
            raise ValidationError(f"partition size mismatch at sort {sort!r}")
    for op in alg.signature.ops:
        if not op.arity:
            continue
        # group argument tuples by their class-id key; all members of a group
        # must land in one result class
        seen: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
        pools = [range(alg.size(s)) for s in op.arity]
        for args in itertools.product(*pools):
            key = tuple(classes[s][a] for s, a in zip(op.arity, args))
            cls = classes[op.result][alg.apply(op.name, args)]
            if key in seen:
                prev_cls, prev_args = seen[key]
                if prev_cls != cls:
                    return False, (op.name, prev_args, args)
            else:
                seen[key] = (cls, args)
    return True, None


def _table_arrays(alg: FiniteAlgebra):
    sizes = dict(alg.carriers)
    arrays = {}
    for op in alg.signature.ops:
        shape = tuple(sizes[s] for s in op.arity)
        arrays[op.name] = np.asarray(alg.table(op.name), dtype=np.int64).reshape(shape)
    return arrays


def cogenerated_congruence(alg: FiniteAlgebra, phi: SortedPartition) -> SortedPartition:
    """The coarsest congruence refining the given equivalence.

    Iterated splitting: two elements stay related only if every one-step table
    application, with the co-arguments ranging over the whole carriers, keeps
    them in one current class.  Stops when stable; the result is a congruence
    contained in the input.
    """
    sizes = dict(alg.carriers)
    tables = _table_arrays(alg)
    cls: dict[str, np.ndarray] = {
        sort: np.asarray(ids, dtype=np.int64) for sort, ids in phi.classes
    }
    while True:
        changed = False
        for sort in alg.signature.sorts:
            n = sizes[sort]
            if n <= 1:
                continue
            cols = [cls[sort].reshape(n, 1)]
            for op in alg.signature.ops:
                if not op.arity:
                    continue
                result_classes = cls[op.result][tables[op.name]]
                for i, arg_sort in enumerate(op.arity):
                    if arg_sort != sort:
                        continue
                    # rows indexed by the sort-t element, columns by every
                    # co-argument tuple
                    moved = np.moveaxis(result_classes, i, 0).reshape(n, -1)
                    cols.append(moved)
            stacked = np.column_stack(cols)
            _, inverse = np.unique(stacked, axis=0, return_inverse=True)
            new_ids, _ = _canonical(np.ravel(inverse).tolist())
            if list(new_ids) != cls[sort].tolist():
                changed = True
                cls[sort] = np.asarray(new_ids, dtype=np.int64)
        if not changed:
            break
    return partition(alg.signature.sorts, {s: cls[s].tolist() for s in alg.signature.sorts})


def syntactic_congruence(
    alg: FiniteAlgebra, subset: Mapping[str, frozenset[int]]
) -> SortedPartition:
    """The greatest congruence saturating the subset: the cogenerated
    congruence of the two-block kernel partition."""
    return cogenerated_congruence(alg, kernel_of_subset(alg, subset))


def all_partitions_of(n: int):
    """Every partition of range(n) as a class-id array (exponential; test sizes only)."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            yield from rec(prefix + [c], max(used, c + 1))

    yield from rec([0], 1)


def all_sorted_partitions(alg: FiniteAlgebra):
    """Every sorted partition of the carriers (brute-force oracle substrate)."""
    sorts = alg.signature.sorts
    per_sort = [list(all_partitions_of(alg.size(s))) for s in sorts]
    for combo in itertools.product(*per_sort):
        yield partition(sorts, dict(zip(sorts, combo)))
