"""Finite algebras over a signature: evaluation, products, quotients,
generated subalgebras, subset algebras, and translation tables.

Carriers are ``{0..n_s-1}`` per sort; operation tables are dense tuples
indexed in mixed-radix argument order with the last argument fastest.  That
order is normative for serialized files.  A product table whose result sort
has 1 to 256 elements is folded as byte strings, in C, and stored as a
tuple like every other table (see ``product_algebra``).
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .core import (
    HOLE,
    Context,
    Hole,
    Node,
    Signature,
    Term,
    ValidationError,
    Var,
    _preorder,
    _record,
)


@_record
class FiniteAlgebra:
    """Per-sort finite carriers with total operation tables.

    Empty carriers are permitted; an operation whose argument space is empty
    has an empty table and can never be applied by evaluation.
    """

    signature: Signature
    carriers: tuple[tuple[str, int], ...]  # (sort, size) in signature sort order
    tables: tuple[tuple[str, tuple[int, ...]], ...]  # (opname, dense table)

    def __post_init__(self):
        sizes = dict(self.carriers)
        if [s for s, _ in self.carriers] != list(self.signature.sorts):
            raise ValidationError("carriers must list every sort in signature order")
        # a negative size keeps a message of its own
        if any(n.__class__ is int and n < 0 for n in sizes.values()):
            raise ValidationError("carrier sizes must be nonnegative")
        _check_counts(sizes, "carrier size")
        tables = dict(self.tables)
        if [n for n, _ in self.tables] != [op.name for op in self.signature.ops]:
            raise ValidationError("tables must list every operation in signature order")
        for op in self.signature.ops:
            space = 1
            for s in op.arity:
                space *= sizes[s]
            table = tables[op.name]
            if len(table) != space:
                raise ValidationError(
                    f"table for {op.name!r} has {len(table)} entries, expected {space}"
                )
            _check_elements(sizes, {op.result: table}, f"table for {op.name!r}: entry")
        # lookups for size/table/apply, not fields (see ``core._record``)
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_tables", tables)

    @classmethod
    def _built(cls, sig: Signature, carriers: Mapping[str, int], tables: Mapping[str, Sequence]):
        """An algebra over tables the library built of the right lengths and in
        range, without ``__post_init__``'s checks.  Tables are stored as tuples
        (a list is copied once), as a checked algebra stores them, so that
        algebras compare by ``==`` and hash the same whichever way they were
        built."""
        sizes = {s: carriers[s] for s in sig.sorts}
        by_name = {op.name: tuple(tables[op.name]) for op in sig.ops}
        alg = cls._of(sig, tuple(sizes.items()), tuple(by_name.items()))
        object.__setattr__(alg, "_sizes", sizes)
        object.__setattr__(alg, "_tables", by_name)
        return alg

    def size(self, sort: str) -> int:
        return self._sizes[sort]

    def table(self, opname: str) -> tuple[int, ...]:
        return self._tables[opname]

    def apply(self, opname: str, args: Sequence[int]) -> int:
        arity = self.signature.operation(opname).arity
        if len(args) != len(arity):
            raise ValidationError(f"{opname!r} expects {len(arity)} arguments, got {len(args)}")
        return self._tables[opname][_index(self._sizes, arity, args)]


def _member(value, n: int) -> bool:
    """Whether ``value`` is an element of a carrier of ``n`` elements: an
    ``int`` in ``range(n)``, and not a ``bool``."""
    return value.__class__ is int and 0 <= value < n


def _outside(es: Collection, n: int) -> tuple:
    """``_member`` over a collection: ``()`` when every item of ``es`` is an
    element of a carrier of ``n`` elements, else the first item that is not,
    as a one-tuple (so that a ``None`` item is named too).  A collection of
    elements is decided without a Python-level loop: the set of the items'
    types is ``{int}``, and ``min`` and ``max`` lie in range; only a failure
    walks the items."""
    if not es or ({*map(type, es)} == {int} and min(es) >= 0 and max(es) < n):
        return ()
    return next((e,) for e in es if not _member(e, n))


def _index(sizes: Mapping[str, int], arity: Sequence[str], args: Sequence[int]) -> int:
    """The mixed-radix table index of an argument tuple, last argument
    fastest, each argument checked to be an element of its sort."""
    index = 0
    for a, s in zip(args, arity):
        if not _member(a, sizes[s]):
            raise ValidationError(f"argument {a!r} out of carrier range at sort {s!r}")
        index = index * sizes[s] + a
    return index


def finite_algebra(
    sig: Signature, carriers: Mapping[str, int], tables: Mapping[str, Sequence[int]]
) -> FiniteAlgebra:
    # a missing key is left out, for __post_init__ to report
    return FiniteAlgebra(
        sig,
        tuple((s, carriers[s]) for s in sig.sorts if s in carriers),
        tuple((op.name, tuple(tables[op.name])) for op in sig.ops if op.name in tables),
    )


def _offsets(pools: Sequence[Collection[int]], weights: Sequence[int]) -> list[int]:
    """The mixed-radix fold over every tuple of the per-position pools, last
    position fastest, one position at a time: each position adds its element
    and multiplies by its weight.  With each pool's weight the size of the
    position after it, this is each prefix's offset into a table; with a
    last weight of 1, each tuple's index."""
    index = [0]
    for pool, n in zip(pools, weights):
        index = [(i + e) * n for i in index for e in pool]
    return index


def _rows(
    alg: FiniteAlgebra, opname: str, pools: Sequence[Collection[int]], table: Sequence | None = None
) -> Iterator:
    """The table's rows at every tuple of the per-position pools of all
    positions but the last, in table order: with the last argument fastest,
    the entries at one such prefix are one contiguous slice.  A constant's
    table is one row of one entry.  A given ``table`` holds the same entries
    in another form, such as ``bytes``, and its rows are sliced instead."""
    arity = alg.signature.operation(opname).arity
    width = alg._sizes[arity[-1]] if arity else 1
    if table is None:
        table = alg._tables[opname]
    offsets = _offsets(pools, [alg._sizes[s] for s in arity[1:]])
    return (table[b : b + width] for b in offsets)


def _getter(indices: Collection) -> Callable[[Sequence], tuple]:
    """``itemgetter(*indices)``, which gathers the items at ``indices`` in C,
    but always giving a tuple: ``itemgetter`` gives one index's bare item and
    takes no empty index list."""
    if not indices:
        return lambda seq: ()
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


def _entries(alg: FiniteAlgebra, opname: str, pools: Sequence[Collection[int]]) -> list[int]:
    """The table entries at every tuple of the per-position pools (elements
    in range), in table order: each prefix's row is read once, and gathered
    at the last pool, and no index list or argument tuple is built."""
    gather = _getter(pools[-1] if pools else (0,))  # a constant's one entry
    out: list[int] = []
    for row in _rows(alg, opname, pools[:-1]):
        out += gather(row)
    return out


def check_assignment(alg: FiniteAlgebra, vars, assignment: Mapping[str, int]) -> None:
    sizes = dict(alg.carriers)
    for sort, names in vars.by_sort:
        if names and sort not in sizes:
            raise ValidationError(f"variable {names[0]!r} at unknown sort {sort!r}")
        for x in names:
            if x not in assignment:
                raise ValidationError(f"assignment missing variable {x!r}")
            if not _member(assignment[x], sizes[sort]):
                raise ValidationError(f"assignment for {x!r} out of carrier range")


def evaluate(alg: FiniteAlgebra, assignment: Mapping[str, int], term: Term) -> int:
    """The homomorphic extension of the assignment: variables through the
    assignment, nodes through operation tables, in ``_values``' one flat,
    checked pass, so a term of any depth evaluates."""
    return _values(alg, assignment, term, ())[0]


def _values(
    alg: FiniteAlgebra, assignment: Mapping[str, int], term: Term, free: Sequence[Var]
) -> tuple[int, ...]:
    """The term's value at every tuple of values of the ``free`` variables, in
    table order (mixed radix, last variable fastest), from one pass over the
    term.

    The pass is one loop over the reversed preorder, children before their
    node, with a stack of values.  A value that depends on free variables is
    held over the space of only the free variables it contains: a pair of
    their positions in ``free`` (ascending) and its values over that
    subspace in table order; a value without one is an ``int``.  A free
    variable pushes its own carrier, a hole that of the free variable named
    ``@`` (a translation's), and another variable its value in the
    assignment.  A node pops its children's values, the first child's on
    top, and folds them into the index of its table at each point of its
    subspace: the values without free variables into one offset, each
    argument times its mixed-radix weight, and those over one variable into
    one vector per variable, whose outer sum, in free-variable order, is
    added to the arguments over several variables broadcast onto the node's
    subspace (``_joint``).  It then gathers its table once; the root is
    broadcast onto the whole space at the end.  Each input is checked where
    it is read: a node's child count against its operation's arity, an
    assigned value (once per name) to be an element of its sort's carrier
    (``_member``), a variable's sort, and a hole, which only a translation's
    ``@`` fills.  An empty space returns ``()`` without reading the term.
    """
    sizes = alg._sizes
    tables = alg._tables
    # per operation: the mixed-radix weight of each argument, and its table
    ops = {op.name: (_weights(sizes, op.arity), tables[op.name]) for op in alg.signature.ops}
    radix = []
    for v in free:
        if v.sort not in sizes:
            raise ValidationError(f"variable {v.name!r} at unknown sort {v.sort!r}")
        radix.append(sizes[v.sort])
    space = math.prod(radix)
    if not space:
        return ()
    # a free variable's position and carrier (the last of a repeated name),
    # or a bound variable's checked value once read
    columns = {v.name: ((j,), range(n)) for j, (v, n) in enumerate(zip(free, radix))}
    stack = []
    push, pop = stack.append, stack.pop
    for t in reversed([*_preorder(term)]):
        if t.__class__ is not Node:
            value = columns.get(HOLE if t.__class__ is Hole else t.name)
            if value is None:
                if t.__class__ is Hole:
                    raise ValidationError("cannot evaluate a context hole outside a translation")
                if t.name not in assignment:
                    raise ValidationError(f"no assignment for variable {t.name!r}")
                if t.sort not in sizes:
                    raise ValidationError(f"variable {t.name!r} at unknown sort {t.sort!r}")
                value = columns[t.name] = assignment[t.name]
                if not _member(value, sizes[t.sort]):
                    raise ValidationError(f"assignment for {t.name!r} out of carrier range")
        else:
            op = ops.get(t.symbol)
            if op is None:
                raise ValidationError(f"unknown operation {t.symbol!r}")
            weights, table = op
            if len(t.children) != len(weights):
                raise ValidationError(
                    f"{t.symbol!r} expects {len(weights)} arguments, got {len(t.children)}"
                )
            offset = 0
            parts = None
            for w in weights:
                value = pop()
                if value.__class__ is int:
                    offset += w * value
                elif parts is None:
                    parts = [(w, value)]
                else:
                    parts.append((w, value))
            if parts is None:
                value = table[offset]
            elif len(parts) == 1:  # the node's subspace is its one argument's
                w, (vs, column) = parts[0]
                value = vs, _getter([offset + w * e for e in column])(table)
            else:
                vs, index = _joint(parts, offset, radix)
                value = vs, _getter(index)(table)
        push(value)
    value = pop()
    if value.__class__ is int:
        return (value,) * space
    vs, column = value
    if len(vs) == len(free):  # every position: the subspace is the space
        return tuple(column)
    return _getter(_spread(vs, range(len(free)), radix))(column)


def _weights(sizes: Mapping[str, int], arity: Sequence[str]) -> list[int]:
    """The mixed-radix weight of each argument position: the product of the
    later positions' carrier sizes."""
    weights, w = [], 1
    for s in reversed(arity):
        weights.append(w)
        w *= sizes[s]
    return weights[::-1]


def _joint(parts: Sequence, offset: int, radix: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """The free-variable positions of several weighted arguments ``(w, (vs,
    column))``, ascending, and the table index at each point of their joint
    subspace: ``offset`` plus the outer sum, in position order, of one vector
    per position (the sum of the arguments over that position alone), plus
    each argument over several positions broadcast onto the subspace."""
    single, several = {}, []
    for w, (vs, column) in parts:
        if len(vs) > 1:
            several.append((w, vs, column))
        else:
            vector = [w * e for e in column]
            j = vs[0]
            single[j] = [a + b for a, b in zip(single[j], vector)] if j in single else vector
    us = tuple(sorted({*single, *(j for _, vs, _ in several for j in vs)}))
    index = [offset]
    for j in us:
        vector = single.get(j) or (0,) * radix[j]
        index = [i + e for i in index for e in vector]
    for w, vs, column in several:
        if vs != us:
            column = _getter(_spread(vs, us, radix))(column)
        index = [i + w * e for i, e in zip(index, column)]
    return us, index


def _spread(vs: Sequence[int], us: Sequence[int], radix: Sequence[int]) -> list[int]:
    """The index into a tuple over the free-variable positions ``vs`` at each
    point of the subspace of the positions ``us``, which hold them: the
    mixed-radix fold over ``vs``, each other position held at 0."""
    pools = [range(radix[j]) if j in vs else (0,) * radix[j] for j in us]
    return _offsets(pools, [radix[j] if j in vs else 1 for j in us[1:]] + [1])


# ---------------------------------------------------------------------------
# products


def product_algebra(algebras: Sequence[FiniteAlgebra]):
    """Componentwise product; returns the algebra and per-component projections.

    Elements are mixed-radix encodings of component tuples, last component
    fastest.  Each projection maps sort -> tuple giving the component value of
    every product element.

    A table is folded one component at a time over the components' rows at
    each argument prefix (every argument but the last): each distinct row of
    a later component is coded once per value ``x`` of the earlier ones,
    and the folded row at a prefix joins the codes at its values ``x``, in
    order.  When the table's result sort has 1 to 256 elements in the
    product, every entry fits a byte: the components' tables are read as
    ``bytes`` once per call, a row is coded by ``bytes.translate`` and the
    codes are joined by ``bytes.join``, all in C.  A larger result sort
    gathers each code from a list of ints (``_getter``) and concatenates
    lists.  Either way the stored tables are tuples of ints.
    """
    if not algebras:
        raise ValidationError("product of an empty family is not supported")
    sig = algebras[0].signature
    for a in algebras[1:]:
        if a.signature != sig:
            raise ValidationError("product components must share a signature")
    carriers = {s: math.prod(a._sizes[s] for a in algebras) for s in sig.sorts}
    # component i of each element at a sort: the fold over the components'
    # carriers there, every other component held at 0
    radix = {s: [a._sizes[s] for a in algebras] for s in sig.sorts}
    ks = range(len(algebras))
    projections = [{s: tuple(_spread((i,), ks, radix[s])) for s in sig.sorts} for i in ks]
    # Per later component and result sort, the code of each value x of the
    # earlier components, which maps a value y of this one to x * n + y: a
    # 256-byte translation table when the product sort fits a byte, else a
    # list, from which each product element is one int object, shared by
    # every table entry that holds it.
    codes = {}
    tables = {}
    for op in sig.ops:
        # Every entry fits a byte.  A nonempty product sort bounds each
        # component's sort and each partial fold there; an empty one has an
        # empty table, and a component's entries need not fit a byte.
        small = 0 < carriers[op.result] <= 256
        join = b"".join if small else _concat
        m = 1  # the earlier components' folded size at the result sort
        for i, (a, p) in enumerate(zip(algebras, projections)):
            table = bytes(a._tables[op.name]) if small else None
            # this component's row at each argument prefix of the product
            segs = list(_rows(a, op.name, [p[s] for s in op.arity[:-1]], table))
            n = a._sizes[op.result]
            if not i:
                rows = segs
            else:
                if (i, op.result) not in codes:
                    spans = [range(x * n, x * n + n) for x in range(m)]
                    codes[i, op.result] = [bytes(r).ljust(256) if small else list(r) for r in spans]
                code = codes[i, op.result]
                # each distinct row, coded once per earlier value x
                parts = {
                    seg: [*map(seg.translate if small else _getter(seg), code)] for seg in set(segs)
                }
                # the folded row at a prefix: the parts at its values x, in order
                at = map(parts.__getitem__, segs)
                rows = [join(map(ps.__getitem__, row)) for row, ps in zip(rows, at)]
            m *= n
        tables[op.name] = join(rows)
    return FiniteAlgebra._built(sig, carriers, tables), projections


def _concat(parts: Iterable[Sequence[int]]) -> list[int]:
    """The parts' items in one list: ``+=`` copies each part in C, which is
    faster than taking the items one at a time through an iterator."""
    out: list[int] = []
    for part in parts:
        out += part
    return out


# ---------------------------------------------------------------------------
# generated subalgebras


def _closure(
    sig: Signature,
    seed: Mapping[str, Sequence[int]],
    rows,
    sizes: Mapping[str, int] | None = None,
    stop: Callable[[str, list[int], list[int]], bool] | None = None,
) -> dict[str, list[int]]:
    """The frontier worklist behind every generated subalgebra: the least
    sets holding the seed and closed under the operations, each in
    first-reached order.  That order numbers ``minimize``'s classes and
    ``determinize``'s subsets: the seed (duplicates dropped), then what each
    round reaches, operations in declaration order, each over its argument
    tuples in lexicographic order.  A pass visits only the tuples that hold
    an element reached since the operation's last pass: per prefix of the
    first k-1 positions, the new last elements if the prefix is all old,
    else all of them; the old tuples would reach nothing new.

    ``rows(op, heads, n)`` reads values, given the reached elements at the
    first k-1 positions and the number reached at the last.  It returns one
    row and each prefix's offset, or one row per prefix and ``None`` (offset
    0), prefixes in lexicographic order; the value at a last element ``e``
    is ``row[offset + e]``.

    Given the carrier ``sizes``, it keeps per sort the number of elements
    not yet reached, skips an operation into a sort with none left (such a
    pass can only read elements already reached), and returns as soon as
    every sort is full.  That does not change the lists.

    A ``stop(sort, reached, fresh)`` is asked for each sort's seed first
    (``fresh`` is the whole list), then each time a sort's list grows, with
    the grown list and the elements just added to it; it returns as soon as
    that holds.  Each list is then a prefix of the full closure's.
    """
    reached = {s: list(dict.fromkeys(seed.get(s, ()))) for s in sig.sorts}
    member = {s: set(es) for s, es in reached.items()}
    left = {s: (sizes[s] if sizes else math.inf) - len(es) for s, es in reached.items()}
    if stop and any(stop(s, es, es) for s, es in reached.items()) or not any(left.values()):
        return reached
    # per operation: the reached lists at its argument sorts (a constant
    # reads one last element, 0), and their lengths at its last pass, None
    # before the first
    ops = [[op, [reached[s] for s in op.arity] or [[0]], None] for op in sig.ops]
    changed = True
    while changed:
        changed = False
        for entry in ops:
            op, args, prev = entry
            now = tuple(map(len, args))
            if now == prev or not left[op.result]:
                continue
            entry[2] = now
            prev = prev or (0,) * len(now)
            # the reached elements at each prefix position, and per prefix
            # whether all of it is old
            heads, old = [], [True]
            for es, k, p in zip(args, now[:-1], prev):
                heads.append(es[:k])
                old = [o and i < p for o in old for i in range(k)]
            n = now[-1]
            new, every = args[-1][prev[-1] : n], args[-1][:n]
            values = []
            data, offsets = rows(op, heads, n)
            if offsets is None:  # one row per prefix
                for row, o in zip(data, old):
                    values += map(row.__getitem__, new if o else every)
            else:  # one row, read at each prefix's offset
                for b, o in zip(offsets, old):
                    values += [data[b + e] for e in (new if o else every)]
            found = member[op.result]
            fresh = [v for v in dict.fromkeys(values) if v not in found]
            if fresh:
                found.update(fresh)
                reached[op.result] += fresh
                left[op.result] -= len(fresh)
                if stop and stop(op.result, reached[op.result], fresh) or not any(left.values()):
                    return reached
                changed = True
    return reached


def _offset_rows(alg: FiniteAlgebra):
    """``_closure``'s row reader over the algebra's tables: each reached
    table entry is read once, at its prefix's mixed-radix offset."""
    sizes, tables = alg._sizes, alg._tables

    def rows(op, heads, n):
        if not heads:  # a constant or unary table: one prefix, at offset 0
            return [tables[op.name]], None
        return tables[op.name], _offsets(heads, [sizes[s] for s in op.arity[1:]])

    return rows


class _PairRow:
    """One reached prefix's row of the pair table of two algebras: the entry
    at a last pair ``e``, coded ``x * n + y``, pairs the two component rows'
    entries at ``x`` and ``y`` as ``x1 * m + y1``, and is computed only when
    read."""

    __slots__ = ("row1", "row2", "n", "m")

    def __init__(self, row1: Sequence[int], row2: Sequence[int], n: int, m: int):
        self.row1, self.row2, self.n, self.m = row1, row2, n, m

    def __getitem__(self, e: int) -> int:
        x, y = divmod(e, self.n)
        return self.row1[x] * self.m + self.row2[y]


def _pair_rows(alg1: FiniteAlgebra, alg2: FiniteAlgebra):
    """``_closure``'s row reader over the pairs of two algebras of one
    signature, a pair ``(x, y)`` at a sort coded ``x * n + y`` with ``n`` the
    second algebra's size there, as ``product_algebra`` codes its elements:
    one ``_PairRow`` per reached prefix, over the two components' ``_rows``
    at the prefix's two projections.  No product table is built, and each
    reached pair entry is computed once, when ``_closure`` reads it."""
    sizes = alg2._sizes
    tables1, tables2 = alg1._tables, alg2._tables

    def rows(op, heads, n):
        arity = op.arity
        width = sizes[arity[-1]] if arity else 1
        m = sizes[op.result]
        if not heads:  # a constant or unary table: one prefix, the whole tables
            return [_PairRow(tables1[op.name], tables2[op.name], width, m)], None
        heads1 = [[e // sizes[s] for e in pool] for pool, s in zip(heads, arity)]
        heads2 = [[e % sizes[s] for e in pool] for pool, s in zip(heads, arity)]
        both = zip(_rows(alg1, op.name, heads1), _rows(alg2, op.name, heads2))
        return [_PairRow(row1, row2, width, m) for row1, row2 in both], None

    return rows


def closure_elements(
    alg: FiniteAlgebra, seed: Mapping[str, Sequence[int]]
) -> dict[str, list[int]]:
    """Least subset containing the seed and closed under all tables, in
    ``_closure``'s first-reached order, read by ``_offset_rows``."""
    return _closure(alg.signature, seed, _offset_rows(alg), sizes=alg._sizes)


def generated_subalgebra(alg: FiniteAlgebra, seed: Mapping[str, Sequence[int]]):
    """The subalgebra generating operator: sort -> frozenset of elements."""
    _check_elements(alg._sizes, seed, "seed element")
    reached = closure_elements(alg, seed)
    return {s: frozenset(es) for s, es in reached.items()}


def _check_elements(sizes: Mapping[str, int], elements: Mapping[str, Collection[int]], what: str):
    """Reject an item that is not an element of its sort's carrier
    (``_outside``), and a sort without a size."""
    for s, es in elements.items():
        n = sizes.get(s)
        if n is None:
            raise ValidationError(f"{what} at unknown sort {s!r}")
        bad = _outside(es, n)
        if bad:
            raise ValidationError(f"{what} {bad[0]!r} out of range at sort {s!r}")


def _check_counts(counts: Mapping[str, int], what: str):
    """Reject a count (a size) that is not an exact nonnegative ``int``: an
    element of the infinite carrier of the naturals, by ``_check_elements``
    once ``_outside`` has found one."""
    if _outside(counts.values(), math.inf):
        _check_elements(dict.fromkeys(counts, math.inf), {s: (n,) for s, n in counts.items()}, what)


def restrict_algebra(alg: FiniteAlgebra, elements: Mapping[str, Sequence[int]]):
    """Restrict to a subuniverse; elements are renumbered in the given order.

    Returns the restricted algebra and the per-sort old->new index maps.
    The element lists must be in range and closed under the tables.
    """
    _check_elements(alg._sizes, elements, "element")
    index: dict[str, dict[int, int]] = {
        s: {e: i for i, e in enumerate(elements.get(s, ()))} for s in alg.signature.sorts
    }
    carriers = {s: len(elements.get(s, ())) for s in alg.signature.sorts}
    tables = {}
    for op in alg.signature.ops:
        entries = _entries(alg, op.name, [elements.get(s, ()) for s in op.arity])
        try:
            tables[op.name] = _getter(entries)(index[op.result])
        except KeyError:
            raise ValidationError("element set is not closed under the tables") from None
    return FiniteAlgebra._built(alg.signature, carriers, tables), index


# ---------------------------------------------------------------------------
# quotients


def quotient_algebra(alg: FiniteAlgebra, partition):
    """Quotient by a congruence; carriers become class ids.

    Returns the quotient algebra and the projection (sort -> tuple of class
    ids, one per original element).  Raises if the partition is not a
    congruence.  The identity partition returns the algebra itself.
    """
    from .congruence import _quotient_tables

    tables, witness = _quotient_tables(alg, partition)
    if witness is not None:
        raise ValidationError(f"partition is not a congruence: witness {witness}")
    classes = partition._classes
    projection = {s: classes[s] for s in alg.signature.sorts}
    if tables is alg._tables:  # the identity partition
        return alg, projection
    return FiniteAlgebra._built(alg.signature, partition._counts, tables), projection


# ---------------------------------------------------------------------------
# subset algebras


SUBSET_GUARD = 12


def subset_algebra(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The powerset algebra, with full tables: carriers are all subsets, as
    bitmasks, and operations act elementwise on member tuples.

    ``determinize`` builds, lazily, the subalgebra of an NTA's powerset
    algebra generated by its leaves; this is the whole algebra, guarded to
    carriers of at most ``SUBSET_GUARD`` elements per sort.
    """
    sizes = dict(alg.carriers)
    for s, n in sizes.items():
        if n > SUBSET_GUARD:
            raise ValidationError(
                f"subset algebra guard exceeded at sort {s!r} ({n} > {SUBSET_GUARD})"
            )
    carriers = {s: 1 << n for s, n in sizes.items()}
    members = {
        s: [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
        for s, n in sizes.items()
    }
    tables = {}
    for op in alg.signature.ops:
        tables[op.name] = [
            sum(1 << v for v in set(_entries(alg, op.name, pools)))
            for pools in itertools.product(*[members[s] for s in op.arity])
        ]
    return finite_algebra(alg.signature, carriers, tables)


# ---------------------------------------------------------------------------
# translations


def translation_table(
    alg: FiniteAlgebra, assignment: Mapping[str, int], ctx: Context
) -> tuple[int, ...]:
    """The unary function induced by a one-hole context: hole-sort carrier ->
    root-sort carrier.  ``_values`` reads the body's hole in place, as the
    free variable named ``@``, which no variable name can equal, so no term
    is built."""
    return _values(alg, assignment, ctx.body, [Var(HOLE, ctx.hole_sort)])
