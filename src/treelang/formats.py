"""Structured-text (YAML) file formats for signatures, algebras, recognizers,
hyperderivors, derivors, and partitions.

Key names and the mixed-radix table order (last argument fastest) are
normative: serialization is deterministic so golden files compare bit-exact.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import yaml

from .algebra import FiniteAlgebra, finite_algebra
from .congruence import SortedPartition, partition
from .core import (
    Signature,
    SortedVars,
    ValidationError,
    parse_term,
    print_term,
    signature,
    sorted_vars,
)
from .recognizer import Recognizer, recognizer

if TYPE_CHECKING:
    # the hyperderivor and derivor readers import these modules on first use
    from .derivor import Derivor
    from .treehom import Hyperderivor

# libyaml's loader and dumper when PyYAML was built with it, else the pure ones;
# both read the same documents and write the same bytes
try:
    from yaml import CSafeDumper as _DUMPER, CSafeLoader as _LOADER
except ImportError:
    from yaml import SafeDumper as _DUMPER, SafeLoader as _LOADER


def load_document(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = yaml.load(handle, Loader=_LOADER)
        except yaml.YAMLError as err:
            problem = " ".join(str(err).split())
            raise ValidationError(f"{path}: malformed YAML: {problem}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a mapping at top level")
    return doc


def dump_document(data: Mapping[str, Any], path: str | Path | None = None) -> str:
    text = yaml.dump(dict(data), Dumper=_DUMPER, sort_keys=False, default_flow_style=None)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _require(found, keys, what: str) -> None:
    """Reject the first of the keys that ``found`` lacks: a document mapping
    lacking a declared key, or a declared set lacking a document key."""
    for key in keys:
        if key not in found:
            raise ValidationError(f"{what} {key!r}")


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    """Reject a document value that is not a mapping."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _list(value: Any, what: str) -> Sequence[Any]:
    """Reject a document value that is not a list."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value: Any, what: str) -> int:
    """Read a document value as an integer, or reject it."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def _ints(value: Any, what: str) -> list[int]:
    """Read a document list of integers, or reject it."""
    values = _list(value, what)
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must list integers") from None


# ---------------------------------------------------------------------------
# signatures


def signature_from_doc(doc: Mapping[str, Any]) -> tuple[Signature, SortedVars]:
    try:
        sorts = doc["sorts"]
        ops = doc["ops"]
    except KeyError as missing:
        raise ValidationError(f"signature document missing key {missing}") from None
    sorts = _list(sorts, "signature document: 'sorts'")
    ops = _list(ops, "signature document: 'ops'")
    ops = [_mapping(o, "signature document: each 'ops' entry") for o in ops]
    try:
        specs = [
            (str(o["name"]), [str(a) for a in o.get("arity", [])], str(o["result"])) for o in ops
        ]
    except KeyError as missing:
        raise ValidationError(f"signature document: an op is missing key {missing}") from None
    sig = signature([str(s) for s in sorts], specs)
    vars_doc = _mapping(doc.get("vars", {}) or {}, "signature document: 'vars'")
    vars = sorted_vars(
        sig,
        {
            str(s): [str(x) for x in _list(xs, f"signature document: 'vars' at {s!r}")]
            for s, xs in vars_doc.items()
        },
    )
    return sig, vars


def signature_to_doc(sig: Signature, vars: SortedVars) -> dict:
    return {
        "sorts": list(sig.sorts),
        "ops": [
            {"name": op.name, "arity": list(op.arity), "result": op.result}
            for op in sig.ops
        ],
        "vars": {s: list(names) for s, names in vars.by_sort if names},
    }


def load_signature(path: str | Path) -> tuple[Signature, SortedVars]:
    return signature_from_doc(load_document(path))


# ---------------------------------------------------------------------------
# algebras and recognizers


def algebra_from_doc(
    doc: Mapping[str, Any], sig: Signature
) -> tuple[FiniteAlgebra, dict[str, int]]:
    try:
        carriers = doc["carriers"]
        tables = doc["tables"]
    except KeyError as missing:
        raise ValidationError(f"algebra document missing key {missing}") from None
    carriers = _mapping(carriers, "algebra document: 'carriers'")
    tables = _mapping(tables, "algebra document: 'tables'")
    carriers = {
        str(s): _int(n, f"algebra document: carrier size of {s!r}") for s, n in carriers.items()
    }
    tables = {str(o): _ints(t, f"algebra document: table for {o!r}") for o, t in tables.items()}
    _require(carriers, sig.sorts, "algebra document: carriers lack sort")
    _require(sig.sorts, carriers, "algebra document: carrier for undeclared sort")
    _require(tables, sig.op_by_name, "algebra document: tables lack operation")
    _require(sig.op_by_name, tables, "algebra document: table for undeclared operation")
    alg = finite_algebra(sig, carriers, tables)
    assignment = _mapping(doc.get("assignment", {}) or {}, "algebra document: 'assignment'")
    assignment = {
        str(x): _int(v, f"algebra document: assignment of {x!r}") for x, v in assignment.items()
    }
    return alg, assignment


def algebra_to_doc(alg: FiniteAlgebra, assignment: Mapping[str, int]) -> dict:
    return {
        "carriers": {s: n for s, n in alg.carriers},
        "tables": {name: list(table) for name, table in alg.tables},
        "assignment": dict(assignment),
    }


def recognizer_from_doc(doc: Mapping[str, Any]) -> Recognizer:
    sig, vars = signature_from_doc(doc)
    alg, assignment = algebra_from_doc(doc, sig)
    accepting = _mapping(doc.get("accepting", {}) or {}, "recognizer document: 'accepting'")
    accepting = {
        str(s): _ints(elems, f"recognizer document: accepting set at {s!r}")
        for s, elems in accepting.items()
    }
    _require(sig.sorts, accepting, "recognizer document: accepting set at unknown sort")
    return recognizer(vars, alg, assignment, accepting)


def recognizer_to_doc(rec: Recognizer) -> dict:
    doc = signature_to_doc(rec.signature, rec.vars)
    doc.update(algebra_to_doc(rec.algebra, dict(rec.assignment)))
    doc["accepting"] = {
        s: list(elems) for s, elems in rec.accepting if elems
    }
    return doc


def load_recognizer(path: str | Path) -> Recognizer:
    return recognizer_from_doc(load_document(path))


def save_recognizer(rec: Recognizer, path: str | Path) -> None:
    dump_document(recognizer_to_doc(rec), path)


# ---------------------------------------------------------------------------
# hyperderivors and derivors


def hyperderivor_from_doc(
    doc: Mapping[str, Any],
    source: Signature,
    source_vars: SortedVars,
    target: Signature,
    target_vars: SortedVars,
) -> Hyperderivor:
    from .treehom import hyperderivor, placeholder_vars

    try:
        sort_map = doc["sort_map"]
        raw_patterns = doc["patterns"]
        raw_images = doc["var_images"]
    except KeyError as missing:
        raise ValidationError(f"hyperderivor document missing key {missing}") from None
    sort_map = _mapping(sort_map, "hyperderivor document: 'sort_map'")
    sort_map = {str(a): str(b) for a, b in sort_map.items()}
    raw_patterns = _mapping(raw_patterns, "hyperderivor document: 'patterns'")
    raw_images = _mapping(raw_images, "hyperderivor document: 'var_images'")
    _require(sort_map, source.sorts, "hyperderivor document: sort_map lacks source sort")
    patterns = {}
    for op in source.ops:
        if op.name not in raw_patterns:
            raise ValidationError(f"hyperderivor document lacks a pattern for {op.name!r}")
        arity = tuple(sort_map[w] for w in op.arity)
        env = placeholder_vars(target, arity, target_vars)
        patterns[op.name] = parse_term(str(raw_patterns[op.name]), target, env)
    var_images = {}
    for x in source_vars.all_names():
        if x not in raw_images:
            raise ValidationError(f"hyperderivor document lacks an image for {x!r}")
        var_images[x] = parse_term(str(raw_images[x]), target, target_vars)
    return hyperderivor(
        source, source_vars, target, target_vars, sort_map, patterns, var_images
    )


def hyperderivor_to_doc(h: Hyperderivor) -> dict:
    return {
        "sort_map": {s: t for s, t in h.sort_map},
        "patterns": {name: print_term(body) for name, body in h.patterns},
        "var_images": {x: print_term(body) for x, body in h.var_images},
    }


def derivor_from_doc(
    doc: Mapping[str, Any], source: Signature, target: Signature
) -> Derivor:
    from .derivor import derivor, hall_term
    from .treehom import placeholder_vars

    try:
        sort_map = doc["sort_map"]
        raw_patterns = doc["patterns"]
    except KeyError as missing:
        raise ValidationError(f"derivor document missing key {missing}") from None
    sort_map = _mapping(sort_map, "derivor document: 'sort_map'")
    sort_map = {str(a): str(b) for a, b in sort_map.items()}
    raw_patterns = _mapping(raw_patterns, "derivor document: 'patterns'")
    _require(sort_map, source.sorts, "derivor document: sort_map lacks source sort")
    patterns = {}
    for op in source.ops:
        if op.name not in raw_patterns:
            raise ValidationError(f"derivor document lacks a pattern for {op.name!r}")
        arity = tuple(sort_map[w] for w in op.arity)
        body = parse_term(str(raw_patterns[op.name]), target, placeholder_vars(target, arity))
        patterns[op.name] = hall_term(body, arity, sort_map[op.result])
    return derivor(source, target, sort_map, patterns)


def derivor_to_doc(d: Derivor) -> dict:
    return {
        "sort_map": {s: t for s, t in d.sort_map},
        "patterns": {name: print_term(ht.term) for name, ht in d.patterns},
    }


# ---------------------------------------------------------------------------
# partitions


def partition_to_doc(p: SortedPartition) -> dict:
    return {s: list(ids) for s, ids in p.classes}


def partition_from_doc(doc: Mapping[str, Any], sorts) -> SortedPartition:
    return partition(sorts, {str(s): [int(c) for c in ids] for s, ids in doc.items()})
