"""Structured-text (YAML) file formats for signatures, algebras, recognizers,
hyperderivors, derivors, and partitions.

Key names and the mixed-radix table order (last argument fastest) are
normative: serialization is deterministic so golden files compare bit-exact.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

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

T = TypeVar("T")

# libyaml's loader and dumper when PyYAML was built with it, else the pure ones;
# both read the same documents and write the same bytes
try:
    from yaml import CSafeDumper as _DUMPER, CSafeLoader as _LOADER
except ImportError:
    from yaml import SafeDumper as _DUMPER, SafeLoader as _LOADER


def load_document(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = yaml.load(handle, Loader=_LOADER)
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    except yaml.YAMLError as err:
        problem = " ".join(str(err).split())
        raise ValidationError(f"{path}: malformed YAML: {problem}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a mapping at top level")
    return doc


def read(path: str | Path, reader: Callable[..., T], *args: Any) -> T:
    """``reader(document, *args)`` on the document in the file.  Its errors
    name the file first, as YAML errors do, so a command reading several
    documents says which one is at fault."""
    doc = load_document(path)
    try:
        return reader(doc, *args)
    except ValidationError as err:
        raise type(err)(f"{path}: {err}") from None


def dump_document(data: Mapping[str, Any], path: str | Path | None = None) -> str:
    text = yaml.dump(dict(data), Dumper=_DUMPER, sort_keys=False, default_flow_style=None)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


# ---------------------------------------------------------------------------
# document shapes
#
# ``int`` and ``str`` are leaves matched by exact type, so a bool is not an
# int; ``object`` matches anything (a part a later pass checks).  ``[shape]``
# is a list of that shape and ``{str: shape}`` a mapping from any names.  Any
# other dict maps field names to shapes: a trailing ``?`` marks an optional
# field, and any other key is rejected.

_LEAVES = {int: "an integer", str: "a string"}


def check(value: Any, shape: Any, where: str = "") -> None:
    """Reject ``value`` unless it has ``shape``, naming the document path of
    the first part that does not (``tables.sigma[3]``)."""
    at = where or "document"
    if shape is int or shape is str:
        if type(value) is not shape:
            raise ValidationError(f"{at} must be {_LEAVES[shape]}, got {value!r}")
    elif type(shape) is list:
        if not isinstance(value, list):
            raise ValidationError(f"{at} must be a list, got {type(value).__name__}")
        item = shape[0]
        # one pass over a list of leaves; walk it only to name the bad entry
        if not ((item is int or item is str) and all(type(v) is item for v in value)):
            for i, v in enumerate(value):
                check(v, item, f"{where}[{i}]")
    elif shape is not object:
        if not isinstance(value, dict):
            raise ValidationError(f"{at} must be a mapping, got {type(value).__name__}")
        prefix = f"{where}." if where else ""
        if str in shape:
            for key, v in value.items():
                if type(key) is not str:
                    raise ValidationError(f"{at} has a key that is not a string: {key!r}")
                check(v, shape[str], prefix + key)
            return
        for key in value:
            if key not in shape and f"{key}?" not in shape:
                raise ValidationError(f"{at} has unknown key {key!r}")
        for field, sub in shape.items():
            key = field.removesuffix("?")
            if key in value:
                check(value[key], sub, prefix + key)
            elif key == field:
                raise ValidationError(f"{at} lacks key {key!r}")


# ---------------------------------------------------------------------------
# signatures

_SIGNATURE = {
    "sorts": [str],
    "ops": [{"name": str, "arity?": [str], "result": str}],
    "vars?": {str: [str]},
}


def signature_from_doc(doc: Mapping[str, Any]) -> tuple[Signature, SortedVars]:
    check(doc, _SIGNATURE)
    return _signature(doc)


def _signature(doc: Mapping[str, Any]) -> tuple[Signature, SortedVars]:
    """The signature and variables of a document whose signature keys have
    been checked."""
    ops = [(o["name"], o.get("arity", ()), o["result"]) for o in doc["ops"]]
    sig = signature(doc["sorts"], ops)
    return sig, sorted_vars(sig, doc.get("vars", {}))


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
    return read(path, signature_from_doc)


# ---------------------------------------------------------------------------
# algebras and recognizers


def _algebra_shape(sig: Signature) -> dict:
    return {"carriers": {s: int for s in sig.sorts}, "tables": {op.name: [int] for op in sig.ops}}


def algebra_from_doc(
    doc: Mapping[str, Any], sig: Signature
) -> tuple[FiniteAlgebra, dict[str, int]]:
    check(doc, {**_algebra_shape(sig), "assignment?": {str: int}})
    return finite_algebra(sig, doc["carriers"], doc["tables"]), doc.get("assignment", {})


def algebra_to_doc(alg: FiniteAlgebra, assignment: Mapping[str, int]) -> dict:
    return {
        "carriers": {s: n for s, n in alg.carriers},
        "tables": {name: list(table) for name, table in alg.tables},
        "assignment": dict(assignment),
    }


def recognizer_from_doc(doc: Mapping[str, Any]) -> Recognizer:
    # the signature keys first: the shape of the rest is built from them
    later = ("carriers", "tables", "assignment?", "accepting?")
    check(doc, {**_SIGNATURE, **dict.fromkeys(later, object)})
    sig, vars = _signature(doc)
    names = vars.all_names()
    shape = {
        **dict.fromkeys(_SIGNATURE, object),
        **_algebra_shape(sig),
        "assignment" if names else "assignment?": {x: int for x in names},
        "accepting?": {f"{s}?": [int] for s in sig.sorts},
    }
    check(doc, shape)
    alg = finite_algebra(sig, doc["carriers"], doc["tables"])
    return recognizer(vars, alg, doc.get("assignment", {}), doc.get("accepting", {}))


def recognizer_to_doc(rec: Recognizer) -> dict:
    doc = signature_to_doc(rec.signature, rec.vars)
    doc.update(algebra_to_doc(rec.algebra, dict(rec.assignment)))
    doc["accepting"] = {
        s: list(elems) for s, elems in rec.accepting if elems
    }
    return doc


def load_recognizer(path: str | Path) -> Recognizer:
    return read(path, recognizer_from_doc)


def save_recognizer(rec: Recognizer, path: str | Path) -> None:
    dump_document(recognizer_to_doc(rec), path)


# ---------------------------------------------------------------------------
# hyperderivors and derivors


def _morphism_shape(source: Signature) -> dict:
    return {
        "sort_map": {s: str for s in source.sorts},
        "patterns": {op.name: str for op in source.ops},
    }


def _patterns(doc: Mapping[str, Any], source: Signature, target: Signature, target_vars=None):
    """Each source operation of a checked hyperderivor or derivor document,
    its mapped arity word, and its pattern parsed over the target variables
    plus the placeholders of that word.  The sort map is checked first, so
    an unknown target sort is named as such."""
    from .treehom import _checked_sort_map, placeholder_vars

    sort_map = _checked_sort_map(source, target, doc["sort_map"].items())
    for op in source.ops:
        arity = tuple(sort_map[w] for w in op.arity)
        env = placeholder_vars(target, arity, target_vars)
        yield op, arity, parse_term(doc["patterns"][op.name], target, env)


def hyperderivor_from_doc(
    doc: Mapping[str, Any],
    source: Signature,
    source_vars: SortedVars,
    target: Signature,
    target_vars: SortedVars,
) -> Hyperderivor:
    from .treehom import hyperderivor

    images = {x: str for x in source_vars.all_names()}
    check(doc, {**_morphism_shape(source), "var_images": images})
    patterns = {op.name: body for op, _, body in _patterns(doc, source, target, target_vars)}
    var_images = {x: parse_term(t, target, target_vars) for x, t in doc["var_images"].items()}
    return hyperderivor(
        source, source_vars, target, target_vars, doc["sort_map"], patterns, var_images
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

    check(doc, _morphism_shape(source))
    sort_map = doc["sort_map"]
    patterns = {
        op.name: hall_term(body, arity, sort_map[op.result])
        for op, arity, body in _patterns(doc, source, target)
    }
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
    check(doc, {f"{s}?": [int] for s in sorts})
    return partition(sorts, doc)
