"""Structured-text (YAML) file formats for signatures, algebras, recognizers,
hyperderivors, derivors, and partitions.

Key names and the mixed-radix table order (last argument fastest) are
normative: serialization is deterministic so golden files compare bit-exact.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from .algebra import FiniteAlgebra, finite_algebra
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
    # the readers of these kinds import their modules on first use
    from .congruence import SortedPartition
    from .derivor import Derivor
    from .treehom import Hyperderivor

T = TypeVar("T")


def load_document(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = _parse(handle.read())
            except _Unsupported:
                # PyYAML reads the open file, so its error marks name the path
                handle.seek(0)
                doc = _pyyaml_load(path, handle)
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
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
    doc = dict(data)
    try:
        text = _emit(doc)
    except _Unsupported:
        yaml, _, dumper = _pyyaml()
        text = yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


# ---------------------------------------------------------------------------
# YAML text
#
# The library's documents are names and integer tables, which PyYAML's
# libyaml dumper writes as block mappings and indentless block sequences, with
# each collection of scalars in flow style.  ``_parse`` and ``_emit`` read and
# write that subset and raise ``_Unsupported`` on anything PyYAML might treat
# otherwise (comments, double quotes, anchors, tabs, empty values, YAML 1.1
# words, numbers other than decimal integers, repeated or deeply nested
# collections), which then goes through PyYAML.


class _Unsupported(Exception):
    """Outside the subset of YAML read and written without PyYAML."""


def _pyyaml():
    """PyYAML and its libyaml loader and dumper, or else its pure-Python
    ones, which read and write the same."""
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml, loader, getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _pyyaml_load(path: str | Path, handle) -> Any:
    yaml, loader, _ = _pyyaml()
    try:
        return yaml.load(handle, Loader=loader)
    except yaml.YAMLError as err:
        problem = " ".join(str(err).split())
        raise ValidationError(f"{path}: malformed YAML: {problem}") from None


# the plain words that YAML 1.1 resolves to a boolean or to null
_WORDS = frozenset(
    "yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF null Null NULL"
    .split()
)
_DEPTH = 8  # levels of block collections; deeper goes to PyYAML
_KEY = re.compile(r"([A-Za-z_]\w*|0|-?[1-9]\d{0,63}):(?: (.+))?", re.ASCII)
# an integer, a plain string or a single-quoted one
_SCALAR = re.compile(r"(0|-?[1-9]\d{0,63})|([A-Za-z_][\w(),]*)|'([\w(),]*)'", re.ASCII)
_FLOW_SEPARATOR = re.compile(r",(?: |\n +)")


def _scalar(token: str, flow: bool) -> int | str:
    """What a token reads as; a comma ends a plain scalar in a flow collection."""
    match = _SCALAR.fullmatch(token)
    if match is None or match[2] in _WORDS or flow and match[2] and "," in token:
        raise _Unsupported
    return int(token) if match[1] else token if match[2] else match[3]


def _indentation(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


class _Reader:
    def __init__(self, text: str):
        self.lines = text.removesuffix("\n").split("\n")
        self.at = 0  # the next line

    def block(self, indent: int, depth: int) -> dict | list:
        """The block mapping or block sequence at ``indent``."""
        lines = self.lines
        if depth > _DEPTH:
            raise _Unsupported
        dash = lines[self.at].startswith("- ", indent)
        doc = [] if dash else {}
        while self.at < len(lines) and _indentation(lines[self.at]) == indent:
            line = lines[self.at][indent:]
            if line.startswith("- ") != dash:
                break
            if dash and _KEY.fullmatch(line, 2):
                # a mapping whose first key follows the dash
                lines[self.at] = " " * (indent + 2) + line[2:]
                doc.append(self.block(indent + 2, depth + 1))
            elif dash:
                self.at += 1
                doc.append(self.inline(line[2:], indent, depth))
            elif match := _KEY.fullmatch(line):
                self.at += 1
                doc[_scalar(match[1], False)] = self.inline(match[2], indent, depth)
            else:
                raise _Unsupported
        return doc

    def inline(self, text: str | None, indent: int, depth: int) -> Any:
        """The value that begins as ``text`` after a key or dash at
        ``indent``: a scalar, a flow collection going on over the next lines
        indented past ``indent``, or with no text a block collection."""
        lines = self.lines
        if text is None:
            line = lines[self.at] if self.at < len(lines) else ""
            n = _indentation(line)
            if n < indent or n == indent and not line.startswith("- ", n):
                raise _Unsupported
            return self.block(n, depth + 1)
        if text[:1] not in ("[", "{"):
            return _scalar(text, False)
        close = "]" if text[0] == "[" else "}"
        while text[-1] != close:
            if self.at == len(lines) or _indentation(lines[self.at]) <= indent:
                raise _Unsupported
            text += "\n" + lines[self.at]
            self.at += 1
        inner = text[1:-1].lstrip("\n ")
        tokens = _FLOW_SEPARATOR.split(inner) if inner else []
        if close == "]":
            return [_scalar(token, True) for token in tokens]
        pairs = [token.partition(": ") for token in tokens]
        return {_scalar(key, True): _scalar(value, True) for key, _, value in pairs}


def _parse(text: str) -> dict:
    """The document in ``text``, as PyYAML's safe loader reads it."""
    reader = _Reader(text)
    doc = reader.block(0, 0)
    if type(doc) is not dict or not doc or reader.at != len(reader.lines):
        raise _Unsupported
    return doc


def _emit(doc: dict) -> str:
    """``doc`` as libyaml's emitter writes it through PyYAML's safe dumper."""
    if all(type(v) is int or type(v) is str for v in doc.values()):
        raise _Unsupported  # a flow mapping at top level
    lines: list[str] = []
    seen = {id(doc)}
    for key, value in doc.items():
        _node(value, _plain(key, False, True) + ":", 0, lines, seen)
    return "\n".join(lines) + "\n"


def _node(value: Any, line: str, indent: int, lines: list[str], seen: set[int]) -> None:
    """Append ``line``, a key and its colon or a dash, and then ``value``,
    an entry of a block collection indented by ``indent``."""
    if type(value) is not list and type(value) is not dict:
        lines.append(f"{line} {_plain(value, False)}")
        return
    if id(value) in seen or indent > 2 * _DEPTH:
        raise _Unsupported  # PyYAML writes a repeated collection as an alias
    seen.add(id(value))
    items = value.values() if type(value) is dict else value
    if all(type(v) is int or type(v) is str for v in items):
        lines.append(_flow(value, line, indent + 2))
    elif type(value) is list:
        if line[-1] == "-":
            raise _Unsupported  # a block sequence in a block sequence
        lines.append(line)
        for item in value:
            _node(item, " " * indent + "-", indent, lines, seen)
    else:
        # a mapping under a dash starts on the dash's line
        head = line + " "
        if line[-1] != "-":
            lines.append(line)
            head = " " * (indent + 2)
        for key, item in value.items():
            _node(item, head + _plain(key, False, True) + ":", indent + 2, lines, seen)
            head = " " * (indent + 2)


def _plain(value: Any, flow: bool, key: bool = False) -> str:
    """An integer, or a string that reads back as a plain scalar; libyaml
    quotes one with a comma in a flow collection."""
    if type(value) is int:
        return str(value)
    match = _SCALAR.fullmatch(value) if type(value) is str else None
    if match is None or match[2] is None or value in _WORDS:
        raise _Unsupported
    # libyaml writes a key of more than 128 characters as a complex key
    # (``? key``), and PyYAML's pure emitter one of more than 122, so such a
    # key goes to PyYAML only where both write ``? key``
    if key and (len(value) > 128 or not value.isidentifier()):
        raise _Unsupported
    return f"'{value}'" if flow and "," in value else value


def _flow(value: dict | list, line: str, indent: int) -> str:
    """``line`` and then the flow collection ``value`` of scalars.  libyaml
    breaks the line before an item whose bracket or comma ends past column
    80, and indents the new line by ``indent``."""
    if type(value) is list:
        items, brackets = [_plain(v, True) for v in value], "[]"
    else:
        items = [f"{_plain(k, True, True)}: {_plain(v, True)}" for k, v in value.items()]
        brackets = "{}"
    rows, row = [], f"{line} {brackets[0]}"
    for n, item in enumerate(items):
        row += "," if n else ""
        if len(row) > 80:
            rows.append(row)
            row = " " * indent
        elif n:
            row += " "
        row += item
    rows.append(row + brackets[1])
    return "\n".join(rows)


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
    from .congruence import partition

    check(doc, {f"{s}?": [int] for s in sorts})
    return partition(sorts, doc)
