"""Command-line front end.

Loads recognizers, signatures, hyperderivors, and derivors from structured
text files, runs the language operators, decides membership, emptiness, and
equivalence, enumerates languages, and emits minimized recognizers.  Every
transform prints the serialized result document on stdout (bit-exact for
golden checks) and also writes it with ``-o``.

Exit codes: 0 on success, 1 on validation failure, 2 when an oracle mode
cannot decide within its bound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# the closure, treehom, derivor and oracle modules, and json, are imported by
# the commands that use them: a process runs one command and pays for what
# it imports
from . import formats
from .core import ValidationError, parse_context, parse_term, print_term
from .recognizer import (
    accepts,
    combine,
    equivalent,
    inverse_translation,
    is_empty,
    minimize,
)


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=False))


def _emit(args, payload_json, payload_text: str) -> None:
    if getattr(args, "json", False):
        _print_json(payload_json)
    else:
        print(payload_text)


def _emit_doc(args, doc: dict) -> None:
    """Print the document and write the same text to ``-o``, dumped once."""
    text = formats.dump_document(doc)
    if getattr(args, "json", False):
        _print_json(doc)
    else:
        sys.stdout.write(text)
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")


def cmd_member(args) -> int:
    rec = formats.load_recognizer(args.recognizer)
    term = parse_term(args.term, rec.signature, rec.vars)
    if args.oracle:
        from . import oracle

        if term.size > args.max_nodes:
            print(
                f"undecidable at bound: term has {term.size} nodes > {args.max_nodes}",
                file=sys.stderr,
            )
            return 2
        langs = oracle.enumerate_language(rec, args.max_nodes)
        result = term in set(langs[term.sort])
    else:
        result = accepts(rec, term)
    _emit(args, {"member": result}, "true" if result else "false")
    return 0


def cmd_enumerate(args) -> int:
    from . import oracle

    rec = formats.load_recognizer(args.recognizer)
    langs = oracle.enumerate_language(rec, args.max_nodes)
    payload = {s: [print_term(t) for t in ts] for s, ts in langs.items()}
    lines = [f"{s}: {print_term(t)}" for s in rec.signature.sorts for t in langs[s]]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_minimize(args) -> int:
    rec = formats.load_recognizer(args.recognizer)
    _emit_doc(args, formats.recognizer_to_doc(minimize(rec)))
    return 0


def cmd_combine(args) -> int:
    r1 = formats.load_recognizer(args.left)
    r2 = formats.load_recognizer(args.right)
    _emit_doc(args, formats.recognizer_to_doc(combine(args.kind, r1, r2)))
    return 0


def cmd_substitute(args) -> int:
    from .closure import substitute_language

    rec = formats.load_recognizer(args.recognizer)
    family = {}
    for item in args.with_ or []:
        if "=" not in item:
            raise ValidationError(f"--with expects var=FILE, got {item!r}")
        name, path = item.split("=", 1)
        family[name] = formats.load_recognizer(path)
    _emit_doc(args, formats.recognizer_to_doc(substitute_language(rec, family)))
    return 0


def cmd_iterate(args) -> int:
    from .closure import iterate_language

    rec = formats.load_recognizer(args.recognizer)
    _emit_doc(args, formats.recognizer_to_doc(iterate_language(rec, args.var)))
    return 0


def cmd_quotient(args) -> int:
    from .closure import quotient_language

    l = formats.load_recognizer(args.recognizer)
    k = formats.load_recognizer(args.by)
    _emit_doc(args, formats.recognizer_to_doc(quotient_language(l, k, args.var)))
    return 0


def cmd_invtrans(args) -> int:
    rec = formats.load_recognizer(args.recognizer)
    ctx = parse_context(args.context, rec.signature, rec.vars)
    _emit_doc(args, formats.recognizer_to_doc(inverse_translation(rec, ctx)))
    return 0


def cmd_equal(args) -> int:
    r1 = formats.load_recognizer(args.left)
    r2 = formats.load_recognizer(args.right)
    result = equivalent(r1, r2)
    _emit(args, {"equal": result}, "true" if result else "false")
    return 0


def cmd_empty(args) -> int:
    rec = formats.load_recognizer(args.recognizer)
    result = is_empty(rec)
    _emit(args, {"empty": result}, "true" if result else "false")
    return 0


def cmd_syncong(args) -> int:
    rec = formats.load_recognizer(args.recognizer)
    # minimize's per-sort state counts are the syntactic congruence's indices
    counts = minimize(rec).algebra.carriers
    payload = {s: n for s, n in counts}
    lines = [f"{s}: {n}" for s, n in counts]
    _emit(args, payload, "\n".join(lines))
    return 0


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, ""):
            raise ValidationError(f"--{name.replace('_', '-')} is required for this mode")


def cmd_treehom(args) -> int:
    from . import treehom

    if args.mode in ("apply", "inverse"):
        _require(args, "source")
        source_sig, source_vars = formats.load_signature(args.source)
    if args.mode == "apply":
        _require(args, "target", "term")
        target_sig, target_vars = formats.load_signature(args.target)
        h = formats.read(
            args.hyp, formats.hyperderivor_from_doc,
            source_sig, source_vars, target_sig, target_vars,
        )
        term = parse_term(args.term, source_sig, source_vars)
        image = treehom.apply_treehom(h, term)
        _emit(args, {"term": print_term(image)}, print_term(image))
        return 0
    if args.mode == "inverse":
        _require(args, "recognizer", "sort")
        rec = formats.load_recognizer(args.recognizer)  # over the target
        h = formats.read(
            args.hyp, formats.hyperderivor_from_doc,
            source_sig, source_vars, rec.signature, rec.vars,
        )
        out = treehom.inverse_image(h, rec, args.sort)
        _emit_doc(args, formats.recognizer_to_doc(out))
        return 0
    if args.mode == "image":
        _require(args, "target", "recognizer", "sort")
        target_sig, target_vars = formats.load_signature(args.target)
        rec = formats.load_recognizer(args.recognizer)  # over the source
        h = formats.read(
            args.hyp, formats.hyperderivor_from_doc,
            rec.signature, rec.vars, target_sig, target_vars,
        )
        out = treehom.direct_image(h, rec, args.sort)
        _emit_doc(args, formats.recognizer_to_doc(out))
        return 0
    raise ValidationError(f"unknown treehom mode {args.mode!r}")


def cmd_derivor(args) -> int:
    from .derivor import apply_derivor_term, compose_derivors, derived_algebra_derivor, hall_term
    from .treehom import placeholder_vars

    if args.mode == "apply":
        _require(args, "drv", "source", "target", "term")
        source_sig, _ = formats.load_signature(args.source)
        target_sig, _ = formats.load_signature(args.target)
        d = formats.read(args.drv, formats.derivor_from_doc, source_sig, target_sig)
        arity = tuple(a for a in args.arity.split(",") if a)
        body = parse_term(args.term, source_sig, placeholder_vars(source_sig, arity))
        ht = hall_term(body, arity, body.sort)
        out = apply_derivor_term(d, ht)
        payload = {
            "term": print_term(out.term),
            "arity": list(out.arity),
            "sort": out.sort,
        }
        _emit(
            args,
            payload,
            f"{print_term(out.term)} : ({','.join(out.arity)}) -> {out.sort}",
        )
        return 0
    if args.mode == "compose":
        _require(args, "inner", "outer", "source", "middle", "target")
        source_sig, _ = formats.load_signature(args.source)
        middle_sig, _ = formats.load_signature(args.middle)
        target_sig, _ = formats.load_signature(args.target)
        inner = formats.read(args.inner, formats.derivor_from_doc, source_sig, middle_sig)
        outer = formats.read(args.outer, formats.derivor_from_doc, middle_sig, target_sig)
        composed = compose_derivors(outer, inner)
        _emit_doc(args, formats.derivor_to_doc(composed))
        return 0
    if args.mode == "derive":
        _require(args, "drv", "source", "target", "algebra")
        source_sig, _ = formats.load_signature(args.source)
        target_sig, _ = formats.load_signature(args.target)
        d = formats.read(args.drv, formats.derivor_from_doc, source_sig, target_sig)
        alg, assignment = formats.read(args.algebra, formats.algebra_from_doc, target_sig)
        derived = derived_algebra_derivor(d, alg)
        _emit_doc(args, formats.algebra_to_doc(derived, {}))
        return 0
    raise ValidationError(f"unknown derivor mode {args.mode!r}")


def _checked_case(doc: dict) -> dict:
    formats.check(doc, {"argv": [str], "expect": str})
    return doc


def cmd_golden(args) -> int:
    from contextlib import redirect_stdout
    from io import StringIO

    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValidationError(f"{directory} is not a directory")
    cases = sorted(directory.glob("*.case"))
    if not cases:
        raise ValidationError(f"no .case files in {directory}")
    failures = 0
    for case_path in cases:
        case = formats.read(case_path, _checked_case)
        argv = [_resolve_token(directory, a) for a in case["argv"]]
        expect_path = directory / case["expect"]
        if not expect_path.is_file():
            raise ValidationError(f"missing expected-output file {expect_path}")
        expected = expect_path.read_text(encoding="utf-8")
        buffer = StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        got = buffer.getvalue()
        if code != 0 or got != expected:
            failures += 1
            print(f"FAIL {case_path.name}")
            if code != 0:
                print(f"  exit code {code}")
            for line in _diff_lines(expected, got):
                print(f"  {line}")
        else:
            print(f"PASS {case_path.name}")
    return 1 if failures else 0


def _resolve_token(directory: Path, token: str) -> str:
    """Rewrite argv tokens naming files in the case directory to full paths."""
    if (directory / token).is_file():
        return str(directory / token)
    if "=" in token:
        head, tail = token.split("=", 1)
        if (directory / tail).is_file():
            return f"{head}={directory / tail}"
    return token


def _diff_lines(expected: str, got: str):
    import difflib

    return difflib.unified_diff(
        expected.splitlines(), got.splitlines(), "expected", "got", lineterm="", n=1
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="treelang",
        description="Operators and decision procedures for many-sorted recognizable tree languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        if command in (None, name):
            p = sub.add_parser(name, **kwargs)
            p.set_defaults(fn=fn)
            p.add_argument("--json", action="store_true", help="machine-readable output")
            return p

    if p := add("member", cmd_member, help="decide term membership"):
        p.add_argument("recognizer")
        p.add_argument("term")
        p.add_argument("--oracle", action="store_true", help="decide by bounded enumeration")
        p.add_argument("--max-nodes", type=int, default=7)

    if p := add("enumerate", cmd_enumerate, help="list accepted terms up to a size bound"):
        p.add_argument("recognizer")
        p.add_argument("--max-nodes", type=int, required=True)

    if p := add("minimize", cmd_minimize, help="emit the minimized recognizer"):
        p.add_argument("recognizer")
        p.add_argument("-o", "--output")

    if p := add("combine", cmd_combine, help="boolean combination of two recognizers"):
        p.add_argument("kind", choices=["union", "intersection", "difference"])
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--output")

    if p := add("substitute", cmd_substitute, help="substitution operator"):
        p.add_argument("recognizer")
        p.add_argument("--with", dest="with_", action="append", metavar="VAR=FILE")
        p.add_argument("-o", "--output")

    if p := add("iterate", cmd_iterate, help="z-iteration operator"):
        p.add_argument("recognizer")
        p.add_argument("--var", required=True)
        p.add_argument("-o", "--output")

    if p := add("quotient", cmd_quotient, help="z-quotient operator"):
        p.add_argument("recognizer")
        p.add_argument("--by", required=True)
        p.add_argument("--var", required=True)
        p.add_argument("-o", "--output")

    if p := add("invtrans", cmd_invtrans, help="inverse translation along a one-hole context"):
        p.add_argument("recognizer")
        p.add_argument("--context", required=True)
        p.add_argument("-o", "--output")

    if p := add("equal", cmd_equal, help="decide language equality"):
        p.add_argument("left")
        p.add_argument("right")

    if p := add("empty", cmd_empty, help="decide language emptiness"):
        p.add_argument("recognizer")

    if p := add("syncong", cmd_syncong, help="per-sort syntactic-congruence indices"):
        p.add_argument("recognizer")

    if p := add("treehom", cmd_treehom, help="tree-homomorphism operators"):
        p.add_argument("mode", choices=["apply", "inverse", "image"])
        p.add_argument("--hyp", required=True, help="hyperderivor file")
        p.add_argument("--source", help="source signature file")
        p.add_argument("--target", help="target signature file")
        p.add_argument("--sort", help="distinguished source sort")
        p.add_argument("--term", dest="term", help="term to apply (apply mode)")
        p.add_argument("--rec", dest="recognizer", help="recognizer file (inverse/image modes)")
        p.add_argument("-o", "--output")

    if p := add("derivor", cmd_derivor, help="derivor operators"):
        p.add_argument("mode", choices=["apply", "compose", "derive"])
        p.add_argument("--drv", help="derivor file")
        p.add_argument("--inner", help="first derivor (compose mode)")
        p.add_argument("--outer", help="second derivor (compose mode)")
        p.add_argument("--source", help="source signature file")
        p.add_argument("--middle", help="middle signature file (compose mode)")
        p.add_argument("--target", help="target signature file")
        p.add_argument("--arity", default="", help="comma-separated rank arity word (apply mode)")
        p.add_argument("--term", dest="term", help="hall term to apply (apply mode)")
        p.add_argument("--algebra", help="algebra file over the target (derive mode)")
        p.add_argument("-o", "--output")

    if p := add("golden", cmd_golden, help="re-run recorded cases and diff bit-exact outputs"):
        p.add_argument("directory")

    if command not in (None, *sub.choices):
        return build_parser()
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
