"""Command-line front end.

Loads recognizers, signatures, hyperderivors, and derivors from structured
text files, runs the language operators, decides membership, emptiness, and
equivalence, enumerates languages, and emits minimized recognizers.  Every
transform prints the serialized result document on stdout (bit-exact for
golden checks) and also writes it with ``-o``; ``--json`` prints
machine-readable output instead, on every command but ``golden``.

Exit codes: 0 on success, 1 on validation failure, 2 on a usage error
(unknown command, missing or unknown option, ``--max-nodes`` on ``member``
without ``--oracle``) or when an oracle mode cannot decide within its bound.
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


def _emit(args, payload_json, payload_text: str) -> None:
    if args.json:
        import json

        payload_text = json.dumps(payload_json, sort_keys=False)
    print(payload_text)


def _emit_doc(args, doc: dict) -> None:
    """Write the document to ``-o`` first, then print the same text, dumped
    once: a failed write prints nothing."""
    text = formats.dump_document(doc, args.output)  # ends with a line break
    _emit(args, doc, text[:-1])


def cmd_member(args) -> int:
    if args.max_nodes is not None and not args.oracle:
        args.parser.error("argument --max-nodes: only allowed with --oracle")
    rec = formats.load_recognizer(args.recognizer)
    term = parse_term(args.term, rec.signature, rec.vars)
    if args.oracle:
        from . import oracle

        bound = 7 if args.max_nodes is None else args.max_nodes
        if term.size > bound:
            print(f"undecidable at bound: term has {term.size} nodes > {bound}", file=sys.stderr)
            return 2
        langs = oracle.enumerate_language(rec, term.size)
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
        if name in family:
            raise ValidationError(f"--with lists variable {name!r} twice")
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
    _emit(args, dict(counts), "\n".join(f"{s}: {n}" for s, n in counts))
    return 0


def cmd_treehom_apply(args) -> int:
    from .treehom import apply_treehom

    source_sig, source_vars = formats.load_signature(args.source)
    target_sig, target_vars = formats.load_signature(args.target)
    h = formats.read(args.hyp, formats.hyperderivor_from_doc, source_sig, source_vars,
                     target_sig, target_vars)
    image = print_term(apply_treehom(h, parse_term(args.term, source_sig, source_vars)))
    _emit(args, {"term": image}, image)
    return 0


def cmd_treehom_inverse(args) -> int:
    from .treehom import inverse_image

    source_sig, source_vars = formats.load_signature(args.source)
    rec = formats.load_recognizer(args.rec)  # over the target
    h = formats.read(args.hyp, formats.hyperderivor_from_doc, source_sig, source_vars,
                     rec.signature, rec.vars)
    _emit_doc(args, formats.recognizer_to_doc(inverse_image(h, rec, args.sort)))
    return 0


def cmd_treehom_image(args) -> int:
    from .treehom import direct_image

    target_sig, target_vars = formats.load_signature(args.target)
    rec = formats.load_recognizer(args.rec)  # over the source
    h = formats.read(args.hyp, formats.hyperderivor_from_doc, rec.signature, rec.vars,
                     target_sig, target_vars)
    _emit_doc(args, formats.recognizer_to_doc(direct_image(h, rec, args.sort)))
    return 0


def cmd_derivor_apply(args) -> int:
    from .derivor import apply_derivor_term, hall_term
    from .treehom import placeholder_vars

    source_sig, _ = formats.load_signature(args.source)
    target_sig, _ = formats.load_signature(args.target)
    d = formats.read(args.drv, formats.derivor_from_doc, source_sig, target_sig)
    arity = tuple(a for a in args.arity.split(",") if a)
    body = parse_term(args.term, source_sig, placeholder_vars(source_sig, arity))
    out = apply_derivor_term(d, hall_term(body, arity, body.sort))
    term = print_term(out.term)
    payload = {"term": term, "arity": list(out.arity), "sort": out.sort}
    _emit(args, payload, f"{term} : ({','.join(out.arity)}) -> {out.sort}")
    return 0


def cmd_derivor_compose(args) -> int:
    from .derivor import compose_derivors

    source_sig, _ = formats.load_signature(args.source)
    middle_sig, _ = formats.load_signature(args.middle)
    target_sig, _ = formats.load_signature(args.target)
    inner = formats.read(args.inner, formats.derivor_from_doc, source_sig, middle_sig)
    outer = formats.read(args.outer, formats.derivor_from_doc, middle_sig, target_sig)
    _emit_doc(args, formats.derivor_to_doc(compose_derivors(outer, inner)))
    return 0


def cmd_derivor_derive(args) -> int:
    from .derivor import derived_algebra_derivor

    source_sig, _ = formats.load_signature(args.source)
    target_sig, _ = formats.load_signature(args.target)
    d = formats.read(args.drv, formats.derivor_from_doc, source_sig, target_sig)
    alg, _ = formats.read(args.algebra, formats.algebra_from_doc, target_sig)
    _emit_doc(args, formats.algebra_to_doc(derived_algebra_derivor(d, alg), {}))
    return 0


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


# the help of each option that a mode of ``treehom`` or ``derivor`` requires
_MODE_OPTIONS = {
    "--hyp": "hyperderivor file",
    "--drv": "derivor file",
    "--inner": "first derivor, source to middle",
    "--outer": "second derivor, middle to target",
    "--source": "source signature file",
    "--middle": "middle signature file",
    "--target": "target signature file",
    "--rec": "recognizer file",
    "--sort": "distinguished source sort",
    "--term": "term to apply",
    "--algebra": "algebra file over the target",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="treelang",
        description="Operators and decision procedures for many-sorted recognizable tree languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, modes=None, required="", output=False, json=True):
        """The parser of a command, or of a mode in ``modes``, its command's
        sub-commands, that runs ``fn``: a mode names its required options,
        and a command that emits a document takes ``-o``."""
        if modes or command in (None, name):
            p = (modes or sub).add_parser(name, help=help)
            p.set_defaults(fn=fn, parser=p)
            if json:
                p.add_argument("--json", action="store_true", help="machine-readable output")
            if output:
                p.add_argument("-o", "--output")
            for flag in required.split():
                p.add_argument(flag, required=True, help=_MODE_OPTIONS[flag])
            return p

    def with_modes(name, help):
        if command in (None, name):
            return sub.add_parser(name, help=help).add_subparsers(dest="mode", required=True)

    if p := add("member", cmd_member, "decide term membership"):
        p.add_argument("recognizer")
        p.add_argument("term")
        p.add_argument("--oracle", action="store_true", help="decide by bounded enumeration")
        p.add_argument("--max-nodes", type=int, help="the oracle's bound (default 7)")

    if p := add("enumerate", cmd_enumerate, "list accepted terms up to a size bound"):
        p.add_argument("recognizer")
        p.add_argument("--max-nodes", type=int, required=True)

    if p := add("minimize", cmd_minimize, "emit the minimized recognizer", output=True):
        p.add_argument("recognizer")

    if p := add("combine", cmd_combine, "boolean combination of two recognizers", output=True):
        p.add_argument("kind", choices=["union", "intersection", "difference"])
        p.add_argument("left")
        p.add_argument("right")

    if p := add("substitute", cmd_substitute, "substitution operator", output=True):
        p.add_argument("recognizer")
        p.add_argument("--with", dest="with_", action="append", metavar="VAR=FILE")

    if p := add("iterate", cmd_iterate, "z-iteration operator", output=True):
        p.add_argument("recognizer")
        p.add_argument("--var", required=True)

    if p := add("quotient", cmd_quotient, "z-quotient operator", output=True):
        p.add_argument("recognizer")
        p.add_argument("--by", required=True)
        p.add_argument("--var", required=True)

    if p := add("invtrans", cmd_invtrans, "inverse translation along a one-hole context",
                output=True):
        p.add_argument("recognizer")
        p.add_argument("--context", required=True)

    if p := add("equal", cmd_equal, "decide language equality"):
        p.add_argument("left")
        p.add_argument("right")

    if p := add("empty", cmd_empty, "decide language emptiness"):
        p.add_argument("recognizer")

    if p := add("syncong", cmd_syncong, "per-sort syntactic-congruence indices"):
        p.add_argument("recognizer")

    if modes := with_modes("treehom", "tree-homomorphism operators"):
        add("apply", cmd_treehom_apply, "image of a term", modes, "--hyp --source --target --term")
        add("inverse", cmd_treehom_inverse, "inverse image of a language", modes,
            "--hyp --source --rec --sort", output=True)
        add("image", cmd_treehom_image, "direct image of a language", modes,
            "--hyp --target --rec --sort", output=True)

    if modes := with_modes("derivor", "derivor operators"):
        p = add("apply", cmd_derivor_apply, "image of a Hall term", modes,
                "--drv --source --target --term")
        p.add_argument("--arity", default="", help="comma-separated rank arity word")
        add("compose", cmd_derivor_compose, "composite of two derivors", modes,
            "--inner --outer --source --middle --target", output=True)
        add("derive", cmd_derivor_derive, "derived algebra over the source", modes,
            "--drv --source --target --algebra", output=True)

    if p := add("golden", cmd_golden, "re-run recorded cases and diff bit-exact outputs",
                json=False):
        p.add_argument("directory")

    if command not in (None, *sub.choices):
        return build_parser()
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:
        # the invoked command's parser, so the usage line is its own
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:  # the parser and _rebuild recurse
        limit = sys.getrecursionlimit()
        print(
            f"error: input nests deeper than the recursion limit of {limit} allows",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
