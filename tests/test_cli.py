import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from treelang import oracle
from treelang.cli import build_parser, main
from treelang.core import parse_term
from treelang.formats import load_recognizer, recognizer_to_doc, dump_document
from treelang.recognizer import accepts, equivalent

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([str(a) for a in argv])
    return code, buffer.getvalue()


# a command that reads each golden document kind, given the document's path
READERS = {
    "rpar.rec": lambda path: ["member", path, "g(c)"],
    "f1.sig": lambda path: [
        "treehom", "apply", "--hyp", GOLDEN / "h1.hyp", "--source", GOLDEN / "f2.sig",
        "--target", path, "--term", "iszero(succ(zero))",
    ],
    "f2.sig": lambda path: [
        "treehom", "apply", "--hyp", GOLDEN / "h1.hyp", "--source", path,
        "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))",
    ],
    "h1.hyp": lambda path: [
        "treehom", "apply", "--hyp", path, "--source", GOLDEN / "f2.sig",
        "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))",
    ],
    "d1.drv": lambda path: [
        "derivor", "apply", "--drv", path, "--source", GOLDEN / "f2.sig",
        "--target", GOLDEN / "f1.sig", "--arity", "e", "--term", "iszero(succ(v0))",
    ],
}


class TestBasicCommands:
    def test_member_true(self):
        code, out = run("member", GOLDEN / "rpar.rec", "g(g(c))")
        assert code == 0 and out == "true\n"

    def test_member_false_still_exit_zero(self):
        code, out = run("member", GOLDEN / "rpar.rec", "g(c)")
        assert code == 0 and out == "false\n"

    def test_member_json(self):
        code, out = run("member", "--json", GOLDEN / "rpar.rec", "g(g(c))")
        assert code == 0 and json.loads(out) == {"member": True}

    def test_equal_self(self):
        code, out = run("equal", GOLDEN / "rpar.rec", GOLDEN / "rpar.rec")
        assert code == 0 and out == "true\n"

    def test_equal_to_the_complement(self, tmp_path):
        flipped = tmp_path / "flipped.rec"
        text = (GOLDEN / "rpar.rec").read_text()
        assert text.endswith("accepting:\n  s:\n  - 0\n")
        flipped.write_text(text[: -len("0\n")] + "1\n")
        code, out = run("equal", GOLDEN / "rpar.rec", flipped)
        assert code == 0 and out == "false\n"
        code, out = run("equal", "--json", GOLDEN / "rpar.rec", flipped)
        assert code == 0 and json.loads(out) == {"equal": False}

    def test_empty(self):
        code, out = run("empty", GOLDEN / "rpar.rec")
        assert code == 0 and out == "false\n"

    def test_empty_of_a_self_difference(self, tmp_path):
        diff = tmp_path / "diff.rec"
        code, _ = run("combine", "difference", GOLDEN / "rpar.rec", GOLDEN / "rpar.rec", "-o", diff)
        assert code == 0
        code, out = run("empty", diff)
        assert code == 0 and out == "true\n"

    def test_validation_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.rec"
        bad.write_text("sorts: [s]\nops: []\ncarriers: {s: 1}\ntables: {}\n")
        code, _ = run("member", bad, "x")
        assert code == 1

    def test_oracle_mode_exit_two_beyond_bound(self):
        code, _ = run(
            "member", GOLDEN / "rpar.rec", "g(g(g(g(c))))", "--oracle", "--max-nodes", "3"
        )
        assert code == 2

    def test_oracle_mode_within_bound(self):
        code, out = run(
            "member", GOLDEN / "rpar.rec", "g(g(c))", "--oracle", "--max-nodes", "4"
        )
        assert code == 0 and out == "true\n"

    def test_oracle_mode_enumerates_to_the_terms_size(self, monkeypatch):
        """Only terms of the query's size decide it, so the oracle lists
        those, not the terms up to ``--max-nodes``, and the verdict is the
        one ``accepts`` gives."""
        enumerate_language, bounds = oracle.enumerate_language, []

        def spy(rec, max_nodes):
            bounds.append(max_nodes)
            return enumerate_language(rec, max_nodes)

        monkeypatch.setattr(oracle, "enumerate_language", spy)
        rec = load_recognizer(GOLDEN / "rpar.rec")
        verdicts = set()
        for text in ("c", "x", "g(c)", "g(g(c))", "sigma(x,z)", "sigma(g(x),c)", "g(sigma(z,g(c)))"):
            term = parse_term(text, rec.signature, rec.vars)
            bounds.clear()
            code, out = run("member", GOLDEN / "rpar.rec", text, "--oracle", "--max-nodes", "10")
            assert code == 0 and bounds == [term.size]
            assert out == ("true\n" if accepts(rec, term) else "false\n")
            verdicts.add(out)
        assert verdicts == {"true\n", "false\n"}


COMMANDS = [
    "member", "enumerate", "minimize", "combine", "substitute", "iterate", "quotient",
    "invtrans", "equal", "empty", "syncong", "treehom", "derivor", "golden",
]


def parser_exit(argv):
    """The exit code, stdout and stderr of ``main`` when argparse ends it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as done:
        main(argv)
    return done.value.code, out.getvalue(), err.getvalue()


class TestParser:
    """``main`` builds only the invoked command's subparser; what lists the
    commands comes from the full parser."""

    def test_top_level_help_lists_every_command(self):
        code, out, _ = parser_exit(["--help"])
        assert code == 0 and out == build_parser().format_help()
        assert "{" + ",".join(COMMANDS) + "}" in out

    def test_unknown_command_lists_every_command(self):
        code, _, err = parser_exit(["nonesuch", "x"])
        assert code == 2 and "invalid choice: 'nonesuch'" in err
        assert all(f"'{name}'" in err for name in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_unchanged(self, command):
        code, out, _ = parser_exit([command, "-h"])
        with redirect_stdout(io.StringIO()) as full, pytest.raises(SystemExit):
            build_parser().parse_args([command, "-h"])
        assert code == 0 and out == full.getvalue() and out.startswith(f"usage: treelang {command} ")


# every command's and mode's option strings, with a trailing ``*`` on a
# required one: adding or dropping an option is an edit of this table
OPTIONS = {
    "member": "--json --oracle --max-nodes",
    "enumerate": "--json --max-nodes*",
    "minimize": "--json -o --output",
    "combine": "--json -o --output",
    "substitute": "--json -o --output --with",
    "iterate": "--json -o --output --var*",
    "quotient": "--json -o --output --by* --var*",
    "invtrans": "--json -o --output --context*",
    "equal": "--json",
    "empty": "--json",
    "syncong": "--json",
    "treehom": "",
    "treehom apply": "--json --hyp* --source* --target* --term*",
    "treehom inverse": "--json -o --output --hyp* --source* --rec* --sort*",
    "treehom image": "--json -o --output --hyp* --target* --rec* --sort*",
    "derivor": "",
    "derivor apply": "--json --drv* --source* --target* --term* --arity",
    "derivor compose": "--json -o --output --inner* --outer* --source* --middle* --target*",
    "derivor derive": "--json -o --output --drv* --source* --target* --algebra*",
    "golden": "",
}


def option_surfaces(parser, path=""):
    """The option strings of each command and mode below ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                key = f"{path} {name}".strip()
                yield key, {
                    flag + "*" * a.required
                    for a in child._actions
                    for flag in a.option_strings
                    if flag not in ("-h", "--help")
                }
                yield from option_surfaces(child, key)


# a command line of each treehom and derivor mode that gives every option the
# mode requires; ``--arity`` is the one mode option with a default
MODES = {
    "treehom apply": ["--hyp", GOLDEN / "h1.hyp", "--source", GOLDEN / "f2.sig",
                      "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))"],
    "treehom inverse": ["--hyp", GOLDEN / "h1.hyp", "--source", GOLDEN / "f2.sig",
                        "--rec", GOLDEN / "rpar.rec", "--sort", "e"],
    "treehom image": ["--hyp", GOLDEN / "h1.hyp", "--target", GOLDEN / "f1.sig",
                      "--rec", GOLDEN / "liz.rec", "--sort", "b"],
    "derivor apply": ["--drv", GOLDEN / "d1.drv", "--source", GOLDEN / "f2.sig",
                      "--target", GOLDEN / "f1.sig", "--arity", "e", "--term", "iszero(succ(v0))"],
    "derivor compose": ["--inner", GOLDEN / "d1.drv", "--outer", GOLDEN / "d1.drv",
                        "--source", GOLDEN / "f2.sig", "--middle", GOLDEN / "f1.sig",
                        "--target", GOLDEN / "f1.sig"],
    "derivor derive": ["--drv", GOLDEN / "d1.drv", "--source", GOLDEN / "f2.sig",
                       "--target", GOLDEN / "f1.sig", "--algebra", GOLDEN / "rpar.rec"],
}
REQUIRED = [
    (mode, flag) for mode, argv in MODES.items()
    for flag in argv if str(flag).startswith("--") and flag != "--arity"
]
# the options each mode's command once accepted for its other modes and
# never read, and the --json that golden never read
IGNORED = {
    "treehom apply": ["--sort", "--rec", "-o"],
    "treehom inverse": ["--target", "--term"],
    "treehom image": ["--source", "--term"],
    "derivor apply": ["--inner", "--outer", "--middle", "--algebra", "-o"],
    "derivor compose": ["--drv", "--arity", "--term", "--algebra"],
    "derivor derive": ["--inner", "--outer", "--middle", "--arity", "--term"],
    "golden": ["--json"],
}


class TestOptionSurface:
    """Each command and mode declares the options its function reads, and
    argparse enforces the ones it needs (exit 2, no traceback)."""

    def test_declared_options_match_the_table(self):
        surfaces = dict(option_surfaces(build_parser()))
        assert surfaces == {key: set(flags.split()) for key, flags in OPTIONS.items()}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parser_declares_the_same_options(self, command):
        assert dict(option_surfaces(build_parser(command))) == {
            key: flags for key, flags in option_surfaces(build_parser())
            if key.split()[0] == command
        }

    @pytest.mark.parametrize("mode, flag", REQUIRED)
    def test_missing_required_option_is_a_usage_error(self, mode, flag):
        argv = MODES[mode]
        i = argv.index(flag)
        code, out, err = parser_exit([*mode.split(), *map(str, argv[:i] + argv[i + 2:])])
        assert code == 2 and out == ""
        assert err.endswith(f"error: the following arguments are required: {flag}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode, flag", [(mode, flag) for mode, flags in IGNORED.items() for flag in flags]
    )
    def test_option_of_another_mode_is_a_usage_error(self, mode, flag):
        argv = MODES.get(mode, [GOLDEN])
        code, out, err = parser_exit([*mode.split(), *map(str, argv), flag, "x"])
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag} x\n")
        assert "Traceback" not in err

    def test_treehom_apply_writes_no_output_file(self, tmp_path):
        argv = [*MODES["treehom apply"], "-o", tmp_path / "f"]
        code, _, err = parser_exit(["treehom", "apply", *map(str, argv)])
        assert code == 2 and "unrecognized arguments: -o" in err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("mode", ["member", "treehom apply"])
    def test_unknown_option_prints_the_invoked_usage(self, mode):
        argv = MODES.get(mode, [GOLDEN / "rpar.rec", "g(c)"])
        code, out, err = parser_exit([*mode.split(), *map(str, argv), "--bogus"])
        assert code == 2 and out == ""
        assert err.startswith(f"usage: treelang {mode} [-h]")
        assert err.endswith(f"treelang {mode}: error: unrecognized arguments: --bogus\n")

    def test_max_nodes_without_oracle_is_a_usage_error(self):
        code, out, err = parser_exit(["member", str(GOLDEN / "rpar.rec"), "g(c)", "--max-nodes", "3"])
        assert code == 2 and out == ""
        assert err.startswith("usage: treelang member [-h]")
        assert "--max-nodes" in err.splitlines()[-1] and "--oracle" in err.splitlines()[-1]

    def test_empty_value_is_the_readers_error(self, capsys):
        argv = MODES["treehom apply"]
        i = argv.index("--term")
        code, out = run("treehom", "apply", *argv[:i + 1], "", *argv[i + 2:])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: unexpected end of input\n"


@pytest.mark.parametrize("command, flag, deep", [
    ("member", None, "g(" * 5000 + "c" + ")" * 5000),
    ("invtrans", "--context", "g(" * 5000 + "@" + ")" * 5000),
])
def test_deep_input_is_one_error_line(command, flag, deep):
    """A term nested past the recursion limit ends with exit 1 and one
    ``error:`` line, not a traceback."""
    argv = [command, str(GOLDEN / "rpar.rec"), *([flag] if flag else []), deep]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "treelang.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "recursion limit" in lines[0]
    assert "Traceback" not in done.stderr


def test_import_loads_no_numpy():
    # every CLI command pays for its imports; numpy alone once took about
    # half of a short command's wall time
    code = 'import sys, treelang, treelang.cli; assert "numpy" not in sys.modules'
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestTransforms:
    def test_minimize_output_reloads(self, tmp_path):
        out_path = tmp_path / "m.rec"
        code, out = run("minimize", GOLDEN / "rpar.rec", "-o", out_path)
        assert code == 0
        reloaded = load_recognizer(out_path)
        original = load_recognizer(GOLDEN / "rpar.rec")
        assert equivalent(reloaded, original)
        assert out == dump_document(recognizer_to_doc(reloaded))

    def test_combine_roundtrip(self, tmp_path):
        out_path = tmp_path / "u.rec"
        code, _ = run(
            "combine", "union", GOLDEN / "rpar.rec", GOLDEN / "rpar.rec", "-o", out_path
        )
        assert code == 0
        assert equivalent(load_recognizer(out_path), load_recognizer(GOLDEN / "rpar.rec"))

    def test_substitute_with_family(self, tmp_path):
        out_path = tmp_path / "s.rec"
        code, _ = run(
            "substitute",
            GOLDEN / "rpar.rec",
            "--with",
            f"x={GOLDEN / 'kc.rec'}",
            "-o",
            out_path,
        )
        assert code == 0
        assert out_path.is_file()

    def test_iterate_and_quotient(self, tmp_path):
        code, _ = run(
            "iterate", GOLDEN / "lscc.rec", "--var", "z", "-o", tmp_path / "it.rec"
        )
        assert code == 0
        code, _ = run(
            "quotient",
            GOLDEN / "lscc.rec",
            "--by",
            GOLDEN / "kc.rec",
            "--var",
            "z",
            "-o",
            tmp_path / "q.rec",
        )
        assert code == 0
        q = load_recognizer(tmp_path / "q.rec")
        code, out = run("member", tmp_path / "q.rec", "sigma(z,c)")
        assert out == "true\n"

    def test_output_file_matches_stdout(self, tmp_path):
        out_path = tmp_path / "i.rec"
        code, out = run("invtrans", GOLDEN / "rpar.rec", "--context", "g(@)", "-o", out_path)
        assert code == 0 and out
        assert out_path.read_bytes() == out.encode("utf-8")

    def test_failed_output_write_prints_nothing(self, tmp_path, capsys):
        """``-o`` is written before stdout, so a write that fails ends with
        exit 1, one ``error:`` line and nothing printed."""
        out_path = tmp_path / "missing" / "m.rec"
        code, out = run("minimize", GOLDEN / "rpar.rec", "-o", out_path)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")
        assert not out_path.exists()

    def test_syncong_matches_minimize_counts(self, tmp_path):
        code, out = run("syncong", GOLDEN / "rpar.rec")
        assert code == 0
        counts = dict(
            line.split(": ") for line in out.strip().splitlines()
        )
        code, _ = run("minimize", GOLDEN / "rpar.rec", "-o", tmp_path / "m.rec")
        m = load_recognizer(tmp_path / "m.rec")
        assert {s: int(n) for s, n in counts.items()} == {
            s: n for s, n in m.algebra.carriers
        }

    def test_syncong_of_minimized_equals_its_state_counts(self, tmp_path):
        code, _ = run("minimize", GOLDEN / "lscc.rec", "-o", tmp_path / "m.rec")
        assert code == 0
        m = load_recognizer(tmp_path / "m.rec")
        code, out = run("syncong", tmp_path / "m.rec")
        counts = dict(line.split(": ") for line in out.strip().splitlines())
        assert {s: int(n) for s, n in counts.items()} == {
            s: n for s, n in m.algebra.carriers
        }


class TestTreehomDerivorCommands:
    def test_apply(self):
        code, out = run(
            "treehom",
            "apply",
            "--hyp",
            GOLDEN / "h1.hyp",
            "--source",
            GOLDEN / "f2.sig",
            "--target",
            GOLDEN / "f1.sig",
            "--term",
            "iszero(succ(zero))",
        )
        assert code == 0 and out == "sigma(g(c),c)\n"

    def test_inverse_image_members(self, tmp_path):
        code, _ = run(
            "treehom",
            "inverse",
            "--hyp",
            GOLDEN / "h1.hyp",
            "--source",
            GOLDEN / "f2.sig",
            "--rec",
            GOLDEN / "rpar.rec",
            "--sort",
            "e",
            "-o",
            tmp_path / "inv.rec",
        )
        assert code == 0
        code, out = run("member", tmp_path / "inv.rec", "succ(succ(zero))")
        assert out == "true\n"
        code, out = run("member", tmp_path / "inv.rec", "succ(zero)")
        assert out == "false\n"

    def test_image(self, tmp_path):
        code, _ = run(
            "treehom",
            "image",
            "--hyp",
            GOLDEN / "h1.hyp",
            "--target",
            GOLDEN / "f1.sig",
            "--rec",
            GOLDEN / "liz.rec",
            "--sort",
            "b",
            "-o",
            tmp_path / "img.rec",
        )
        assert code == 0
        code, out = run("member", tmp_path / "img.rec", "sigma(c,c)")
        assert out == "true\n"
        code, out = run("member", tmp_path / "img.rec", "sigma(c,g(c))")
        assert out == "false\n"

    def test_derivor_apply(self):
        code, out = run(
            "derivor",
            "apply",
            "--drv",
            GOLDEN / "d1.drv",
            "--source",
            GOLDEN / "f2.sig",
            "--target",
            GOLDEN / "f1.sig",
            "--arity",
            "e",
            "--term",
            "iszero(succ(v0))",
        )
        assert code == 0 and out == "sigma(g(v0),c) : (s) -> s\n"

    def test_derivor_compose_and_derive(self, tmp_path):
        import yaml

        d2 = {
            "sort_map": {"s": "s"},
            "patterns": {"c": "c", "g": "g(g(v0))", "sigma": "sigma(v0,v1)"},
        }
        d2_path = tmp_path / "d2.drv"
        d2_path.write_text(yaml.safe_dump(d2, sort_keys=False))
        code, out = run(
            "derivor",
            "compose",
            "--outer",
            d2_path,
            "--inner",
            GOLDEN / "d1.drv",
            "--source",
            GOLDEN / "f2.sig",
            "--middle",
            GOLDEN / "f1.sig",
            "--target",
            GOLDEN / "f1.sig",
        )
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["patterns"]["succ"] == "g(g(v0))"

        alg_doc = {
            "carriers": {"s": 2},
            "tables": {"c": [0], "g": [1, 0], "sigma": [0, 1, 1, 0]},
        }
        alg_path = tmp_path / "par.alg"
        alg_path.write_text(yaml.safe_dump(alg_doc, sort_keys=False))
        code, out = run(
            "derivor",
            "derive",
            "--drv",
            GOLDEN / "d1.drv",
            "--source",
            GOLDEN / "f2.sig",
            "--target",
            GOLDEN / "f1.sig",
            "--algebra",
            alg_path,
        )
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["tables"]["iszero"] == [0, 1]


class TestGolden:
    def test_full_directory_passes(self):
        code, out = run("golden", GOLDEN)
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_expected_reported(self, tmp_path):
        import shutil

        shutil.copytree(GOLDEN, tmp_path / "g", dirs_exist_ok=True)
        (tmp_path / "g" / "member_even.expected").write_text("false\n")
        code, out = run("golden", tmp_path / "g")
        assert code == 1
        assert "FAIL member_even.case" in out

    def test_missing_file_is_validation_error(self, tmp_path):
        import shutil

        shutil.copytree(GOLDEN, tmp_path / "g", dirs_exist_ok=True)
        (tmp_path / "g" / "member_even.expected").unlink()
        code, _ = run("golden", tmp_path / "g")
        assert code == 1


def edited(tmp_path, name, edit):
    """A copy of a golden document with ``edit`` applied to its parsed form."""
    import yaml

    doc = yaml.safe_load((GOLDEN / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


class TestHostileInput:
    """Malformed or mistyped documents end with exit 1 and an ``error:`` line
    naming the file, key, sort or operation at fault, never with a traceback."""

    def fails_with(self, capsys, message, *argv):
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_hyp_sort_map_missing_source_sort(self, tmp_path, capsys):
        hyp = edited(tmp_path, "h1.hyp", lambda d: d["sort_map"].pop("b"))
        self.fails_with(
            capsys, "sort_map lacks key 'b'",
            "treehom", "apply", "--hyp", hyp, "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))",
        )

    def test_drv_sort_map_missing_source_sort(self, tmp_path, capsys):
        drv = edited(tmp_path, "d1.drv", lambda d: d["sort_map"].pop("b"))
        self.fails_with(
            capsys, "sort_map lacks key 'b'",
            "derivor", "apply", "--drv", drv, "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--arity", "e", "--term", "iszero(succ(v0))",
        )

    def test_rec_op_without_name(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["ops"][1].pop("name"))
        self.fails_with(capsys, "ops[1] lacks key 'name'", "member", rec, "g(c)")

    def test_rec_carriers_missing_sort(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["carriers"].pop("s"))
        self.fails_with(capsys, "carriers lacks key 's'", "member", rec, "g(c)")

    def test_rec_tables_missing_operation(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["tables"].pop("g"))
        self.fails_with(capsys, "tables lacks key 'g'", "member", rec, "g(c)")

    def test_rec_accepting_at_undeclared_sort(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["accepting"].update(t=[0]))
        self.fails_with(capsys, "accepting has unknown key 't'", "member", rec, "g(c)")

    def test_rec_malformed_yaml(self, tmp_path, capsys):
        rec = tmp_path / "bad.rec"
        rec.write_text("sorts: [s\nops: ]\n")
        self.fails_with(capsys, f"{rec}: malformed YAML", "member", rec, "c")

    def test_rec_op_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(ops=["c"]))
        self.fails_with(capsys, "ops[0] must be a mapping, got str", "member", rec, "c")

    def test_rec_carriers_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(carriers=[2]))
        self.fails_with(capsys, "carriers must be a mapping, got list", "member", rec, "g(c)")

    def test_rec_tables_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(tables=[[0]]))
        self.fails_with(capsys, "tables must be a mapping, got list", "member", rec, "g(c)")

    def test_rec_table_for_undeclared_operation(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["tables"].update(f=[0]))
        self.fails_with(
            capsys, "tables has unknown key 'f'", "member", rec, "g(c)"
        )

    def test_rec_ops_null(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(ops=None))
        self.fails_with(capsys, "ops must be a list, got NoneType", "member", rec, "g(c)")

    def test_rec_carrier_size_not_an_integer(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["carriers"].update(s="two"))
        self.fails_with(
            capsys, "carriers.s must be an integer, got 'two'", "member", rec, "g(c)"
        )

    def test_rec_table_not_a_list(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["tables"].update(g=5))
        self.fails_with(capsys, "tables.g must be a list, got int", "member", rec, "g(c)")

    def test_rec_accepting_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(accepting=[0]))
        self.fails_with(capsys, "accepting must be a mapping, got list", "member", rec, "g(c)")

    def test_rec_assignment_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(assignment=[0]))
        self.fails_with(capsys, "assignment must be a mapping, got list", "member", rec, "g(c)")

    def test_rec_carrier_for_undeclared_sort(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["carriers"].update(t=3))
        self.fails_with(capsys, "carriers has unknown key 't'", "member", rec, "g(c)")

    def test_rec_vars_entry_not_a_list(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["vars"].update(s=5))
        self.fails_with(capsys, "vars.s must be a list, got int", "member", rec, "g(c)")

    def test_rec_vars_not_a_mapping(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d.update(vars=["x"]))
        self.fails_with(capsys, "vars must be a mapping, got list", "member", rec, "g(c)")

    def test_hyp_patterns_null(self, tmp_path, capsys):
        hyp = edited(tmp_path, "h1.hyp", lambda d: d.update(patterns=None))
        self.fails_with(
            capsys, "patterns must be a mapping, got NoneType",
            "treehom", "apply", "--hyp", hyp, "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))",
        )

    def test_hyp_sort_map_not_a_mapping(self, tmp_path, capsys):
        hyp = edited(tmp_path, "h1.hyp", lambda d: d.update(sort_map=["e"]))
        self.fails_with(
            capsys, "sort_map must be a mapping, got list",
            "treehom", "apply", "--hyp", hyp, "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--term", "iszero(succ(zero))",
        )

    def test_drv_patterns_null(self, tmp_path, capsys):
        drv = edited(tmp_path, "d1.drv", lambda d: d.update(patterns=None))
        self.fails_with(
            capsys, "patterns must be a mapping, got NoneType",
            "derivor", "apply", "--drv", drv, "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--arity", "e", "--term", "iszero(succ(v0))",
        )

    def test_rec_not_utf8(self, tmp_path, capsys):
        rec = tmp_path / "bad.rec"
        rec.write_bytes(b"sorts: [\xff\xfe]\n")
        self.fails_with(capsys, f"{rec}: not UTF-8 text", "member", rec, "c")

    def test_rec_is_a_directory(self, tmp_path, capsys):
        self.fails_with(capsys, f"Is a directory: '{tmp_path}'", "member", tmp_path, "c")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("rpar.rec", lambda d: d["tables"].update(c=[1.7]), "tables.c[0] must be an integer, got 1.7"),
            ("rpar.rec", lambda d: d["carriers"].update(s=True), "carriers.s must be an integer, got True"),
            ("rpar.rec", lambda d: d["carriers"].update(s="2"), "carriers.s must be an integer, got '2'"),
            ("rpar.rec", lambda d: d.update(extra=5), "document has unknown key 'extra'"),
            ("h1.hyp", lambda d: d["patterns"].update(nope="c"), "patterns has unknown key 'nope'"),
            ("d1.drv", lambda d: d["patterns"].update(nope="c"), "patterns has unknown key 'nope'"),
        ],
    )
    def test_values_once_coerced_or_ignored(self, tmp_path, capsys, name, edit, message):
        self.fails_with(capsys, message, *READERS[name](edited(tmp_path, name, edit)))

    def test_combine_names_the_broken_second_document(self, tmp_path, capsys):
        rec = edited(tmp_path, "rpar.rec", lambda d: d["tables"].update(c=[1.7]))
        self.fails_with(
            capsys, f"error: {rec}: tables.c[0] must be an integer, got 1.7",
            "combine", "union", GOLDEN / "rpar.rec", rec,
        )

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_error_names_the_document(self, tmp_path, capsys, name):
        path = edited(tmp_path, name, lambda d: d.update(extra=5))
        self.fails_with(capsys, f"error: {path}: document has unknown key 'extra'", *READERS[name](path))

    def test_error_names_the_algebra_document(self, tmp_path, capsys):
        path = tmp_path / "par.alg"
        path.write_text("carriers: {s: 2}\ntables: {c: [0], g: [1, 0]}\n")
        self.fails_with(
            capsys, f"error: {path}: tables lacks key 'sigma'",
            "derivor", "derive", "--drv", GOLDEN / "d1.drv", "--source", GOLDEN / "f2.sig",
            "--target", GOLDEN / "f1.sig", "--algebra", path,
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("argv: [member, rpar.rec\nexpect: x\n", "malformed YAML"),
            ("expect: member_even.expected\n", "document lacks key 'argv'"),
            ("argv: member rpar.rec\nexpect: x\n", "argv must be a list, got str"),
            ("argv: [empty, rpar.rec]\nexpect: [a, b]\n", "expect must be a string, got ['a', 'b']"),
        ],
    )
    def test_golden_case_malformed(self, tmp_path, capsys, text, message):
        case = tmp_path / "bad.case"
        case.write_text(text)
        self.fails_with(capsys, f"{case}: {message}", "golden", tmp_path)


def locations(node, found):
    """Every (container, key) pair below a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        found.append((node, key))
        if isinstance(child, (dict, list)):
            locations(child, found)
    return found


VALUES = st.one_of(
    st.none(),
    st.integers(-2, 5),
    st.sampled_from([1.5, -0.0, 1e9]),
    st.booleans(),
    st.text(alphabet="cgxzsbe(),@v0", max_size=8),
    st.lists(st.one_of(st.integers(-1, 3), st.text(alphabet="sxv0", max_size=2)), max_size=4),
)
KEYS = st.one_of(st.sampled_from(["extra", "s", "t", "e", "x", "g", "name", "arity"]), st.integers(0, 2))


class TestMutatedDocuments:
    """A golden document with one key dropped or added or one value replaced
    is read to exit 0 or to exit 1 with an ``error:`` line and no output,
    never to a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_exit_zero_or_one(self, data):
        import tempfile

        name = data.draw(st.sampled_from(sorted(READERS)))
        doc = yaml.safe_load((GOLDEN / name).read_text())
        kind = data.draw(st.sampled_from(["drop", "add", "replace"]))
        if kind == "add":
            mappings = [doc] + [c[k] for c, k in locations(doc, []) if isinstance(c[k], dict)]
            data.draw(st.sampled_from(mappings))[data.draw(KEYS)] = data.draw(VALUES)
        else:
            container, key = data.draw(st.sampled_from(locations(doc, [])))
            if kind == "drop":
                del container[key]
            else:
                container[key] = data.draw(VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run(*READERS[name](path))
        assert code in (0, 1)
        if code == 1:
            assert out == "" and err.getvalue().startswith("error: ")


def _case_dir(directory, argv, expected=None):
    """A golden directory holding ``rpar.rec`` and one case running
    ``argv``, whose expected output is what the command prints when its
    file tokens are given as full paths (or ``expected``)."""
    (directory / "rpar.rec").write_bytes((GOLDEN / "rpar.rec").read_bytes())
    if expected is None:
        full = [a.replace("rpar.rec", str(directory / "rpar.rec")) for a in argv]
        code, expected = run(*full)
        assert code == 0
    (directory / "one.case").write_text(yaml.safe_dump({"argv": argv, "expect": "one.expected"}))
    (directory / "one.expected").write_text(expected)
    return directory


# command branches no other test reaches: the argv (given an empty scratch
# directory), the exit code, and how stdout and stderr begin
BRANCHES = {
    "with-without-equals": (
        lambda d: ["substitute", GOLDEN / "rpar.rec", "--with", "x"],
        1, "", "error: --with expects var=FILE, got 'x'\n",
    ),
    "with-repeated-variable": (
        lambda d: [
            "substitute", GOLDEN / "rpar.rec",
            "--with", f"x={GOLDEN / 'rpar.rec'}", "--with", f"x={GOLDEN / 'kc.rec'}",
        ],
        1, "", "error: --with lists variable 'x' twice\n",
    ),
    "golden-on-a-file": (
        lambda d: ["golden", GOLDEN / "rpar.rec"],
        1, "", f"error: {GOLDEN / 'rpar.rec'} is not a directory\n",
    ),
    "golden-without-cases": (
        lambda d: ["golden", d], 1, "", "error: no .case files in {d}\n"
    ),
    "golden-failing-case": (
        lambda d: ["golden", _case_dir(d, ["member", "missing.rec", "c"], "true\n")],
        1, "FAIL one.case\n  exit code 1\n", "error: ",
    ),
    "golden-resolves-var-file": (
        lambda d: ["golden", _case_dir(d, ["substitute", "rpar.rec", "--with", "x=rpar.rec"])],
        0, "PASS one.case\n", "",
    ),
}


@pytest.mark.parametrize("case", BRANCHES)
def test_command_branches(case, tmp_path, capsys):
    argv, want_code, out_start, err_start = BRANCHES[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == want_code
    assert out.startswith(out_start) and err.startswith(err_start.format(d=tmp_path))
    assert bool(err) == bool(err_start)
