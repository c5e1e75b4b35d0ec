"""CLI start-up: the libyaml and the pure-Python YAML paths read and write
the same documents, and the lazy package executes only the modules a
command uses."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import treelang
from treelang import formats
from treelang.core import ValidationError, signature, sorted_vars
from treelang.recognizer import recognizer

from conftest import random_algebra

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
HAS_LIBYAML = hasattr(yaml, "CSafeLoader") and hasattr(yaml, "CSafeDumper")
PATHS = {
    "libyaml": (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None)),
    "pure": (yaml.SafeLoader, yaml.SafeDumper),
}
MALFORMED = ["sorts: [s\nops: ]\n", "a: b: c\n", "a:\n\t- 1\n", "{\n", "x: 'abc\n"]


def use_path(monkeypatch, name):
    loader, dumper = PATHS[name]
    monkeypatch.setattr(formats, "_LOADER", loader)
    monkeypatch.setattr(formats, "_DUMPER", dumper)


def child(code: str, *argv) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


# ---------------------------------------------------------------------------
# the two YAML paths


def generated_documents() -> list[dict]:
    rng = random.Random(12)
    f1 = signature(["s"], [("c", [], "s"), ("g", ["s"], "s"), ("sigma", ["s", "s"], "s")])
    x1 = sorted_vars(f1, {"s": ["x", "z"]})
    r2 = signature(
        ["t0", "t1"],
        [("a", [], "t0"), ("b", [], "t1"), ("f", ["t0", "t1"], "t0"), ("h", ["t1"], "t1")],
    )
    x2 = sorted_vars(r2, {"t0": ["y"], "t1": []})
    docs = []
    for sig, names, carriers in ((f1, x1, {"s": 32}), (r2, x2, {"t0": 8, "t1": 8})):
        alg = random_algebra(rng, sig, carriers=carriers)
        assignment = {x: rng.randrange(carriers[s]) for s, xs in names.by_sort for x in xs}
        accepting = {s: [e for e in range(n) if rng.random() < 0.5] for s, n in carriers.items()}
        docs.append(formats.recognizer_to_doc(recognizer(names, alg, assignment, accepting)))
    return docs


GOLDEN_DOCUMENTS = sorted(
    p for p in GOLDEN.iterdir() if p.suffix in (".rec", ".sig", ".hyp", ".drv")
)


def test_libyaml_is_chosen_when_present():
    expected = PATHS["libyaml"] if HAS_LIBYAML else PATHS["pure"]
    assert (formats._LOADER, formats._DUMPER) == expected


@pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")
class TestParity:
    def test_golden_documents(self, monkeypatch):
        assert len(GOLDEN_DOCUMENTS) == 8
        for path in GOLDEN_DOCUMENTS:
            loaded, dumped = {}, {}
            for name in PATHS:
                use_path(monkeypatch, name)
                loaded[name] = formats.load_document(path)
                dumped[name] = formats.dump_document(loaded[name])
            assert loaded["libyaml"] == loaded["pure"], path.name
            assert dumped["libyaml"] == dumped["pure"], path.name

    def test_generated_recognizers(self, monkeypatch, tmp_path):
        for i, doc in enumerate(generated_documents()):
            texts = {}
            for name in PATHS:
                use_path(monkeypatch, name)
                texts[name] = formats.dump_document(doc)
            assert texts["libyaml"] == texts["pure"]
            path = tmp_path / f"generated{i}.rec"
            path.write_text(texts["pure"], encoding="utf-8")
            for name in PATHS:
                use_path(monkeypatch, name)
                assert formats.load_document(path) == doc


@pytest.mark.parametrize("name", [n for n in PATHS if n == "pure" or HAS_LIBYAML])
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_yaml_rejected_on_both_paths(monkeypatch, tmp_path, name, text):
    use_path(monkeypatch, name)
    path = tmp_path / "bad.rec"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        formats.load_document(path)
    assert str(err.value).startswith(f"{path}: malformed YAML")


def test_golden_cases_pass_without_libyaml():
    code = (
        "import sys, yaml\n"
        "for name in ('CSafeLoader', 'CSafeDumper'):\n"
        "    if hasattr(yaml, name):\n"
        "        delattr(yaml, name)\n"
        "import treelang.cli, treelang.formats as formats\n"
        "assert formats._LOADER is yaml.SafeLoader and formats._DUMPER is yaml.SafeDumper\n"
        "sys.exit(treelang.cli.main(sys.argv[1:]))\n"
    )
    lines = child(code, "golden", GOLDEN).splitlines()
    assert len(lines) == 14 and all(line.startswith("PASS ") for line in lines)


# ---------------------------------------------------------------------------
# the lazy package

# the modules the benchmark's tracer indexes in sys.modules
TRACED = ["algebra", "congruence", "recognizer", "closure", "treehom", "derivor", "core", "formats"]
SUBMODULES = TRACED + ["oracle"]


def test_member_executes_only_what_it_uses():
    code = (
        "import json, sys, types, treelang.cli\n"
        "treelang.cli.main(sys.argv[1:])\n"
        "print(json.dumps([n for n, m in sys.modules.items()\n"
        "                  if n.startswith('treelang.') and type(m) is not types.ModuleType]))\n"
    )
    out = child(code, "member", GOLDEN / "rpar.rec", "g(g(c))").splitlines()
    assert out[0] == "true"
    unused = {f"treelang.{m}" for m in ("closure", "treehom", "derivor", "oracle")}
    assert unused <= set(json.loads(out[1]))


@pytest.mark.parametrize(
    "argv",
    [["member", GOLDEN / "rpar.rec", "g(g(c))"], ["combine", "union", GOLDEN / "rpar.rec", GOLDEN / "rpar.rec"]],
)
def test_command_loads_no_dataclasses(argv):
    # dataclasses imports inspect, which imports ast, dis and tokenize
    code = (
        "import json, sys, treelang.cli\n"
        "treelang.cli.main(sys.argv[1:])\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules]))\n"
    )
    assert json.loads(child(code, *argv).splitlines()[-1]) == []


def test_module_entry_point_runs_without_warnings():
    # runpy warns when the module it runs is already in sys.modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "treelang.cli", "member", GOLDEN / "rpar.rec", "g(c)"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "false\n", "")


def test_import_registers_every_traced_module():
    code = (
        "import json, sys, treelang.cli\n"
        f"print(json.dumps([m for m in {TRACED!r} if 'treelang.' + m not in sys.modules]))\n"
    )
    assert json.loads(child(code)) == []


@pytest.mark.parametrize("seed", [None, "reversed", 1, 2])
def test_public_names_survive_any_load_order(seed):
    order = list(SUBMODULES)
    if seed == "reversed":
        order.reverse()
    elif seed is not None:
        random.Random(seed).shuffle(order)
    code = (
        "import importlib, sys, types\n"
        "import treelang\n"
        "for name in sys.argv[1:]:\n"
        "    module = importlib.import_module('treelang.' + name)\n"
        "    module.__name__\n"
        "    assert type(module) is types.ModuleType, name\n"
        "assert type(treelang.derivor) is types.FunctionType\n"
        "assert type(treelang.recognizer) is types.FunctionType\n"
        "assert treelang.derivor.__module__ == 'treelang.derivor'\n"
        "assert treelang.recognizer.__module__ == 'treelang.recognizer'\n"
        "missing = [n for n in treelang.__all__ if getattr(treelang, n, None) is None]\n"
        "assert missing == [], missing\n"
        "assert set(treelang.__all__) <= set(dir(treelang))\n"
        "namespace = {}\n"
        "exec('from treelang import *', namespace)\n"
        "assert namespace['derivor'] is treelang.derivor\n"
        "print('ok')\n"
    )
    assert child(code, *order).strip() == "ok"


def test_resolved_names_are_cached():
    combine = treelang.combine
    assert vars(treelang)["combine"] is combine
    assert treelang.combine is sys.modules["treelang.recognizer"].combine


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        treelang.nonesuch
