"""CLI start-up: the library's own documents are read and written without
PyYAML, and the three paths (direct, libyaml, pure-Python) read the same
values and write the same bytes; the lazy package executes only the modules a
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
PERFBENCH = Path(__file__).parent.parent / "perfbench"
HAS_LIBYAML = hasattr(yaml, "CSafeLoader") and hasattr(yaml, "CSafeDumper")
PYYAML = {
    "libyaml": (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None)),
    "pure": (yaml.SafeLoader, yaml.SafeDumper),
}
PATHS = ["direct", *PYYAML]
MALFORMED = ["sorts: [s\nops: ]\n", "a: b: c\n", "a:\n\t- 1\n", "{\n", "x: 'abc\n"]


def load_on(path: str, text: str):
    if path == "direct":
        return formats._parse(text)
    return yaml.load(text, Loader=PYYAML[path][0])


def dump_on(path: str, doc: dict) -> str:
    if path == "direct":
        return formats._emit(doc)
    return yaml.dump(doc, Dumper=PYYAML[path][1], sort_keys=False, default_flow_style=None)


def use_pyyaml(monkeypatch, name):
    """Send every text and document to PyYAML's ``name`` loader and dumper."""

    def unsupported(_):
        raise formats._Unsupported

    loader, dumper = PYYAML[name]
    monkeypatch.setattr(formats, "_parse", unsupported)
    monkeypatch.setattr(formats, "_emit", unsupported)
    monkeypatch.setattr(formats, "_pyyaml", lambda: (yaml, loader, dumper))


def child(code: str, *argv) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


# ---------------------------------------------------------------------------
# the three YAML paths


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
    expected = PYYAML["libyaml"] if HAS_LIBYAML else PYYAML["pure"]
    assert formats._pyyaml()[1:] == expected


@pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")
class TestParity:
    """Every golden and generated document takes the direct path both ways,
    and the three paths read equal values and write equal bytes."""

    def test_golden_documents(self):
        assert len(GOLDEN_DOCUMENTS) == 8
        for path in GOLDEN_DOCUMENTS:
            text = path.read_text(encoding="utf-8")
            loaded = {name: load_on(name, text) for name in PATHS}
            assert loaded["direct"] == loaded["libyaml"] == loaded["pure"], path.name
            dumped = {name: dump_on(name, loaded["pure"]) for name in PATHS}
            assert dumped["direct"] == dumped["libyaml"] == dumped["pure"], path.name
            assert formats.load_document(path) == loaded["pure"]

    def test_generated_recognizers(self, tmp_path):
        for i, doc in enumerate(generated_documents()):
            texts = {name: dump_on(name, doc) for name in PATHS}
            assert texts["direct"] == texts["libyaml"] == texts["pure"]
            assert all(load_on(name, texts["pure"]) == doc for name in PATHS)
            path = tmp_path / f"generated{i}.rec"
            assert formats.dump_document(doc, path) == texts["pure"]
            assert formats.load_document(path) == doc


@pytest.mark.parametrize("name", [n for n in PYYAML if n == "pure" or HAS_LIBYAML])
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_yaml_rejected_on_both_paths(monkeypatch, tmp_path, name, text):
    path = tmp_path / "bad.rec"
    path.write_text(text)
    with pytest.raises(formats._Unsupported):
        formats._parse(path.read_text())
    # the message PyYAML gives reading the open file, which names the path
    loader = PYYAML[name][0]
    with open(path, encoding="utf-8") as handle, pytest.raises(yaml.YAMLError) as parsed:
        yaml.load(handle, Loader=loader)
    expected = f"{path}: malformed YAML: {' '.join(str(parsed.value).split())}"
    assert f'in "{path}", line' in expected
    monkeypatch.setattr(formats, "_pyyaml", lambda: (yaml, loader, PYYAML[name][1]))
    with pytest.raises(ValidationError) as err:
        formats.load_document(path)
    assert str(err.value) == expected


@pytest.mark.parametrize("name", [n for n in PYYAML if n == "pure" or HAS_LIBYAML])
def test_pyyaml_path_reads_and_writes_the_same(monkeypatch, name):
    use_pyyaml(monkeypatch, name)
    for path in GOLDEN_DOCUMENTS:
        doc = formats.load_document(path)
        assert doc == yaml.safe_load(path.read_text())
        assert formats.dump_document(doc) == dump_on("pure", doc)


def nested(depth: int) -> str:
    """A mapping ``depth`` block mappings deep, with a sequence at the bottom."""
    lines = [" " * (2 * i) + f"k{i}:" for i in range(depth)]
    return "\n".join(lines) + "\n" + " " * (2 * depth) + "leaf: [1, 2]\n"


@pytest.mark.parametrize("depth", [formats._DEPTH, formats._DEPTH + 1, 2000])
def test_deep_nesting_goes_to_pyyaml(tmp_path, depth):
    path = tmp_path / "deep.rec"
    path.write_text(nested(depth))
    if depth <= formats._DEPTH:
        assert formats._parse(path.read_text()) == yaml.safe_load(path.read_text())
    else:
        with pytest.raises(formats._Unsupported):
            formats._parse(path.read_text())
    if depth < 100:
        doc = formats.load_document(path)
        assert doc == yaml.safe_load(path.read_text())
        assert formats.dump_document(doc) == dump_on("pure", doc)


def test_deep_document_is_written_by_pyyaml():
    doc = leaf = {}
    for i in range(60):
        leaf[f"k{i}"] = leaf = {}
    leaf["leaf"] = [1, 2]
    with pytest.raises(formats._Unsupported):
        formats._emit(doc)
    assert formats.dump_document(doc) == dump_on("pure", doc)


@pytest.mark.skipif(not HAS_LIBYAML, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", list(PYYAML))
def test_long_keys_are_written_as_libyaml_writes_them(monkeypatch, tmp_path, name):
    """A key of up to 128 characters is plain and a longer one a complex key
    (``? key``), with either PyYAML to hand documents on to; PyYAML's pure
    emitter alone would write ``? key`` from 123 characters."""
    monkeypatch.setattr(formats, "_pyyaml", lambda: (yaml, *PYYAML[name]))
    path = tmp_path / "long.rec"
    for n in range(120, 136):
        key = "k" * n
        shapes = [
            {key: [1]},
            {"a": {key: 1, "b": 2}},
            {"a": [{key: [1, 2]}, 3]},
            {"s": {"t": {key: {"c": [key]}}}},
        ]
        for doc in shapes:
            text = formats.dump_document(doc, path)
            assert text == dump_on("libyaml", doc), (n, doc)
            assert text.lstrip().startswith("?") == (n > 128 and key in doc)
            assert formats.load_document(path) == doc


def test_golden_cases_pass_without_libyaml():
    code = (
        "import sys, yaml\n"
        "for name in ('CSafeLoader', 'CSafeDumper'):\n"
        "    if hasattr(yaml, name):\n"
        "        delattr(yaml, name)\n"
        "import treelang.cli, treelang.formats as formats\n"
        "assert formats._pyyaml()[1:] == (yaml.SafeLoader, yaml.SafeDumper)\n"
        "sys.exit(treelang.cli.main(sys.argv[1:]))\n"
    )
    lines = child(code, "golden", GOLDEN).splitlines()
    assert len(lines) == 14 and all(line.startswith("PASS ") for line in lines)


def test_perfbench_commands_import_no_yaml(tmp_path):
    """Each command kind of the benchmark's ``cli`` workload, run on the
    files the workload writes, neither imports PyYAML nor fails."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(PERFBENCH)!r}]\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "kinds = {}\n"
        "for call in workloads.cli(6007, Path(sys.argv[1])).calls:\n"
        "    kinds.setdefault(call.kind, call.argv)\n"
        "print(json.dumps(kinds))\n"
    )
    kinds = json.loads(child(code, tmp_path))
    assert len(kinds) == 13
    run = (
        "import io, sys, treelang.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = treelang.cli.main(sys.argv[1:])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, 'yaml' in sys.modules)\n"
    )
    for kind, argv in kinds.items():
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", run, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0 False\n", kind


# ---------------------------------------------------------------------------
# the lazy package

# the modules the benchmark's tracer indexes in sys.modules
TRACED = ["algebra", "congruence", "recognizer", "closure", "treehom", "derivor", "core", "formats"]
SUBMODULES = TRACED + ["oracle"]


# the modules each command leaves unexecuted: ``congruence`` is compiled only
# by the commands that minimize, and ``closure``, which holds the NTA layer,
# only by the commands that determinize
UNUSED = {
    ("member", GOLDEN / "rpar.rec", "g(g(c))"): "congruence closure treehom derivor oracle",
    ("combine", "union", GOLDEN / "rpar.rec", GOLDEN / "lscc.rec"): "congruence closure treehom derivor oracle",
    ("empty", GOLDEN / "rpar.rec"): "congruence closure treehom derivor oracle",
    ("invtrans", GOLDEN / "rpar.rec", "--context", "g(@)"): "congruence closure treehom derivor oracle",
    ("enumerate", GOLDEN / "rpar.rec", "--max-nodes", "3"): "congruence closure treehom derivor",
    ("treehom", "inverse", "--hyp", GOLDEN / "h1.hyp", "--source", GOLDEN / "f2.sig",
     "--rec", GOLDEN / "rpar.rec", "--sort", "b"): "congruence closure derivor oracle",
    ("minimize", GOLDEN / "rpar.rec"): "closure treehom derivor oracle",
    ("equal", GOLDEN / "rpar.rec", GOLDEN / "rpar.rec"): "closure treehom derivor oracle",
    ("syncong", GOLDEN / "rpar.rec"): "closure treehom derivor oracle",
    ("treehom", "image", "--hyp", GOLDEN / "h1.hyp", "--target", GOLDEN / "f1.sig",
     "--rec", GOLDEN / "liz.rec", "--sort", "e"): "derivor oracle",
}


def test_member_executes_only_what_it_uses():
    code = (
        "import io, json, sys, types, treelang.cli\n"
        "sys.stdout = io.StringIO()\n"
        "code = treelang.cli.main(sys.argv[1:])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code)\n"
        "print(json.dumps([n for n, m in sys.modules.items()\n"
        "                  if n.startswith('treelang.') and type(m) is not types.ModuleType]))\n"
    )
    for argv, unused in UNUSED.items():
        out = child(code, *argv).splitlines()
        assert out[0] == "0", argv
        assert {f"treelang.{m}" for m in unused.split()} <= set(json.loads(out[1])), argv


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
