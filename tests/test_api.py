"""The public ``treelang`` names stay importable while code is removed, no
module keeps an import it no longer uses, only ``core._record`` knows
where a record keeps its fields, every recursive function says what
bounds its depth, and code lines are counted by one rule."""

import ast
import importlib
import importlib.util
from collections import Counter
import inspect
from pathlib import Path

import treelang

from conftest import code_lines

# treelang.__all__ before the read path was folded into one parser, one
# printer and one evaluator; names may be added, never dropped
PUBLIC_NAMES = [
    "Context", "Derivor", "FiniteAlgebra", "HallTerm", "Hyperderivor", "NTA",
    "Node", "Operation", "ParseError", "Recognizer", "Signature", "SortError",
    "SortedPartition", "SortedVars", "Term", "ValidationError", "Var", "accepts",
    "algebra", "apply_context", "apply_derivor_term", "apply_treehom", "closure",
    "cogenerated_congruence", "combine", "compose_contexts", "compose_derivors",
    "congruence", "context", "core", "count_occurrences", "derived_algebra",
    "derived_algebra_derivor", "derivor", "derivor_to_hyperderivor", "determinize",
    "direct_image", "empty_recognizer", "enumerate_all_terms", "enumerate_terms",
    "equivalent", "evaluate", "finite_algebra", "generated_subalgebra", "hall_term",
    "hole_context", "hom_to_hyperderivor", "hyperderivor", "identity_derivor",
    "inverse_image", "inverse_translation", "is_congruence", "is_empty",
    "iterate_language", "meet_partitions", "minimize", "node", "parse_context",
    "parse_term", "partition", "print_context", "print_term", "product_algebra",
    "projection", "quotient_algebra", "quotient_language", "quotient_seed_values",
    "recognize_basic", "recognize_finite", "recognize_singleton", "recognizer",
    "restrict_to_sort", "saturate", "signature", "sorted_vars", "subset_algebra",
    "substitute_language", "substitute_occurrences", "subterms_of",
    "syntactic_congruence", "translation_table", "treehom", "typecheck",
    "universal_recognizer", "variables_of", "xi_substitute",
]


def test_public_names_still_import():
    assert set(PUBLIC_NAMES) <= set(treelang.__all__)
    namespace: dict = {}
    exec("from treelang import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []


def test_dir_lists_every_public_name():
    assert set(treelang.__all__) <= set(dir(treelang))


# a module with docstrings, comments, blank lines, a continued expression and
# strings that are not docstrings; ``code_lines`` counts the marked lines
CODE_LINES_FIXTURE = '''\
"""The module docstring,
over two lines."""

import os  # code
# a comment alone


class A:  # code
    """The class docstring."""

    total = (1 +  # code
             2)  # code

    def f(self):  # code
        """The function docstring,
        over two lines."""
        return """a string  # code
over two lines"""  # code


def g():  # code
    "a docstring in single quotes"
    if os:  # code
        "a string in a block is no docstring"  # code
'''


def test_code_lines_counts_by_the_stated_rule():
    assert code_lines(CODE_LINES_FIXTURE) == CODE_LINES_FIXTURE.count("# code") == 10
    assert code_lines("") == 0 and code_lines('"""only a docstring"""\n') == 0


def test_no_unused_imports():
    """Each module uses every name it imports (``__init__`` re-exports)."""
    package = Path(treelang.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for stmt in ast.walk(tree):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = stmt.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []


def test_no_unused_private_definitions():
    """Each module-level private function, class or constant is referenced
    somewhere in the package outside its own definition."""
    package = Path(treelang.__file__).parent
    defined = {}
    references = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            used = Counter(
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                or isinstance(n, ast.Attribute)
            )
            references.update(used)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (f"{path.name}:{stmt.lineno} {name}", used[name])
    assert len(defined) > 60
    unused = [where for name, (where, own) in defined.items() if references[name] == own]
    assert sorted(unused) == []


def test_only_record_knows_the_layout():
    """Only ``core._record`` knows where a record keeps its fields: no other
    code in the package reads an instance ``__dict__`` or calls ``vars()``."""
    package = Path(treelang.__file__).parent
    leaks, skipped = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if path.name == "core.py" and isinstance(stmt, ast.FunctionDef) and stmt.name == "_record":
                skipped.append(stmt.name)
                continue
            leaks += [
                f"{path.name}:{n.lineno}"
                for n in ast.walk(stmt)
                if isinstance(n, ast.Attribute) and n.attr == "__dict__"
                or isinstance(n, ast.Constant) and n.value == "__dict__"
                or isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "vars"
            ]
    assert skipped == ["_record"]
    assert leaks == []


def test_only_outside_calls_min_and_max():
    """Only ``algebra._outside`` calls ``min`` or ``max``: every range test
    of a collection of carrier elements, table entries, class ids or sizes
    goes through it, so the element rule (``algebra._member``) is decided in
    one place."""
    package = Path(treelang.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            calls += [
                f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
                for n in ast.walk(stmt)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("min", "max")
            ]
    assert calls == ["algebra._outside", "algebra._outside"]


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _tracing_table(name):
    """The expression assigned to ``name`` at the top of ``perfbench/tracing.py``."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    (table,) = [
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == [name]
    ]
    return table


def test_traced_functions_exist():
    """Each function the benchmark traces per layer is a function of its home
    module, so a refactor cannot drop a layer metric unnoticed.  The table is
    read from the source, so no benchmark code runs."""
    missing = []
    for module, names in ast.literal_eval(_tracing_table("TRACED")).items():
        home = importlib.import_module(f"treelang.{module}")
        missing += [
            f"{module}.{name}"
            for name in names
            if not inspect.isfunction(getattr(home, name, None))
            or getattr(home, name).__module__ != home.__name__
        ]
    assert missing == []


def test_benchmark_names_resolve():
    """Every name the benchmark imports from ``treelang`` and every attribute
    it reads off an imported ``treelang`` module exists, and each per-layer
    count is kept for a traced function, so a rename fails here and not only
    in a benchmark run.  The sources are parsed, so no benchmark code runs."""
    missing, imported, read = [], 0, 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the treelang module it is bound to
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.name.split(".")[0] == "treelang":
                        module = importlib.import_module(alias.name)
                        modules[alias.asname or "treelang"] = module if alias.asname else treelang
            elif isinstance(stmt, ast.ImportFrom) and (stmt.module or "").split(".")[0] == "treelang":
                home = importlib.import_module(stmt.module)
                for alias in stmt.names:
                    imported += 1
                    if not hasattr(home, alias.name):
                        missing.append(f"{path.name}:{stmt.lineno} {stmt.module}.{alias.name}")
                    elif inspect.ismodule(getattr(home, alias.name)):
                        modules[alias.asname or alias.name] = getattr(home, alias.name)

        def module_of(expr):
            """The treelang module an expression names, if it names one."""
            if isinstance(expr, ast.Name):
                return modules.get(expr.id)
            if isinstance(expr, ast.Attribute):
                value = getattr(module_of(expr.value), expr.attr, None)
                return value if inspect.ismodule(value) else None
            return None

        for expr in ast.walk(tree):
            if isinstance(expr, ast.Attribute) and (home := module_of(expr.value)) is not None:
                read += 1
                if not hasattr(home, expr.attr):
                    missing.append(f"{path.name}:{expr.lineno} {home.__name__}.{expr.attr}")
    traced = {f"{m}.{n}" for m, names in ast.literal_eval(_tracing_table("TRACED")).items() for n in names}
    missing += [
        f"tracing.COUNTS {key}"
        for key in map(ast.literal_eval, _tracing_table("COUNTS").keys)
        if key not in traced
    ]
    assert imported and read
    assert missing == []


def test_benchmark_counts_accept_real_results(f1, x1, r_par):
    """Each per-layer count of the benchmark, applied to the arguments and
    result of one small real call of its traced function, gives a pair of
    numbers per count name, with the arguments passed by position and by
    keyword; so a changed result shape or parameter name fails here and not
    only in a traced benchmark run.  ``perfbench/tracing.py`` imports only
    the standard library, so it is loaded by path."""
    from treelang.closure import nta, table_rules
    from treelang.congruence import all_in_one_partition
    from treelang.core import parse_term
    from treelang.formats import load_document

    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    alg = r_par.algebra
    rules = {key: {v} for key, v in table_rules(alg)}
    machine = nta(f1, x1, {"s": 2}, {"x": {0}, "z": {1}}, rules, {}, {"s": {0}})
    golden = Path(__file__).parent / "golden" / "rpar.rec"
    calls = {
        "algebra.product_algebra": ([alg, alg],),
        "algebra.closure_elements": (alg, {"s": [0]}),
        "congruence.cogenerated_congruence": (alg, all_in_one_partition(alg)),
        "recognizer.determinize": (machine,),
        "algebra.evaluate": (alg, dict(r_par.assignment), parse_term("sigma(g(x), c)", f1, x1)),
        "core.parse_term": ("sigma(g(x), c)", f1, x1),
        "formats.load_document": (golden,),
        "formats.dump_document": (load_document(golden),),
    }
    assert set(calls) == set(tracing.COUNTS)
    bad = []
    for qual, args in calls.items():
        module, name = qual.split(".")
        fn = getattr(importlib.import_module(f"treelang.{module}"), name)
        kwargs = inspect.signature(fn).bind(*args).arguments
        names, count = tracing.COUNTS[qual]
        for a, k in ((args, {}), ((), kwargs)):
            pairs = count(a, k, fn(*a, **k))
            if len(pairs) != len(names) or not all(
                len(pair) == 2 and all(type(x) in (int, float) for x in pair) for pair in pairs
            ):
                bad.append((qual, "keyword" if k else "position", pairs))
    assert bad == []


def test_unchecked_paths_are_covered():
    """Every record type the package builds without its checks, through
    ``X._of(...)``, ``X._built(...)`` (``cls`` is the class it is called in)
    or ``_new_node`` (a ``Node``), is a type that ``tests/test_core.py``
    ``UNCHECKED`` runs through the layout, equality and pickling test."""
    from test_core import UNCHECKED

    built = set()

    def scan(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                receiver = child.func.value
                if child.func.attr in ("_of", "_built") and isinstance(receiver, ast.Name):
                    built.add(owner if receiver.id == "cls" else receiver.id)
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_new_node":
                built.add("Node")
            scan(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for path in sorted(Path(treelang.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), None)
    assert built == {name for name, _ in UNCHECKED.values()}


# what bounds the depth of each function that calls itself
TERM_DEPTH = "a term's depth; ROADMAP item 4 makes the walk depth-safe"
DOCUMENT = "document nesting, at most formats._DEPTH levels"
ORACLE = "the oracle's bound on term size"
RECURSIVE_FUNCTIONS = {
    "cli.build_parser": "one level: an unknown command builds every command's parser",
    "core._Parser.parse": TERM_DEPTH,
    "core._rebuild": TERM_DEPTH,
    "formats._Reader.block": DOCUMENT,
    "formats._node": DOCUMENT,
    "formats.check": "the nesting of the document shapes formats declares",
    "oracle.evaluate_many.walk": ORACLE,
    "oracle.semantic_substitution_sets.walk": ORACLE,
}


def test_recursive_functions_are_listed():
    """Every function that calls itself, a function by its name or a method
    through ``self.``, is in ``RECURSIVE_FUNCTIONS``, so a new recursion, or
    a walk made depth-safe, is a test edit."""
    found = set()

    def calls(function, in_class):
        """Whether the function calls itself: by its name, or as a method."""
        for call in ast.walk(function):
            f = getattr(call, "func", None)
            if in_class and isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                if f.attr == function.name:
                    return True
            elif not in_class and getattr(f, "id", None) == function.name:
                return True
        return False

    def scan(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and calls(child, in_class):
                    found.add(name)
                scan(child, name, isinstance(child, ast.ClassDef))
            else:
                scan(child, prefix, in_class)

    for path in sorted(Path(treelang.__file__).parent.glob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    assert found == set(RECURSIVE_FUNCTIONS)
