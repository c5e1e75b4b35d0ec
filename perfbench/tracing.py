"""Per-layer spans, recorded from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper, both
on its defining module and on every ``treelang`` module that imported it by
name, so calls between modules are seen too.  ``FiniteAlgebra.apply`` is
never wrapped: it runs millions of times per pass.  A wrapped function that
recurses into itself (``print_term``, ``apply_treehom``) gets one span for
the outermost call.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# layer module -> traced public functions
TRACED = {
    "algebra": [
        "product_algebra", "closure_elements", "restrict_algebra", "quotient_algebra",
        "finite_algebra", "evaluate", "translation_table",
    ],
    "congruence": ["cogenerated_congruence", "is_congruence"],
    "recognizer": [
        "determinize", "combine", "is_empty", "equivalent", "minimize", "accepts",
        "inverse_translation",
    ],
    "closure": [
        "substitute_language", "iterate_language", "quotient_language", "quotient_seed_values",
    ],
    "treehom": ["direct_image", "derived_algebra", "inverse_image", "apply_treehom"],
    "derivor": ["apply_derivor_term", "compose_derivors", "derived_algebra_derivor"],
    "core": ["parse_term", "parse_context", "print_term", "enumerate_all_terms"],
    "formats": ["load_document", "dump_document", "recognizer_from_doc", "recognizer_to_doc"],
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _entries(alg) -> int:
    return sum(len(t) for _, t in alg.tables)


def _elements(alg) -> int:
    return sum(n for _, n in alg.carriers)


# Exact counts, computed only from call arguments and results: per traced
# function, the count names and a function of (args, kwargs, result) giving a
# (numerator, denominator) pair per name.  Shares are reported as the ratio of
# the sums over a cycle; plain counts use the numerator only.
COUNTS = {
    "algebra.product_algebra": (("entries",), lambda a, k, r: [(_entries(r[0]), 0)]),
    "algebra.closure_elements": (("reached_share",), lambda a, k, r: [
        (sum(len(v) for v in r.values()), _elements(_arg(a, k, 0, "alg")))
    ]),
    "congruence.cogenerated_congruence": (("classes_share",), lambda a, k, r: [
        (sum(n for _, n in r.counts), _elements(_arg(a, k, 0, "alg")))
    ]),
    "recognizer.determinize": (("subsets", "entries", "nta_rules"), lambda a, k, r: [
        (_elements(r.algebra), 0), (_entries(r.algebra), 0), (len(_arg(a, k, 0, "machine").rules), 0)
    ]),
    "algebra.evaluate": (("nodes",), lambda a, k, r: [(_arg(a, k, 2, "term").size, 0)]),
    "core.parse_term": (("nodes",), lambda a, k, r: [(r.size, 0)]),
    "formats.load_document": (("bytes",), lambda a, k, r: [(os.path.getsize(_arg(a, k, 0, "path")), 0)]),
    "formats.dump_document": (("bytes",), lambda a, k, r: [(len(r.encode("utf-8")), 0)]),
}

SHARES = {"reached_share", "classes_share"}


def per_layer_names():
    """Every per-layer count name with its unit, in report order."""
    return [
        (f"{qual}.{count}", "ratio" if count in SHARES else "bytes" if count == "bytes" else "count")
        for qual, (names, _) in COUNTS.items()
        for count in names
    ]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, list] = {}
        self.originals: list[tuple[object, str, object]] = []
        self.marked = 0
        self.first_cycle_spans = 0

    def span(self, name: str):
        """Context manager recording one span under the currently open one."""
        return _Span(self, name)

    def _id(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, name: str) -> int:
        nid = self._id(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.open[-1] if self.open else -1)
        self.span_end.append(0.0)
        self.open.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.open.pop()

    def _count(self, qual, args, kwargs, result) -> None:
        names, fn = COUNTS[qual]
        for count, (num, den) in zip(names, fn(args, kwargs, result)):
            slot = self.counts.setdefault(f"{qual}.{count}", [0, 0])
            slot[0] += num
            slot[1] += den

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by someone else."""
        self.span_name.append(self._id(name))
        self.span_parent.append(-1)
        self.span_start.append(start)
        self.span_end.append(end)

    def _wrap(self, qual: str, fn):
        counted = qual in COUNTS
        active = self.active

        def wrapper(*args, **kwargs):
            if active.get(qual):
                return fn(*args, **kwargs)
            active[qual] = 1
            index = self._begin(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
                active[qual] = 0
            if counted:
                self._count(qual, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "treelang" or n.startswith("treelang.")]
        for module, names in TRACED.items():
            home = sys.modules[f"treelang.{module}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", fn)
                for m in modules:
                    if getattr(m, name, None) is fn:
                        self.originals.append((m, name, fn))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, fn in reversed(self.originals):
            setattr(m, name, fn)
        self.originals.clear()

    def mark(self) -> dict:
        """Calls per function and counts since the previous mark (one cycle)."""
        calls: dict[str, int] = {}
        for i in range(self.marked, len(self.span_name)):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
        if not self.marked:
            self.first_cycle_spans = len(self.span_name)
        self.marked = len(self.span_name)
        counts = {k: tuple(v) for k, v in self.counts.items()}
        self.counts = {}
        return {"calls": calls, "counts": counts}

    def export(self) -> dict:
        """Spans and counts as plain data, for a child process to hand back."""
        return {
            "spans": [
                [self.names[self.span_name[i]], self.span_parent[i], self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_name))
            ],
            "counts": self.counts,
        }

    def merge(self, doc: dict) -> None:
        """Append the spans and counts another process exported."""
        base = len(self.span_name)
        for name, parent, start, end in doc["spans"]:
            self.span_name.append(self._id(name))
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)
        for key, (num, den) in doc["counts"].items():
            slot = self.counts.setdefault(key, [0, 0])
            slot[0] += num
            slot[1] += den

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over all recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, list] = {}
        for i in range(n):
            slot = out.setdefault(self.names[self.span_name[i]], [0, 0.0])
            slot[0] += 1
            slot[1] += self.span_end[i] - self.span_start[i] - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def covered_seconds(self) -> float:
        """Wall time inside some top-level span."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def dump(self, path: str) -> None:
        """Write the spans of the first cycle, one line each: name, parent
        index, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(self.first_cycle_spans or len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[i]]} {self.span_parent[i]} "
                    f"{self.span_start[i]:.9f} {self.span_end[i]:.9f}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.index)
        return False
