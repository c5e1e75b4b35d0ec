"""The gated workloads.  Each builds, from one seed, a schedule of calls that
the closed loop in ``run.py`` cycles through, plus a few small warm-up calls
drawn from WARMUP_SEED, so every seed's set-up does the same warm-up work.

Calls look functions up on ``treelang`` at call time, so wrappers installed
by the traced run are seen.  A schedule is cut into blocks; the loop checks
its deadline only at block ends, which keeps the mix of a run fixed.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import treelang as tl
import yaml
from treelang import formats

import instances as gen
import reference as ref


WARMUP_SEED = 0


class Call:
    """One operator call: ``run`` performs it, ``check`` judges its output
    against the answer key (None when the output has no oracle)."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check=None):
        self.kind = kind
        self.run = run
        self.check = check


class Schedule:
    """One cycle of calls, cut into blocks of the given lengths."""

    def __init__(self, calls, blocks, warmup):
        assert sum(blocks) == len(calls)
        self.calls = calls
        self.block_ends = {sum(blocks[: i + 1]) - 1 for i in range(len(blocks))}
        self.warmup = warmup


# ---------------------------------------------------------------------------
# boolean: products, reachability, restriction, quotient and refinement

# (n1, n2) state counts per sort of one pair.  The operands cover 6..16 and
# every product has 96..100 elements per sort, so the calls of one kind cost
# about the same and the latency quantiles sit inside dense clusters.
BOOLEAN_PAIRS = [(6, 16), (16, 6), (7, 14), (14, 7), (8, 12), (12, 8), (9, 11), (11, 9), (10, 10)]
BOOLEAN_BLOCKS = 36
EQUAL_STATES = 10  # the true equivalence compares a 10-state operand with a shuffled copy
KINDS = ("union", "intersection", "difference")


def boolean(seed: int, workdir: Path) -> Schedule:
    rng = random.Random(seed)
    calls = []
    for i in range(BOOLEAN_BLOCKS):
        n1, n2 = BOOLEAN_PAIRS[i % len(BOOLEAN_PAIRS)]
        sig, vars = (gen.F1, gen.X1) if i % 2 == 0 else (gen.R2, gen.R2V)
        calls += _boolean_block(rng, sig, vars, n1, n2, KINDS[i % 3])
    warm = _boolean_block(random.Random(WARMUP_SEED), gen.F1, gen.X1, 3, 3, "union")
    return Schedule(calls, [5] * BOOLEAN_BLOCKS, warm)


def _boolean_block(rng, sig, vars, n1, n2, kind):
    r1 = gen.random_recognizer(rng, sig, vars, {s: n1 for s in sig.sorts})
    r2 = gen.random_recognizer(rng, sig, vars, {s: n2 for s in sig.sorts})
    r3 = gen.random_recognizer(rng, sig, vars, {s: min(EQUAL_STATES, max(n1, n2)) for s in sig.sorts})
    r3p = gen.permuted(rng, r3)
    slot = {}

    def product():
        slot["p"] = tl.combine(kind, r1, r2)
        return slot["p"]

    def minimized():
        slot["pm"] = slot["p"]
        return tl.minimize(slot["p"])

    def empty():
        slot["pe"] = slot["p"]
        return tl.is_empty(slot["p"])

    return [
        Call("combine", product, lambda out: ref.combine_ok(kind, r1, r2, out)),
        Call("minimize", minimized, lambda out: ref.same_language(out, ref.languages(slot["pm"]))),
        Call("is_empty", empty, lambda out: ref.empty_ok(slot["pe"], out)),
        Call("equivalent", lambda: tl.equivalent(r3, r3p), lambda out: out is True),
        Call("equivalent", lambda: tl.equivalent(r1, r2), lambda out: ref.equal_ok(r1, r2, out)),
    ]


# ---------------------------------------------------------------------------
# closure: NTA assembly and determinization

# Input sizes, fixed per block position: substitute (k, family) states,
# iterate and quotient states, direct-image source states per sort.
SUBSTITUTE_SIZES = [(3, 3), (3, 4), (4, 3), (4, 4)]
# Closure costs are heavy-tailed (outputs of 1 to 300 states), so a run's
# figures follow its seed's draws: with 128 blocks two seeds read 152 and
# 190 calls/s, each again on a rerun.  384 blocks (1536 calls, each output
# checked once, about 15 s) average over three times as many draws.  One
# cycle is one block, so a run covers whole cycles and times every draw of
# its seed equally often; a partial cycle would move the 90th percentile.
CLOSURE_BLOCKS = 384
IMAGE_PAIRS = [("R2", "R1"), ("R1", "R1"), ("R2", "R2")]


def closure(seed: int, workdir: Path) -> Schedule:
    rng = random.Random(seed)
    calls = []
    for i in range(CLOSURE_BLOCKS):
        calls += _closure_block(rng, i)
    warm = _closure_block(random.Random(WARMUP_SEED), 0)
    return Schedule(calls, [len(calls)], warm)


def _closure_block(rng, i):
    F1, X1 = gen.F1, gen.X1
    nk, nx = SUBSTITUTE_SIZES[i % 4]
    k = gen.random_recognizer(rng, F1, X1, {"s": nk})
    family = {"x": gen.random_recognizer(rng, F1, X1, {"s": nx})}
    li = gen.random_recognizer(rng, F1, X1, {"s": 3 + i % 4})
    lq = gen.random_recognizer(rng, F1, X1, {"s": 3 + (i + 2) % 4})
    k_terms = [gen.random_term(rng, F1, X1, "s", rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    kq = tl.recognize_finite(F1, X1, k_terms)
    src, tgt = IMAGE_PAIRS[i % 3]
    src_sig, src_vars = getattr(gen, src), getattr(gen, src + "V")
    tgt_sig, tgt_vars = getattr(gen, tgt), getattr(gen, tgt + "V")
    h = gen.image_hyperderivor(rng, src_sig, src_vars, tgt_sig, tgt_vars)
    n = 2 + (i // 3) % 2
    li_sort = src_sig.sorts[0]
    limg = gen.random_recognizer(rng, src_sig, src_vars, {s: n for s in src_sig.sorts}, only_sort=li_sort)
    return [
        Call("substitute", lambda: tl.substitute_language(k, family),
             lambda out: ref.substitute_ok(k, family, out)),
        Call("iterate", lambda: tl.iterate_language(li, "z"), lambda out: ref.iterate_ok(li, "z", out)),
        Call("quotient", lambda: tl.quotient_language(lq, kq, "z"),
             lambda out: ref.quotient_ok(lq, k_terms, "z", out)),
        Call("image", lambda: tl.direct_image(h, limg, li_sort),
             lambda out: ref.image_ok(h, limg, li_sort, out)),
    ]


# ---------------------------------------------------------------------------
# query: the table-lookup read path, the parser and the printer

QUERY_SIZES = (32, 64, 128, 256)
QUERY_BLOCKS = 25
# per block of 20 calls: 19 on terms of 5..200 nodes, then one deep term of
# a depth from DEEP_DEPTHS (chains and combs, 10^3..10^4)
QUERY_MIX = (
    ["member"] * 6 + ["invtrans"] * 3 + ["apply"] * 3 + ["inverse"] * 2
    + ["dapply"] * 3 + ["derive"] * 2
)
DEEP_KINDS = ("member", "apply", "dapply")
DEEP_DEPTHS = (1000, 1778, 3162, 5623, 10000)


def query(seed: int, workdir: Path) -> Schedule:
    rng = random.Random(seed)
    recs = [gen.random_recognizer(rng, gen.F1, gen.X1, {"s": n}) for n in QUERY_SIZES]
    hall_vars = tl.sorted_vars(gen.Q, {"e": ["v0"]})
    calls = []
    for b in range(QUERY_BLOCKS):
        # a fresh tree homomorphism and derivor per block, so a run averages
        # over many pattern draws
        h = gen.query_hyperderivor(rng)
        d = gen.query_derivor(rng)
        for j, kind in enumerate(QUERY_MIX):
            calls.append(_query_call(rng, kind, recs[(b + j) % 4], recs[(b + j) % 2], h, d, hall_vars, None))
        deep = DEEP_DEPTHS[b % len(DEEP_DEPTHS)]
        calls.append(_query_call(rng, DEEP_KINDS[b % 3], recs[b % 4], recs[0], h, d, hall_vars, deep))
    warm_rng = random.Random(WARMUP_SEED)
    h, d = gen.query_hyperderivor(warm_rng), gen.query_derivor(warm_rng)
    warm = [_query_call(warm_rng, kind, recs[0], recs[0], h, d, hall_vars, None) for kind in sorted(set(QUERY_MIX))]
    return Schedule(calls, [len(QUERY_MIX) + 1] * QUERY_BLOCKS, warm)


def _query_call(rng, kind, rec, small, h, d, hall_vars, deep):
    F1, X1, Q = gen.F1, gen.X1, gen.Q
    nodes = rng.randint(5, 200)
    if kind == "member":
        text = gen.deep_text(rng, deep) if deep else tl.print_term(gen.random_term(rng, F1, X1, "s", nodes))

        def run():
            term = tl.parse_term(text, F1, X1)
            return term, tl.accepts(rec, term)

        return Call("member", run, lambda out: out[1] == ref.member(rec, out[0]))
    if kind == "invtrans":
        text = _context_text(rng, rng.randint(5, 60))
        return Call(
            "invtrans",
            lambda: tl.inverse_translation(rec, tl.parse_context(text, F1, X1)),
            lambda out: ref.invtrans_ok(rec, tl.parse_context(text, F1, X1), out),
        )
    if kind == "apply":
        sort = rng.choice(Q.sorts)
        term = gen.deep_term(rng, Q, deep) if deep else gen.random_term(rng, Q, gen.QV, sort, nodes)
        check = lambda out: ref.treehom_apply_ok(h, rec, term, tl.parse_term(out, F1, X1))
        return Call("apply", lambda: tl.print_term(tl.apply_treehom(h, term)), check)
    if kind == "inverse":
        sort = rng.choice(Q.sorts)
        return Call("inverse", lambda: tl.inverse_image(h, small, sort),
                    lambda out: ref.inverse_ok(h, small, sort, out))
    if kind == "dapply":
        body = gen.deep_term(rng, Q, deep) if deep else gen.random_term(rng, Q, hall_vars, "e", nodes)
        env = {"v0": rng.randrange(rec.algebra.size("s"))}

        def run():
            return tl.apply_derivor_term(d, tl.hall_term(body, ["e"], body.sort))

        return Call("dapply", run,
                    lambda out: ref.derivor_apply_ok(d, rec.algebra, tl.hall_term(body, ["e"], body.sort), out, env))
    if kind == "derive":
        return Call("derive", lambda: tl.derived_algebra_derivor(d, small.algebra),
                    lambda out: ref.derive_ok(d, small.algebra, out))
    raise ValueError(kind)


def _context_text(rng, nodes: int) -> str:
    """A c/g/sigma context: a random term with one leaf replaced by the hole."""
    text = tl.print_term(gen.random_term(rng, gen.F1, gen.X1, "s", nodes))
    leaves = [i for i in range(len(text)) if text[i] in "cxz" and (i == 0 or text[i - 1] in "(,")
              and (i + 1 == len(text) or text[i + 1] in "),")]
    i = rng.choice(leaves)
    return text[:i] + "@" + text[i + 1:]


# ---------------------------------------------------------------------------
# cli: one `python -m treelang.cli` process per call

GOLDEN = ("rpar.rec", "lscc.rec", "kc.rec")
# Four seeded blocks of 13 commands plus 3 golden ones make a cycle of 55
# commands, which is also the only block: a run covers whole cycles, two to
# reach 100 calls, so every run times the same 110 commands.
CLI_BLOCKS = 4


class CliCall:
    """One command line; ``check`` gets the command's stdout text."""

    __slots__ = ("kind", "argv", "check")

    def __init__(self, kind, argv, check=None):
        self.kind = kind
        self.argv = argv
        self.check = check


def cli(seed: int, workdir: Path) -> Schedule:
    rng = random.Random(seed)
    root = Path(__file__).resolve().parent.parent
    for name in GOLDEN:
        (workdir / name).write_bytes((root / "tests" / "golden" / name).read_bytes())
    blocks = [_cli_block(rng, workdir, b) for b in range(CLI_BLOCKS)] + [_golden_block(workdir)]
    warm = [CliCall("empty", ["empty", "rpar.rec"])]
    calls = [c for block in blocks for c in block]
    return Schedule(calls, [len(calls)], warm)


def _save(workdir, name, rec):
    formats.save_recognizer(rec, workdir / name)
    return name


def _rec_out(check):
    def judge(stdout: str) -> bool:
        return check(formats.recognizer_from_doc(yaml.safe_load(stdout)))

    return judge


def _verdict(stdout: str) -> bool:
    text = stdout.strip()
    if text not in ("true", "false"):
        raise ValueError(f"not a verdict: {text[:40]!r}")
    return text == "true"


def _cli_block(rng, workdir, b):
    F1, X1, R2, R2V = gen.F1, gen.X1, gen.R2, gen.R2V
    p = f"b{b}_"
    sig, vars = (F1, X1) if b % 2 == 0 else (R2, R2V)
    a = gen.random_recognizer(rng, sig, vars, {s: 8 for s in sig.sorts})
    c = gen.random_recognizer(rng, sig, vars, {s: 6 for s in sig.sorts})
    ap = gen.permuted(rng, a)
    big = gen.random_recognizer(rng, F1, X1, {"s": 32})
    k = gen.random_recognizer(rng, F1, X1, {"s": 3})
    lx = gen.random_recognizer(rng, F1, X1, {"s": 3})
    li = gen.random_recognizer(rng, F1, X1, {"s": 4})
    k_terms = [gen.random_term(rng, F1, X1, "s", rng.randint(1, 3)) for _ in range(2)]
    kq = tl.recognize_finite(F1, X1, k_terms)
    h = gen.image_hyperderivor(rng, gen.R2, gen.R2V, gen.R1, gen.R1V)
    limg = gen.random_recognizer(rng, gen.R2, gen.R2V, {"t0": 3, "t1": 3}, only_sort="t0")
    hq = gen.query_hyperderivor(rng)
    small = gen.random_recognizer(rng, F1, X1, {"s": 8})
    ctx = _context_text(rng, rng.randint(5, 30))
    term = tl.print_term(gen.random_term(rng, F1, X1, "s", rng.randint(5, 100)))
    kind = KINDS[b % 3]

    files = {
        "a": _save(workdir, p + "a.rec", a), "c": _save(workdir, p + "c.rec", c),
        "ap": _save(workdir, p + "ap.rec", ap), "big": _save(workdir, p + "big.rec", big),
        "k": _save(workdir, p + "k.rec", k), "lx": _save(workdir, p + "lx.rec", lx),
        "li": _save(workdir, p + "li.rec", li), "kq": _save(workdir, p + "kq.rec", kq),
        "limg": _save(workdir, p + "limg.rec", limg), "small": _save(workdir, p + "small.rec", small),
    }
    for name, (s, v) in {"r2.sig": (gen.R2, gen.R2V), "r1.sig": (gen.R1, gen.R1V),
                         "q.sig": (gen.Q, gen.QV)}.items():
        formats.dump_document(formats.signature_to_doc(s, v), workdir / name)
    formats.dump_document(formats.hyperderivor_to_doc(h), workdir / (p + "img.hyp"))
    formats.dump_document(formats.hyperderivor_to_doc(hq), workdir / (p + "q.hyp"))

    return [
        CliCall("combine", ["combine", kind, files["a"], files["c"]],
                _rec_out(lambda out: ref.combine_ok(kind, a, c, out))),
        CliCall("minimize", ["minimize", files["big"]],
                _rec_out(lambda out: ref.same_language(out, ref.languages(big)))),
        CliCall("equal", ["equal", files["a"], files["ap"]], lambda s: _verdict(s) is True),
        CliCall("empty", ["empty", files["big"]], lambda s: ref.empty_ok(big, _verdict(s))),
        CliCall("syncong", ["syncong", files["big"]]),
        CliCall("substitute", ["substitute", files["k"], "--with", f"x={files['lx']}"],
                _rec_out(lambda out: ref.substitute_ok(k, {"x": lx}, out))),
        CliCall("iterate", ["iterate", files["li"], "--var", "z"],
                _rec_out(lambda out: ref.iterate_ok(li, "z", out))),
        CliCall("quotient", ["quotient", files["li"], "--by", files["kq"], "--var", "z"],
                _rec_out(lambda out: ref.quotient_ok(li, k_terms, "z", out))),
        CliCall("invtrans", ["invtrans", files["big"], "--context", ctx],
                _rec_out(lambda out: ref.invtrans_ok(big, tl.parse_context(ctx, F1, X1), out))),
        CliCall("treehom_image", ["treehom", "image", "--hyp", p + "img.hyp", "--target", "r1.sig",
                                  "--rec", files["limg"], "--sort", "t0"],
                _rec_out(lambda out: ref.image_ok(h, limg, "t0", out))),
        CliCall("treehom_inverse", ["treehom", "inverse", "--hyp", p + "q.hyp", "--source", "q.sig",
                                    "--rec", files["small"], "--sort", "e"],
                _rec_out(lambda out: ref.inverse_ok(hq, small, "e", out))),
        CliCall("member", ["member", files["big"], term],
                lambda s: _verdict(s) == ref.member(big, tl.parse_term(term, F1, X1))),
        CliCall("enumerate", ["enumerate", files["small"], "--max-nodes", "4"],
                lambda s: ref.enumerate_ok(small, 4, s.splitlines())),
    ]


def _golden_block(workdir):
    rpar = formats.load_recognizer(workdir / "rpar.rec")
    lscc = formats.load_recognizer(workdir / "lscc.rec")
    kc = formats.load_recognizer(workdir / "kc.rec")
    f1 = rpar.signature
    k_terms = sorted(ref.languages(kc)["s"], key=lambda t: t.size)
    return [
        CliCall("quotient", ["quotient", "lscc.rec", "--by", "kc.rec", "--var", "z"],
                _rec_out(lambda out: ref.quotient_ok(lscc, k_terms, "z", out)) if k_terms else None),
        CliCall("invtrans", ["invtrans", "rpar.rec", "--context", "g(@)"],
                _rec_out(lambda out: ref.invtrans_ok(rpar, tl.parse_context("g(@)", f1, rpar.vars), out))),
        CliCall("member", ["member", "rpar.rec", "g(g(c))"], lambda s: _verdict(s) is True),
    ]


def cli_command(argv):
    return [sys.executable, "-m", "treelang.cli", *argv]


CLI_TIMEOUT_S = 60


def run_cli(cmd, workdir: Path, env) -> subprocess.CompletedProcess:
    """Run one command; a command that outlives CLI_TIMEOUT_S is killed and
    reported as exit code -9."""
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        return subprocess.CompletedProcess(cmd, -9, err.stdout or "", f"timed out after {CLI_TIMEOUT_S} s")


WORKLOADS = {"boolean": boolean, "closure": closure, "query": query, "cli": cli}
