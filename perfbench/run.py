"""treelang benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload boolean --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ``src/treelang`` and
nothing else of the checkout.  Each run sets up ``SETUP_REPS`` times (median
reported as ``setup_s``), then drives one closed loop with one call
outstanding for ``--seconds`` seconds and at least ``MIN_CALLS`` calls (but
no longer than ``HARD_STOP_S`` or three times ``--seconds``), then
checks every distinct output against the answer key in ``reference.py``.
Times are scaled to a fixed host speed by probes taken between calls (see
``hostspeed.py``); the raw wall-clock figures are printed too.  The last
line of stdout is one JSON object.  ``--trace 1`` runs the same schedule
untraced and then traced, and reports per-layer metrics instead.
``--reference`` runs the one-shot ROADMAP baselines instead of a workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import ALLOCATION, INTERPRETER, START, Probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
# The host-speed probe that scales each workload's calls (see hostspeed.py).
PROBES = {"boolean": ALLOCATION, "closure": ALLOCATION, "query": INTERPRETER, "cli": START}
MIN_CALLS = 100
HARD_STOP_S = 120
FAIL_KINDS = ("recursion_error", "validation_error", "other_exception", "nonzero_exit")
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ok_share", "ratio"), ("right_share", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help="run the one-shot baselines")
    args = parser.parse_args(argv)
    if not (SRC / "treelang" / "__init__.py").is_file():
        print(f"error: no treelang sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.reference:
        import baseline

        return baseline.main(args.seed)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return Bench(args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Outcome:
    """What one pass of the closed loop saw."""

    def __init__(self, probe):
        self.latencies: list[float] = []  # wall seconds per call
        self.ends: list[float] = []  # perf_counter at each call's end
        self.scaled: list[float] = []  # latencies at the reference host speed, set after the loop
        self.probes = Probes(probe)
        self.call_kinds: list[str] = []
        self.failed: list[bool] = []
        self.fail_kinds = dict.fromkeys(FAIL_KINDS, 0)
        self.fail_examples: dict[str, str] = {}
        self.outputs: dict[int, object] = {}
        self.elapsed = 0.0

    def record(self, call_kind, latency, end, kind=None, message=""):
        self.call_kinds.append(call_kind)
        self.latencies.append(latency)
        self.ends.append(end)
        self.failed.append(kind is not None)
        if kind is not None:
            self.fail_kinds[kind] += 1
            self.fail_examples.setdefault(kind, message)

    def finish(self, elapsed):
        """Close the loop: one last probe, then scale every call."""
        self.elapsed = elapsed
        self.probes.take(time.perf_counter())
        self.scaled = [lat * self.probes.factor(end) for lat, end in zip(self.latencies, self.ends)]

    def rate(self) -> float:
        """Calls per second of call time at the reference host speed."""
        return len(self.scaled) / sum(self.scaled)


class Bench:
    def __init__(self, args, work: Path):
        import workloads

        self.args = args
        self.work = work
        self.is_cli = args.workload == "cli"
        self.probe = PROBES[args.workload]
        self.workloads = workloads
        self.build = workloads.WORKLOADS[args.workload]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Set up SETUP_REPS times from the same seed; returns the median time
        and the schedules of the last rep, or of the last two for the traced
        run, whose exact-count self-check compares two generations.

        Each part of a set-up is scaled by the probe of its kind, taken just
        before and after it: the import child by START, instance generation
        by ALLOCATION and the warm-up calls by the workload's probe."""
        times, schedules = [], []
        keep = 2 if self.args.trace else 1
        for rep in range(SETUP_REPS):
            del schedules[: len(schedules) - keep + 1]  # only the last reps are run
            workdir = self.work / f"rep{rep}"
            workdir.mkdir(parents=True)
            probes = {START, ALLOCATION, self.probe}
            before = {probe: probe.steady() for probe in probes}
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import treelang.cli"], env=self.env, check=True)
            t1 = time.perf_counter()
            schedule = self.build(self.args.seed, workdir)
            t2 = time.perf_counter()
            for call in schedule.warmup:
                self.invoke(call, workdir)
            t3 = time.perf_counter()
            after = {probe: probe.steady() for probe in probes}
            parts = dict.fromkeys(probes, 0.0)
            parts[START] += t1 - t0
            parts[ALLOCATION] += t2 - t1
            parts[self.probe] += t3 - t2
            times.append(sum(probe.scale(sec, before[probe], after[probe]) for probe, sec in parts.items()))
            schedules.append((schedule, workdir))
        return statistics.median(times), schedules

    # -- one call ----------------------------------------------------------

    def invoke(self, call, workdir, launcher=None):
        """Perform one call; returns (output, failure kind, message)."""
        if self.is_cli:
            cmd = launcher(call.argv) if launcher else self.workloads.cli_command(call.argv)
            proc = self.workloads.run_cli(cmd, workdir, self.env)
            if proc.returncode != 0:
                return None, "nonzero_exit", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            return proc.stdout, None, ""
        from treelang import ValidationError

        try:
            return call.run(), None, ""
        except RecursionError as err:
            return None, "recursion_error", f"{call.kind}: RecursionError: {err}"
        except ValidationError as err:
            return None, "validation_error", f"{call.kind}: {type(err).__name__}: {err}"
        except Exception as err:  # the loop must keep running; the kind is reported
            return None, "other_exception", f"{call.kind}: {''.join(traceback.format_exception_only(err)).strip()}"

    def loop(self, plan, seconds, min_calls=0, whole_cycles=False, min_cycles=0,
             launcher=None, on_cycle=None):
        """The closed loop: one call outstanding, next call when it returns.

        ``plan`` lists (schedule, workdir) pairs used in turn, one per cycle.
        The deadline is looked at only at block ends (or cycle ends with
        ``whole_cycles``), so every run keeps the schedule's mix.
        """
        out = Outcome(self.probe)
        start = time.perf_counter()
        deadline = start + seconds
        hard_stop = start + max(HARD_STOP_S, 3 * seconds)
        i = cycle = 0
        while True:
            sched, wdir = plan[cycle % len(plan)]
            index = i % len(sched.calls)
            t0 = time.perf_counter()
            call = sched.calls[index]
            result, kind, message = self.invoke(call, wdir, launcher)
            t1 = time.perf_counter()
            out.record(call.kind, t1 - t0, t1, kind, message)
            out.probes.maybe(t1)
            if kind is None and cycle == 0 and index not in out.outputs:
                out.outputs[index] = result
            i += 1
            end_of_cycle = index == len(sched.calls) - 1
            if end_of_cycle:
                if on_cycle:
                    on_cycle(out)
                cycle += 1
            if not (end_of_cycle if whole_cycles else index in sched.block_ends) or cycle < min_cycles:
                continue
            if (t1 >= deadline and i >= min_calls) or t1 >= hard_stop:
                break
        out.finish(time.perf_counter() - start)
        return out

    # -- answer check ------------------------------------------------------

    def check(self, schedule, outcome):
        """Check each distinct output once; returns (checked, wrong, notes)."""
        checked = wrong = 0
        notes = []
        for index, result in sorted(outcome.outputs.items()):
            call = schedule.calls[index]
            if call.check is None:
                continue
            checked += 1
            try:
                ok = bool(call.check(result))
            except Exception as err:  # an unreadable output counts as wrong
                ok = False
                notes.append(f"{call.kind} #{index}: check raised {type(err).__name__}: {err}")
            if not ok:
                wrong += 1
                notes.append(f"{call.kind} #{index}: output disagrees with the oracle")
        return checked, wrong, notes

    # -- runs --------------------------------------------------------------

    def run(self) -> int:
        setup_s, schedules = self.setup()
        if self.args.trace:
            return self.run_traced(schedules)
        schedule = schedules[0][0]
        outcome = self.loop(schedules[:1], self.args.seconds, MIN_CALLS)
        rss = self.peak_rss_mb()
        t0 = time.perf_counter()
        checked, wrong, notes = self.check(schedule, outcome)
        print(f"answer check: {checked} distinct outputs in {time.perf_counter() - t0:.1f} s")
        n = len(outcome.latencies)
        failed = sum(outcome.failed)
        p50, p90 = percentiles(outcome)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": outcome.rate(),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": rss,
            "ok_share": 1 - failed / n,
            "right_share": 1 - wrong / checked if checked else 1.0,
        }
        self.report(outcome, checked, wrong, notes)
        units = dict(END_TO_END)
        emit(wrong == 0, n, failed, {k: (v, units[k]) for k, v in metrics.items()})
        return 0

    def run_traced(self, schedules) -> int:
        """Whole cycles untraced, then at least two whole cycles traced, one on
        each of two generations from the seed.  Per-layer times are seconds
        per cycle; calls and counts are those of the first traced cycle, and
        must equal those of the second."""
        from tracing import Tracer

        schedule = schedules[0][0]
        half = self.args.seconds / 2
        plain = self.loop(schedules[:1], half, whole_cycles=True, min_cycles=1)
        checked, wrong, notes = self.check(schedule, plain)
        tracer = Tracer()
        per_cycle = []
        seen_failures = dict.fromkeys(FAIL_KINDS, 0)

        def on_cycle(out):
            if self.is_cli:
                self.merge_cli_spans(tracer)
            snap = tracer.mark()
            snap["failed"] = {k: v - seen_failures[k] for k, v in out.fail_kinds.items()}
            seen_failures.update(out.fail_kinds)
            per_cycle.append(snap)

        launcher = None
        if self.is_cli:
            launcher = self.launcher()
        else:
            tracer.install()
        try:
            traced = self.loop(schedules[:2], half, whole_cycles=True, min_cycles=2,
                               launcher=launcher, on_cycle=on_cycle)
        finally:
            tracer.uninstall()
        cycles = len(traced.latencies) / len(schedule.calls)
        repeat_ok = per_cycle[0] == per_cycle[1]
        if not repeat_ok:
            notes.append("exact counts differ between two generations from one seed: "
                         + _diff(per_cycle[0], per_cycle[1]))
        metrics = self.layer_metrics(tracer, per_cycle[0], cycles, plain, traced)
        tracer.dump(str(ROOT / ".bench_work" / f"spans-{self.args.workload}-{self.args.seed}.txt"))
        self.report(plain, checked, wrong, notes)
        print(f"traced {len(traced.latencies)} calls ({cycles:g} cycles) in {traced.elapsed:.3f} s; "
              f"exact counts repeat across two generations: {repeat_ok}")
        emit(wrong == 0 and repeat_ok, len(plain.latencies), sum(plain.failed), metrics)
        return 0

    def layer_metrics(self, tracer, first, cycles, plain, traced):
        from tracing import TRACED, SHARES, per_layer_names

        selfs = tracer.self_times()
        metrics = {}
        for module, names in TRACED.items():
            for name in names:
                qual = f"{module}.{name}"
                metrics[f"{qual}.calls"] = (first["calls"].get(qual, 0), "count")
                metrics[f"{qual}.self_s"] = (selfs.get(qual, (0, 0.0))[1] / cycles, "s")
        for name, unit in per_layer_names():
            num, den = first["counts"].get(name, (0, 0))
            if name.rsplit(".", 1)[1] in SHARES:
                metrics[name] = (num / den if den else 0.0, unit)
            else:
                metrics[name] = (num, unit)
        for kind in FAIL_KINDS:
            metrics[f"failed.{kind}"] = (first["failed"].get(kind, 0), "count")
        metrics["cli.import_s"] = (selfs.get("cli.import", (0, 0.0))[1] / cycles, "s")
        metrics["cli.main.self_s"] = (selfs.get("cli.main", (0, 0.0))[1] / cycles, "s")
        metrics["trace.overhead_share"] = (1 - traced.rate() / plain.rate(), "ratio")
        wall = sum(traced.latencies)  # raw call time; the probes between calls are not the program's
        metrics["trace.uncovered_share"] = (max(0.0, wall - tracer.covered_seconds()) / wall, "ratio")
        return metrics

    # -- cli tracing -------------------------------------------------------

    def launcher(self):
        """Commands go through cli_launcher.py, which installs the same
        wrappers in the child and writes its spans to a file."""
        spans_dir = self.work / "spans"
        spans_dir.mkdir()
        self.cli_span_files = []

        def command(argv):
            path = spans_dir / f"{len(self.cli_span_files)}.json"
            self.cli_span_files.append(path)
            return [sys.executable, str(HERE / "cli_launcher.py"), repr(time.perf_counter()), str(path), *argv]

        return command

    def merge_cli_spans(self, tracer):
        for path in self.cli_span_files:
            if path.is_file():  # a child killed before its end writes nothing
                tracer.merge(json.loads(path.read_text()))
                path.unlink()
        self.cli_span_files.clear()

    # -- output ------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.is_cli else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024

    def report(self, outcome, checked, wrong, notes):
        n = len(outcome.latencies)
        failed = sum(outcome.failed)
        kinds = ", ".join(f"{k} {v}" for k, v in outcome.fail_kinds.items())
        print(f"workload {self.args.workload} seed {self.args.seed}: {n} calls in {outcome.elapsed:.3f} s")
        raw50, raw90 = percentiles(outcome, outcome.latencies)
        probes = outcome.probes.seconds
        print(f"raw wall clock: {n / sum(outcome.latencies):.4f} calls/s of call time, p50 {raw50 * 1e3:.3f} ms, "
              f"p90 {raw90 * 1e3:.3f} ms; {len(probes)} {self.probe.name} probes, median "
              f"{statistics.median(probes) * 1e3:.4f} ms (reference {self.probe.reference_s * 1e3:g} ms), "
              f"range {min(probes) * 1e3:.4f}-{max(probes) * 1e3:.4f} ms")
        by_kind: dict[str, list[float]] = {}
        for kind, lat in zip(outcome.call_kinds, outcome.scaled):
            by_kind.setdefault(kind, []).append(lat)
        for kind, lats in by_kind.items():
            lats.sort()
            print(f"  {kind:16s} {len(lats):5d} calls  median {lats[len(lats) // 2] * 1e3:9.3f} ms  "
                  f"max {lats[-1] * 1e3:9.3f} ms")
        print(f"failed_share {failed / n:.4f} ({kinds})")
        for kind, message in outcome.fail_examples.items():
            print(f"  first {kind}: {message}")
        print(f"wrong_share {wrong / checked if checked else 0.0:.4f} ({wrong} of {checked} distinct outputs checked)")
        for note in notes[:20]:
            print(f"  {note}")


def percentiles(outcome, latencies=None):
    """Median and 90th percentile (nearest rank) of the scaled latencies, or
    of ``latencies``; a failed call ranks slower than every successful one
    and is given the run's longest latency."""
    latencies = outcome.scaled if latencies is None else latencies
    worst = max(latencies)
    ranked = sorted(
        (failed, worst if failed else lat) for lat, failed in zip(latencies, outcome.failed)
    )
    values = [v for _, v in ranked]

    def rank(q):
        return values[max(0, math.ceil(q * len(values)) - 1)]

    return rank(0.5), rank(0.9)


def _diff(a, b):
    out = []
    for part in ("calls", "counts", "failed"):
        for key in sorted(set(a[part]) | set(b[part])):
            if a[part].get(key) != b[part].get(key):
                out.append(f"{part}.{key}: {a[part].get(key)} != {b[part].get(key)}")
    return "; ".join(out[:10])


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
