"""One-shot reference mode: the ROADMAP baselines, outside the gated
workloads.

    python3 perfbench/run.py --reference --seed 1

Random one-sorted c/g/sigma evaluators: a 32x32 ``combine``, ``minimize`` of
its 1024-state product, ``equivalent`` on the same pair, and
``substitute_language`` with two 8-state inputs.  Each call runs once; every
output is checked like the workloads' outputs.
"""

from __future__ import annotations

import json
import random
import time

import treelang as tl

import instances as gen
import reference as ref


def main(seed: int) -> int:
    rng = random.Random(seed)
    a = gen.random_recognizer(rng, gen.F1, gen.X1, {"s": 32})
    b = gen.random_recognizer(rng, gen.F1, gen.X1, {"s": 32})
    k = gen.random_recognizer(rng, gen.F1, gen.X1, {"s": 8})
    family = {"x": gen.random_recognizer(rng, gen.F1, gen.X1, {"s": 8})}
    steps = [
        ("combine", lambda: tl.combine("intersection", a, b),
         lambda out: ref.combine_ok("intersection", a, b, out)),
        ("minimize", lambda: tl.minimize(outputs["combine"]),
         lambda out: ref.same_language(out, ref.languages(outputs["combine"]))),
        ("equivalent", lambda: tl.equivalent(a, b), lambda out: ref.equal_ok(a, b, out)),
        ("substitute", lambda: tl.substitute_language(k, family),
         lambda out: ref.substitute_ok(k, family, out)),
    ]
    outputs, metrics, wrong = {}, {}, 0
    for name, run, check in steps:
        t0 = time.perf_counter()
        outputs[name] = run()
        seconds = time.perf_counter() - t0
        ok = check(outputs[name])
        wrong += not ok
        size = getattr(getattr(outputs[name], "algebra", None), "carriers", None)
        print(f"reference {name}: {seconds:.3f} s, output {dict(size) if size else outputs[name]}, "
              f"{'agrees with' if ok else 'DISAGREES with'} the oracle")
        metrics[f"reference.{name}_s"] = {"value": seconds, "unit": "s"}
    print(json.dumps({"correct": wrong == 0, "attempted": len(steps), "failed": 0, "metrics": metrics}))
    return 0
