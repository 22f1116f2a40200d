"""One measured process: set up a workload's groups, verify once, print JSON.

Started by run.py, never imported by it, so that every measurement begins
in a fresh interpreter with cold caches and times exactly one pass.  Set-up
and the pass are each timed under a speed.SpeedProbe, which gives their wall
time and their time in reference seconds.  The
single argument is a JSON object:

    workload  name in workloads.WORKLOADS
    seed      passed to run_suite
    src       directory that holds the reflect_gkm package
    mode      "setup"  - set up only
              "verify" - set up, then one verification pass
              "traced" - as "verify", under the tracer
    operands  ("verify") also time CycNum multiply and inverse on
              frozen operands, after the pass

The result is the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import SpeedProbe
from workloads import WORKLOADS

OPERAND_REPEATS = 7
MUL_OPERANDS = 4000
INVERSE_OPERANDS = 1000


def _import_package(src: str):
    sys.path.insert(0, src)
    import reflect_gkm

    where = Path(reflect_gkm.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"reflect_gkm was imported from {where}, not from {src}")
    return reflect_gkm


def set_up(rg, names):
    """load_group plus the lazy set-up every section relies on."""
    groups = []
    for name in names:
        g = rg.load_group(name)
        g.reflections()
        g.fundamental_degrees()
        rg.coinvariant_basis(g)
        rg.build_hypergraph(g)
        groups.append(g)
    return groups


def _checks(data: dict) -> tuple[int, int]:
    """(attempted, failed) checks, read from a report's JSON."""
    attempted = failed = 0
    theorem = data["theorem"]
    if theorem:
        attempted += len(theorem["rows"])
        failed += sum(not row["ok"] for row in theorem["rows"])
        if theorem["members"]:
            attempted += theorem["members"]["trials"]
            failed += theorem["members"]["failures"]
    for lemma in data["lemmas"]:
        attempted += lemma["trials"]
        failed += lemma["failures"]
    if data["hypergraph"]:
        attempted += data["hypergraph"]["trials"]
        failed += data["hypergraph"]["failures"]
    if data["control"]:
        attempted += 1
        failed += not data["control"]["ok"]
    return attempted, failed


def verify_pass(rg, groups, workload, seed) -> dict:
    with SpeedProbe() as probe:
        reports = [
            rg.run_suite(
                g,
                dmax=workload.dmax,
                trials=workload.trials,
                seed=seed,
                sections=workload.sections,
            )
            for g in groups
        ]
    texts = [r.to_json() for r in reports]
    attempted = failed = 0
    passed = True
    for text in texts:
        data = json.loads(text)
        a, f = _checks(data)
        attempted += a
        failed += f
        passed = passed and data["pass"]
    return {
        "seconds": probe.wall_s,
        "scaled_s": probe.scaled_s(),
        "slowdown": probe.slowdown(),
        "digest": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "pass": passed,
        "attempted": attempted,
        "failed": failed,
    }


def _per_op_us(fn, items) -> float:
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / len(items) * 1e6


def operand_timings(rg, seed) -> dict[str, float]:
    """Median microseconds per CycNum multiply (conductors 1 and 3) and
    inverse (conductor 3) over seeded operands.  Every inverse operand is
    distinct, so the result is the arithmetic, not a cache lookup."""
    rng = random.Random(f"{seed}:operands")

    def operand(conductor):
        phi = conductor - 1 if conductor > 1 else 1  # conductors here are prime or 1
        return rg.CycNum(
            conductor,
            [Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999)) for _ in range(phi)],
        )

    out = {}
    for conductor in (1, 3):
        pairs = [(operand(conductor), operand(conductor)) for _ in range(MUL_OPERANDS)]
        out[f"cyclotomic.mul_us.c{conductor}"] = statistics.median(
            _per_op_us(lambda p: p[0] * p[1], pairs) for _ in range(OPERAND_REPEATS)
        )
    batches = [
        [operand(3) for _ in range(INVERSE_OPERANDS)] for _ in range(OPERAND_REPEATS)
    ]
    out["cyclotomic.inverse_us.c3"] = statistics.median(
        _per_op_us(lambda x: x.inverse(), batch) for batch in batches
    )
    return out


def traced_run(rg, workload, seed) -> dict:
    from tracer import Tracer, layer_metrics

    with Tracer() as tracer:
        groups = set_up(rg, workload.groups)
        first = len(tracer.spans)
        one = verify_pass(rg, groups, workload, seed)
    return {"pass": one, "layers": layer_metrics(tracer, first, one["seconds"])}


def main(argv) -> dict:
    spec = json.loads(argv[1])
    rg = _import_package(spec["src"])
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    if spec["mode"] == "traced":
        return traced_run(rg, workload, seed)

    with SpeedProbe() as probe:
        groups = set_up(rg, workload.groups)
    out = {"setup_s": probe.scaled_s(), "setup_wall_s": probe.wall_s}
    if spec["mode"] == "setup":
        return out

    out["pass"] = verify_pass(rg, groups, workload, seed)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.get("operands"):
        out["operands"] = operand_timings(rg, seed)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
