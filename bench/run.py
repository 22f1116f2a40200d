"""Benchmark of reflect_gkm's time to verdict.

Run from the root of a source checkout:

    python3 bench/run.py --workload theorem-g312 --seed 0 --seconds 40 --trace 0

Every measurement runs in a fresh child process (bench/child.py), one at a
time, with the package imported from ./src, PYTHONHASHSEED fixed and
REFLECT_GKM_THREADS removed, so the program runs single-threaded.

--trace 0 reports the end-to-end metrics: set-up time (median over
SETUP_SAMPLES fresh processes), verification time (median time of one pass
of run_suite calls, each pass in its own fresh child, with children started
while the next should end within --seconds) and the verifying children's
median peak RSS.  Both times are in reference seconds (speed.py): wall time
scaled by the host's speed while it was measured, which the shared host
varies by a third or more.  The samples behind each median, wall times and
slowdowns included, are printed on the line before the result.  --trace 1 reports the per-layer metrics: one
untraced pass and one traced pass, each in its own child, plus timings of
CycNum arithmetic on frozen operands.

Every report is checked: at the default seed its bytes must match the
digest recorded in workloads.py; at any other seed it must pass.  A crash,
a digest mismatch or a run with no checks counts every check as failed.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15  # fresh processes whose set-up time is the median
DEADLINE_S = 170  # the whole run ends within this


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REFLECT_GKM_THREADS", "PYTHONPATH", "PYTHONHASHSEED")
    }
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, root: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=root,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {spec['mode']} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise ChildFailed(f"child {spec['mode']} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"child {spec['mode']} printed no result") from None


def environment(root: Path) -> dict:
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "unknown",
    }


def judge(passes: list[dict], workload, seed: int) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every verification pass.  A pass
    with no checks, or whose report bytes differ from the recorded digest,
    counts every check as failed."""
    correct, attempted, failed = True, 0, 0
    for p in passes:
        checks = max(p["attempted"], 1)
        broken = p["attempted"] == 0 or (
            seed == DEFAULT_SEED and p["digest"] != workload.digest
        )
        attempted += checks
        failed += checks if broken else p["failed"]
        correct = correct and not broken and p["pass"] and p["failed"] == 0
    return correct, attempted, failed


def measure(args, root: Path) -> tuple[dict, list[dict], dict]:
    """(metric values, verification passes, raw samples) of one run."""
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": args.workload, "seed": args.seed, "src": str(root / "src")}
    if args.trace:
        plain = run_child({**base, "mode": "verify", "operands": True}, root, deadline)
        traced = run_child({**base, "mode": "traced"}, root, deadline)
        values = dict(traced["layers"])
        values.update(plain["operands"])
        values["trace.overhead_ratio"] = (
            traced["pass"]["scaled_s"] / plain["pass"]["scaled_s"]
        )
        return values, [plain["pass"], traced["pass"]], {}

    def set_up_once():
        return run_child({**base, "mode": "setup"}, root, deadline)

    # Set-up samples come before and after the verifying children, so that
    # they span the run rather than one moment of it.  Each verifying child
    # times one pass from cold caches; another starts only while it should
    # end within --seconds.
    setups = [set_up_once() for _ in range(SETUP_SAMPLES // 2)]
    children, took = [], []
    start = time.monotonic()
    while not took or time.monotonic() - start + statistics.median(took) <= args.seconds:
        t0 = time.monotonic()
        children.append(run_child({**base, "mode": "verify"}, root, deadline))
        took.append(time.monotonic() - t0)
    setups += children
    setups += [set_up_once() for _ in range(SETUP_SAMPLES - len(setups))]
    passes = [c["pass"] for c in children]
    samples = {
        "setup_s": [c["setup_s"] for c in setups],
        "verify_s": [p["scaled_s"] for p in passes],
        "peak_rss_mb": [c["maxrss_kb"] / 1024 for c in children],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    samples["setup_wall_s"] = [c["setup_wall_s"] for c in setups]
    samples["verify_wall_s"] = [p["seconds"] for p in passes]
    samples["verify_slowdown"] = [p["slowdown"] for p in passes]
    return values, passes, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "reflect_gkm" / "__init__.py").is_file():
        print(
            "bench/run.py: no src/reflect_gkm here; run it from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(root)}))

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        values, passes, samples = measure(args, root)
    except ChildFailed as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if samples:
        print(json.dumps({"samples": samples}))
    correct, attempted, failed = judge(passes, workload, args.seed)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
