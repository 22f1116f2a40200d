"""Print every metric of every workload, with its unit.

    python3 bench/report.py

Runs bench/run.py for each workload at the default seed, untraced and
traced, from the root of a checkout, and prints one line per metric, plus
fail_ratio (failed checks over attempted checks) for each workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for name in WORKLOADS:
        if name == SMOKE:
            continue
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name:<16} trace {trace}: run failed (exit {proc.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                print(f"# {name}: {json.loads(lines[0])['environment']}")
            for metric, m in result["metrics"].items():
                print(f"{name:<16} {metric:<40} {m['value']:>14.6g} {m['unit']}")
            fail_ratio = result["failed"] / result["attempted"]
            print(
                f"{name:<16} {'fail_ratio (trace ' + str(trace) + ')':<40} "
                f"{fail_ratio:>14.6g} ratio  "
                f"({result['failed']}/{result['attempted']} checks, "
                f"correct={result['correct']})"
            )
            status = status or (not result["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
