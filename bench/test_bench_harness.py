"""Tests of the benchmark harness itself.

The tracer must leave the program exactly as it found it, the speed
probe must give back the interval timer and its signal, and the
smoke workload must emit every metric BENCHMARK.json names, with its
unit, in both modes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import reflect_gkm  # noqa: E402
from run import judge  # noqa: E402
from speed import SpeedProbe, kernel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, SMOKE, WORKLOADS  # noqa: E402


def _bindings() -> dict:
    """Every name bound in a reflect_gkm module or class namespace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("reflect_gkm") or mod is None:
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("reflect_gkm"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _z2_report() -> str:
    return reflect_gkm.run_suite("z2", dmax=2, trials=1, seed=0).to_json()


def test_tracer_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert tracer.patched
        for site, name, original in tracer.patched:
            assert getattr(site, name).__wrapped__ is original
        traced_report = _z2_report()
    assert tracer.spans and tracer.counts

    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []

    spans, counts = len(tracer.spans), dict(tracer.counts)
    assert _z2_report() == traced_report
    assert len(tracer.spans) == spans
    assert dict(tracer.counts) == counts


def _run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=150,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_workload_emits_every_metric(trace, section):
    proc = _run_bench(
        ["--workload", SMOKE, "--seed", str(DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace)],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(["--workload", SMOKE, "--seed", "0", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_samples_the_section_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            kernel()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit and roughly one sample per interval in between
    assert len(probe.samples) > 5
    assert 0.15 < probe.wall_s < 1.0
    assert 0 < probe.scaled_s() and probe.slowdown() > 0


def _pass(**kw):
    base = {"seconds": 1.0, "digest": "d", "pass": True, "attempted": 4, "failed": 0}
    return {**base, **kw}


def test_judge_counts_every_check_of_a_bad_pass_as_failed():
    workload = WORKLOADS[SMOKE]
    good = _pass(digest=workload.digest)
    assert judge([good], workload, DEFAULT_SEED) == (True, 4, 0)
    # a digest mismatch fails only at the default seed
    assert judge([_pass()], workload, DEFAULT_SEED) == (False, 4, 4)
    assert judge([_pass()], workload, DEFAULT_SEED + 1) == (True, 4, 0)
    assert judge([good, _pass(failed=1, **{"pass": False})], workload, 7) == (False, 8, 1)
    # a run with no checks is never a pass
    assert judge([_pass(attempted=0)], workload, 7) == (False, 1, 1)
