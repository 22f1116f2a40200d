"""Every demo script runs to completion against the package in src/, and
the tours that exercise the edge and orbit routines print pinned lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# what the tours of the edge and orbit routines print: the integrals,
# verdicts, failures and the degree-1 count are results, so a change to
# these lines is a change of result, not of route
PRINTED = {
    "hypergraph_tour": [
        "z4: 3 hyperedges",
        "  size 4  members (0, 1, 2, 3)  form x1  tau (1, -z, -1, z)",
        "  size 2  members (0, 2)  form x1  tau (1, -1)",
        "  size 2  members (1, 3)  form x1  tau (-z, z)",
        "",
        "random localized map is a member: True",
        "passes every edge: True",
        "",
        "integrating over the size-4 edge (0, 1, 2, 3):",
        "certified inverse, row 0: 1/4, 1/4, 1/4, 1/4",
        "  insertion 0: value 0",
        "  insertion 1: value 0",
        "  insertion 2: value 0",
        "  insertion 3: value 49/6*x1^4",
        "",
        "DOT export (first lines):",
        'graph "z4" {',
        "  node [shape=circle];",
        '  v0 [label="0"];',
        '  v1 [label="1"];',
        '  v2 [label="2"];',
        '  v3 [label="3"];',
    ],
    "operator_tour": [
        "F: (x1^2, (-z - 1)*x1^2, z*x1^2)",
        "member: True",
        "  weighted difference, power 1: (3*x1, 3*x1, 3*x1)",
        "  weighted difference, power 2: (0, 0, 0)",
        "decomposition reassembles F: True",
        "",
        "G: (x1, 2*x1, 3*x1)",
        "member: False",
        "  fails at reflection 1 power 2: divisible only to order 1",
        "  fails at reflection 2 power 2: divisible only to order 1",
        "",
        "degree-1 map space: pairwise conditions allow 3 dimensions,",
        "membership allows 2",
    ],
}


def _run(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    _run(demo)


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_demo_prints_its_pinned_lines(name):
    assert _run(ROOT / "demos" / f"{name}.py").splitlines() == PRINTED[name]
