"""End-to-end checks of the verification suite and the command line."""

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from reflect_gkm.cli import main
from reflect_gkm.suite import (
    NoPseudoReflections,
    NotReflectionGenerated,
    run_suite,
)

MINUS_IDENTITY = {
    "name": "center2",
    "dimension": 2,
    "conductor": 1,
    "variables": ["x1", "x2"],
    "generators": [["-1", "0", "0", "-1"]],
}


# ---------------------------------------------------------------------------
# run_suite


def test_z2_dimension_rows():
    report = run_suite("z2", dmax=4, trials=2, seed=0)
    assert [(r.predicted, r.image, r.nullspace) for r in report.rows] == [
        (1, 1, 1),
        (2, 2, 2),
        (2, 2, 2),
        (2, 2, 2),
        (2, 2, 2),
    ]
    assert report.ok


def test_s3_dimension_rows():
    report = run_suite("s3", dmax=4, trials=2, seed=0, sections=("theorem",))
    assert [r.predicted for r in report.rows] == [1, 4, 9, 15, 21]
    assert all(r.ok for r in report.rows)


def test_report_byte_identical_across_runs():
    a = run_suite("z3", dmax=3, trials=4, seed=11)
    b = run_suite("z3", dmax=3, trials=4, seed=11)
    assert a.to_json() == b.to_json()
    # a different seed really does change the sampled data, not the verdict
    c = run_suite("z3", dmax=3, trials=4, seed=12)
    assert c.ok and c.to_json() != ""


def test_run_suite_rejects_negative_bounds():
    with pytest.raises(ValueError):
        run_suite("z3", dmax=-1, trials=1)
    with pytest.raises(ValueError):
        run_suite("z3", dmax=2, trials=-1)


def test_run_suite_rejects_unknown_sections():
    # before any work: the group name is not even looked up
    for sections in (("bogus",), ("Theorem",), ("theorem", "lemma"), "theorem"):
        with pytest.raises(ValueError, match="sections"):
            run_suite("nosuch", trials=1, sections=sections)


def test_a_run_without_checks_never_passes():
    report = run_suite("z2", trials=1, sections=())
    assert not report.ok
    assert json.loads(report.to_json())["pass"] is False


def test_report_unchanged_under_optimized_python():
    # python -O strips assert statements; every guard must still hold
    # s3 has transported co-roots with denominator 2, so its verdicts take
    # the scaled branch of the integer Horner steps
    code = (
        "from reflect_gkm.suite import run_suite; import sys; "
        "sys.stdout.write(run_suite('z3', dmax=3, trials=1).to_json()); "
        "sys.stdout.write(run_suite('s3', dmax=3, trials=1).to_json())"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    z3 = run_suite("z3", dmax=3, trials=1).to_json()
    s3 = run_suite("s3", dmax=3, trials=1).to_json()
    assert proc.stdout == z3 + s3
    assert json.loads(z3)["pass"] is True
    assert json.loads(s3)["pass"] is True


def test_naive_control_differs_for_order_three():
    report = run_suite("z3", dmax=3, trials=2, seed=0, naive_control=True,
                       sections=("lemmas",))
    control = report.control
    assert control.pairwise[1] == 3
    assert control.membership[1] == 2
    assert not control.agrees and not control.all_order_two
    assert control.ok and report.ok


def test_naive_control_agrees_for_order_two():
    report = run_suite("z2", dmax=3, trials=2, seed=0, naive_control=True,
                       sections=("lemmas",))
    control = report.control
    assert control.agrees and control.all_order_two and control.ok


def test_naive_control_builds_the_hypergraph_once(monkeypatch):
    import reflect_gkm.hypergraph as hypergraph_module
    import reflect_gkm.suite as suite_module

    calls = []
    original = hypergraph_module.build_hypergraph

    def counting(group):
        calls.append(group.name)
        return original(group)

    monkeypatch.setattr(suite_module, "build_hypergraph", counting)
    monkeypatch.setattr(hypergraph_module, "build_hypergraph", counting)
    run_suite("z3", dmax=3, trials=1, sections=("theorem",), naive_control=True)
    assert calls == ["z3"]


# sha256 of run_suite(name, dmax=3, trials=1).to_json(), recorded before the
# scalar layer moved to integer numerators; any change to report bytes fails
REPORT_DIGESTS = {
    "z2": "00c88cb4090e00d71ad352ac238d8c596810964023a54455e62972ed49babfa8",
    "z3": "2c621e1bc7552fad65d8fe42094d6a70b249262a323722f4d244def21a5e8efc",
    "z4": "b3a58c47eaa55536647e341ac0077e1d3553ed00c039136b0f4992040c95d0f3",
    "s3": "708421222dbd059ebc0873328934647d79f3ec7b96710289591d833c1912620e",
    "b2": "4a9e7c71a10cb908a9bdfd1a4dcdae0d9d724d38fb4c93b31b43752f6f918d77",
    "g312": "4ac439352d1282cf5e87bfb2d724d17a12052198e0843a8cd6d4502190a281ef",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(name):
    blob = run_suite(name, dmax=3, trials=1).to_json()
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_DIGESTS[name]


# sha256 of run_suite on the 1 x 1 group [["z"]] at conductor m, every
# section, trials=3, recorded before numerator_dot_products reduced once
# per key: phi(5) = phi(8) = 4, so these reach its phi > 2 branch through
# every verdict, which no bundled group does
CYCLIC_DIGESTS = {
    5: "8d7dbd6547798da573ea4c1fa556208639c08d3dc8902c4fb564d5a7cda8e176",
    8: "63ce238cd1d76d65257466ab54a976694017e2298cf0f15dfda9dabe5ba66aee",
}


@pytest.mark.parametrize("m", sorted(CYCLIC_DIGESTS))
def test_report_bytes_are_pinned_past_quadratic_fields(m, tmp_path):
    path = tmp_path / f"z{m}.json"
    group = {"name": f"z{m}", "dimension": 1, "conductor": m, "variables": ["x"]}
    path.write_text(json.dumps(dict(group, generators=[["z"]])))
    report = run_suite(str(path), trials=3)
    assert report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == CYCLIC_DIGESTS[m]


def test_lemma_runner_bytes_are_pinned():
    # no gated benchmark workload runs the lemma runners, so their report
    # is pinned here, to the lemmas-g312 workload's seed-0 digest
    blob = run_suite("g312", sections=("lemmas",), trials=11, seed=0).to_json()
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "2e2fbd8d34e2d8f24f770546b6dad6f8a0bb8864acc4d323887506c08c229bd6"
    )


def test_refuses_group_not_generated_by_reflections(tmp_path):
    path = tmp_path / "center2.json"
    path.write_text(json.dumps(MINUS_IDENTITY))
    with pytest.raises(NotReflectionGenerated):
        run_suite(str(path), dmax=2, trials=1)


def test_lemma_sections_pass_everywhere_small():
    for name in ("z2", "z3", "z4"):
        report = run_suite(name, dmax=3, trials=2, seed=3)
        assert report.ok, report.text()
        assert {r.name for r in report.lemmas} == {
            "constant_maps",
            "action_closure",
            "orbit_decomposition",
            "leibniz",
            "localization_commutes",
            "operator_closure",
        }
        assert report.hypergraph is not None and report.hypergraph.ok


# (checks, failures) of localized_members, the six lemmas in report order and
# hypergraph_equivalence, at dmax=1, trials=2, seed=0, with one operator
# broken: orbit_difference fails every order-1 difference, or membership
# flips every verdict.  Recorded before the suite counted in one place.
FAULT_COUNTS = {
    ("orbit_difference", "z3"):
        [(2, 0), (5, 2), (14, 4), (4, 4), (12, 12), (8, 0), (8, 4), (10, 0)],
    ("orbit_difference", "s3"):
        [(2, 0), (4, 3), (18, 6), (6, 6), (12, 12), (6, 0), (6, 6), (42, 0)],
    ("orbit_difference", "g312"):
        [(2, 0), (12, 7), (58, 14), (14, 14), (36, 36), (22, 0), (22, 14), (162, 0)],
    ("membership", "z3"):
        [(2, 2), (5, 1), (14, 6), (4, 0), (12, 0), (8, 0), (8, 8), (10, 6)],
    ("membership", "s3"):
        [(2, 2), (4, 1), (18, 12), (6, 0), (12, 0), (6, 0), (6, 6), (42, 6)],
    ("membership", "g312"):
        [(2, 2), (12, 1), (58, 36), (14, 0), (36, 0), (22, 0), (22, 22), (162, 6)],
}


@pytest.mark.parametrize("fault, name", sorted(FAULT_COUNTS))
def test_failure_counts_are_pinned(fault, name, monkeypatch):
    import reflect_gkm.suite as suite_module
    from reflect_gkm.equivariant import MembershipCertificate

    original = getattr(suite_module, fault)

    def broken_difference(group, s, i, F):
        if i == 1:
            return MembershipCertificate(False, failures=[])
        return original(group, s, i, F)

    def flipped_membership(F):
        return MembershipCertificate(not original(F).ok)

    broken = broken_difference if fault == "orbit_difference" else flipped_membership
    monkeypatch.setattr(suite_module, fault, broken)
    report = run_suite(name, dmax=1, trials=2, seed=0)
    results = (report.image_members, *report.lemmas, report.hypergraph)
    assert [(r.trials, r.failures) for r in results] == FAULT_COUNTS[fault, name]
    assert not report.ok


# ---------------------------------------------------------------------------
# command line


def test_cli_verify_theorem_passes(capsys):
    code = main(["verify", "theorem", "--group", "z2", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "1" in out and "2" in out


def test_cli_marks_a_failed_members_check(capsys):
    # no member trials: every row agrees, and the members line says what failed
    code = main([
        "verify", "theorem", "--group", "z3", "--trials", "0", "--max-degree", "0",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "  localized members: 0 trials, 0 failures  FAIL\n" in out
    assert out.endswith("overall: FAIL\n")


def test_cli_verify_lemmas_naive_control(capsys):
    code = main([
        "verify", "lemmas", "--group", "z3",
        "--trials", "2", "--max-degree", "3", "--naive-control",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "differ" in out
    assert "[1, 3, 3, 3]" in out and "[1, 2, 3, 3]" in out


def test_cli_json_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main([
        "verify", "theorem", "--group", "z2",
        "--trials", "2", "--json", str(target),
    ])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["pass"] is True
    assert [r["predicted"] for r in data["theorem"]["rows"]] == [1, 2, 2, 2, 2]


def test_cli_json_report_to_stdout(capsys):
    code = main(["verify", "theorem", "--group", "z2", "--trials", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "z2" and data["pass"] is True


def test_cli_member_exit_codes(tmp_path, capsys):
    import random

    from reflect_gkm.equivariant import dump_group_map
    from reflect_gkm.groups import load_group
    from reflect_gkm.sampling import random_member, random_nonmember

    g = load_group("z3")
    rng = random.Random(2)
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(json.dumps(dump_group_map(random_member(rng, g))))
    bad.write_text(json.dumps(dump_group_map(random_nonmember(rng, g))))

    assert main(["member", "--group", "z3", "--input", str(good)]) == 0
    assert "member" in capsys.readouterr().out
    assert main(["member", "--group", "z3", "--input", str(bad)]) == 1
    assert "NOT a member" in capsys.readouterr().out
    assert main(["hypergraph", "member", "--group", "z3", "--input", str(good)]) == 0
    capsys.readouterr()


# random_nonmember(random.Random(3), g312): a constant map bumped by x1 at
# element 17.  Its witnesses come out of the orbit and edge loops, so their
# order and valuations pin how those loops walk the cosets.
G312_NONMEMBER = {
    "group": "g312",
    "values": {
        str(x): "49/6*x1^2*x2^2" + (" + x1" if x == 17 else "") for x in range(18)
    },
}


def _pinned(rows, keys):
    return [dict(zip(keys, row)) for row in rows]


def test_cli_member_payload_is_pinned(tmp_path, capsys):
    path = tmp_path / "nonmember.json"
    path.write_text(json.dumps(G312_NONMEMBER))
    assert main(["member", "--group", "g312", "--input", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "group": "g312",
        "input": str(path),
        "member": False,
        "failures": _pinned(
            [(13, 1, 2, 1), (14, 2, 1, 0), (13, 3, 2, 1), (3, 9, 1, 0), (3, 9, 2, 0),
             (4, 10, 1, 0), (5, 11, 1, 0), (3, 13, 1, 0), (3, 13, 2, 0)],
            ("element", "reflection", "power", "valuation"),
        ),
    }


def test_cli_hypergraph_member_payload_is_pinned(tmp_path, capsys):
    path = tmp_path / "nonmember.json"
    path.write_text(json.dumps(G312_NONMEMBER))
    argv = ["hypergraph", "member", "--group", "g312", "--input", str(path), "--json"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "group": "g312",
        "input": str(path),
        "check": "edges",
        "member": False,
        "failures": _pinned(
            [([13, 16, 17], 1, 2, 1), ([14, 17], 2, 1, 0), ([3, 15, 17], 9, 1, 0),
             ([4, 17], 10, 1, 0), ([5, 17], 11, 1, 0)],
            ("edge", "reflection", "power", "valuation"),
        ),
    }


def test_zero_trials_never_pass(capsys):
    assert not run_suite("z2", trials=0, sections=("lemmas", "hypergraph")).ok
    assert not run_suite("z2", dmax=2, trials=0, sections=("theorem",)).ok
    assert main(["verify", "lemmas", "--group", "z2", "--trials", "0"]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out and "PASS" not in out


def test_cli_usage_errors(capsys):
    assert main(["verify", "theorem", "--group", "nosuch"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["member", "--group", "z2", "--input", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_cli_repeated_map_index_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"values": {"0": "x1", "00": "0", "1": "-x1"}}))
    assert main(["member", "--group", "z2", "--input", str(path)]) == 2
    assert "'00'" in capsys.readouterr().err


def test_cli_zero_denominator_is_a_usage_error(tmp_path, capsys):
    bad_map = tmp_path / "map.json"
    bad_map.write_text(json.dumps({"values": {"0": "1/0*x1"}}))
    assert main(["member", "--group", "z3", "--input", str(bad_map)]) == 2
    assert "zero denominator" in capsys.readouterr().err
    bad_group = tmp_path / "group.json"
    bad_group.write_text(json.dumps({**MINUS_IDENTITY, "generators": [["1/0", "0", "0", "1"]]}))
    assert main(["group", "info", "--group", str(bad_group)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_cli_empty_factor_is_a_usage_error(tmp_path, capsys):
    # x1**2 once parsed as 2*x1, which z3 reports as a non-member
    bad_map = tmp_path / "map.json"
    bad_map.write_text(json.dumps({"values": {"0": "x1**2"}}))
    assert main(["member", "--group", "z3", "--input", str(bad_map)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty factor in 'x1**2'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["group", "info", "--group", "{path}"], ["member", "--group", "z3", "--input", "{path}"]],
    ids=["group-info", "member"],
)
def test_cli_non_utf8_file_is_a_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main([a.format(path=bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}: ")
    assert "utf-8" in captured.err


CYCLIC2 = {**MINUS_IDENTITY, "name": "c2", "dimension": 1, "variables": ["x1"],
           "generators": [["-1"]]}


@pytest.mark.parametrize(
    "command, text, message",
    [
        # past Python's digit limit for int(), json.loads raises ValueError
        ("group", json.dumps(CYCLIC2)[:-1] + ', "cap": ' + "9" * 5000 + "}", "invalid JSON"),
        ("member", '{"values": {"0": ' + "1" * 5000 + "}}", "invalid JSON"),
        # past the recursion limit, json.loads raises RecursionError
        ("group", "[" * 1000 + "]" * 1000, "invalid JSON"),
        ("member", '{"values": ' + "[" * 1000 + "]" * 1000 + "}", "invalid JSON"),
        # a key longer than the largest index never reaches int()
        ("member", json.dumps({"values": {"1" * 5000: "x1"}}), "index of 5000 digits"),
        # and a literal nested past the recursion limit
        (
            "group",
            json.dumps({**CYCLIC2, "generators": [["(" * 1000 + "-1" + ")" * 1000]]}),
            "generator 0: parentheses nested too deeply",
        ),
        (
            "member",
            json.dumps({"values": {"0": "(" * 1000 + "1" + ")" * 1000 + "*x1"}}),
            "value at index 0: parentheses nested too deeply",
        ),
    ],
    ids=["group-digits", "map-digits", "group-depth", "map-depth", "map-key", "group-literal",
         "map-literal"],
)
def test_cli_malformed_file_is_a_usage_error(command, text, message, tmp_path, capsys):
    path = tmp_path / "file.json"
    path.write_text(text)
    argv = (
        ["group", "info", "--group", str(path)]
        if command == "group"
        else ["member", "--group", "z3", "--input", str(path)]
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    if message == "invalid JSON":
        assert line.startswith(f"error: {path}: ")


def test_cli_conductor_above_the_cap_is_refused_at_once(tmp_path):
    # in a fresh process with a wall budget: a run past it fails the test
    # instead of hanging it.  The cap is fixed: a "cap" key in the file is
    # ignored like any key outside the schema, so it cannot raise the cap
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; from reflect_gkm.cli import main; sys.exit(main(sys.argv[1:]))"
    for extra in ({}, {"cap": 1000000}):
        path = tmp_path / "zbig.json"
        path.write_text(json.dumps({**CYCLIC2, "name": "zbig", "conductor": 100000,
                                    "generators": [["z"]], **extra}))
        proc = subprocess.run(
            [sys.executable, "-c", code, "group", "info", "--group", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: conductor 100000 exceeds the closure cap 10000")


def _over_budget(signum, frame):
    raise TimeoutError("past the wall-clock budget")


def test_cli_member_reads_a_coordinate_power_off_its_exponent(tmp_path, capsys):
    # z3's hyperplane is the coordinate x1, so x1^100000000 is a member by
    # its exponent alone, with no Horner step per power of x1.  The budget
    # is an interval timer in this process: a run past it raises instead
    # of hanging the suite
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"values": {"0": "x1^100000000"}}))
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["member", "--group", "z3", "--input", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert "member (all divisibility conditions hold)" in capsys.readouterr().out


def test_cli_member_lists_coordinate_failures_of_a_huge_degree(tmp_path):
    # the failure lists divide by a coordinate form x_p off the exponents,
    # and take a power-1 witness on any other form (b2's x1 - x2 and
    # x1 + x2) from the verdict's restriction to the hyperplane, so
    # x1^100000000 + 1 is listed at once in a fresh process with a 1.5 GB
    # address space and a wall budget: dividing with one Horner slice per
    # power of x1 would run out of memory instead
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"values": {"0": "x1^100000000 + 1"}}))
    src = Path(__file__).resolve().parents[1] / "src"
    limit = 1500000 * 1024

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "reflect_gkm", *argv, "--input", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1 and proc.stderr == ""
        return proc.stdout.splitlines()[1:]

    assert run("member", "--group", "z3") == [
        f"  coset of element 0, reflection {s}, power {i}: divisible only to order 0"
        for s in (1, 2)
        for i in (1, 2)
    ]
    b2 = (1, 2, 5, 6)
    assert run("member", "--group", "b2") == [
        f"  coset of element 0, reflection {s}, power 1: divisible only to order 0" for s in b2
    ]
    edges = [f"  edge [0, {s}] (reflection {s}), power 1: divisible only to order 0" for s in b2]
    assert run("hypergraph", "member", "--group", "b2") == edges
    assert run("hypergraph", "member", "--group", "b2", "--naive") == edges


def test_python_dash_m_runs_the_command_line(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["group", "info", "--group", "z2"]
    proc = subprocess.run(
        [sys.executable, "-m", "reflect_gkm", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 == main(argv)
    assert proc.stdout == capsys.readouterr().out


def test_cli_unreadable_and_unwritable_paths(tmp_path, capsys):
    assert main(["group", "info", "--group", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err
    missing = tmp_path / "missing"
    argv = ["hypergraph", "export", "--group", "z2", "--format", "dot",
            "--out", str(missing / "x.dot")]
    assert main(argv) == 2
    assert "cannot write" in capsys.readouterr().err
    argv = ["verify", "theorem", "--group", "z2", "--max-degree", "1", "--trials", "1",
            "--json", str(missing / "r.json")]
    assert main(argv) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_verify_checks_the_json_path_before_running(tmp_path, monkeypatch, capsys):
    import reflect_gkm.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("run_suite started before the output path was checked")

    monkeypatch.setattr(cli_module, "run_suite", refuse)
    for path, reason in ((tmp_path / "missing" / "r.json", "no directory"),
                         (tmp_path, "it is a directory")):
        argv = ["verify", "theorem", "--group", "g312", "--json", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {path}: " in err and reason in err


@pytest.mark.parametrize("bounds", [
    ["--max-degree", "-1", "--trials", "0"],
    ["--max-degree", "2", "--trials", "-1"],
])
@pytest.mark.parametrize("section", ["theorem", "lemmas"])
def test_cli_verify_rejects_negative_bounds(section, bounds, capsys):
    code = main(["verify", section, "--group", "s3", *bounds])
    captured = capsys.readouterr()
    assert code == 2
    assert "must be nonnegative" in captured.err
    assert "PASS" not in captured.out


def test_cli_refusal_without_force(tmp_path, capsys):
    path = tmp_path / "center2.json"
    path.write_text(json.dumps(MINUS_IDENTITY))
    code = main(["verify", "theorem", "--group", str(path), "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not generated by pseudo-reflections" in err


def test_cli_verify_has_no_force_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem", "--group", "s3", "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_cli_hypergraph_export(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main([
        "hypergraph", "export", "--group", "z4", "--format", "dot",
        "--out", str(dot),
    ]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("graph")

    assert main(["hypergraph", "export", "--group", "z3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] == "z3" and len(data["edges"]) == 1


def test_cli_group_info_json(capsys):
    assert main(["group", "info", "--group", "g312", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 18
    assert data["reflections"] == 7
    assert data["degrees"] == [3, 6]


# two groups that their pseudo-reflections do not generate: z * id over
# Q(zeta_3), with none, and <diag(-1, 1, 1), -I>, with one
SCALAR3 = {
    "name": "scalar3",
    "dimension": 2,
    "conductor": 3,
    "variables": ["x1", "x2"],
    "generators": [["z", "0", "0", "z"]],
}
MIRROR3 = {
    "name": "mirror3",
    "dimension": 3,
    "conductor": 1,
    "variables": ["x1", "x2", "x3"],
    "generators": [
        ["-1", "0", "0", "0", "1", "0", "0", "0", "1"],
        ["-1", "0", "0", "0", "-1", "0", "0", "0", "-1"],
    ],
}


@pytest.mark.parametrize("data, order, nrefl", [(SCALAR3, 3, 0), (MIRROR3, 4, 1)])
def test_cli_group_info_without_degrees_is_pinned(data, order, nrefl, tmp_path, capsys):
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    n, m = data["dimension"], data["conductor"]
    assert main(["group", "info", "--group", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"group {data['name']}: order {order}, dimension {n}, conductor {m}\n"
        f"  variables: {', '.join(data['variables'])}\n"
        f"  pseudo-reflections: {nrefl}\n"
        "  generated by reflections: False\n"
        "  fundamental degrees: none (invariants not polynomial)\n"
    )
    assert main(["group", "info", "--group", str(path), "--json"]) == 0
    payload = {
        "conductor": m,
        "degrees": None,
        "dimension": n,
        "generated_by_reflections": False,
        "name": data["name"],
        "order": order,
        "reflections": nrefl,
        "variables": data["variables"],
    }
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
    assert main(["coinvariants", "--group", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: group {data['name']!r} is not generated by its pseudo-reflections, "
        "so its invariant ring is not polynomial\n"
    )


@pytest.mark.parametrize("data", [MINUS_IDENTITY, MIRROR3])
def test_refusal_names_no_way_round_it(data, tmp_path, capsys):
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    for section in ("theorem", "lemmas", "hypergraph"):
        with pytest.raises(NotReflectionGenerated) as exc:
            run_suite(str(path), dmax=2, trials=1, sections=(section,))
        assert "force" not in str(exc.value)
    assert main(["verify", "theorem", "--group", str(path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "not generated by pseudo-reflections" in err and "force" not in err


# (degrees, invariant dimensions up to the default max degree) of the
# molien command; the bundled groups' degrees are the Molien series' own
# factors, and the rest have no degrees
MOLIEN_ROWS = {
    "z2": ([2], [1, 0, 1, 0, 1]),
    "z3": ([3], [1, 0, 0, 1, 0, 0]),
    "z4": ([4], [1, 0, 0, 0, 1, 0, 0]),
    "s3": ([2, 3], [1, 0, 1, 1, 1, 1, 2]),
    "b2": ([2, 4], [1, 0, 1, 0, 2, 0, 2, 0]),
    "g312": ([3, 6], [1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0]),
    "scalar3": (None, [1, 0, 0, 4, 0, 0, 7, 0, 0]),
    "mirror3": (None, [1, 0, 4, 0, 9, 0, 16, 0, 25]),
    "center2": (None, [1, 0, 3, 0, 5, 0, 7, 0, 9]),
}


@pytest.mark.parametrize("name", MOLIEN_ROWS)
def test_cli_molien_is_pinned(name, tmp_path, capsys):
    data = {"scalar3": SCALAR3, "mirror3": MIRROR3, "center2": MINUS_IDENTITY}.get(name)
    source = name
    if data is not None:
        source = str(tmp_path / f"{name}.json")
        Path(source).write_text(json.dumps(data))
    degrees, coeffs = MOLIEN_ROWS[name]
    kind = f"fundamental degrees: {degrees}" if degrees else "invariant ring is not polynomial"
    series = " ".join(f"{d}:{c}" for d, c in enumerate(coeffs))
    assert main(["molien", "--group", source]) == 0
    assert capsys.readouterr().out == (
        f"group {name}: invariant dimensions by degree\n  {kind}\n  {series}\n"
    )
    assert main(["molien", "--group", source, "--json"]) == 0
    payload = {"coefficients": coeffs, "degrees": degrees, "group": name}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
    assert main(["group", "info", "--group", source, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["degrees"] == degrees


def test_cli_molien_text(capsys):
    assert main(["molien", "--group", "z3"]) == 0
    out = capsys.readouterr().out
    assert "0:1" in out and "3:1" in out and "1:0" in out


def test_cli_coinvariants_below_the_top_degree(capsys):
    assert main(["coinvariants", "--group", "z4", "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "group z4: coinvariant algebra, top degree 3 (showing up to 1)",
        "  degree 0 (dim 1): 1",
        "  degree 1 (dim 1): x1",
    ]
    assert main(["coinvariants", "--group", "s3", "--max-degree", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["top_degree"] == 3
    assert data["histogram"] == [1, 2, 2]
    assert data["lifts"] == {"0": ["1"], "1": ["x1", "x2"], "2": ["x1^2", "x1*x2"]}


def test_group_without_reflections_refuses_the_hypergraph_section(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({**MINUS_IDENTITY, "generators": [["1", "0", "0", "1"]]}))
    assert main(["verify", "theorem", "--group", str(path), "--trials", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "lemmas", "--group", str(path), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no pseudo-reflections" in captured.err
    assert captured.out == ""
    with pytest.raises(NoPseudoReflections):
        run_suite(str(path), trials=1, sections=("hypergraph",))
