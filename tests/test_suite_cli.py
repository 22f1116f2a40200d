"""End-to-end checks of the verification suite and the command line."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflect_gkm.cli import main
from reflect_gkm.suite import (
    NoPseudoReflections,
    NotReflectionGenerated,
    VerificationReport,
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


def test_report_json_round_trip():
    report = run_suite("z3", dmax=3, trials=2, seed=0, naive_control=True)
    blob = report.to_json()
    back = VerificationReport.from_json_dict(json.loads(blob))
    assert back == report
    assert back.to_json() == blob
    assert back.timings == {}


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
    code = (
        "from reflect_gkm.suite import run_suite; import sys; "
        "sys.stdout.write(run_suite('z3', dmax=3, trials=1).to_json())"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_suite("z3", dmax=3, trials=1).to_json()
    assert json.loads(proc.stdout)["pass"] is True


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


# ---------------------------------------------------------------------------
# command line


def test_cli_verify_theorem_passes(capsys):
    code = main(["verify", "theorem", "--group", "z2", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "1" in out and "2" in out


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
