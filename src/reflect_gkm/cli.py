"""Command-line front end.

Exit status: 0 when the requested check passes (or the command is purely
informational), 1 when a verification or membership check fails, 2 for
usage errors and unreadable inputs.

Every subcommand takes --group, which accepts a bundled name (z2, z3, z4,
s3, b2, g312) or a path to a JSON group file.  --json with no argument
writes the machine-readable report to stdout; --json PATH writes it to
PATH and keeps the human summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .equivariant import MapFileError, load_group_map, membership
from .groups import (
    CapExceeded,
    GroupFileError,
    NotPolynomialInvariantRing,
    SingularGenerator,
    bundled_names,
    load_group,
)
from .hypergraph import (
    build_hypergraph,
    hypergraph_membership,
    pairwise_membership,
    to_dot,
    to_json,
)
from .invariants import coinvariant_basis
from .polynomials import poly_text
from .suite import (
    NoPseudoReflections,
    NotReflectionGenerated,
    default_max_degree,
    run_suite,
)

USAGE_ERROR = 2


class UsageError(Exception):
    """A command-line value is out of range, or an output path cannot be
    written."""


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any work is
    done for it."""
    target = Path(path)
    if target.is_dir():
        reason = "it is a directory"
    elif not target.parent.is_dir():
        reason = f"no directory {target.parent}"
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write {path}: {reason}")


def _add_group_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--group",
        required=True,
        metavar="NAME_OR_PATH",
        help=f"bundled group name ({', '.join(bundled_names())}) or JSON file",
    )


def _add_json_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="emit a JSON report (to PATH if given, else stdout)",
    )


def _emit(args, payload: dict, human: str) -> None:
    if args.json is True:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if args.json:
        _write(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(human)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflect-gkm",
        description="exact verification of equivariant coinvariant algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="inspect a group")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    info = gsub.add_parser("info", help="order, degrees, conductor")
    _add_group_arg(info)
    _add_json_arg(info)
    refl = gsub.add_parser("reflections", help="list pseudo-reflections")
    _add_group_arg(refl)
    _add_json_arg(refl)

    molien = sub.add_parser("molien", help="invariant dimension series")
    _add_group_arg(molien)
    molien.add_argument("--max-degree", type=int, default=None, metavar="D")
    _add_json_arg(molien)

    coinv = sub.add_parser("coinvariants", help="standard monomial lifts")
    _add_group_arg(coinv)
    coinv.add_argument("--max-degree", type=int, default=None, metavar="D")
    _add_json_arg(coinv)

    member = sub.add_parser("member", help="orbit membership of a map file")
    _add_group_arg(member)
    member.add_argument("--input", required=True, metavar="F.json")
    _add_json_arg(member)

    verify = sub.add_parser("verify", help="run verification suites")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    for name, blurb in (
        ("theorem", "graded dimension comparison"),
        ("lemmas", "operator identity suites"),
    ):
        vp = vsub.add_parser(name, help=blurb)
        _add_group_arg(vp)
        vp.add_argument("--max-degree", type=int, default=None, metavar="D")
        vp.add_argument("--trials", type=int, default=100, metavar="N")
        vp.add_argument("--seed", type=int, default=0, metavar="S")
        if name == "lemmas":
            vp.add_argument("--naive-control", action="store_true",
                            help="compare against pairwise first-power divisibility")
        _add_json_arg(vp)

    hyper = sub.add_parser("hypergraph", help="edge structure and membership")
    hsub = hyper.add_subparsers(dest="subcommand", required=True)
    hexp = hsub.add_parser("export", help="write the hypergraph")
    _add_group_arg(hexp)
    hexp.add_argument("--format", choices=("dot", "json"), required=True)
    hexp.add_argument("--out", default=None, metavar="PATH")
    hmem = hsub.add_parser("member", help="edge-by-edge membership of a map file")
    _add_group_arg(hmem)
    hmem.add_argument("--input", required=True, metavar="F.json")
    hmem.add_argument("--naive", action="store_true",
                      help="check first-power pairwise differences only")
    _add_json_arg(hmem)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the process exit status


def _degrees_or_none(g) -> list | None:
    try:
        return list(g.fundamental_degrees())
    except NotPolynomialInvariantRing:
        return None


def _cmd_group_info(args) -> int:
    g = load_group(args.group)
    refl = g.reflections()
    degrees = _degrees_or_none(g)
    payload = {
        "name": g.name,
        "dimension": g.dimension,
        "conductor": g.conductor,
        "variables": g.variables,
        "order": g.order,
        "reflections": len(refl),
        "generated_by_reflections": g.generated_by_reflections(),
        "degrees": degrees,
    }
    lines = [
        f"group {g.name}: order {g.order}, dimension {g.dimension}, "
        f"conductor {g.conductor}",
        f"  variables: {', '.join(g.variables)}",
        f"  pseudo-reflections: {len(refl)}",
        f"  generated by reflections: {g.generated_by_reflections()}",
        "  fundamental degrees: "
        + (str(degrees) if degrees is not None else "none (invariants not polynomial)"),
    ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_group_reflections(args) -> int:
    g = load_group(args.group)
    rows = []
    for s in g.reflections():
        rows.append(
            {
                "element": s.element,
                "order": s.order,
                "eigenvalue": s.eigenvalue.text(),
                "coroot": poly_text(s.coroot.as_poly(), names=g.variables),
                "hyperplane": s.hyperplane,
            }
        )
    payload = {"group": g.name, "reflections": rows}
    lines = [f"group {g.name}: {len(rows)} pseudo-reflections"]
    for r in rows:
        lines.append(
            f"  element {r['element']:>3}  order {r['order']}  "
            f"eigenvalue {r['eigenvalue']:<12}  hyperplane {r['hyperplane']}  "
            f"coroot {r['coroot']}"
        )
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _default_dmax(g, given: int | None) -> int:
    if given is not None:
        if given < 0:
            raise UsageError("--max-degree must be nonnegative")
        return given
    try:
        return default_max_degree(g)
    except NotPolynomialInvariantRing:
        return 8


def _cmd_molien(args) -> int:
    g = load_group(args.group)
    dmax = _default_dmax(g, args.max_degree)
    degrees = _degrees_or_none(g)
    coeffs = g.molien().coefficients(dmax)
    payload = {"group": g.name, "degrees": degrees, "coefficients": coeffs}
    lines = [f"group {g.name}: invariant dimensions by degree"]
    if degrees is not None:
        lines.append(f"  fundamental degrees: {degrees}")
    else:
        lines.append("  invariant ring is not polynomial")
    lines.append("  " + " ".join(f"{d}:{c}" for d, c in enumerate(coeffs)))
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_coinvariants(args) -> int:
    g = load_group(args.group)
    top = sum(d - 1 for d in g.fundamental_degrees())
    dmax = min(_default_dmax(g, args.max_degree), top)
    basis = coinvariant_basis(g)
    by_degree: dict[int, list[str]] = {}
    for lift, d in zip(basis.lifts, basis.degrees):
        by_degree.setdefault(d, []).append(poly_text(lift, names=g.variables))
    payload = {
        "group": g.name,
        "top_degree": top,
        "histogram": [len(by_degree.get(d, [])) for d in range(dmax + 1)],
        "lifts": {str(d): by_degree.get(d, []) for d in range(dmax + 1)},
    }
    lines = [
        f"group {g.name}: coinvariant algebra, top degree {top}"
        + (f" (showing up to {dmax})" if dmax < top else "")
    ]
    for d in range(dmax + 1):
        mons = by_degree.get(d, [])
        lines.append(f"  degree {d} (dim {len(mons)}): {', '.join(mons)}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_member(args) -> int:
    g = load_group(args.group)
    F = load_group_map(args.input, g)
    cert = membership(F)
    payload = {
        "group": g.name,
        "input": args.input,
        "member": cert.ok,
        "failures": [
            {
                "element": f.element,
                "reflection": f.reflection.element,
                "power": f.power,
                "valuation": f.witness.valuation,
            }
            for f in cert.failures
        ],
    }
    if cert.ok:
        human = f"{args.input}: member (all divisibility conditions hold)\n"
    else:
        lines = [f"{args.input}: NOT a member ({len(cert.failures)} failing conditions)"]
        for f in cert.failures:
            lines.append(
                f"  coset of element {f.element}, reflection {f.reflection.element}, "
                f"power {f.power}: divisible only to order {f.witness.valuation}"
            )
        human = "\n".join(lines) + "\n"
    _emit(args, payload, human)
    return 0 if cert.ok else 1


def _cmd_verify(args) -> int:
    sections = ("theorem",) if args.subcommand == "theorem" else ("lemmas", "hypergraph")
    if args.trials < 0:
        raise UsageError("--trials must be nonnegative")
    g = load_group(args.group)
    report = run_suite(
        g,
        dmax=_default_dmax(g, args.max_degree),
        trials=args.trials,
        seed=args.seed,
        naive_control=getattr(args, "naive_control", False),
        sections=sections,
    )
    _emit(args, report.to_json_dict(), report.text())
    return 0 if report.ok else 1


def _cmd_hypergraph_export(args) -> int:
    g = load_group(args.group)
    H = build_hypergraph(g)
    text = to_dot(H) if args.format == "dot" else to_json(H)
    if args.out:
        _write(args.out, text)
        sys.stdout.write(
            f"wrote {args.format} hypergraph for {g.name} "
            f"({len(H.edges)} edges) to {args.out}\n"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_hypergraph_member(args) -> int:
    g = load_group(args.group)
    F = load_group_map(args.input, g)
    H = build_hypergraph(g)
    witnesses = pairwise_membership(H, F) if args.naive else hypergraph_membership(H, F)
    kind = "pairwise differences" if args.naive else "edge interpolation"
    payload = {
        "group": g.name,
        "input": args.input,
        "check": "pairwise" if args.naive else "edges",
        "member": not witnesses,
        "failures": [
            {
                "edge": list(w.edge.members),
                "reflection": w.edge.reflection.element,
                "power": w.power,
                "valuation": w.witness.valuation,
            }
            for w in witnesses
        ],
    }
    if not witnesses:
        human = f"{args.input}: passes {kind} on all {len(H.edges)} edges\n"
    else:
        lines = [f"{args.input}: fails {kind} on {len(witnesses)} edges"]
        for w in witnesses:
            lines.append(
                f"  edge {list(w.edge.members)} (reflection {w.edge.reflection.element}), "
                f"power {w.power}: divisible only to order {w.witness.valuation}"
            )
        human = "\n".join(lines) + "\n"
    _emit(args, payload, human)
    return 0 if not witnesses else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        ("group", "info"): _cmd_group_info,
        ("group", "reflections"): _cmd_group_reflections,
        ("molien", None): _cmd_molien,
        ("coinvariants", None): _cmd_coinvariants,
        ("member", None): _cmd_member,
        ("verify", "theorem"): _cmd_verify,
        ("verify", "lemmas"): _cmd_verify,
        ("hypergraph", "export"): _cmd_hypergraph_export,
        ("hypergraph", "member"): _cmd_hypergraph_member,
    }
    key = (args.command, getattr(args, "subcommand", None))
    try:
        for path in (getattr(args, "json", None), getattr(args, "out", None)):
            if isinstance(path, str):
                _check_writable(path)
        return handlers[key](args)
    except (
        GroupFileError,
        MapFileError,
        SingularGenerator,
        CapExceeded,
        NotPolynomialInvariantRing,
        NoPseudoReflections,
        NotReflectionGenerated,
        UsageError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
