"""In-memory spans and call counters around reflect_gkm's public functions.

The program itself carries no instrumentation, so the tracer installs
wrappers from outside: each traced name is replaced in every loaded
``reflect_gkm`` module that binds it (modules import names directly, so
patching the defining module alone would miss most calls), and class
attributes are replaced on the class, aliases such as ``__rmul__ =
__mul__`` included.  ``Tracer.uninstall`` puts every original back.

Spans record (name, parent, start, end, note) and stay in memory until the
run ends.  The hottest scalar calls (CycNum and MultiPoly multiply, CycNum
inverse) get counters only: there are millions of them and a span each
would cost more than the call.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

PACKAGE = "reflect_gkm"

# (module, attribute path) of every function wrapped in a span; a span is
# named "module.path".
SPAN_TARGETS = (
    # the layers the per-layer metrics are read from
    ("linalg", "rref"),
    ("linalg", "mat_inv"),
    ("polynomials", "divide_by_linear_power"),
    ("groups", "ReflectionGroup.act_linear"),
    ("groups", "load_group"),
    ("invariants", "coinvariant_basis"),
    ("equivariant", "orbit_difference"),
    ("equivariant", "membership"),
    ("equivariant", "membership_basis"),
    ("localization", "image_graded_dimension"),
    ("localization", "localize"),
    ("hypergraph", "edge_quotients"),
    ("hypergraph", "integral_identity"),
    ("sampling", "random_nonmember"),
    # library entry points that run_suite calls directly
    ("sampling", "random_member"),
    ("hypergraph", "build_hypergraph"),
    ("hypergraph", "hypergraph_membership"),
    ("localization", "commutes_with_difference"),
)

COUNT_TARGETS = (
    ("cyclotomic", "CycNum.__mul__"),
    ("cyclotomic", "CycNum.inverse"),
    ("polynomials", "MultiPoly.__mul__"),
)


def _rref_cells(args, out):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


# What each span notes about its call: the matrix size for elimination, and
# which result type came back where a call can end in a witness.
NOTES = {
    "linalg.rref": _rref_cells,
    "polynomials.divide_by_linear_power": lambda args, out: type(out).__name__,
    "hypergraph.edge_quotients": lambda args, out: type(out).__name__,
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path inside a module."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if outer else getattr(owner, attr)
    return owner, attr, original


def _binding_sites(owner, original):
    """Every (namespace owner, name) that binds ``original``: all loaded
    package modules for a function, the class itself for a method."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in vars(owner).items() if v is original]
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for k, v in list(vars(mod).items()):
            if v is original:
                sites.append((mod, k))
    return sites


class Tracer:
    """Spans and counters for one traced run; a no-op until installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module(PACKAGE)  # loads every module that binds a name
        for targets, make in ((SPAN_TARGETS, self._span), (COUNT_TARGETS, self._counter)):
            for module, path in targets:
                owner, attr, original = _resolve(module, path)
                wrapped = make(f"{module}.{path}", original)
                for site, name in _binding_sites(owner, original):
                    self._patches.append((site, name, original))
                    setattr(site, name, wrapped)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# reading the spans


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (inclusive
    minus the time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for k, (name, parent, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[k]
    return out


def _inside(spans, k: int, ancestor: str) -> bool:
    parent = spans[k][1]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][1]
    return False


_NO_CALLS = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, first_verify_span: int, verify_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run.  Spans before
    ``first_verify_span`` belong to set-up; ``verify_s`` is the traced wall
    time of the verification calls that follow."""
    spans = tracer.spans
    totals = span_totals(spans)

    def get(name, key):
        return totals.get(name, _NO_CALLS)[key]

    def notes(name):
        return [s[4] for s in spans if s[0] == name]

    divide = notes("polynomials.divide_by_linear_power")
    edges = notes("hypergraph.edge_quotients")
    member_ms = sorted(
        (s[3] - s[2]) * 1e3 for s in spans if s[0] == "equivariant.membership"
    )
    if len(member_ms) >= 2:
        member_p50 = statistics.median(member_ms)
        member_p90 = statistics.quantiles(member_ms, n=10)[-1]
    else:
        member_p50 = member_p90 = member_ms[0] if member_ms else 0.0
    nonmember_memberships = sum(
        1
        for k, s in enumerate(spans)
        if s[0] == "equivariant.membership" and _inside(spans, k, "sampling.random_nonmember")
    )
    top_level = sum(
        s[3] - s[2] for s in spans[first_verify_span:] if s[1] < 0
    )
    counts = tracer.counts
    return {
        "cyclotomic.mul_calls": counts["cyclotomic.CycNum.__mul__"],
        "cyclotomic.inverse_calls": counts["cyclotomic.CycNum.inverse"],
        "linalg.rref_calls": get("linalg.rref", "calls"),
        "linalg.rref_self_s": get("linalg.rref", "self_s"),
        "linalg.rref_cells": sum(notes("linalg.rref")),
        "linalg.mat_inv_calls": get("linalg.mat_inv", "calls"),
        "polynomials.divide_calls": len(divide),
        "polynomials.divide_self_s": get("polynomials.divide_by_linear_power", "self_s"),
        "polynomials.notdivisible_ratio": _ratio(divide.count("NotDivisible"), len(divide)),
        "polynomials.mul_calls": counts["polynomials.MultiPoly.__mul__"],
        "groups.act_linear_calls": get("groups.ReflectionGroup.act_linear", "calls"),
        "groups.act_linear_self_s": get("groups.ReflectionGroup.act_linear", "self_s"),
        "groups.load_group_s": get("groups.load_group", "incl_s"),
        "invariants.coinvariant_basis_s": get("invariants.coinvariant_basis", "incl_s"),
        "equivariant.orbit_difference_calls": get("equivariant.orbit_difference", "calls"),
        "equivariant.orbit_difference_self_s": get("equivariant.orbit_difference", "self_s"),
        "equivariant.membership_calls": len(member_ms),
        "equivariant.membership_ms_p50": member_p50,
        "equivariant.membership_ms_p90": member_p90,
        "equivariant.membership_basis_s": get("equivariant.membership_basis", "incl_s"),
        "localization.image_graded_dimension_s": get("localization.image_graded_dimension", "incl_s"),
        "localization.localize_calls": get("localization.localize", "calls"),
        "hypergraph.edge_quotients_calls": len(edges),
        "hypergraph.edge_quotients_self_s": get("hypergraph.edge_quotients", "self_s"),
        "hypergraph.edge_witness_ratio": _ratio(edges.count("EdgeWitness"), len(edges)),
        "hypergraph.integral_identity_self_s": get("hypergraph.integral_identity", "self_s"),
        "sampling.nonmember_attempts_per_success": _ratio(
            nonmember_memberships, get("sampling.random_nonmember", "calls")
        ),
        "trace.coverage_ratio": _ratio(top_level, verify_s),
    }
