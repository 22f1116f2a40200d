"""The verification suite: graded dimension comparison plus property checks.

run_suite drives everything the library claims about a group, in three
sections.  The theorem section compares, degree by degree, the predicted
dimension of the localized image against its actual rank and against the
divisibility nullspace, and spot-checks that localizations of random
tensors pass membership.  The lemma section exercises the operator
identities on seeded random data: constants, the right action with its
conjugation twist, orbit decomposition, the product rule, commutation with
localization, and closure of the operators on members.  The hypergraph
section certifies each edge's Vandermonde inverse, which proves that edge
interpolation agrees with orbit membership and that the edge integral is
the Lagrange sum on every map; it counts each edge's identity, read once,
for every sampled map and checks membership on members and on perturbed
non-members alike.

Each check runner yields one outcome per check, and one tally turns an
outcome stream into its count of checks and failures.  Reports are
deterministic: every runner draws from a child generator labelled with
the suite seed and the name it reports under, so a fixed (group, dmax,
trials, seed) reproduces the same JSON byte for byte.  Wall-clock timings
are collected for the human-readable rendering only and never enter the
JSON.

The optional pairwise control computes the graded dimensions cut out by
the classical adjacent-difference condition alone.  It is expected to
match the true dimensions exactly when every reflection has order two and
to overshoot somewhere when higher orders are present; the control passes
when that pattern holds.  The true dimensions are the nullspace column of
the theorem rows, from one DimensionTriples if that section did not run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from .equivariant import GroupMap, coroot_map, membership, orbit_difference
from .groups import NotPolynomialInvariantRing, ReflectionGroup, load_group
from .hypergraph import build_hypergraph, integral_identity, pairwise_graded_dimension
from .localization import DimensionTriples, commutes_with_difference
from .sampling import random_member, random_nonmember, random_tensor

__all__ = [
    "ControlResult",
    "DegreeRow",
    "LemmaResult",
    "NoPseudoReflections",
    "NotReflectionGenerated",
    "VerificationReport",
    "default_max_degree",
    "run_suite",
]

ALL_SECTIONS = ("theorem", "lemmas", "hypergraph")


class NotReflectionGenerated(Exception):
    """The group is not generated by its pseudo-reflections, so it has no
    fundamental degrees (Chevalley-Shephard-Todd) and the claims under test
    do not apply."""


class NoPseudoReflections(Exception):
    """The group has no pseudo-reflections, so every map is a member and the
    hypergraph section has no non-member to test."""


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    predicted: int
    image: int
    nullspace: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.image == self.nullspace


@dataclass(frozen=True)
class LemmaResult:
    name: str
    trials: int
    failures: int

    @property
    def ok(self) -> bool:
        # zero checks prove nothing, so they never pass
        return self.failures == 0 and self.trials > 0


@dataclass(frozen=True)
class ControlResult:
    pairwise: tuple[int, ...]
    membership: tuple[int, ...]
    all_order_two: bool

    @property
    def agrees(self) -> bool:
        return self.pairwise == self.membership

    @property
    def ok(self) -> bool:
        # never undershoot; match exactly iff no reflection of higher order
        if any(p < m for p, m in zip(self.pairwise, self.membership)):
            return False
        return self.agrees == self.all_order_two


@dataclass
class VerificationReport:
    group: str
    order: int
    degrees: tuple[int, ...]
    dmax: int
    trials: int
    seed: int
    rows: tuple[DegreeRow, ...] = ()
    image_members: LemmaResult | None = None
    lemmas: tuple[LemmaResult, ...] = ()
    hypergraph: LemmaResult | None = None
    control: ControlResult | None = None
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        parts = [row.ok for row in self.rows]
        parts += [r.ok for r in self.lemmas]
        for extra in (self.image_members, self.hypergraph, self.control):
            if extra is not None:
                parts.append(extra.ok)
        # a report without a single check proves nothing
        return bool(parts) and all(parts)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "group": self.group,
            "order": self.order,
            "degrees": list(self.degrees),
            "dmax": self.dmax,
            "trials": self.trials,
            "seed": self.seed,
            "pass": self.ok,
            "theorem": None,
            "lemmas": [
                {"name": r.name, "trials": r.trials, "failures": r.failures, "ok": r.ok}
                for r in self.lemmas
            ],
            "hypergraph": None,
            "control": None,
        }
        if self.rows:
            out["theorem"] = {
                "rows": [
                    {
                        "degree": r.degree,
                        "predicted": r.predicted,
                        "image": r.image,
                        "nullspace": r.nullspace,
                        "ok": r.ok,
                    }
                    for r in self.rows
                ],
                "members": None
                if self.image_members is None
                else {
                    "trials": self.image_members.trials,
                    "failures": self.image_members.failures,
                },
                "ok": all(r.ok for r in self.rows)
                and (self.image_members is None or self.image_members.ok),
            }
        if self.hypergraph is not None:
            h = self.hypergraph
            out["hypergraph"] = {
                "trials": h.trials,
                "failures": h.failures,
                "ok": h.ok,
            }
        if self.control is not None:
            c = self.control
            out["control"] = {
                "pairwise": list(c.pairwise),
                "membership": list(c.membership),
                "agrees": c.agrees,
                "all_order_two": c.all_order_two,
                "ok": c.ok,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def text(self) -> str:
        lines = [
            f"group {self.group}: order {self.order}, "
            f"degrees {list(self.degrees)}, dmax {self.dmax}, "
            f"trials {self.trials}, seed {self.seed}"
        ]
        if self.rows:
            lines.append("  degree  predicted  image  nullspace")
            for r in self.rows:
                mark = "ok" if r.ok else "MISMATCH"
                lines.append(
                    f"  {r.degree:>6}  {r.predicted:>9}  {r.image:>5}  "
                    f"{r.nullspace:>9}  {mark}"
                )
            if self.image_members is not None:
                m = self.image_members
                mark = "ok" if m.ok else "FAIL"
                lines.append(
                    f"  localized members: {m.trials} trials, "
                    f"{m.failures} failures  {mark}"
                )
        for r in self.lemmas:
            mark = "ok" if r.ok else "FAIL"
            lines.append(f"  {r.name}: {r.trials} checks, {r.failures} failures  {mark}")
        if self.hypergraph is not None:
            h = self.hypergraph
            mark = "ok" if h.ok else "FAIL"
            lines.append(
                f"  hypergraph equivalence: {h.trials} checks, "
                f"{h.failures} failures  {mark}"
            )
        if self.control is not None:
            c = self.control
            mark = "ok" if c.ok else "FAIL"
            lines.append(
                f"  pairwise control: dims {list(c.pairwise)} vs "
                f"{list(c.membership)} ({'agree' if c.agrees else 'differ'})  {mark}"
            )
        for name, secs in sorted(self.timings.items()):
            lines.append(f"  time {name}: {secs:.2f}s")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# check runners: each yields one outcome per check, True when it held


def _tally(name: str, outcomes) -> LemmaResult:
    """One check per outcome, one failure per False outcome."""
    verdicts = list(outcomes)
    return LemmaResult(name, len(verdicts), sum(not ok for ok in verdicts))


def _localized_members(group: ReflectionGroup, rng: random.Random, trials: int):
    for _ in range(trials):
        yield membership(random_member(rng, group)).ok


def _constant_maps(group: ReflectionGroup, rng: random.Random, trials: int):
    one = GroupMap.constant(group, 1)
    for s in group.reflections():
        for i in range(1, s.order):
            out = orbit_difference(group, s, i, one)
            yield isinstance(out, GroupMap) and not out
    yield membership(one).ok


def _action_closure(group: ReflectionGroup, rng: random.Random, trials: int):
    refl = group.reflections()
    for _ in range(trials):
        F = random_member(rng, group)
        for w in range(group.order):
            yield membership(F.act(w)).ok
        w = rng.randrange(group.order)
        Fw = F.act(w)
        for s in refl:
            c, conj = group.conjugate_reflection(s, w)
            for i in range(1, s.order):
                lhs = orbit_difference(group, s, i, Fw)
                rhs = orbit_difference(group, conj, i, F)
                yield (
                    isinstance(lhs, GroupMap)
                    and isinstance(rhs, GroupMap)
                    and lhs == rhs.act(w) * c ** (-i)
                )


def _orbit_decomposition(group: ReflectionGroup, rng: random.Random, trials: int):
    coroots = {s.element: coroot_map(group, s) for s in group.reflections()}
    for _ in range(trials):
        F = random_member(rng, group)
        for s in group.reflections():
            parts = [orbit_difference(group, s, j, F) for j in range(s.order)]
            if not all(isinstance(p, GroupMap) for p in parts):
                yield False
                continue
            # sum_j part_j * L^j by Horner's rule
            L = coroots[s.element]
            rebuilt = GroupMap.zero(group)
            for part in reversed(parts):
                rebuilt = rebuilt * L + part
            yield rebuilt / s.order == F


def _leibniz(group: ReflectionGroup, rng: random.Random, trials: int):
    # the product of the order-a and order-b parts carries L^(a + b - i),
    # and a + b - i is 0, or r exactly when a > i
    wraps = {s.element: coroot_map(group, s) ** s.order for s in group.reflections()}
    for _ in range(trials):
        F = random_member(rng, group, max_degree=3)
        G = random_member(rng, group, max_degree=3)
        FG = F * G
        for s in group.reflections():
            r, Lr = s.order, wraps[s.element]
            ops_F = [orbit_difference(group, s, a, F) for a in range(r)]
            ops_G = [orbit_difference(group, s, a, G) for a in range(r)]
            if not all(isinstance(p, GroupMap) for p in ops_F + ops_G):
                # every one of the r identities at s is left unproved
                yield from [False] * r
                continue
            for i in range(r):
                lhs = orbit_difference(group, s, i, FG)
                rhs = GroupMap.zero(group)
                for a in range(r):
                    term = ops_F[a] * ops_G[(i - a) % r]
                    rhs = rhs + (term * Lr if a > i else term)
                yield isinstance(lhs, GroupMap) and lhs == rhs / r


def _localization_commutes(group: ReflectionGroup, rng: random.Random, trials: int):
    for _ in range(trials):
        T = random_tensor(rng, group, max_summands=1)
        for s in group.reflections():
            for i in range(1, s.order):
                yield commutes_with_difference(group, s, i, T)


def _operator_closure(group: ReflectionGroup, rng: random.Random, trials: int):
    for _ in range(trials):
        F = random_member(rng, group)
        for s in group.reflections():
            for i in range(1, s.order):
                out = orbit_difference(group, s, i, F)
                yield (
                    isinstance(out, GroupMap)
                    and out.act(s.element) == out
                    and membership(out).ok
                )


def _hypergraph_equivalence(group: ReflectionGroup, rng: random.Random, trials: int):
    H = build_hypergraph(group)
    # each certified Vandermonde inverse makes the edge verdict the orbit
    # verdict and proves the integral identity for every map (hypergraph
    # docstring): it is read once per edge and counted for each map
    zero = GroupMap.zero(group)
    identities = [all(integral_identity(e, zero, k) for k in range(e.size)) for e in H.edges]
    for _ in range(trials):
        member = random_member(rng, group)
        nonmember = random_nonmember(rng, group)
        for F, expect in ((member, True), (nonmember, False)):
            edges_ok = membership(F).ok
            if expect:
                member_edges_ok = edges_ok
            yield edges_ok == expect
            yield from identities
        # interpolation succeeds edge by edge exactly where membership says
        yield member_edges_ok


_LEMMAS = (
    ("constant_maps", _constant_maps),
    ("action_closure", _action_closure),
    ("orbit_decomposition", _orbit_decomposition),
    ("leibniz", _leibniz),
    ("localization_commutes", _localization_commutes),
    ("operator_closure", _operator_closure),
)


# ---------------------------------------------------------------------------
# the suite


def default_max_degree(group: ReflectionGroup) -> int:
    return sum(d - 1 for d in group.fundamental_degrees()) + 3


def run_suite(
    group,
    dmax: int | None = None,
    trials: int = 100,
    seed: int = 0,
    naive_control: bool = False,
    sections=ALL_SECTIONS,
) -> VerificationReport:
    unknown = [s for s in sections if s not in ALL_SECTIONS]
    if unknown:
        raise ValueError(f"unknown sections {unknown}; choose from {list(ALL_SECTIONS)}")
    if (dmax is not None and dmax < 0) or trials < 0:
        raise ValueError(f"dmax and trials must be nonnegative, got {dmax} and {trials}")
    if not isinstance(group, ReflectionGroup):
        group = load_group(group)
    try:
        degrees = group.fundamental_degrees()
    except NotPolynomialInvariantRing:
        raise NotReflectionGenerated(
            f"group {group.name!r} is not generated by pseudo-reflections; "
            "the verified claims do not apply"
        ) from None
    if "hypergraph" in sections and not group.reflections():
        raise NoPseudoReflections(
            f"group {group.name!r} has no pseudo-reflections, so no map is a non-member"
        )
    if dmax is None:
        dmax = default_max_degree(group)
    timings: dict[str, float] = {}

    def run(name, runner) -> LemmaResult:
        # the child generator is labelled with the reported name
        return _tally(name, runner(group, random.Random(f"{seed}:{name}"), trials))

    rows: tuple[DegreeRow, ...] = ()
    image_members = None
    if "theorem" in sections:
        t0 = time.perf_counter()
        triples = DimensionTriples(group)
        rows = tuple(DegreeRow(d, *triples.triple(d)) for d in range(dmax + 1))

        image_members = run("localized_members", _localized_members)
        timings["theorem"] = time.perf_counter() - t0

    lemmas: tuple[LemmaResult, ...] = ()
    if "lemmas" in sections:
        t0 = time.perf_counter()
        lemmas = tuple(run(name, runner) for name, runner in _LEMMAS)
        timings["lemmas"] = time.perf_counter() - t0

    hyper = None
    if "hypergraph" in sections:
        t0 = time.perf_counter()
        hyper = run("hypergraph_equivalence", _hypergraph_equivalence)
        timings["hypergraph"] = time.perf_counter() - t0

    control = None
    if naive_control:
        t0 = time.perf_counter()
        if rows:
            member_dims = tuple(r.nullspace for r in rows)
        else:
            triples = DimensionTriples(group)
            member_dims = tuple(triples.triple(d)[2] for d in range(dmax + 1))
        H = build_hypergraph(group)
        pairwise = tuple(pairwise_graded_dimension(H, d) for d in range(dmax + 1))
        all2 = all(s.order == 2 for s in group.reflections())
        control = ControlResult(pairwise, member_dims, all2)
        timings["control"] = time.perf_counter() - t0

    return VerificationReport(
        group=group.name,
        order=group.order,
        degrees=tuple(degrees),
        dmax=dmax,
        trials=trials,
        seed=seed,
        rows=rows,
        image_members=image_members,
        lemmas=lemmas,
        hypergraph=hyper,
        control=control,
        timings=timings,
    )
