"""The benchmark's workloads and the report digests that gate them.

Each workload is one or more ``run_suite`` calls, one per group, with the
benchmark seed passed through.  The digest is the sha256 of the
concatenated ``report.to_json()`` texts at ``DEFAULT_SEED``, recorded when
the benchmark was added.  Reports are deterministic for a fixed (group,
dmax, trials, seed), so any other bytes mean a changed report.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
SMOKE = "smoke-z3"


@dataclass(frozen=True)
class Workload:
    groups: tuple[str, ...]
    sections: tuple[str, ...]
    trials: int
    digest: str
    dmax: int | None = None  # None: the group's default bound


WORKLOADS = {
    # Degree rows 0-8 of g312: exact elimination on the image and
    # divisibility matrices dominates.
    "theorem-g312": Workload(
        groups=("g312",),
        sections=("theorem",),
        trials=5,
        dmax=8,
        digest="8ce61b674c73a5798469b353a1609decbff2b54419d6b241484191f5085d2fe3",
    ),
    # The operator identities on g312: orbit differences, the linear
    # action and exact division on members only, with no elimination.
    "lemmas-g312": Workload(
        groups=("g312",),
        sections=("lemmas",),
        trials=11,
        digest="2e2fbd8d34e2d8f24f770546b6dad6f8a0bb8864acc4d323887506c08c229bd6",
    ),
    # Edge interpolation against orbit membership on every bundled group
    # (conductors 1 to 4); half the maps are non-members, so membership
    # also takes its early-exit witness path.
    "hypergraph-all": Workload(
        groups=("z2", "z3", "z4", "s3", "b2", "g312"),
        sections=("hypergraph",),
        trials=24,
        digest="2fc7fe5b945b8f936fa615860056cb76778536772bb82a0dc20f8def1aa93ebf",
    ),
    # A few seconds of everything on z3, for the harness's own tests.
    SMOKE: Workload(
        groups=("z3",),
        sections=("theorem", "lemmas", "hypergraph"),
        trials=1,
        dmax=3,
        digest="2c621e1bc7552fad65d8fe42094d6a70b249262a323722f4d244def21a5e8efc",
    ),
}
