"""The reflection hypergraph of a group and membership along its edges.

Vertices are the group elements.  Each hyperedge is a right orbit of a
pseudo-reflection s, carrying the reflecting hyperplane transported to the
orbit: every vertex rep.s^j sees the same normalized linear form (the
axial form of the edge) scaled by tau_j = c . lambda^j, where c is the
scale picked up at the representative and lambda is the eigenvalue of s on
its co-root.  Orbits of different powers of s coincide as vertex sets
exactly when the powers generate the same cyclic group, so edges are
deduplicated by (vertex set, hyperplane); proper powers with a smaller
orbit contribute their own shorter edges inside the long one.

A map on the vertices passes an edge when it interpolates along it with
polynomial coefficients: writing the values at the r vertices as

    F(p_j) = sum_i h_i . tau_j^i            (a scalar Vandermonde solve)

the requirement is that the axial form divides h_i to order i, making
g_i = h_i / axial^i a polynomial for every i.  Summing the interpolation
against the eigenvalue weights shows this is condition-for-condition the
same as the orbit-difference membership, which is what the verification
suite confirms on random maps.

The edge integral with insertion exponent k is the Lagrange sum

    sum_p F(p) tau(p)^k / prod_{q != p} (tau(p) - tau(q)),

a rational section with poles only along the axial form.  Collapsing the
scalar weights shows it equals g_{r-1-k}, so it is computed by two
independent routes (Lagrange scalars, eigenvalue-weighted orbit sums) and
compared; both carry the same axial power, so the numerators must agree.

The pairwise condition (adjacent values congruent modulo the axial form,
first order only) is kept as a deliberately weaker control: it agrees with
membership when every reflection has order two and is strictly larger
otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycNum
from .equivariant import GroupMap, condition_entries, scatter_conditions
from .groups import PseudoReflection, ReflectionGroup
from .linalg import mat_inv, rank
from .polynomials import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    graded_monomials,
    poly_text,
    weighted_sum,
)

__all__ = [
    "EdgeSection",
    "EdgeWitness",
    "HyperEdge",
    "Hypergraph",
    "build_hypergraph",
    "edge_integral",
    "edge_integral_weighted",
    "edge_quotients",
    "hypergraph_membership",
    "integral_identity",
    "pairwise_graded_dimension",
    "pairwise_membership",
    "section_polynomial",
    "to_dot",
    "to_json_dict",
]


@dataclass(frozen=True)
class HyperEdge:
    """One right orbit with its transported hyperplane data."""

    reflection: PseudoReflection
    members: tuple[int, ...]
    axial: LinearForm
    tau: tuple[CycNum, ...]

    @property
    def rep(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def vandermonde_inverse(self):
        """Inverse of the Vandermonde matrix [tau_j^i], computed on first
        use and kept on the edge."""
        r = self.size
        V = [[self.tau[j] ** i for i in range(r)] for j in range(r)]
        return mat_inv(V, self.axial.conductor)


@dataclass(frozen=True)
class Hypergraph:
    group: ReflectionGroup
    edges: tuple[HyperEdge, ...]
    by_vertex: tuple[tuple[int, ...], ...]

    def incident(self, vertex: int) -> tuple[HyperEdge, ...]:
        return tuple(self.edges[k] for k in self.by_vertex[vertex])


def build_hypergraph(group: ReflectionGroup) -> Hypergraph:
    edges = {}
    for s in group.reflections():
        for orbit in group.orbits(s):
            key = (frozenset(orbit.members), s.hyperplane)
            if key not in edges:
                edges[key] = HyperEdge(s, orbit.members, orbit.form, orbit.tau)
    ordered = tuple(edges.values())
    incidence = [[] for _ in range(group.order)]
    for k, e in enumerate(ordered):
        for v in e.members:
            incidence[v].append(k)
    return Hypergraph(group, ordered, tuple(tuple(v) for v in incidence))


# ---------------------------------------------------------------------------
# membership along edges


@dataclass
class EdgeWitness:
    """A failed edge: the first power whose interpolation coefficient the
    axial form does not divide, with the obstruction."""

    edge: HyperEdge
    power: int
    witness: NotDivisible


def edge_quotients(edge: HyperEdge, F: GroupMap):
    """Interpolate F along the edge and divide; the list of quotients
    g_i = h_i / axial^i, or an EdgeWitness at the first failure."""
    n, m = F.group.dimension, F.group.conductor
    values = [F.values[p] for p in edge.members]
    quotients = []
    for i, row in enumerate(edge.vandermonde_inverse):
        h = weighted_sum(zip(values, row), n, m)
        res = divide_by_linear_power(h, edge.axial, i)
        if isinstance(res, NotDivisible):
            return EdgeWitness(edge, i, res)
        quotients.append(res)
    return quotients


def hypergraph_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """Every failed edge of F; empty means F passes the hypergraph."""
    out = []
    for edge in H.edges:
        res = edge_quotients(edge, F)
        if isinstance(res, EdgeWitness):
            out.append(res)
    return out


def pairwise_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """The weaker control: adjacent values congruent modulo the axial form,
    first order only, reported in the same witness shape (power 1)."""
    out = []
    for edge in H.edges:
        hit = False
        for a in range(edge.size):
            if hit:
                break
            for b in range(a + 1, edge.size):
                diff = F.values[edge.members[a]] - F.values[edge.members[b]]
                res = divide_by_linear_power(diff, edge.axial, 1)
                if isinstance(res, NotDivisible):
                    out.append(EdgeWitness(edge, 1, res))
                    hit = True
                    break
    return out


def pairwise_graded_dimension(hyper: Hypergraph, d: int) -> int:
    """Dimension of the degree-d maps passing only the pairwise control:
    first-order divisibility of F(a) - F(b) for every pair on every edge."""
    group = hyper.group
    m = group.conductor
    nmono = len(graded_monomials(group.dimension, d))
    signs = (CycNum.one(m), -CycNum.one(m))
    rows = []
    for edge in hyper.edges:
        conditions = condition_entries(edge.axial, 1, d, signs)
        for a in range(edge.size):
            for b in range(a + 1, edge.size):
                pair = (edge.members[a], edge.members[b])
                rows.extend(scatter_conditions(conditions, pair, nmono))
    ncols = group.order * nmono
    zero = CycNum.zero(m)
    return ncols - rank([[row.get(j, zero) for j in range(ncols)] for row in rows])


# ---------------------------------------------------------------------------
# edge integrals


@dataclass(frozen=True)
class EdgeSection:
    """A rational section along an edge: poly / axial^power."""

    poly: MultiPoly
    power: int


def section_polynomial(section: EdgeSection, axial: LinearForm):
    """The section as a polynomial, or NotDivisible when it has a pole."""
    return divide_by_linear_power(section.poly, axial, section.power)


def _check_insertion(k: int):
    if k < 0:
        raise ValueError("insertion exponent must be nonnegative")


def edge_integral(edge: HyperEdge, F: GroupMap, k: int) -> EdgeSection:
    """Lagrange route: scalar weights tau_j^k / prod_{l != j}(tau_j - tau_l),
    summed against the vertex values.  The reciprocal product is the last
    row of the edge's Vandermonde inverse (the leading coefficient of the
    j-th Lagrange basis polynomial).  For k >= size - 1 the section power
    is nonpositive and the result is automatically polynomial."""
    _check_insertion(k)
    r = edge.size
    leading = edge.vandermonde_inverse[r - 1]
    pairs = (
        (F.values[x], t**k * lead) for x, t, lead in zip(edge.members, edge.tau, leading)
    )
    total = weighted_sum(pairs, F.group.dimension, F.group.conductor)
    return EdgeSection(total, r - 1 - k)


def edge_integral_weighted(edge: HyperEdge, F: GroupMap, k: int) -> EdgeSection:
    """Eigenvalue route: the lambda-weighted orbit sum of matching order,
    scaled back by the representative's transport factor."""
    _check_insertion(k)
    r = edge.size
    i = r - 1 - k
    w = edge.reflection.eigenvalue ** (-i)
    weight = edge.tau[0] ** (-i) / r
    pairs = []
    for x in edge.members:
        pairs.append((F.values[x], weight))
        weight = weight * w
    acc = weighted_sum(pairs, F.group.dimension, F.group.conductor)
    return EdgeSection(acc, i)


def integral_identity(edge: HyperEdge, F: GroupMap, k: int) -> bool:
    """Do the two routes agree as rational sections?  Both carry the power
    size - 1 - k, so equal sections have equal numerators."""
    return edge_integral(edge, F, k) == edge_integral_weighted(edge, F, k)


# ---------------------------------------------------------------------------
# exports


def to_json_dict(H: Hypergraph) -> dict:
    g = H.group
    return {
        "group": g.name,
        "vertices": list(range(g.order)),
        "edges": [
            {
                "members": list(e.members),
                "axial": poly_text(e.axial.as_poly(), names=g.variables),
                "reflection": e.reflection.element,
                "order": e.size,
                "tau": [t.text() for t in e.tau],
            }
            for e in H.edges
        ],
    }


def to_json(H: Hypergraph) -> str:
    return json.dumps(to_json_dict(H), indent=2, sort_keys=True)


def to_dot(H: Hypergraph) -> str:
    """Graphviz form: each hyperedge drawn as a clique labeled by its
    axial form (label carried by the first pair to keep the picture
    readable)."""
    g = H.group
    lines = [f'graph "{g.name}" {{', "  node [shape=circle];"]
    for x in range(g.order):
        lines.append(f'  v{x} [label="{x}"];')
    for e in H.edges:
        label = poly_text(e.axial.as_poly(), names=g.variables)
        first = True
        for a in range(e.size):
            for b in range(a + 1, e.size):
                attr = f' [label="{label}"]' if first else ""
                lines.append(f"  v{e.members[a]} -- v{e.members[b]}{attr};")
                first = False
    lines.append("}")
    return "\n".join(lines) + "\n"
