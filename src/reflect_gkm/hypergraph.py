"""The reflection hypergraph of a group and membership along its edges.

Vertices are the group elements.  Each hyperedge is a right orbit of a
pseudo-reflection s, carrying the reflecting hyperplane transported to the
orbit: every vertex rep.s^j sees the same normalized linear form (the
form of the edge) scaled by tau_j = c . lambda^j, where c is the scale
picked up at the representative and lambda is the eigenvalue of s on its
co-root.  That is the group's orbit record, so a hyperedge is the
groups.Orbit entry of ReflectionGroup.orbits(s) itself, which keeps its
Vandermonde inverse and integral weights.  Orbits of different powers of
s coincide as vertex sets exactly when the powers generate the same
cyclic group, so edges are deduplicated by (vertex set, hyperplane), the
first in reflections() order kept; proper powers with a smaller orbit
contribute their own shorter edges inside the long one.

A map on the vertices passes an edge when it interpolates along it with
polynomial coefficients: writing the values at the r vertices as

    F(p_j) = sum_i h_i . tau_j^i            (a scalar Vandermonde solve)

the requirement is that the edge's form divides h_i to order i, making
g_i = h_i / form^i a polynomial for every i.  The edge integral with
insertion exponent k is the Lagrange sum

    sum_p F(p) tau(p)^k / prod_{q != p} (tau(p) - tau(q)),

a rational section with poles only along the edge's form, of power
r - 1 - k.

One exact check proves, for every map, that passing the edges is
membership and that the integral is g_{r-1-k}.  Let c = tau_0, lambda
the eigenvalue of the edge's reflection s (a primitive r-th root of
unity), and D the matrix whose row i is the eigenvalue weights
c^-i lambda^-ij / r (Orbit.eigenvalue_weights(r - 1 - i)).
Orbit.vandermonde_inverse checks V . D = I exactly for V = [tau_j^i],
once per distinct tau, and raises GroupInvariantViolated naming the
edge's members and reflection when it fails.  W = [(c . lambda^j)^i]
has W . D = I (sum_i lambda^{i(j - l)} = r [j = l]), so V . D = I forces
V = W = D^-1, that is tau_j = c . lambda^j.  Then:

  (i) h_i = sum_j D[i][j] F(p_j) is c^-i / r times the order-i sum
      S_i = sum_j lambda^-ij F(rep . s^j), so form^i divides both or
      neither.  By the deduplication above, each coset x<s> of a
      hyperplane generator s is the edge of some s^k, gcd(k, e) = 1,
      whose sums reindex to s's own S_i, so passing the edges gives
      membership(F).ok; by the Fourier argument in the equivariant
      module docstring, a member's sums are divisible for every
      reflection, proper powers included, so it passes every edge.
  (ii) the last row of V^-1 is 1 / prod_{l != j}(tau_j - tau_l), so the
      Lagrange weights tau_j^k D[r-1][j] are c^-i lambda^-ij / r with
      i = r - 1 - k (lambda^r = 1 covers k >= r): the eigenvalue weights,
      for every k >= 0.  So edge_integral sums the eigenvalue weights
      against the values of F, and for k < r the integral is
      h_{r-1-k} / form^{r-1-k} = g_{r-1-k}: an edge's divisions are its
      integrals made polynomial.

The pairwise condition (adjacent values congruent modulo the form, first
order only) is kept as a deliberately weaker control: it agrees with
membership when every reflection has order two and is strictly larger
otherwise.  The JSON export keeps the key "axial" for the edge's form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .cyclotomic import CycNum
from .equivariant import GroupMap, condition_entries, scatter_conditions
from .groups import Orbit, ReflectionGroup
from .linalg import rank
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
    "Hypergraph",
    "build_hypergraph",
    "edge_integral",
    "edge_quotients",
    "edge_witness",
    "hypergraph_membership",
    "integral_identity",
    "pairwise_graded_dimension",
    "pairwise_membership",
    "section_polynomial",
    "to_dot",
    "to_json",
    "to_json_dict",
]


@dataclass(frozen=True)
class Hypergraph:
    group: ReflectionGroup
    edges: tuple[Orbit, ...]


def build_hypergraph(group: ReflectionGroup) -> Hypergraph:
    edges = {}
    for s in group.reflections():
        for orbit in group.orbits(s):
            edges.setdefault((frozenset(orbit.members), s.hyperplane), orbit)
    return Hypergraph(group, tuple(edges.values()))


# ---------------------------------------------------------------------------
# edge integrals


@dataclass(frozen=True)
class EdgeSection:
    """A rational section along an edge: poly / form^power."""

    poly: MultiPoly
    power: int


def section_polynomial(section: EdgeSection, form: LinearForm):
    """The section as a polynomial, or NotDivisible when it has a pole."""
    return divide_by_linear_power(section.poly, form, section.power)


def edge_integral(edge: Orbit, F: GroupMap, k: int) -> EdgeSection:
    """The Lagrange sum of F over the edge with insertion exponent k.  Once
    the edge is certified (GroupInvariantViolated if that fails), its
    Lagrange weights are its eigenvalue weights (module docstring, (ii)),
    and those are summed against the vertex values.  For k >= size - 1
    the section power is nonpositive: the result is a polynomial."""
    if k < 0:
        raise ValueError("insertion exponent must be nonnegative")
    edge.vandermonde_inverse  # certified once per tau, or raises
    pairs = zip((F.values[x] for x in edge.members), edge.eigenvalue_weights(k))
    total = weighted_sum(pairs, F.group.dimension, F.group.conductor)
    return EdgeSection(total, edge.size - 1 - k)


def integral_identity(edge: Orbit, F: GroupMap, k: int) -> bool:
    """Is edge_integral(edge, F, k) the Lagrange sum for every F?  The
    edge's certified Vandermonde inverse proves its weights are the
    Lagrange weights (module docstring, (ii)), so F is never summed: this
    certifies the edge and returns True, or raises GroupInvariantViolated
    when the certificate fails."""
    if k < 0:
        raise ValueError("insertion exponent must be nonnegative")
    edge.vandermonde_inverse  # certified once per tau, or raises
    return True


# ---------------------------------------------------------------------------
# membership along edges


@dataclass
class EdgeWitness:
    """A failed edge: the first power whose interpolation coefficient the
    edge's form does not divide, with the obstruction."""

    edge: Orbit
    power: int
    witness: NotDivisible


def _edge_divisions(edge: Orbit, F: GroupMap, orders: range):
    """(i, h_i / form^i, or NotDivisible) for each order i in turn: h_i is
    the integral with insertion size - 1 - i (module docstring, (ii))."""
    for i in orders:
        yield i, section_polynomial(edge_integral(edge, F, edge.size - 1 - i), edge.form)


def edge_quotients(edge: Orbit, F: GroupMap):
    """Interpolate F along the edge and divide; the list of quotients
    g_i = h_i / form^i, or an EdgeWitness at the first failure."""
    quotients = []
    for i, res in _edge_divisions(edge, F, range(edge.size)):
        if isinstance(res, NotDivisible):
            return EdgeWitness(edge, i, res)
        quotients.append(res)
    return quotients


def edge_witness(edge: Orbit, F: GroupMap) -> EdgeWitness | None:
    """The first failure of edge_quotients, or None; form^0 divides every
    h_0, so only the orders 1 .. size - 1 are interpolated and divided."""
    for i, res in _edge_divisions(edge, F, range(1, edge.size)):
        if isinstance(res, NotDivisible):
            return EdgeWitness(edge, i, res)
    return None


def hypergraph_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """Every failed edge of F; empty means F passes the hypergraph."""
    return [w for w in (edge_witness(edge, F) for edge in H.edges) if w]


def pairwise_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """The weaker control: adjacent values congruent modulo the edge's
    form, first order only, reported in the same witness shape (power 1)."""
    out = []
    for edge in H.edges:
        for a, b in combinations(edge.members, 2):
            res = divide_by_linear_power(F.values[a] - F.values[b], edge.form, 1)
            if isinstance(res, NotDivisible):
                out.append(EdgeWitness(edge, 1, res))
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
        conditions = condition_entries(edge.form, 1, d, signs)
        for pair in combinations(edge.members, 2):
            rows.extend(scatter_conditions(conditions, pair, nmono))
    ncols = group.order * nmono
    zero = CycNum.zero(m)
    return ncols - rank([[row.get(j, zero) for j in range(ncols)] for row in rows])


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
                "axial": poly_text(e.form.as_poly(), names=g.variables),
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
    form (label carried by the first pair to keep the picture readable)."""
    g = H.group
    lines = [f'graph "{g.name}" {{', "  node [shape=circle];"]
    for x in range(g.order):
        lines.append(f'  v{x} [label="{x}"];')
    for e in H.edges:
        label = poly_text(e.form.as_poly(), names=g.variables)
        first = True
        for a in range(e.size):
            for b in range(a + 1, e.size):
                attr = f' [label="{label}"]' if first else ""
                lines.append(f"  v{e.members[a]} -- v{e.members[b]}{attr};")
                first = False
    lines.append("}")
    return "\n".join(lines) + "\n"
