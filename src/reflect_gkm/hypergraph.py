"""The reflection hypergraph of a group and membership along its edges.

Vertices are the group elements.  Each hyperedge is a right coset x<s>
of a pseudo-reflection s, the groups.Orbit record in
ReflectionGroup.orbits(s) itself: vertex j, rep.s^j, sees the edge's
normalized form scaled by tau_j = c . lambda^j, c the scale picked up at
the representative and lambda the eigenvalue of s on its co-root.  Orbits
of powers of s coincide as vertex sets exactly when the powers generate
the same cyclic group, so edges are deduplicated by (vertex set,
hyperplane), the first in reflections() order kept; proper powers with a
smaller orbit contribute shorter edges inside the long one.

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
unity), and D the matrix with row i = c^-i lambda^-ij / r, built from the
pieces the edge sums read, Orbit.inverse_scale_power(i) / r and
s.weights(i).  Orbit.vandermonde_inverse checks V . D = I exactly for
V = [tau_j^i], once per distinct tau, or raises GroupInvariantViolated
naming the edge's members and reflection.  W = [(c . lambda^j)^i] has
W . D = I (sum_i lambda^{i(j - l)} = r [j = l]), so V . D = I forces
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
      i = r - 1 - k, for every k >= 0 (S_i reads i mod r): the integral
      is c^-i / r times S_i, h_i for k < r, and g_i once divided.

So an edge is an orbit: the edge routines run the orbit computation of
the equivariant module on F.numerators(), and build no value of F.
edge_witness decides each order with _sum_divides, as membership
decides a coset, and divides only a failing one, by the failures list's
routine.  The pairwise condition (adjacent values congruent modulo the
form, first order only) is a weaker control, on differences of
numerators: it is membership when every reflection has order two and
strictly larger otherwise.  The JSON export keeps the key "axial" for
the edge's form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .cyclotomic import CycNum, numerator_dot_products
from .equivariant import GroupMap, condition_entries, scatter_conditions
from .equivariant import _coset_failure, _orbit_sum, _polynomial, _witness
from .groups import Orbit, ReflectionGroup
from .linalg import rank
from .polynomials import MultiPoly, NotDivisible, divide_numerators, graded_monomials, poly_text

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


def edge_integral(edge: Orbit, F: GroupMap, k: int) -> EdgeSection:
    """The Lagrange sum of F over the edge with insertion exponent k: once
    the edge is certified (or GroupInvariantViolated), scale^-i / size
    times the orbit sum S_i over form^i, i = size - 1 - k (module
    docstring, (ii)); i <= 0, k >= size - 1, makes it a polynomial."""
    if k < 0:
        raise ValueError("insertion exponent must be nonnegative")
    edge.vandermonde_inverse  # certified once per tau, or raises
    i = edge.size - 1 - k
    values, den = F.numerators()
    total = _polynomial(F.group, _orbit_sum(edge, i, values), den)
    return EdgeSection(total * _weight(edge, i), i)


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


def _weight(edge: Orbit, i: int) -> CycNum:
    """scale^-i / size, which turns S_i into h_i (module docstring, (i))."""
    return edge.inverse_scale_power(i) / edge.size


def _failed(edge: Orbit, i: int, res: NotDivisible) -> EdgeWitness:
    """The edge's failure at order i, from the failure res of S_i."""
    return EdgeWitness(edge, i, NotDivisible(res.valuation, res.witness * _weight(edge, i)))


def edge_quotients(edge: Orbit, F: GroupMap):
    """Interpolate F along the edge and divide; the list of quotients
    g_i = h_i / form^i, or an EdgeWitness at the first failure."""
    edge.vandermonde_inverse  # certified once per tau, or raises
    values, den = F.numerators()
    quotients = []
    for i in range(edge.size):
        res = divide_numerators(_orbit_sum(edge, i, values), den, edge.form, i)
        if isinstance(res, NotDivisible):
            return _failed(edge, i, res)
        quotients.append(res * _weight(edge, i))
    return quotients


def edge_witness(edge: Orbit, F: GroupMap) -> EdgeWitness | None:
    """The first failure of edge_quotients, or None: the orders 1 .. size - 1
    (form^0 divides h_0), each decided as membership decides a coset."""
    edge.vandermonde_inverse  # certified once per tau, or raises
    values, den = F.numerators()
    for i in range(1, edge.size):
        res = _coset_failure(edge, i, values, den)
        if res is not None:
            return _failed(edge, i, res)
    return None


def hypergraph_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """Every failed edge of F; empty means F passes the hypergraph."""
    return [w for w in (edge_witness(edge, F) for edge in H.edges) if w]


def pairwise_membership(H: Hypergraph, F: GroupMap) -> list[EdgeWitness]:
    """The weaker control: adjacent values congruent modulo the edge's
    form, first order only, reported in the same witness shape (power 1)."""
    values, den = F.numerators()
    m = H.group.conductor
    minus = (-CycNum.one(m)).num
    out = []
    for edge in H.edges:
        for a, b in combinations(edge.members, 2):
            negated = ((e, c, minus) for e, c in values[b].items())
            res = _witness(edge.form, 1, numerator_dot_products(m, negated, values[a]), den)
            if res is not None:
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
