"""Tensors of polynomials and their localization to group-indexed maps.

A TensorElement is a finite sum of pairs f (x) g living in R tensor R over
the invariant subring.  Localization evaluates the right leg along the
group:

    localize(T)(x) = sum f . (x applied to g),

one polynomial per element, which is exactly the GroupMap picture.  It is
computed in collected form on integer numerators (_localized_numerators,
which the sampler's maps share): the first legs are gathered once per
tensor by second-leg monomial, F_e = sum_k c_{k,e} f_k for g_k = sum_e
c_{k,e} x^e, and each value sum_e F_e . x(x^e) comes out of one numerator
dot product keyed by monomial.  Each monomial's images x(x^e), for all x,
are one table over one denominator L_e (ReflectionGroup.monomial_numerators),
and F_e is scaled once by L / L_e, L the lcm, so no polynomial is
substituted per element.  The map holds integer numerators over one common
denominator, which the verdicts read as they are; a value, one CycNum per
term, is built from them only when it is read.  The tensor product over
invariants has no canonical normal form worth maintaining at this scale,
so equality of tensors is extensional: two tensors are equal when their
localizations agree everywhere.

The theorem rows of the verification suite come from here too, from the
group alone: DimensionTriples proves localized image = members in every
degree at once, by one determinant certificate on the localized
coinvariant lifts (membership of each lift, a degree count, a full rank
modulo a prime at one point), read off the lifts.  It is the only route:
a step that fails raises GroupInvariantViolated, naming itself.  Exact
per-degree elimination (image_graded_dimension) is the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Sequence

from .cyclotomic import CycNum, numerator_dot_products
from .equivariant import GroupMap, divided_difference, lift_membership, orbit_difference
from .groups import GroupInvariantViolated, PseudoReflection, ReflectionGroup
from .invariants import coinvariant_basis, coinvariant_histogram, degree_histogram, graded_count
from .linalg import NotReducible, PrimeReduction, rank, rank_mod_p
from .polynomials import MultiPoly, graded_monomials, integral_numerators, poly_text

__all__ = [
    "DimensionTriples",
    "TensorElement",
    "commutes_with_difference",
    "image_graded_dimension",
    "localize",
    "localize_at",
]


class TensorElement:
    """A sum of two-sided polynomial pairs over a fixed group."""

    __slots__ = ("group", "summands")

    def __init__(self, group: ReflectionGroup, summands):
        pairs = []
        for f, g in summands:
            if not isinstance(f, MultiPoly):
                f = MultiPoly.constant(group.dimension, group.conductor, f)
            if not isinstance(g, MultiPoly):
                g = MultiPoly.constant(group.dimension, group.conductor, g)
            if f and g:
                pairs.append((f, g))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "summands", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    @classmethod
    def pure(cls, group: ReflectionGroup, f, g) -> "TensorElement":
        return cls(group, [(f, g)])

    @classmethod
    def zero(cls, group: ReflectionGroup) -> "TensorElement":
        return cls(group, [])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.group is not self.group:
            raise ValueError("tensors over different groups")
        return TensorElement(self.group, self.summands + other.summands)

    def __neg__(self):
        return TensorElement(self.group, [(-f, g) for f, g in self.summands])

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return TensorElement(self.group, [(f * other, g) for f, g in self.summands])
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.group is not self.group:
            raise ValueError("tensors over different groups")
        return TensorElement(
            self.group,
            [
                (f1 * f2, g1 * g2)
                for f1, g1 in self.summands
                for f2, g2 in other.summands
            ],
        )

    __rmul__ = __mul__

    def act(self, w: int) -> "TensorElement":
        """Right action through the second leg: (f (x) g) . w = f (x) w^-1 g."""
        g = self.group
        wi = g.inv(w)
        return TensorElement(g, [(f, g.act(wi, h)) for f, h in self.summands])

    def __bool__(self):
        return bool(localize(self))

    def __eq__(self, other):
        """Extensional: tensors are compared through their localizations."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.group is not self.group:
            return False
        return localize(self) == localize(other)

    __hash__ = None

    def __repr__(self):
        inner = " + ".join(f"({f}) (x) ({g})" for f, g in self.summands)
        return f"TensorElement[{inner or '0'}]"


# ---------------------------------------------------------------------------
# the localization map


def localize(T: TensorElement) -> GroupMap:
    """The map x -> sum_k f_k . x(g_k), one polynomial per group element.

    Computed as sum_e F_e . x(x^e) with F_e = sum_k c_{k,e} f_k collected
    over the monomials of the second legs g_k = sum_e c_{k,e} x^e.  The two
    agree because x acts linearly, x(g_k) = sum_e c_{k,e} x(x^e), and the
    product is bilinear; as exact polynomials they are equal, not merely
    close.  Each leg is checked once, by integral_numerators, and the map
    is formed on numerators by _localized_numerators; no CycNum is built."""
    group = T.group
    n, m = group.dimension, group.conductor
    firsts, den_f = integral_numerators([f for f, _ in T.summands], n, m)
    seconds, den_g = integral_numerators([g for _, g in T.summands], n, m)
    numerators, den = _localized_numerators(group, list(zip(firsts, seconds)), den_f * den_g)
    return GroupMap._from_numerators(group, numerators, den)


def _localized_numerators(group: ReflectionGroup, legs, den: int):
    """(numerators per element, den * L) of x -> sum_k f_k . x(g_k), for
    legs [(f_k, g_k)] of integer numerator dicts, f_k g_k over den."""
    m = group.conductor
    products = (((e, e1), c1, c) for f, g in legs for e, c in g.items() for e1, c1 in f.items())
    # the monomials e in order of first appearance, as the values' terms are
    by_monomial: dict = {e: [] for _, g in legs for e in g}
    for (e, e1), c in numerator_dot_products(m, products, {}).items():
        by_monomial[e].append((e1, c))
    tables = [(F, *group.monomial_numerators(e)) for e, F in by_monomial.items() if F]
    L = lcm(1, *(d for _, d, _ in tables))
    scaled = [
        (F if d == L else [(e1, [a * (L // d) for a in c]) for e1, c in F], images)
        for F, d, images in tables
    ]

    def row(x):
        for F, images in scaled:
            for e1, c1 in F:
                for e2, c2 in images[x]:
                    yield tuple(map(add, e1, e2)), c1, c2

    return [numerator_dot_products(m, row(x), {}) for x in range(group.order)], den * L


def localize_at(T: TensorElement, x: int) -> MultiPoly:
    """localize(T) read at the group element x, an index in range(order);
    only that value is built."""
    if x not in range(T.group.order):
        raise ValueError(f"element index {x!r} not in range({T.group.order})")
    return localize(T)._value(x)


# ---------------------------------------------------------------------------
# graded comparison


def image_graded_dimension(
    group: ReflectionGroup, localized: Sequence[GroupMap], d: int
) -> int:
    """Dimension of the degree-d part of the span of the maps localized, by
    exact elimination: the tests' oracle for DimensionTriples, on the maps
    x -> x . e of the lifts.  No program path calls it.

    The span is of m * F, F a map of degree at most d and m a monomial
    filling the degree, each a row in the (element, monomial) coordinates
    of divisibility_conditions: F's row with every exponent shifted by m.
    """
    n = group.dimension
    monomials = graded_monomials(n, d)
    index = {e: k for k, e in enumerate(monomials)}
    nmono = len(monomials)
    zero = CycNum.zero(group.conductor)
    rows = []
    for F in localized:
        dl = F.degree()
        # a zero map spans nothing
        if dl is None or dl > d:
            continue
        for m in graded_monomials(n, d - dl):
            row = [zero] * (group.order * nmono)
            for x, v in enumerate(F.values):
                for e, c in v.terms.items():
                    row[x * nmono + index[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    return rank(rows)


# t of the rank step's moment-curve point (t, t^2, ..., t^n) mod p.  det A
# vanishes on every reflecting hyperplane, so a point on one mod p drops
# the rank; a fixed t keeps the verdict deterministic.
_MOMENT_T = 65537

# primes step (b) tries, each skipped (it divides a denominator) or
# dropped (rank below |W| modulo it), before it refuses
_RANK_PRIMES = 3


def _lift_matrix_mod_p(
    group: ReflectionGroup, lifts: Sequence[MultiPoly], reduction: PrimeReduction
) -> list[list[int]]:
    """A = [(x . e_j)(pt)] mod p at the moment-curve point pt, row x, as
    e_j(x^-1 . pt): each lift's coefficients and each element's inverse
    matrix are reduced once, since reduction is a ring map.  Raises
    NotReducible on a denominator divisible by p."""
    p = reduction.prime
    point = [pow(_MOMENT_T, k, p) for k in range(1, group.dimension + 1)]
    reduced = [[(e, reduction.reduce(c)) for e, c in f.terms.items()] for f in lifts]
    monomials = {e for terms in reduced for e, _ in terms}
    matrix = []
    for x in range(group.order):
        inverse = group.elements[group.inv(x)]
        q = [sum(reduction.reduce(c) * v for c, v in zip(row, point)) % p for row in inverse]
        # one value per monomial, shared by every lift that has it
        value = {e: prod(pow(v, a, p) for v, a in zip(q, e)) % p for e in monomials}
        matrix.append([sum(c * value[e] for e, c in terms) % p for terms in reduced])
    return matrix


def _certify(group: ReflectionGroup, lifts: Sequence[MultiPoly]) -> None:
    """Steps (c), (a), (b) of DimensionTriples' certificate, in this order
    so primes are retried only on |W| homogeneous lifts of the right degree
    sum.  The coinvariant lifts pass every step, so the first that fails is
    a program fault: GroupInvariantViolated, naming the step and the lift
    or the primes."""
    order = group.order

    def lift(j):
        return f"lift {j}, {poly_text(lifts[j], names=group.variables)},"

    if len(lifts) != order:
        raise GroupInvariantViolated(
            f"certificate step (c): {len(lifts)} lifts for a group of order {order}"
        )
    for j, e in enumerate(lifts):
        if not e.is_homogeneous():
            raise GroupInvariantViolated(f"certificate step (c): {lift(j)} is not homogeneous")
    # a zero lift counts 0 here; it leaves a zero column, which (b) refuses
    twice = 2 * sum(e.degree() or 0 for e in lifts)
    if twice != order * len(group.reflections()):
        raise GroupInvariantViolated(
            f"certificate step (c): 2 * sum of lift degrees is {twice}, not |W| * #reflections"
        )
    for j, e in enumerate(lifts):
        if not lift_membership(group, e).ok:
            raise GroupInvariantViolated(f"certificate step (a): {lift(j)} is not a member")
    notes = []
    reduction = PrimeReduction.for_conductor(group.conductor)
    while True:
        p = reduction.prime
        try:
            r = rank_mod_p(_lift_matrix_mod_p(group, lifts, reduction), p)
        except NotReducible:
            notes.append(f"{p} divides a denominator")
        else:
            if r == order:
                return
            notes.append(f"rank {r} modulo {p}")
        if len(notes) == _RANK_PRIMES:
            raise GroupInvariantViolated(
                f"certificate step (b): no prime gives rank {order}: " + "; ".join(notes)
            )
        reduction = PrimeReduction.for_conductor(group.conductor, p)


class DimensionTriples:
    """The theorem's degree rows for one group.

    All rows are decided at once by a certificate on the |W| x |W| matrix
    A = [F_j(x)] of the localized lifts F_j = localize(1 (x) e_j):

      (a) members: every F_j passes membership.  At a hyperplane K with
          stabilizer of order e_K, a discrete Fourier transform on each of
          its |W|/e_K cosets turns A's rows into sums S_i divisible by
          ell_K^i, so ell_K^a_K divides det A, a_K = |W|(e_K - 1)/2.
          F_j(x) = x . e_j is equivariant, so lift_membership decides it
          from e_j on the identity cosets (equivariant module docstring);
      (b) rank: A at a fixed moment-curve point, reduced by PrimeReduction,
          has rank |W| over F_p, so det A is nonzero; A[x][j] is e_j at
          x^-1 . point.  A prime dividing a denominator is skipped; where
          the rank drops (p | kappa below, or the point is on a hyperplane
          mod p) the next prime = 1 (mod m) is tried, _RANK_PRIMES in all;
      (c) degrees: the |W| lifts e_j are homogeneous (so is F_j, of the
          same degree: x is a graded automorphism), and
          2 * sum_j deg F_j = |W| * #reflections = 2 * sum_K a_K.  (b)
          makes every F_j nonzero.

    So det A = kappa * prod_K ell_K^a_K, kappa a nonzero constant.  A member
    G put in place of any column keeps the bound of (a), so Cramer's rule
    makes G an R-combination of the F_j: members = image, free on the F_j,
    of dimension sum_j dim R_(d - deg F_j) in degree d, read from the lifts
    (coinvariant_basis checks their histogram against the prediction).
    Every step holds on coinvariant lifts, so a failure is a program fault,
    raised at once (_certify), and no row is computed another way.  No F_j
    is built.
    """

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self._predicted = coinvariant_histogram(group.fundamental_degrees())
        lifts = coinvariant_basis(group).lifts
        _certify(group, lifts)
        # (b) made every lift nonzero, so every degree an int
        self._free = degree_histogram(e.degree() for e in lifts)

    def triple(self, d: int) -> tuple[int, int, int]:
        """(predicted, localized image, divisibility nullspace) in degree d."""
        n = self.group.dimension
        free = graded_count(self._free, n, d)
        return graded_count(self._predicted, n, d), free, free


# ---------------------------------------------------------------------------
# the commuting square


def commutes_with_difference(
    group: ReflectionGroup, s: PseudoReflection, i: int, T: TensorElement
) -> bool:
    """Does localizing commute with the order-i difference along s?

    Left route: localize first, then take the orbit difference.  Right
    route: apply the single-polynomial difference to the right leg of
    every summand, then localize.  For 1 <= i < order(s) both sides are
    guaranteed polynomial, and the theorem says they agree.
    """
    left = orbit_difference(group, s, i, localize(T))
    if not isinstance(left, GroupMap):
        return False
    right_pairs = []
    for f, g in T.summands:
        dg = divided_difference(group, s, i, g)
        if not isinstance(dg, MultiPoly):
            return False
        right_pairs.append((f, dg))
    right = localize(TensorElement(group, right_pairs))
    return left == right
