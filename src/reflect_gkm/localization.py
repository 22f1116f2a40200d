"""Tensors of polynomials and their localization to group-indexed maps.

A TensorElement is a finite sum of pairs f (x) g living in R tensor R over
the invariant subring.  Localization evaluates the right leg along the
group:

    localize(T)(x) = sum f . (x applied to g),

one polynomial per element, which is exactly the GroupMap picture.  It is
computed in collected form: the first legs are gathered once per tensor by
second-leg monomial, F_e = sum_k c_{k,e} f_k for g_k = sum_e c_{k,e} x^e,
and every value sum_e F_e . x(x^e) comes out of one keyed dot product
(cyclotomic.keyed_dot_products) keyed by (element, monomial), over the
group's memoized monomial images, so no polynomial is substituted per
element and one CycNum is built per term of the result.  The
tensor product over invariants has no canonical normal form worth
maintaining at this scale, so equality of tensors is extensional: two
tensors are equal when their localizations agree everywhere.

The graded comparison driving the verification suite happens here too,
from the group alone: for each degree d the dimension of the localized
image (spanned by monomial multiples of localized coinvariant lifts) is
compared against the prediction from the fundamental degrees and against
the divisibility nullspace computed in the equivariant module.
DimensionTriples proves image = nullspace in every degree at once from one
determinant certificate on the localized lifts (membership of each lift, a
full rank modulo a prime at one point, and a degree count), read off the
coinvariant lifts, and localizes them for exact per-degree elimination
only when the certificate does not close.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add
from typing import Sequence

from .cyclotomic import CycNum, keyed_dot_products
from .equivariant import (
    GroupMap,
    divided_difference,
    lift_membership,
    membership_basis,
    orbit_difference,
)
from .groups import PseudoReflection, ReflectionGroup
from .invariants import (
    coinvariant_basis,
    coinvariant_histogram,
    degree_histogram,
    graded_count,
)
from .linalg import NotReducible, PrimeReduction, rank, rank_mod_p
from .polynomials import (
    MultiPoly,
    _check_operand,
    graded_monomials,
    weighted_sum,
)

__all__ = [
    "DimensionTriples",
    "TensorElement",
    "commutes_with_difference",
    "image_graded_dimension",
    "localize",
    "localize_at",
    "localized_lifts",
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
    product is bilinear; as exact canonical polynomials they are equal, not
    merely close.  One keyed dot product forms every value, keyed by
    (x, monomial), over the products of F_e's terms with those of the
    group's memoized x(x^e).  Each leg of T is checked once."""
    group = T.group
    n, m = group.dimension, group.conductor
    by_monomial = {}
    for f, g in T.summands:
        _check_operand(g, n, m)
        for e, c in g.terms.items():
            by_monomial.setdefault(e, []).append((f, c))
    collected = [(e, weighted_sum(pairs, n, m)) for e, pairs in by_monomial.items()]
    collected = [(e, F.terms.items()) for e, F in collected if F]
    elements = range(group.order)

    def triples():
        for x in elements:
            for e, F in collected:
                image = group.monomial_image(x, e).terms.items()
                for e1, c1 in F:
                    for e2, c2 in image:
                        yield (x, tuple(map(add, e1, e2))), c1, c2

    values = [{} for _ in elements]
    for (x, e), c in keyed_dot_products(m, triples()).items():
        values[x][e] = c
    return GroupMap(group, [MultiPoly._make(n, m, v) for v in values])


def localize_at(T: TensorElement, x: int) -> MultiPoly:
    """localize(T) read at the group element x, an index in range(order)."""
    if x not in range(T.group.order):
        raise ValueError(f"element index {x!r} not in range({T.group.order})")
    return localize(T).values[x]


# ---------------------------------------------------------------------------
# graded comparison


def localized_lifts(group: ReflectionGroup) -> list[GroupMap]:
    """localize(1 (x) e), the map x -> x . e, for each lift e of
    coinvariant_basis(group), in order."""
    lifts = coinvariant_basis(group).lifts
    return [localize(TensorElement.pure(group, 1, e)) for e in lifts]


def image_graded_dimension(
    group: ReflectionGroup, localized: Sequence[GroupMap], d: int
) -> int:
    """Dimension of the degree-d piece of the localized image, by exact
    elimination.

    The image is spanned by m * F, for F one of the localized lifts
    localize(1 (x) e) (see localized_lifts) of degree at most d and m a
    monomial filling the degree, each a row in the (element, monomial)
    coordinates of divisibility_conditions.  m is the same at every
    element, so its row is the row of F with every exponent shifted by m.
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
# vanishes on every reflecting hyperplane, so a point on one mod p refuses
# (safe, but every row then takes the exact path); a fixed t keeps the
# verdict deterministic.
_MOMENT_T = 65537


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


def _refusal(group: ReflectionGroup, lifts: Sequence[MultiPoly]) -> str | None:
    """The first step of the all-degree certificate that fails on the
    coinvariant lifts, or None when all three hold (see DimensionTriples)."""
    if not all(lift_membership(group, e).ok for e in lifts):
        return "members"
    reduction = PrimeReduction.for_conductor(group.conductor)
    try:
        matrix = _lift_matrix_mod_p(group, lifts, reduction)
    except NotReducible:
        return "rank"
    if rank_mod_p(matrix, reduction.prime) != group.order:
        return "rank"
    degrees = [e.degree() for e in lifts]
    if (
        len(lifts) != group.order
        or None in degrees
        or not all(e.is_homogeneous() for e in lifts)
        or 2 * sum(degrees) != group.order * len(group.reflections())
    ):
        return "degrees"
    return None


class DimensionTriples:
    """The theorem's degree rows for one group.

    All rows are decided at once by a certificate on the |W| x |W| matrix
    A = [F_j(x)] of the localized lifts F_j = localize(1 (x) e_j):

      (a) members: every F_j passes membership.  At a hyperplane K with
          stabilizer of order e_K, a discrete Fourier transform on each of
          its |W|/e_K cosets turns A's rows into sums S_i divisible by
          ell_K^i, so ell_K^a_K divides det A, a_K = |W|(e_K - 1)/2.
          F_j(x) = x . e_j is equivariant, so lift_membership decides it
          from e_j on the identity cosets alone (the proof is in the
          equivariant module docstring);
      (b) rank: A at a fixed moment-curve point, reduced by PrimeReduction,
          has rank |W| over F_p, so det A is nonzero; A[x][j] is e_j at
          x^-1 . point;
      (c) degrees: the |W| lifts e_j are nonzero and homogeneous (so is
          F_j, of the same degree: x is a graded automorphism), and
          2 * sum_j deg F_j = |W| * #reflections = 2 * sum_K a_K.

    So det A = kappa * prod_K ell_K^a_K, kappa a nonzero constant.  A member
    G put in place of any column keeps the bound of (a), so Cramer's rule
    makes G an R-combination of the F_j: members = image, free on the F_j,
    of dimension sum_j dim R_(d - deg F_j) in degree d.  That count is read
    from the lifts, but coinvariant_basis raises HistogramMismatch unless
    the lifts' degree histogram is the predicted one, so when the
    certificate closes the rows restate that check; they compare the
    prediction independently only on the exact fallback (or under edited
    lifts).  The F_j are built (localized_lifts) only when a step
    fails: refused_by names it, and every row is computed exactly by
    image_graded_dimension and membership_basis.
    """

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self._predicted = coinvariant_histogram(group.fundamental_degrees())
        lifts = coinvariant_basis(group).lifts
        # None when the certificate closed, else "members", "rank" or "degrees"
        self.refused_by = _refusal(group, lifts)
        if self.refused_by is None:
            # step (c) made every degree an int
            self._free = degree_histogram(e.degree() for e in lifts)
        else:
            # for the exact fallback rows only
            self._localized = localized_lifts(group)

    def triple(self, d: int) -> tuple[int, int, int]:
        """(predicted, localized image, divisibility nullspace) in degree d."""
        group = self.group
        expected = graded_count(self._predicted, group.dimension, d)
        if self.refused_by is None:
            free = graded_count(self._free, group.dimension, d)
            return expected, free, free
        image = image_graded_dimension(group, self._localized, d)
        null = len(membership_basis(group, d))
        return expected, image, null


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
