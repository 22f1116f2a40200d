"""Tensors of polynomials and their localization to group-indexed maps.

A TensorElement is a finite sum of pairs f (x) g living in R tensor R over
the invariant subring.  Localization evaluates the right leg along the
group:

    localize(T)(x) = sum f . (x applied to g),

one polynomial per element, which is exactly the GroupMap picture.  The
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
full rank modulo a prime at one point, and a degree count), and falls back
to exact per-degree elimination when the certificate does not close.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .cyclotomic import CycNum, NotReducible, PrimeReduction
from .equivariant import (
    GroupMap,
    divided_difference,
    membership,
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
from .linalg import rank, rank_mod_p
from .polynomials import MultiPoly, graded_monomials

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


def localize_at(T: TensorElement, x: int) -> MultiPoly:
    """Evaluate the tensor at one group element: sum f . x(g)."""
    g = T.group
    out = MultiPoly.zero(g.dimension, g.conductor)
    for f, h in T.summands:
        out = out + f * g.act(x, h)
    return out


def localize(T: TensorElement) -> GroupMap:
    g = T.group
    return GroupMap(g, [localize_at(T, x) for x in range(g.order)])


# ---------------------------------------------------------------------------
# graded comparison


def localized_lifts(group: ReflectionGroup) -> list[GroupMap]:
    """localize(1 (x) e), the map x -> x . e, for each lift e of
    coinvariant_basis(group), in order."""
    lifts = coinvariant_basis(group).lifts
    return [GroupMap(group, [group.act(x, e) for x in range(group.order)]) for e in lifts]


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
        if dl > d:
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


def _value_mod_p(f: MultiPoly, point: Sequence[int], reduction: PrimeReduction) -> int:
    """f(point) in F_p, every coefficient sent through reduction."""
    p = reduction.prime
    return sum(
        reduction.reduce(c) * prod(pow(v, k, p) for v, k in zip(point, e))
        for e, c in f.terms.items()
    ) % p


def _refusal(group: ReflectionGroup, localized: Sequence[GroupMap]) -> str | None:
    """The first step of the all-degree certificate that fails on the
    localized lifts, or None when all three hold (see DimensionTriples)."""
    if not all(membership(F).ok for F in localized):
        return "members"
    reduction = PrimeReduction.for_conductor(group.conductor)
    p = reduction.prime
    point = [pow(_MOMENT_T, k, p) for k in range(1, group.dimension + 1)]
    try:
        matrix = [
            [_value_mod_p(F.values[x], point, reduction) for F in localized]
            for x in range(group.order)
        ]
    except NotReducible:
        return "rank"
    if rank_mod_p(matrix, p) != group.order:
        return "rank"
    degrees = [F.degree() for F in localized]
    if (
        len(localized) != group.order
        or None in degrees
        or not all(F.is_homogeneous() for F in localized)
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
          ell_K^i, so ell_K^a_K divides det A, a_K = |W|(e_K - 1)/2;
      (b) rank: A at a fixed moment-curve point, reduced by PrimeReduction,
          has rank |W| over F_p, so det A is nonzero;
      (c) degrees: the |W| lifts are nonzero and homogeneous, and
          2 * sum_j deg F_j = |W| * #reflections = 2 * sum_K a_K.

    So det A = kappa * prod_K ell_K^a_K, kappa a nonzero constant.  A member
    G put in place of any column keeps the bound of (a), so Cramer's rule
    makes G an R-combination of the F_j: members = image, free on the F_j,
    of dimension sum_j dim R_(d - deg F_j) in degree d.  That count is read
    from the lifts, not the fundamental degrees, so it still checks the
    prediction.  When a step fails, refused_by names it and every row is
    computed exactly by image_graded_dimension and membership_basis.
    """

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self._predicted = coinvariant_histogram(group.fundamental_degrees())
        localized = localized_lifts(group)
        # None when the certificate closed, else "members", "rank" or "degrees"
        self.refused_by = _refusal(group, localized)
        if self.refused_by is None:
            # step (c) made every degree an int
            self._free = degree_histogram(F.degree() for F in localized)
        else:
            # kept for the exact fallback rows only
            self._localized = localized

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
