"""Tensors of polynomials and their localization to group-indexed maps.

A TensorElement is a finite sum of pairs f (x) g living in R tensor R over
the invariant subring.  Localization evaluates the right leg along the
group:

    localize(T)(x) = sum f . (x applied to g),

one polynomial per element, which is exactly the GroupMap picture.  The
tensor product over invariants has no canonical normal form worth
maintaining at this scale, so equality of tensors is extensional: two
tensors are equal when their localizations agree everywhere.

The graded comparison driving the verification suite happens here too:
for each degree d the dimension of the localized image (spanned by
monomial multiples of localized coinvariant lifts) is compared against
the histogram convolution prediction and against the divisibility
nullspace computed in the equivariant module.  DimensionTriples decides
each degree from ranks over a prime field where inequalities make that
rigorous, and by exact elimination everywhere else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclotomic import CycNum, NotReducible, PrimeReduction
from .equivariant import (
    GroupMap,
    divided_difference,
    divisibility_conditions,
    membership_basis,
    orbit_difference,
)
from .groups import PseudoReflection, ReflectionGroup
from .invariants import CoinvariantBasis, coinvariant_basis, tensor_hilbert_coefficients
from .linalg import rank, rank_mod_p
from .polynomials import MultiPoly, graded_monomials

__all__ = [
    "DimensionTriples",
    "TensorElement",
    "commutes_with_difference",
    "dimension_triple",
    "image_graded_dimension",
    "image_rows",
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


def localized_lifts(group: ReflectionGroup, coinv: CoinvariantBasis) -> list[GroupMap]:
    """localize(1 (x) e) for every coinvariant lift e, in basis order."""
    one = MultiPoly.one(group.dimension, group.conductor)
    return [localize(TensorElement.pure(group, one, e)) for e in coinv.lifts]


def image_rows(
    group: ReflectionGroup, localized: Sequence[GroupMap], d: int
) -> list[dict[int, CycNum]]:
    """Spanning rows of the degree-d piece of the localized image, as
    sparse rows {column: coefficient}.

    One row per m * F, for F = localize(1 (x) e) of degree at most d (see
    localized_lifts) and m a monomial filling the degree, in the (element,
    monomial) coordinates of divisibility_conditions.  m is the same at
    every element, so its row is the row of F with every exponent shifted
    by m.
    """
    n = group.dimension
    monomials = graded_monomials(n, d)
    index = {e: k for k, e in enumerate(monomials)}
    nmono = len(monomials)
    rows = []
    for F in localized:
        dl = F.degree()
        if dl > d:
            continue
        for m in graded_monomials(n, d - dl):
            rows.append({
                x * nmono + index[tuple(a + b for a, b in zip(e, m))]: c
                for x, v in enumerate(F.values)
                for e, c in v.terms.items()
            })
    return rows


def image_graded_dimension(
    group: ReflectionGroup, coinv: CoinvariantBasis, d: int
) -> int:
    """Dimension of the degree-d piece of the localized image: the exact
    rank of image_rows."""
    ncols = group.order * len(graded_monomials(group.dimension, d))
    zero = CycNum.zero(group.conductor)
    rows = image_rows(group, localized_lifts(group, coinv), d)
    return rank([[row.get(j, zero) for j in range(ncols)] for row in rows])


class DimensionTriples:
    """The theorem's degree rows for one group and coinvariant basis.

    A row is decided by a modular certificate when it closes and by exact
    elimination otherwise.  Let N be the number of image_rows in degree d,
    ncols their length, and rank_p the rank after PrimeReduction, which
    never exceeds the exact rank.  Then:

      * rank_p(image rows) = N forces image = N, as image <= N rows;
      * every lift's localization satisfies its own degree's divisibility
        conditions, checked exactly, so every image row is a member (a
        monomial taken the same at every element cannot lower the
        form-adic valuation of an orbit sum), and null >= image = N;
      * null <= ncols - rank_p(conditions), so that bound equal to N
        forces null = N.

    When any of these fails, or an entry has a denominator divisible by p,
    the row is computed exactly by image_graded_dimension and
    membership_basis.
    """

    def __init__(self, group: ReflectionGroup, coinv: CoinvariantBasis | None = None):
        self.group = group
        self.coinv = coinvariant_basis(group) if coinv is None else coinv
        self._reduction = PrimeReduction.for_conductor(group.conductor)
        self._localized = localized_lifts(group, self.coinv)
        # lift index -> whether its localization meets its own conditions
        self._lift_ok: dict[int, bool] = {}

    def triple(self, d: int) -> tuple[int, int, int]:
        """(predicted, localized image, divisibility nullspace) in degree d."""
        group = self.group
        expected = tensor_hilbert_coefficients(
            group.fundamental_degrees(), group.dimension, d
        )[d]
        proven = self.certified_dimension(d)
        if proven is not None:
            return expected, proven, proven
        image = image_graded_dimension(group, self.coinv, d)
        null = len(membership_basis(group, d))
        return expected, image, null

    def certified_dimension(self, d: int) -> int | None:
        """N when the certificate proves image = nullspace = N in degree d,
        None when it does not close."""
        group = self.group
        ncols = group.order * len(graded_monomials(group.dimension, d))
        rows = image_rows(group, self._localized, d)
        try:
            if self._rank_p(rows, ncols) != len(rows):
                return None
            conditions = divisibility_conditions(group, d)
            if ncols - self._rank_p(conditions, ncols) != len(rows):
                return None
        except NotReducible:
            return None
        if not self._lifts_are_members(d, conditions):
            return None
        return len(rows)

    def _rank_p(self, rows: list[dict[int, CycNum]], ncols: int) -> int:
        reduce = self._reduction.reduce
        dense = []
        for row in rows:
            out = [0] * ncols
            for j, x in row.items():
                out[j] = reduce(x)
            dense.append(out)
        return rank_mod_p(dense, self._reduction.prime)

    def _lifts_are_members(self, d: int, conditions: list[dict[int, CycNum]]) -> bool:
        """Does every localize(1 (x) e) of degree at most d satisfy its own
        degree's divisibility conditions, exactly?  Verdicts are kept per
        lift, so each lift is checked once."""
        zero = CycNum.zero(self.group.conductor)
        built = {d: conditions}
        for k, F in enumerate(self._localized):
            dl = F.degree()
            if dl > d:
                continue
            if k not in self._lift_ok:
                if dl not in built:
                    built[dl] = divisibility_conditions(self.group, dl)
                vec = image_rows(self.group, [F], dl)[0]
                self._lift_ok[k] = all(
                    not sum((c * vec[j] for j, c in row.items() if j in vec), zero)
                    for row in built[dl]
                )
            if not self._lift_ok[k]:
                return False
        return True


def dimension_triple(
    group: ReflectionGroup, d: int, coinv: CoinvariantBasis | None = None
) -> tuple[int, int, int]:
    """(predicted, localized image, divisibility nullspace) in degree d.

    The prediction is the coefficient of t^d in the product of the
    coinvariant histogram with the full polynomial ring series.  The
    theorem under test says all three agree.  To decide many degrees of
    one group, keep one DimensionTriples and call its triple method.
    """
    return DimensionTriples(group, coinv).triple(d)


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
