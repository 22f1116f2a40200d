"""Invariant theory by per-degree exact linear algebra.

No Groebner machinery and no average over the group: at desk scale every
question reduces to the rank of an exact coefficient matrix over graded
monomials, built from the group file's generators.  The degree-d
invariants (R^W)_d are the common kernel on R_d of g - 1 over the
generators g (not the reflections: a group they do not generate has
fewer invariants than they fix).  The Hilbert ideal J is generated by
positive-degree invariants, so J_0 = 0 and J_d = x_1 J_{d-1} + ... +
x_n J_{d-1} + (R^W)_d, built upward.  The coinvariant ring R / J is
presented by greedy standard monomials in graded-lex order so bases are
reproducible run to run.  Every basis here is in reduced row echelon
form over columns in reversed graded-lex order: each vector ends at its
own monomial, with coefficient 1, which the other vectors lack.
linalg.nullspace gives the invariants in this form (listed in reverse)
and J_d takes one linalg.rref over the reversed columns, so a degree-d
monomial is standard exactly when it ends no J_d vector: the standard
monomials take no elimination of their own.

The basis always runs to the top degree sum_i (d_i - 1), and its degree
histogram must match the coefficients of prod_i (1 + t + ... + t^{d_i - 1});
only a group generated by reflections has degrees, so a mismatch is a bug,
raised as HistogramMismatch.  graded_count turns a degree histogram into
the graded dimensions of a free module; the theorem rows count with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from weakref import WeakKeyDictionary

from .cyclotomic import CycNum, upoly_mul
from .groups import NotPolynomialInvariantRing, ReflectionGroup
from .linalg import nullspace, rref
from .polynomials import MultiPoly, graded_monomials

__all__ = [
    "CoinvariantBasis",
    "GradedBasis",
    "HistogramMismatch",
    "coinvariant_basis",
    "coinvariant_histogram",
    "degree_histogram",
    "graded_count",
    "hilbert_ideal_piece",
    "invariant_basis",
]


class HistogramMismatch(Exception):
    """Standard-monomial counts disagree with the degree product formula."""


@dataclass
class GradedBasis:
    degree: int
    vectors: list[MultiPoly]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass
class CoinvariantBasis:
    lifts: list[MultiPoly]
    degrees: list[int]

    @property
    def size(self) -> int:
        return len(self.lifts)

    def histogram(self) -> list[int]:
        return degree_histogram(self.degrees)


# ---------------------------------------------------------------------------


def _coeff_row(terms: dict, monomials, conductor: int) -> list[CycNum]:
    zero = CycNum.zero(conductor)
    return [terms.get(e, zero) for e in monomials]


def invariant_basis(group: ReflectionGroup, d: int) -> GradedBasis:
    """Basis of the degree-d invariants, the common kernel on R_d of g - 1
    over the group file's generators g, in reduced row echelon form over
    reversed graded-lex columns (module docstring)."""
    n, m = group.dimension, group.conductor
    monomials = graded_monomials(n, d)
    basis = [MultiPoly(n, m, {e: 1}) for e in monomials]
    rows = []
    for g in group.generators:
        # column j of g - 1 is g . x^j - x^j
        cols = [_coeff_row((group.act(g, x) - x).terms, monomials, m) for x in basis]
        rows += [row for row in zip(*cols) if any(row)]
    # the vector of free column f is 1 at f, 0 at the other free columns and
    # nonzero only left of f: in reverse order, the reversed-column RREF
    kernel = nullspace(rows, len(monomials), m)
    return GradedBasis(d, [MultiPoly(n, m, dict(zip(monomials, v))) for v in reversed(kernel)])


_IDEAL: "WeakKeyDictionary[ReflectionGroup, list[GradedBasis]]" = WeakKeyDictionary()


def hilbert_ideal_piece(group: ReflectionGroup, d: int) -> GradedBasis:
    """Degree-d piece of the ideal J generated by positive-degree
    invariants, in reduced row echelon form over reversed graded-lex
    columns (module docstring): J_0 = 0 and J_d is the span of x_k * J_{d-1}
    for every k plus (R^W)_d.  The pieces are built upward from the
    highest one kept for the group.

    For a group generated by reflections, (R^W)_d is added only for
    d <= max d_i.  Proof: R^W = C[f_1, ..., f_n] with deg f_i = d_i
    (Chevalley-Shephard-Todd), so every positive-degree invariant lies in
    (f_1, ..., f_n), J is generated by the f_i, and J_d = sum_i R_{d-d_i} f_i.
    For d > max d_i each d - d_i >= 1, so R_{d-d_i} f_i = sum_k x_k
    R_{d-1-d_i} f_i lies in sum_k x_k J_{d-1}: the invariants add nothing
    to the span, and the RREF of a span over fixed columns is unique, so
    the piece is the same.  Any other group adds them at every degree."""
    pieces = _IDEAL.setdefault(group, [GradedBasis(0, [])])
    n, m = group.dimension, group.conductor
    try:
        largest = max(group.fundamental_degrees())
    except NotPolynomialInvariantRing:
        largest = d
    while len(pieces) <= d:
        k = len(pieces)
        reverse = graded_monomials(n, k)[::-1]
        invariants = invariant_basis(group, k).vectors if k <= largest else []
        rows = [_coeff_row(v.terms, reverse, m) for v in invariants]
        for v in pieces[-1].vectors:
            for i in range(n):
                shifted = {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in v.terms.items()}
                rows.append(_coeff_row(shifted, reverse, m))
        red, pivots = rref(rows)
        basis = [MultiPoly(n, m, dict(zip(reverse, row))) for row in red[: len(pivots)]]
        pieces.append(GradedBasis(k, basis))
    return pieces[d]


def degree_histogram(degrees) -> list[int]:
    """h with h[k] the number of entries of degrees equal to k."""
    degrees = list(degrees)
    return [degrees.count(k) for k in range(max(degrees, default=0) + 1)]


def coinvariant_histogram(degrees) -> list[int]:
    """Coefficients of prod_i (1 + t + ... + t^{d_i - 1})."""
    return reduce(upoly_mul, ([1] * d for d in degrees), [1])


def graded_count(histogram, nvars: int, d: int) -> int:
    """Coefficient of t^d in sum_k histogram[k] t^k / (1 - t)^nvars: the
    degree-d dimension of a free module over nvars variables with
    histogram[k] generators in degree k."""
    return sum(
        c * comb(d - k + nvars - 1, nvars - 1) for k, c in enumerate(histogram[: d + 1])
    )


def coinvariant_basis(group: ReflectionGroup) -> CoinvariantBasis:
    """Greedy graded-lex standard monomials presenting R / J degree by
    degree, up to the top degree; lifts are the selected monomials
    themselves (the selection rule is in the module docstring)."""
    expected = coinvariant_histogram(group.fundamental_degrees())
    n, m = group.dimension, group.conductor
    lifts: list[MultiPoly] = []
    degs: list[int] = []
    for d in range(len(expected)):
        # degree d is listed in descending lex order: a vector ends at its least tuple
        last = {min(v.terms) for v in hilbert_ideal_piece(group, d).vectors}
        standard = [e for e in graded_monomials(n, d) if e not in last]
        if len(standard) != expected[d]:
            raise HistogramMismatch(
                f"degree {d}: found {len(standard)} standard monomials, expected {expected[d]}"
            )
        lifts += [MultiPoly(n, m, {e: 1}) for e in standard]
        degs += [d] * len(standard)
    if len(lifts) != group.order:
        raise HistogramMismatch(
            f"found {len(lifts)} standard monomials for a group of order {group.order}"
        )
    return CoinvariantBasis(lifts, degs)
