"""Invariant theory by per-degree exact linear algebra.

No Groebner machinery: at desk scale every question reduces to the rank of
an exact coefficient matrix over graded monomials.  The Reynolds projector
averages over the group, the degree-d piece of the Hilbert ideal is spanned
by products of positive-degree invariants with complementary monomials, and
the coinvariant ring R / J is presented by greedy standard monomials in
graded-lex order so bases are reproducible run to run.  A degree-d
monomial is standard exactly when no element of J_d has its last nonzero
coefficient (in graded-lex order) at that monomial; these are the
non-pivot columns of the row reduction of J_d with its columns reversed.
Every basis here is read off linalg.rref.

The degree histogram of the standard monomials must match the coefficients
of prod_i (1 + t + ... + t^{d_i - 1}); a mismatch means the group is not a
pseudo-reflection group (or a bug) and is raised as HistogramMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from weakref import WeakKeyDictionary

from .cyclotomic import CycNum
from .groups import ReflectionGroup
from .linalg import rref
from .polynomials import MultiPoly, graded_monomials

__all__ = [
    "CoinvariantBasis",
    "DegreeBoundTooSmall",
    "GradedBasis",
    "HistogramMismatch",
    "coinvariant_basis",
    "coinvariant_histogram",
    "hilbert_ideal_piece",
    "invariant_basis",
    "reynolds",
    "tensor_hilbert_coefficients",
]


class DegreeBoundTooSmall(Exception):
    """The requested bound cannot cover all coinvariant degrees."""


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
        top = max(self.degrees) if self.degrees else 0
        out = [0] * (top + 1)
        for d in self.degrees:
            out[d] += 1
        return out


# ---------------------------------------------------------------------------


def reynolds(group: ReflectionGroup, f: MultiPoly) -> MultiPoly:
    """The averaging projector (1/|W|) sum_w w . f onto invariants."""
    acc = MultiPoly.zero(group.dimension, group.conductor)
    for el in group.elements:
        acc = acc + group.act(el.index, f)
    return acc / group.order


def _coeff_row(f: MultiPoly, monomials, conductor: int) -> list[CycNum]:
    zero = CycNum.zero(conductor)
    return [f.terms.get(e, zero) for e in monomials]


def _reduced_basis(rows, monomials, nvars: int, conductor: int) -> list[MultiPoly]:
    """The nonzero rows of rref(rows) as polynomials, in pivot order."""
    red, pivots = rref(rows)
    return [
        MultiPoly(nvars, conductor, {e: c for e, c in zip(monomials, row) if c})
        for row in red[: len(pivots)]
    ]


_CACHE: "WeakKeyDictionary[ReflectionGroup, dict]" = WeakKeyDictionary()


def _group_cache(group: ReflectionGroup) -> dict:
    got = _CACHE.get(group)
    if got is None:
        got = _CACHE[group] = {}
    return got


def invariant_basis(group: ReflectionGroup, d: int) -> GradedBasis:
    """Basis of the degree-d invariants in reduced row echelon form, via
    Reynolds images of the degree-d monomials."""
    cache = _group_cache(group)
    got = cache.get(("inv", d))
    if got is not None:
        return got
    n, m = group.dimension, group.conductor
    monomials = graded_monomials(n, d)
    rows = []
    for exps in monomials:
        image = reynolds(group, MultiPoly(n, m, {exps: 1}))
        if image:
            rows.append(_coeff_row(image, monomials, m))
    out = GradedBasis(d, _reduced_basis(rows, monomials, n, m))
    cache[("inv", d)] = out
    return out


def hilbert_ideal_piece(group: ReflectionGroup, d: int) -> GradedBasis:
    """Degree-d piece of the ideal generated by positive-degree invariants:
    the span of (R^W)_e * R_{d-e} over 0 < e <= d, in reduced row echelon
    form."""
    cache = _group_cache(group)
    got = cache.get(("ideal", d))
    if got is not None:
        return got
    n, m = group.dimension, group.conductor
    monomials = graded_monomials(n, d)
    rows = []
    for e in range(1, d + 1):
        for inv in invariant_basis(group, e).vectors:
            for exps in graded_monomials(n, d - e):
                prod = inv * MultiPoly(n, m, {exps: 1})
                rows.append(_coeff_row(prod, monomials, m))
    out = GradedBasis(d, _reduced_basis(rows, monomials, n, m))
    cache[("ideal", d)] = out
    return out


def coinvariant_histogram(degrees) -> list[int]:
    """Coefficients of prod_i (1 + t + ... + t^{d_i - 1})."""
    out = [1]
    for d in degrees:
        nxt = [0] * (len(out) + d - 1)
        for i, c in enumerate(out):
            for j in range(d):
                nxt[i + j] += c
        out = nxt
    return out


def tensor_hilbert_coefficients(degrees, nvars: int, dmax: int) -> list[int]:
    """Coefficients of prod_i (1 + ... + t^{d_i - 1}) / (1 - t)^nvars up to
    degree dmax: the expected graded dimensions of the equivariant ring."""
    num = coinvariant_histogram(degrees)
    out = []
    for d in range(dmax + 1):
        acc = 0
        for i, c in enumerate(num):
            if i > d:
                break
            acc += c * comb(d - i + nvars - 1, nvars - 1)
        out.append(acc)
    return out


def coinvariant_basis(group: ReflectionGroup, dmax: int | None = None) -> CoinvariantBasis:
    """Greedy graded-lex standard monomials presenting R / J degree by
    degree; lifts are the selected monomials themselves (the selection
    rule is in the module docstring)."""
    degrees = group.fundamental_degrees()
    top = sum(d - 1 for d in degrees)
    if dmax is None:
        dmax = top
    if dmax < top:
        raise DegreeBoundTooSmall(
            f"bound {dmax} is below the top coinvariant degree {top}"
        )
    expected = coinvariant_histogram(degrees)
    n, m = group.dimension, group.conductor
    lifts: list[MultiPoly] = []
    degs: list[int] = []
    for d in range(dmax + 1):
        monomials = graded_monomials(n, d)
        reverse = monomials[::-1]
        rows = [_coeff_row(v, reverse, m) for v in hilbert_ideal_piece(group, d).vectors]
        leading = {len(monomials) - 1 - col for col in rref(rows)[1]}
        count = 0
        for pos, exps in enumerate(monomials):
            if pos not in leading:
                lifts.append(MultiPoly(n, m, {exps: 1}))
                degs.append(d)
                count += 1
        want = expected[d] if d < len(expected) else 0
        if count != want:
            raise HistogramMismatch(
                f"degree {d}: found {count} standard monomials, expected {want}"
            )
    if len(lifts) != group.order:
        raise HistogramMismatch(
            f"found {len(lifts)} standard monomials for a group of order {group.order}"
        )
    return CoinvariantBasis(lifts, degs)
