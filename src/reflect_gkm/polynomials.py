"""Sparse multivariate polynomials over a fixed cyclotomic field.

A polynomial is a dict from exponent tuples to nonzero CycNum coefficients,
all sharing one conductor.  The representation is exact and canonical:
two polynomials are equal iff their dicts are equal, and no zero
coefficient is ever stored.

The text form writes terms in graded-lexicographic order, highest degree
first, for example ``z*x1^2*x2 - 1/3*x2^3``.  A coefficient that needs more
than one power of z is parenthesized, ``(z + 1)*x1``.  parse_poly inverts
poly_text bit-exactly; the grammar is defined once, in cyclotomic
(parse_terms), and parse_poly reads it over the variable names.

The workhorse for everything downstream is exact division by a power of a
linear form.  A normalized form is ell = x_p + a(x') with pivot variable
x_p and a a linear form in the other variables x'.  Writing f as a
polynomial in x_p with coefficients in x', one division by ell is
synthetic division by x_p - (-a), i.e. Horner's rule in x_p: from the top
x_p-degree down, each quotient coefficient is the next coefficient of f
plus -a times the previous one, one linear-form product per step, and what
is left at the bottom is the remainder f(x_p = -a), a polynomial in x'
alone.  ell divides f exactly when that remainder is zero.  Division by
ell^k repeats the step on the quotient and stops at the first nonzero
remainder: after v exact steps that remainder is the component of f of
order exactly v along ell, and ell^v times it is the NotDivisible witness.

The steps run fraction-free, on integer numerators (_horner): f comes as
integer coefficient vectors over a common denominator L, D is the lcm of
the form's coefficient denominators (integral_root, cached per form), the
pivot is replaced by y = D x_p and the slice of x_p^k is scaled by
D^(top - k), so every step adds integer products only.  Why that keeps
divisibility is proved once, in the equivariant module docstring, where
the membership verdict needs the steps only at powers above 1 and never
for a coordinate form x_p.  divide_numerators reads a coordinate form off
the exponents too (the quotient lowers every e_p, the witness is the
part of least e_p), scales each coefficient of the quotient or the
witness back once, and divide_by_linear_power is it on the numerators of
one MultiPoly.

Linear combinations sum_k w_k f_k (weighted_sum) and sums of products
sum_k f_k g_k (sum_of_products; a product is its one-pair case) go through
the one kernel cyclotomic.keyed_dot_products, keyed by output monomial, so
they build one CycNum per output monomial, not one per product and partial
sum.  Each operand's variable count and conductor are checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add
from typing import Sequence

from .cyclotomic import (
    ConductorMismatch,
    CycNum,
    from_numerators,
    join_terms,
    keyed_dot_products,
    numerator_dot_products,
    parse_terms,
)

__all__ = [
    "LinearForm",
    "MultiPoly",
    "LinearSubstitution",
    "NotDivisible",
    "divide_by_linear_power",
    "divide_numerators",
    "graded_monomials",
    "hyperplane_coordinates",
    "integral_numerators",
    "parse_poly",
    "poly_text",
    "sum_of_products",
    "weighted_sum",
]

Exponents = tuple[int, ...]


def _as_coeff(value, conductor: int) -> CycNum:
    if isinstance(value, CycNum):
        if value.conductor == conductor:
            return value
        # rationals embed anywhere; anything else must match the declared field
        if value.is_rational():
            return CycNum.rational(conductor, value.as_fraction())
        raise ConductorMismatch(
            f"coefficient at conductor {value.conductor} in a polynomial over "
            f"conductor {conductor}"
        )
    return CycNum.rational(conductor, value)


def _linear_poly(nvars: int, conductor: int, coeffs: Sequence) -> MultiPoly:
    """sum_k coeffs[k] * x_k."""
    return MultiPoly(
        nvars,
        conductor,
        {tuple(int(j == k) for j in range(nvars)): c for k, c in enumerate(coeffs) if c},
    )


class MultiPoly:
    """Exact sparse polynomial in nvars variables over Q(zeta_conductor)."""

    __slots__ = ("nvars", "conductor", "terms")

    def __init__(self, nvars: int, conductor: int, terms=None):
        clean: dict[Exponents, CycNum] = {}
        for exps, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            key, c = tuple(exps), _as_coeff(c, conductor)
            if len(key) != nvars:
                raise ValueError(f"exponent tuple {key} does not fit {nvars} variables")
            if not all(type(e) is int and e >= 0 for e in key):
                raise ValueError(f"exponent tuple {key} has an entry that is not a nonnegative int")
            prev = clean.get(key)
            clean[key] = c if prev is None else prev + c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _make(cls, nvars: int, conductor: int, clean: dict) -> "MultiPoly":
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "conductor", conductor)
        object.__setattr__(out, "terms", clean)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, conductor: int) -> "MultiPoly":
        return cls._make(nvars, conductor, {})

    @classmethod
    def constant(cls, nvars: int, conductor: int, value) -> "MultiPoly":
        return cls(nvars, conductor, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int, conductor: int) -> "MultiPoly":
        return cls.constant(nvars, conductor, 1)

    @classmethod
    def variable(cls, nvars: int, conductor: int, k: int) -> "MultiPoly":
        if not 0 <= k < nvars:
            raise ValueError(f"variable index {k} out of range")
        return _linear_poly(nvars, conductor, [int(j == k) for j in range(nvars)])

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = MultiPoly.constant(self.nvars, self.conductor, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _check_operand(other, self.nvars, self.conductor)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            acc = c if acc is None else acc + c
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return MultiPoly._make(self.nvars, self.conductor, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(
            self.nvars, self.conductor, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNum, MultiPoly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            c = _as_coeff(other, self.conductor)
            if not c:
                return MultiPoly.zero(self.nvars, self.conductor)
            return MultiPoly._make(
                self.nvars, self.conductor, {e: v * c for e, v in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return sum_of_products([(self, other)], self.nvars, self.conductor)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self * _as_coeff(other, self.conductor).inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = MultiPoly.one(self.nvars, self.conductor)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = MultiPoly.constant(self.nvars, self.conductor, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- structure --------------------------------------------------------

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=None)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def __repr__(self):
        return f"MultiPoly({poly_text(self)!r})"

    def __str__(self):
        return poly_text(self)


# ---------------------------------------------------------------------------
# linear forms


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear functional with normalized coefficients (the first
    nonzero coefficient is 1), so that hyperplanes have one canonical form."""

    nvars: int
    conductor: int
    coeffs: tuple[CycNum, ...]

    @classmethod
    def normalize(cls, coeffs: Sequence, conductor: int) -> tuple[CycNum, "LinearForm"]:
        """Split raw coefficients into (scale, normalized form)."""
        vec = [_as_coeff(c, conductor) for c in coeffs]
        scale = next((c for c in vec if c), None)
        if scale is None:
            raise ValueError("linear form must be nonzero")
        inv = scale.inverse()
        return scale, cls(len(vec), conductor, tuple(c * inv for c in vec))

    @cached_property
    def pivot(self) -> int:
        return next(k for k, c in enumerate(self.coeffs) if c)

    @cached_property
    def integral_root(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(D, [(j, r_j)]): on form = 0 the pivot variable is the root
        -(sum_{j != p} c_j x_j), and D times it, sum_j r_j x_j, has integer
        numerators r_j; D is the lcm of the coefficient denominators."""
        p = self.pivot
        D = lcm(*(c.den for c in self.coeffs))
        return D, tuple(
            (j, tuple(-x * (D // c.den) for x in c.num))
            for j, c in enumerate(self.coeffs)
            if c and j != p
        )

    def as_poly(self) -> MultiPoly:
        return _linear_poly(self.nvars, self.conductor, self.coeffs)

    def __str__(self):
        return poly_text(self.as_poly())


# ---------------------------------------------------------------------------
# substitutions and hyperplane coordinates


def _check_operand(f, nvars: int, conductor: int) -> None:
    """A polynomial or linear form must fit the call, once per operand."""
    if f.nvars != nvars:
        raise ValueError(f"an operand in {f.nvars} variables, not {nvars}")
    if f.conductor != conductor:
        raise ConductorMismatch(f"an operand over conductor {f.conductor}, not {conductor}")


def weighted_sum(pairs, nvars: int, conductor: int) -> MultiPoly:
    """sum_k w_k * f_k over (f_k, w_k) pairs with scalar weights: one keyed
    dot product over all their terms."""
    def triples():
        for f, w in pairs:
            _check_operand(f, nvars, conductor)
            w = _as_coeff(w, conductor)
            if w:
                for e, c in f.terms.items():
                    yield e, c, w

    return MultiPoly._make(nvars, conductor, keyed_dot_products(conductor, triples()))


def sum_of_products(pairs, nvars: int, conductor: int) -> MultiPoly:
    """sum_k f_k * g_k over (f_k, g_k) pairs of polynomials: one keyed dot
    product over every pair of terms, keyed by the product monomial."""
    def triples():
        for f, g in pairs:
            _check_operand(f, nvars, conductor)
            _check_operand(g, nvars, conductor)
            right = g.terms.items()
            for e1, c1 in f.terms.items():
                for e2, c2 in right:
                    yield tuple(map(add, e1, e2)), c1, c2

    return MultiPoly._make(nvars, conductor, keyed_dot_products(conductor, triples()))


class LinearSubstitution:
    """x_k -> sum_j rows[k][j] x_j, applied to polynomials with a
    per-monomial memo (monomial images are reused heavily downstream)."""

    def __init__(self, rows: Sequence[Sequence[CycNum]], conductor: int):
        n = self.nvars = len(rows)
        self.conductor = conductor
        self.rows = tuple(tuple(r) for r in rows)
        self._row_polys = [_linear_poly(n, conductor, row) for row in self.rows]
        self._memo: dict[Exponents, MultiPoly] = {
            (0,) * n: MultiPoly.one(n, conductor)
        }

    def monomial_image(self, exps: Exponents) -> MultiPoly:
        got = self._memo.get(exps)
        if got is not None:
            return got
        if len(exps) != self.nvars:
            raise ValueError(f"exponents {exps} do not fit {self.nvars} variables")
        if min(exps) < 0:
            raise ValueError(f"exponents {exps} include a negative one")
        k = next(i for i, e in enumerate(exps) if e)
        smaller = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
        img = self.monomial_image(smaller) * self._row_polys[k]
        self._memo[exps] = img
        return img

    def apply(self, f: MultiPoly) -> MultiPoly:
        # x^e is its memoized image itself: nothing mutates a polynomial
        if len(f.terms) == 1 and f.conductor == self.conductor:
            ((e, c),) = f.terms.items()
            if c == 1:
                return self.monomial_image(e)
        return weighted_sum(
            ((self.monomial_image(e), c) for e, c in f.terms.items()),
            f.nvars,
            f.conductor,
        )


@lru_cache(maxsize=256)
def hyperplane_coordinates(form: LinearForm) -> LinearSubstitution:
    """The substitution rewriting f(x) in coordinates u with u_1 = form
    and u_2.. the remaining variables in order, i.e. x_p = u_1 - sum_j
    coeffs[j] u_slot(j) for the pivot p.  A monomial's image lists its
    components by order along the form (the u_1-exponent), which is how
    condition_entries reads off divisibility conditions.  Shared between
    calls; a group has one form per reflecting hyperplane, far fewer than
    the cache holds."""
    n, m, p = form.nvars, form.conductor, form.pivot
    zero, one = CycNum.zero(m), CycNum.one(m)
    rows = [[zero] * n for _ in range(n)]
    rows[p][0] = one
    slots = (j for j in range(n) if j != p)
    for slot, j in enumerate(slots, start=1):
        rows[p][slot] = -form.coeffs[j]
        rows[j][slot] = one
    return LinearSubstitution(rows, m)


# ---------------------------------------------------------------------------
# exact division


@dataclass
class NotDivisible:
    """Failure value for exact division: the form-adic valuation actually
    attained and the obstructing lowest-order component of the dividend."""

    valuation: int
    witness: MultiPoly


def integral_numerators(polys, nvars: int, conductor: int) -> tuple[list[dict], int]:
    """The coefficients of the polynomials as integer vectors over one
    common denominator L, the lcm of all their coefficient denominators:
    ([{exponents: numerators}] in input order, L).  Each value must be a
    MultiPoly in nvars variables over the conductor."""
    polys = list(polys)
    for f in polys:
        if not isinstance(f, MultiPoly):
            raise TypeError(f"a polynomial is required, not {type(f).__name__}")
        _check_operand(f, nvars, conductor)
    den = lcm(1, *(c.den for f in polys for c in f.terms.values()))
    return [
        {
            e: c.num if c.den == den else [x * (den // c.den) for x in c.num]
            for e, c in f.terms.items()
        }
        for f in polys
    ], den


def _plus_root_multiple(m: int, base: dict, q: dict, root) -> dict:
    """base + (sum_j r_j x_j) * q on integer numerator dicts, for root =
    [(j, r_j)]."""
    if not q:
        return base
    shifted = (
        (e[:j] + (e[j] + 1,) + e[j + 1 :], r, c) for e, c in q.items() for j, r in root
    )
    return numerator_dot_products(m, shifted, base)


def _horner(terms: dict, form: LinearForm, power: int):
    """Divide the nonzero polynomial with integer numerators terms by
    form^power, fraction-free (see the module docstring), stopping at the
    first nonzero remainder.

    Returns (steps, top, pieces), top the x_p-degree of the dividend.
    When steps == power, pieces are the slices of the quotient in y = D x_p
    (slice k the integer coefficient of y^k); otherwise pieces is the
    nonzero remainder of step number steps, a polynomial in x' alone."""
    m, p = form.conductor, form.pivot
    D, root = form.integral_root
    top = max(e[p] for e in terms)
    slices: list[dict] = [{} for _ in range(top + 1)]
    for e, c in terms.items():
        k = e[p]
        if D != 1 and k < top:
            c = [x * D ** (top - k) for x in c]
        slices[k][e[:p] + (0,) + e[p + 1 :]] = c
    for step in range(power):
        quotient: list[dict] = [{} for _ in range(len(slices) - 1)]
        carry: dict = {}
        for k in range(len(slices) - 1, 0, -1):
            carry = quotient[k - 1] = _plus_root_multiple(m, slices[k], carry, root)
        remainder = _plus_root_multiple(m, slices[0], carry, root)
        if remainder:
            return step, top, remainder
        slices = quotient
    return power, top, slices


def divide_by_linear_power(f: MultiPoly, form: LinearForm, power: int):
    """f / form^power as a polynomial, or NotDivisible: divide_numerators
    on the integer numerators of f."""
    n, m = f.nvars, f.conductor
    _check_operand(form, n, m)
    (terms,), den = integral_numerators([f], n, m)
    return divide_numerators(terms, den, form, power)


def divide_numerators(terms: dict, den: int, form: LinearForm, power: int):
    """f / form^power as a polynomial, or NotDivisible, for the f with
    integer coefficient vectors terms over the common denominator den.

    power <= 0 multiplies by the |power|-th power of the form, so the
    result is always a polynomial in that range.  Otherwise a coordinate
    form x_p divides off the exponents, and any other form by the
    fraction-free Horner steps in the pivot variable (see the module
    docstring), one step per power, stopping at the first nonzero
    remainder; each coefficient of the quotient or witness is scaled back
    once.
    """
    n, m = form.nvars, form.conductor
    if power <= 0 or not terms:
        f = MultiPoly._make(n, m, {e: from_numerators(m, c, den) for e, c in terms.items()})
        return f * form.as_poly() ** -power if power <= 0 else f
    (D, root), p = form.integral_root, form.pivot
    if not root:
        # x_p: lower every e_p by power, or the witness is the least e_p part
        v = min(power, *(e[p] for e in terms))
        f = MultiPoly._make(n, m, {
            e[:p] + (e[p] - v,) + e[p + 1 :]: from_numerators(m, c, den)
            for e, c in terms.items()
            if e[p] == v or v == power
        })
        return f if v == power else NotDivisible(v, f * form.as_poly() ** v)
    steps, top, pieces = _horner(terms, form, power)
    if steps < power:
        # f / form^steps at x_p = root is D^(steps - top) / den times pieces
        scale = den * D ** (top - steps)
        remainder = {e: from_numerators(m, c, scale) for e, c in pieces.items()}
        witness = MultiPoly._make(n, m, remainder) * form.as_poly() ** steps
        return NotDivisible(steps, witness)
    # the x_p^k coefficient of the quotient is D^(power - top + k) / den
    # times slice k, and k <= top - power
    return MultiPoly._make(
        n,
        m,
        {
            e[:p] + (k,) + e[p + 1 :]: from_numerators(m, c, den * D ** (top - power - k))
            for k, piece in enumerate(pieces)
            for e, c in piece.items()
        },
    )


# ---------------------------------------------------------------------------
# monomial enumeration


@lru_cache(maxsize=1024)
def graded_monomials(nvars: int, d: int) -> tuple[Exponents, ...]:
    """All exponent tuples of total degree d, in descending lexicographic
    order (so x1^d comes first)."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    if nvars == 1:
        return ((d,),)
    return tuple(
        (e,) + tail for e in range(d, -1, -1) for tail in graded_monomials(nvars - 1, d - e)
    )


# ---------------------------------------------------------------------------
# text form


def _names(names: Sequence[str] | None, nvars: int) -> list[str]:
    """The given variable names, or x1, x2, ...; there must be nvars."""
    names = list(names) if names else [f"x{k + 1}" for k in range(nvars)]
    if len(names) != nvars:
        raise ValueError("wrong number of variable names")
    return names


def _monomial_text(exps: Exponents, names: Sequence[str]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


def _coeff_pieces(c: CycNum) -> tuple[int, str | None]:
    """(sign, body) for a coefficient, read off its own text; body None
    means a bare 1, and a sum of several terms keeps its parentheses."""
    body = c.text()
    if " " in body:
        return 1, f"({body})"
    sign = -1 if body.startswith("-") else 1
    body = body.removeprefix("-")
    return sign, None if body == "1" else body


def poly_text(f: MultiPoly, names: Sequence[str] | None = None) -> str:
    if not f.terms:
        return "0"
    names = _names(names, f.nvars)
    keys = sorted(f.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))

    def terms():
        for e in keys:
            sign, body = _coeff_pieces(f.terms[e])
            mono = _monomial_text(e, names)
            if body is None:
                yield sign, mono or "1"
            else:
                yield sign, f"{body}*{mono}" if mono else body

    return join_terms(terms())


def parse_poly(
    text: str,
    nvars: int,
    conductor: int,
    names: Sequence[str] | None = None,
) -> MultiPoly:
    """Parse the format emitted by poly_text, exactly: cyclotomic.parse_terms
    over the variable names."""
    return MultiPoly(nvars, conductor, parse_terms(text, conductor, _names(names, nvars)))
