"""Sparse multivariate polynomials over a fixed cyclotomic field.

A polynomial is a dict from exponent tuples to nonzero CycNum coefficients,
all sharing one conductor.  The representation is exact and canonical:
two polynomials are equal iff their dicts are equal, and no zero
coefficient is ever stored.

The text form writes terms in graded-lexicographic order, highest degree
first, for example ``z*x1^2*x2 - 1/3*x2^3``.  A coefficient that needs more
than one power of z is parenthesized, ``(z + 1)*x1``.  parse_poly inverts
poly_text bit-exactly.

The workhorse for everything downstream is exact division by a power of a
linear form.  Rather than polynomial long division, we move to coordinates
in which the form is the first variable: for a normalized form ell with
pivot variable x_p, the substitution

    u_1 = ell(x),   u_2.. = the remaining variables in order

is invertible and triangular, so f is divisible by ell^k exactly when every
monomial of the rewritten polynomial carries u_1-exponent at least k.  The
change of coordinates is cached per hyperplane and memoized per monomial,
because the membership systems later ask for the same transforms over and
over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cyclotomic import ConductorMismatch, CycNum, parse_cyc

__all__ = [
    "LinearForm",
    "MultiPoly",
    "LinearSubstitution",
    "HyperplaneCoordinates",
    "NotDivisible",
    "divide_by_linear_power",
    "graded_monomials",
    "hyperplane_coordinates",
    "parse_poly",
    "poly_text",
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


class MultiPoly:
    """Exact sparse polynomial in nvars variables over Q(zeta_conductor)."""

    __slots__ = ("nvars", "conductor", "terms")

    def __init__(self, nvars: int, conductor: int, terms=None):
        clean: dict[Exponents, CycNum] = {}
        if terms:
            for exps, c in (terms.items() if isinstance(terms, dict) else terms):
                cc = _as_coeff(c, conductor)
                if not cc:
                    continue
                key = tuple(exps)
                if len(key) != nvars:
                    raise ValueError(f"exponent tuple {key} does not fit {nvars} variables")
                prev = clean.get(key)
                acc = cc if prev is None else prev + cc
                if acc:
                    clean[key] = acc
                else:
                    clean.pop(key, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "terms", clean)

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
        exps = tuple(1 if j == k else 0 for j in range(nvars))
        return cls(nvars, conductor, {exps: 1})

    # -- ring structure --------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = MultiPoly.constant(self.nvars, self.conductor, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
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
        if isinstance(other, (int, Fraction, CycNum)):
            other = MultiPoly.constant(self.nvars, self.conductor, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

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
        self._check(other)
        out: dict[Exponents, CycNum] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(key)
                acc = prod if acc is None else acc + prod
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return MultiPoly._make(self.nvars, self.conductor, out)

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
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "MultiPoly"]:
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return {
            d: MultiPoly._make(self.nvars, self.conductor, t)
            for d, t in sorted(buckets.items())
        }

    def coefficient(self, exps: Iterable[int]) -> CycNum:
        return self.terms.get(tuple(exps), CycNum.zero(self.conductor))

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
        pivot = next((k for k, c in enumerate(vec) if c), None)
        if pivot is None:
            raise ValueError("linear form must be nonzero")
        scale = vec[pivot]
        inv = scale.inverse()
        return scale, cls(len(vec), conductor, tuple(c * inv for c in vec))

    @property
    def pivot(self) -> int:
        return next(k for k, c in enumerate(self.coeffs) if c)

    def as_poly(self) -> MultiPoly:
        n = self.nvars
        return MultiPoly(
            n,
            self.conductor,
            {
                tuple(1 if j == k else 0 for j in range(n)): c
                for k, c in enumerate(self.coeffs)
                if c
            },
        )

    def __str__(self):
        return poly_text(self.as_poly())


# ---------------------------------------------------------------------------
# substitutions and hyperplane coordinates


class LinearSubstitution:
    """x_k -> sum_j rows[k][j] x_j, applied to polynomials with a
    per-monomial memo (monomial images are reused heavily downstream)."""

    def __init__(self, rows: Sequence[Sequence[CycNum]], conductor: int):
        self.nvars = len(rows)
        self.conductor = conductor
        self.rows = tuple(tuple(r) for r in rows)
        n = self.nvars
        self._row_polys = [
            MultiPoly(
                n,
                conductor,
                {
                    tuple(1 if j == i else 0 for j in range(n)): c
                    for i, c in enumerate(row)
                    if c
                },
            )
            for row in self.rows
        ]
        self._memo: dict[Exponents, MultiPoly] = {
            (0,) * n: MultiPoly.one(n, conductor)
        }

    def monomial_image(self, exps: Exponents) -> MultiPoly:
        got = self._memo.get(exps)
        if got is not None:
            return got
        k = next(i for i, e in enumerate(exps) if e)
        smaller = tuple(e - 1 if i == k else e for i, e in enumerate(exps))
        img = self.monomial_image(smaller) * self._row_polys[k]
        self._memo[exps] = img
        return img

    def apply(self, f: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(f.nvars, f.conductor)
        for exps, c in f.terms.items():
            out = out + self.monomial_image(exps) * c
        return out


class HyperplaneCoordinates:
    """Invertible change of variables carrying a normalized linear form to
    the first coordinate.  to_axis rewrites f(x) in the new coordinates u
    (with u_1 = the form); from_axis undoes it."""

    def __init__(self, form: LinearForm):
        self.form = form
        n = form.nvars
        m = form.conductor
        p = form.pivot
        rest = [j for j in range(n) if j != p]
        zero = CycNum.zero(m)
        one = CycNum.one(m)

        fwd_rows = [[zero] * n for _ in range(n)]
        # x_p = u_1 - sum_j coeffs[j] * u_{slot(j)}
        fwd_rows[p][0] = one
        for slot, j in enumerate(rest, start=1):
            fwd_rows[p][slot] = -form.coeffs[j]
            fwd_rows[j][slot] = one

        back_rows = [[zero] * n for _ in range(n)]
        back_rows[0] = list(form.coeffs)
        for slot, j in enumerate(rest, start=1):
            back_rows[slot][j] = one

        self.to_axis_sub = LinearSubstitution(fwd_rows, m)
        self.from_axis_sub = LinearSubstitution(back_rows, m)

    def to_axis(self, f: MultiPoly) -> MultiPoly:
        return self.to_axis_sub.apply(f)

    def from_axis(self, f: MultiPoly) -> MultiPoly:
        return self.from_axis_sub.apply(f)


@lru_cache(maxsize=256)
def hyperplane_coordinates(form: LinearForm) -> HyperplaneCoordinates:
    """The coordinates of form, shared between calls; a group has one form
    per reflecting hyperplane, far fewer than the cache holds."""
    return HyperplaneCoordinates(form)


# ---------------------------------------------------------------------------
# exact division


@dataclass
class NotDivisible:
    """Failure value for exact division: the form-adic valuation actually
    attained and the obstructing lowest-order component of the dividend."""

    valuation: int
    witness: MultiPoly


def divide_by_linear_power(f: MultiPoly, form: LinearForm, power: int):
    """f / form^power as a polynomial, or NotDivisible.

    power <= 0 multiplies by the |power|-th power of the form, so the
    result is always a polynomial in that range.
    """
    if power <= 0:
        return f * form.as_poly() ** (-power)
    if not f:
        return f
    coords = hyperplane_coordinates(form)
    g = coords.to_axis(f)
    val = min(e[0] for e in g.terms)
    if val >= power:
        shifted = {
            (e[0] - power,) + e[1:]: c for e, c in g.terms.items()
        }
        return coords.from_axis(MultiPoly._make(f.nvars, f.conductor, shifted))
    layer = {e: c for e, c in g.terms.items() if e[0] == val}
    witness = coords.from_axis(MultiPoly._make(f.nvars, f.conductor, layer))
    return NotDivisible(val, witness)


# ---------------------------------------------------------------------------
# monomial enumeration


@lru_cache(maxsize=None)
def graded_monomials(nvars: int, d: int) -> tuple[Exponents, ...]:
    """All exponent tuples of total degree d, in descending lexicographic
    order (so x1^d comes first)."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    if nvars == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for tail in graded_monomials(nvars - 1, d - e):
            out.append((e,) + tail)
    return tuple(out)


# ---------------------------------------------------------------------------
# text form


def _default_names(nvars: int) -> list[str]:
    return [f"x{k + 1}" for k in range(nvars)]


def _monomial_text(exps: Exponents, names: Sequence[str]) -> str:
    pieces = []
    for k, e in enumerate(exps):
        if e == 1:
            pieces.append(names[k])
        elif e > 1:
            pieces.append(f"{names[k]}^{e}")
    return "*".join(pieces)


def _coeff_pieces(c: CycNum) -> tuple[int, str | None]:
    """(sign, body) for a coefficient; body None means a bare 1."""
    nz = [k for k, v in enumerate(c.coeffs) if v]
    if len(nz) > 1:
        return 1, "(" + c.text() + ")"
    k = nz[0]
    v = c.coeffs[k]
    sign = 1 if v > 0 else -1
    mag = abs(v)
    if k == 0:
        return sign, None if mag == 1 else str(mag)
    zpow = "z" if k == 1 else f"z^{k}"
    return sign, zpow if mag == 1 else f"{mag}*{zpow}"


def poly_text(f: MultiPoly, names: Sequence[str] | None = None) -> str:
    if not f.terms:
        return "0"
    names = list(names) if names else _default_names(f.nvars)
    if len(names) != f.nvars:
        raise ValueError("wrong number of variable names")
    keys = sorted(f.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    parts = []
    for e in keys:
        sign, body = _coeff_pieces(f.terms[e])
        mono = _monomial_text(e, names)
        if body is None:
            text = mono if mono else "1"
        elif mono:
            text = f"{body}*{mono}"
        else:
            text = body
        if not parts:
            parts.append(text if sign > 0 else "-" + text)
        else:
            parts.append(("+ " if sign > 0 else "- ") + text)
    return " ".join(parts)


def _split_top_level(s: str) -> list[tuple[int, str]]:
    """Split on top-level + and - (outside parentheses) into signed chunks."""
    out = []
    depth = 0
    sign = 1
    cur: list[str] = []
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if ch in "+-" and depth == 0:
            out.append((sign, "".join(cur)))
            sign = -1 if ch == "-" else 1
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    out.append((sign, "".join(cur)))
    return out


def _split_factors(s: str) -> list[str]:
    """Split a term on top-level '*'."""
    out = []
    depth = 0
    cur: list[str] = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [p for p in out if p != ""]


import re as _re

_SCALAR_RE = _re.compile(r"^(?:\d+(?:/\d+)?|z(?:\^\d+)?)$")


def parse_poly(
    text: str,
    nvars: int,
    conductor: int,
    names: Sequence[str] | None = None,
) -> MultiPoly:
    """Parse the format emitted by poly_text, exactly."""
    names = list(names) if names else _default_names(nvars)
    index = {name: k for k, name in enumerate(names)}
    s = "".join(text.split())
    terms: list[tuple[Exponents, CycNum]] = []
    for sign, chunk in _split_top_level(s):
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = CycNum.one(conductor)
        exps = [0] * nvars
        for factor in _split_factors(chunk):
            if factor.startswith("(") and factor.endswith(")"):
                coeff = coeff * parse_cyc(factor[1:-1], conductor)
            elif _SCALAR_RE.match(factor):
                coeff = coeff * parse_cyc(factor, conductor)
            else:
                m = _re.match(r"^(.*?)(?:\^(\d+))?$", factor)
                name, exp = m.group(1), int(m.group(2) or 1)
                if name not in index:
                    raise ValueError(f"unknown factor {factor!r} in {text!r}")
                exps[index[name]] += exp
        terms.append((tuple(exps), coeff * sign))
    return MultiPoly(nvars, conductor, terms)
