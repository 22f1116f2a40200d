"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a residue modulo the m-th cyclotomic polynomial: a vector of
phi(m) rational coefficients

    c_0 + c_1 z + ... + c_{phi(m)-1} z^{phi(m)-1}

where z stands for a fixed primitive m-th root of unity and phi is Euler's
totient.  Everything is built on fractions.Fraction; no float is ever
produced, so equality of values is decidable and exact.

Conductors are sticky by design.  Operands of the ring operations must share
a conductor, except that plain ints and Fractions embed anywhere.  Mixing
two different conductors raises ConductorMismatch instead of silently
coercing: a wrong implicit embedding is exactly the kind of bug an exact
verification library exists to rule out.  Equality and hashing are
mathematical rather than representational: values held at different
conductors are compared inside the compositum, and hashes go through the
minimal conductor, so equal values collide properly in dicts and sets.

The text form is a polynomial in z with high powers first, for example
``1/2*z^2 - 1``; parse_cyc inverts text exactly.

PrimeReduction maps values into a prime field F_p by sending z to a root
of the cyclotomic polynomial modulo p.  It is a ring homomorphism on every
value whose coefficient denominators are prime to p, and refuses any other
value, so a rank computed from reduced entries never exceeds the exact one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

__all__ = [
    "ArithmeticFault",
    "ConductorMismatch",
    "CycNum",
    "NotReducible",
    "PrimeReduction",
    "cyclotomic_polynomial",
    "euler_phi",
    "parse_cyc",
    "root_of_unity",
]


class ConductorMismatch(Exception):
    """Arithmetic mixed two values with different declared conductors."""


class ArithmeticFault(ArithmeticError):
    """An identity that exact arithmetic relies on failed to hold; this is
    a library bug, never a property of the input."""


class NotReducible(ArithmeticError):
    """A value has a coefficient denominator divisible by the prime, so it
    has no image in F_p."""


_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# univariate polynomials over a field (Fraction or CycNum coefficients),
# as coefficient lists low degree first; the one set of these helpers in the
# package (the Molien series in groups.py uses them too)


def upoly_trim(p: list) -> list:
    """Drop trailing zero coefficients, in place."""
    while p and not p[-1]:
        p.pop()
    return p


def upoly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] = out[k] + y
    return upoly_trim(out)


def upoly_sub(a: list, b: list) -> list:
    return upoly_add(a, [-y for y in b])


def upoly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    zero = a[0] - a[0]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return upoly_trim(out)


def _reciprocal(x):
    # an int is made a Fraction first, so int inputs never divide to a float
    return 1 / (Fraction(x) if isinstance(x, int) else x)


def upoly_divmod(a: list, b: list) -> tuple[list, list]:
    """(quotient, remainder) of a by the trimmed nonzero b."""
    rem = list(a)
    inv = _reciprocal(b[-1])
    quo = []
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        quo.append(c)
        if c:
            for j, y in enumerate(b):
                rem[k + j] = rem[k + j] - c * y
    quo.reverse()
    return upoly_trim(quo), upoly_trim(rem[: len(b) - 1])


def upoly_gcd(a: list, b: list) -> list:
    """The monic greatest common divisor; [] when both are zero."""
    a, b = upoly_trim(list(a)), upoly_trim(list(b))
    while b:
        a, b = b, upoly_divmod(a, b)[1]
    if a:
        inv = _reciprocal(a[-1])
        a = [c * inv for c in a]
    return a


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first, by exact division of x^m - 1 by the product over proper divisors."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    if m == 1:
        return (-1, 1)
    num = [Fraction(-1)] + [_ZERO] * (m - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in _divisors(m)[:-1]:
        den = upoly_mul(den, [Fraction(c) for c in cyclotomic_polynomial(d)])
    quo, rem = upoly_divmod(num, den)
    if rem or any(c.denominator != 1 for c in quo):
        raise ArithmeticFault(f"cyclotomic division left a remainder at m={m}")
    return tuple(int(c) for c in quo)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod(m: int, vec: list[Fraction]) -> tuple[Fraction, ...]:
    """Residue of a coefficient vector modulo the m-th cyclotomic polynomial."""
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    r = list(vec)
    for k in range(len(r) - 1, phi - 1, -1):
        c = r[k]
        if c:
            for j in range(phi + 1):
                r[k - phi + j] -= c * mod[j]
    if len(r) < phi:
        r.extend([_ZERO] * (phi - len(r)))
    return tuple(r[:phi])


@lru_cache(maxsize=None)
def _zeta_power(m: int, e: int) -> tuple[Fraction, ...]:
    """z^e reduced into the power basis of Q(zeta_m)."""
    e %= m
    return _reduce_mod(m, [_ZERO] * e + [Fraction(1)])


# ---------------------------------------------------------------------------


class CycNum:
    """An element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial."""

    __slots__ = ("conductor", "coeffs", "_min")

    def __init__(self, conductor: int, coeffs=(0,)):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        phi = euler_phi(conductor)
        if len(vec) > phi:
            tup = _reduce_mod(conductor, vec)
        else:
            vec.extend([_ZERO] * (phi - len(vec)))
            tup = tuple(vec)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tup)
        object.__setattr__(self, "_min", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, conductor: int, coeffs: tuple) -> "CycNum":
        """Internal constructor for coefficient tuples that are already
        reduced Fractions of the right length; skips revalidation."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "coeffs", coeffs)
        object.__setattr__(obj, "_min", None)
        return obj

    @classmethod
    def rational(cls, conductor: int, value) -> "CycNum":
        return cls(conductor, (Fraction(value),))

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return cls(conductor, ())

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return cls(conductor, (Fraction(1),))

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum(self.conductor, (Fraction(other),))
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._make(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._make(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return CycNum._make(self.conductor, tuple(a * r for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        n = len(a)
        if n == 1:
            return CycNum._make(self.conductor, (a[0] * b[0],))
        if n == 2:
            # quadratic fields reduce in closed form: z^2 = -mod0 - mod1*z
            mod = cyclotomic_polynomial(self.conductor)
            c2 = a[1] * b[1]
            return CycNum._make(
                self.conductor,
                (a[0] * b[0] - c2 * mod[0], a[0] * b[1] + a[1] * b[0] - c2 * mod[1]),
            )
        conv = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycNum._make(self.conductor, _reduce_mod(self.conductor, conv))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        return CycNum._make(
            self.conductor, _inverse_coeffs(self.conductor, self.coeffs)
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = CycNum.one(self.conductor)
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- predicates and conversions ----------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def minimal(self) -> "CycNum":
        """The same value written at its minimal conductor."""
        cached = self._min
        if cached is not None:
            return cached
        out = self
        for d in _divisors(self.conductor)[:-1]:
            sol = _subfield_coords(self.conductor, d, self.coeffs)
            if sol is not None:
                out = CycNum(d, sol)
                break
        object.__setattr__(self, "_min", out)
        return out

    def embed(self, conductor: int) -> "CycNum":
        """Rewrite self inside Q(zeta_conductor); conductor must be a
        multiple of self.conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ConductorMismatch(
                f"{self.conductor} does not divide {conductor}"
            )
        step = conductor // self.conductor
        acc = [_ZERO] * euler_phi(conductor)
        for j, c in enumerate(self.coeffs):
            if c:
                for k, e in enumerate(_zeta_power(conductor, j * step)):
                    acc[k] += c * e
        return CycNum(conductor, acc)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return self.coeffs[0] == r and not any(self.coeffs[1:])
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.conductor == self.conductor:
            return self.coeffs == other.coeffs
        big = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.embed(big).coeffs == other.embed(big).coeffs

    def __hash__(self):
        m = self.minimal()
        if m.conductor == 1:
            return hash(m.coeffs[0])
        return hash((m.conductor, m.coeffs))

    # -- text --------------------------------------------------------------

    def text(self) -> str:
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                body = zpow if mag == 1 else f"{mag}*{zpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        if not parts:
            return "0"
        return " ".join(parts)

    __str__ = text

    def __repr__(self):
        return f"CycNum({self.conductor}, {self.coeffs!r})"


# ---------------------------------------------------------------------------
# field inverse and subfields


@lru_cache(maxsize=8192)
def _inverse_coeffs(m: int, coeffs: tuple) -> tuple:
    """Coefficients of the field inverse, by extended Euclid against the
    cyclotomic polynomial.  Cached: inversion is much rarer than
    multiplication but tends to hit the same scalars over and over."""
    mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
    r0, r1 = mod, upoly_trim(list(coeffs))
    s0, s1 = [_ZERO], [Fraction(1)]
    while r1:
        q, r = upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, upoly_sub(s0, upoly_mul(q, s1))
    # r0 is a nonzero constant: the cyclotomic polynomial is irreducible.
    if len(r0) != 1:
        raise ArithmeticFault(f"extended Euclid against Phi_{m} ended in a nonconstant gcd")
    inv = [c / r0[0] for c in s0]
    return _reduce_mod(m, inv)


def _subfield_coords(m: int, d: int, vec) -> tuple[Fraction, ...] | None:
    """Coordinates of vec (living in Q(zeta_m)) over the power basis of
    Q(zeta_d), or None when the value does not lie in the subfield."""
    phi_d = euler_phi(d)
    step = m // d
    cols = [_zeta_power(m, j * step) for j in range(phi_d)]
    # solve cols * c = vec by Gaussian elimination on the augmented system
    rows = [[cols[j][i] for j in range(phi_d)] + [vec[i]] for i in range(euler_phi(m))]
    piv = 0
    pivots: list[int] = []
    for col in range(phi_d):
        hit = next((r for r in range(piv, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        inv = 1 / rows[piv][col]
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        pivots.append(col)
        piv += 1
    for r in range(piv, len(rows)):
        if rows[r][-1]:
            return None
    sol = [_ZERO] * phi_d
    for k, col in enumerate(pivots):
        sol[col] = rows[k][-1]
    return tuple(sol)


# ---------------------------------------------------------------------------
# reduction into a prime field


def _is_prime(n: int) -> bool:
    """Primality by trial division: a proof, not a probabilistic test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, isqrt(n) + 1, 2))


def _cyclotomic_value_mod(m: int, x: int, p: int) -> int:
    """Phi_m(x) modulo p."""
    return sum(c * pow(x, k, p) for k, c in enumerate(cyclotomic_polynomial(m))) % p


# A rank drops modulo p only when p divides every maximal nonzero minor, so
# a large p makes that rare, while residues near 2^30 keep products cheap.
_PRIME_FLOOR = 2**30


class PrimeReduction:
    """The ring map Z_(p)[zeta_m] -> F_p sending z to a root r of Phi_m mod p.

    Z_(p) is the rationals whose denominators are prime to p.  Every minor
    of a matrix over that ring reduces to the matching minor of the reduced
    matrix, so rank over F_p never exceeds rank over Q(zeta_m).  A value
    outside the ring raises NotReducible instead of being mapped.
    """

    __slots__ = ("conductor", "prime", "root", "_powers")

    def __init__(self, conductor: int, prime: int, root: int):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if _cyclotomic_value_mod(conductor, root, prime):
            raise ValueError(f"{root} is not a root of Phi_{conductor} modulo {prime}")
        self.conductor = conductor
        self.prime = prime
        self.root = root % prime
        self._powers = tuple(pow(root, k, prime) for k in range(euler_phi(conductor)))

    @classmethod
    def for_conductor(cls, conductor: int) -> "PrimeReduction":
        """The smallest prime p = 1 (mod m) above 2^30, with the first
        a^((p-1)/m), a = 2, 3, ..., that is a root of Phi_m mod p."""
        m = conductor
        p = (_PRIME_FLOOR // m + 1) * m + 1
        while not _is_prime(p):
            p += m
        # F_p^* is cyclic of order divisible by m, so some a works
        a = 2
        while _cyclotomic_value_mod(m, pow(a, (p - 1) // m, p), p):
            a += 1
        return cls(m, p, pow(a, (p - 1) // m, p))

    def reduce(self, x: CycNum) -> int:
        """The image of x in F_p, as an integer in [0, p)."""
        if x.conductor != self.conductor:
            raise ConductorMismatch(f"conductor {self.conductor} vs {x.conductor}")
        p = self.prime
        acc = 0
        for c, rk in zip(x.coeffs, self._powers):
            if c:
                den = c.denominator
                if den % p == 0:
                    raise NotReducible(f"{x.text()} has a denominator divisible by {p}")
                term = c.numerator * rk
                acc += term if den == 1 else term * pow(den, -1, p)
        return acc % p


# ---------------------------------------------------------------------------


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k at its natural conductor m / gcd(k, m)."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    k %= m
    g = gcd(k, m)
    return CycNum(m // g, _zeta_power(m // g, k // g))


_TERM_RE = re.compile(
    r"^(?:(?P<rat>\d+(?:/\d+)?)(?:\*(?P<pz>z(?:\^\d+)?))?|(?P<z>z(?:\^\d+)?))$"
)


def parse_cyc(text: str, conductor: int) -> CycNum:
    """Parse the text form produced by CycNum.text (rationals, z-powers,
    signs); exponents at or above phi(conductor) are reduced."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"[+-][^+-]+", s)
    if sum(len(p) for p in pieces) != len(s):
        raise ValueError(f"cannot parse cyclotomic literal {text!r}")
    acc = CycNum.zero(conductor)
    for piece in pieces:
        sign = -1 if piece[0] == "-" else 1
        m = _TERM_RE.match(piece[1:])
        if m is None:
            raise ValueError(f"bad term {piece!r} in cyclotomic literal {text!r}")
        coeff = Fraction(m.group("rat")) if m.group("rat") else Fraction(1)
        zpart = m.group("pz") or m.group("z")
        exp = 0
        if zpart:
            exp = 1 if zpart == "z" else int(zpart[2:])
        acc = acc + CycNum(conductor, [_ZERO] * exp + [sign * coeff])
    return acc
