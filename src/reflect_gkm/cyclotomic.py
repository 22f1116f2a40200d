"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is a residue modulo the m-th cyclotomic polynomial Phi_m: phi(m)
integer numerators over one positive common denominator,

    (n_0 + n_1 z + ... + n_{phi(m)-1} z^{phi(m)-1}) / d,

where z stands for a fixed primitive m-th root of unity and phi is Euler's
totient.  The pair is canonical, gcd(d, n_0, ..., n_{phi(m)-1}) = 1, so
equal values at one conductor have equal pairs.  Each ring operation works
on integers and takes one gcd per result; Phi_m is monic with integer
coefficients, so reduction by it keeps numerators integral.  No float is
ever produced, so equality of values is decidable and exact.

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
value whose common denominator is prime to p, and refuses any other value,
so a rank computed from reduced entries never exceeds the exact one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

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
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in _divisors(m)[:-1]:
        den = upoly_mul(den, [Fraction(c) for c in cyclotomic_polynomial(d)])
    quo, rem = upoly_divmod(num, den)
    if rem or any(c.denominator != 1 for c in quo):
        raise ArithmeticFault(f"cyclotomic division left a remainder at m={m}")
    return tuple(int(c) for c in quo)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod(m: int, r: list[int]) -> list[int]:
    """Residue of an integer coefficient list modulo the m-th cyclotomic
    polynomial, in place, padded or cut to length phi(m).  Phi_m is monic
    with integer coefficients, so the residue stays integral."""
    phi, terms = _phi_terms(m)
    for k in range(len(r) - 1, phi - 1, -1):
        c = r[k]
        if c:
            base = k - phi
            for j, t in terms:
                r[base + j] -= c * t
    if len(r) < phi:
        r.extend([0] * (phi - len(r)))
    else:
        del r[phi:]
    return r


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(m), the nonzero (j, c) of Phi_m below its leading term)."""
    mod = cyclotomic_polynomial(m)
    return len(mod) - 1, tuple((j, c) for j, c in enumerate(mod[:-1]) if c)


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """z^e reduced into the power basis of Q(zeta_m), for e = 0 .. m-1."""
    return tuple(tuple(_reduce_mod(m, [0] * e + [1])) for e in range(m))


def _zeta_power(m: int, e: int) -> tuple[int, ...]:
    """z^e reduced into the power basis of Q(zeta_m); z^m = 1."""
    return _zeta_powers(m)[e % m]


def _mul_int(m: int, a, b) -> list[int]:
    """The product of two integer coefficient vectors modulo Phi_m."""
    n = len(a)
    if n == 2:
        # quadratic fields reduce in closed form: z^2 = -mod0 - mod1*z
        mod = cyclotomic_polynomial(m)
        a0, a1 = a
        b0, b1 = b
        c2 = a1 * b1
        return [a0 * b0 - c2 * mod[0], a0 * b1 + a1 * b0 - c2 * mod[1]]
    conv = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _reduce_mod(m, conv)


# ---------------------------------------------------------------------------


class CycNum:
    """An element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    The value is held as integer numerators ``num`` (length phi(m)) over
    one positive common denominator ``den``, with gcd(den, *num) == 1, so
    equal values at one conductor have equal (num, den) pairs.  ``coeffs``
    gives the same value as a tuple of Fractions.
    """

    __slots__ = ("conductor", "num", "den", "_min")

    def __init__(self, conductor: int, coeffs=(0,)):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in vals))
        num = _reduce_mod(conductor, [c.numerator * (den // c.denominator) for c in vals])
        g = gcd(den, *num)
        _set_conductor(self, conductor)
        _set_num(self, tuple(c // g for c in num))
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, conductor: int, value) -> "CycNum":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        pad = (0,) * (euler_phi(conductor) - 1)
        return _make(conductor, (q.numerator,) + pad, q.denominator)

    @classmethod
    def zero(cls, conductor: int) -> "CycNum":
        return cls.rational(conductor, 0)

    @classmethod
    def one(cls, conductor: int) -> "CycNum":
        return cls.rational(conductor, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            pad = (0,) * (len(self.num) - 1)
            return _make(self.conductor, (other.numerator,) + pad, other.denominator)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, [-y for y in o.num], o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o, [-y for y in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, CycNum):
            m = self.conductor
            if other.conductor != m:
                raise ConductorMismatch(f"conductor {m} vs {other.conductor}")
            a, b = self.num, other.num
            den = self.den * other.den
            if len(a) == 1:
                # conductors 1 and 2: the field is Q
                x = a[0] * b[0]
                g = gcd(x, den)
                return _make(m, (x // g,), den // g)
            return _canon(m, _mul_int(m, a, b), den)
        if isinstance(other, (int, Fraction)):
            return _canon(
                self.conductor,
                [x * other.numerator for x in self.num],
                self.den * other.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        return _inverse(self.conductor, self.num, self.den)

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
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def minimal(self) -> "CycNum":
        """The same value written at its minimal conductor."""
        cached = getattr(self, "_min", None)
        if cached is not None:
            return cached
        out = self
        for d in _divisors(self.conductor)[:-1]:
            sol = _subfield_coords(self.conductor, d, self.num)
            if sol is not None:
                out = _canon(d, sol[0], sol[1] * self.den)
                break
        _set_min(self, out)
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
        return _canon(conductor, _power_map(conductor, self.num, step), self.den)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            big = lcm(a.conductor, b.conductor)
            a, b = a.embed(big), b.embed(big)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        m = self.minimal()
        if m.conductor == 1:
            return hash(Fraction(m.num[0], m.den))
        return hash((m.conductor, m.num, m.den))

    # -- text --------------------------------------------------------------

    def text(self) -> str:
        parts: list[str] = []
        coeffs = self.coeffs
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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


# CycNum refuses attribute assignment, so its slots are filled through their
# descriptors; _min stays unset until minimal() caches a value there.
_new = object.__new__
_set_conductor = CycNum.conductor.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__
_set_min = CycNum._min.__set__


def _make(conductor: int, num: tuple, den: int) -> CycNum:
    """Internal constructor for a canonical (num, den) pair of the right
    length; skips revalidation."""
    obj = _new(CycNum)
    _set_conductor(obj, conductor)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _canon(m: int, num: list, den: int) -> CycNum:
    """The CycNum num/den at conductor m, for den > 0: one gcd divides out
    the common factor."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return _make(m, tuple(num), den)


def _sum(x: CycNum, num, den: int) -> CycNum:
    """x + num/den, for an integer vector num and den > 0."""
    dx = x.den
    if dx == den:
        return _canon(x.conductor, [a + b for a, b in zip(x.num, num)], dx)
    g = gcd(dx, den)
    fx, fo = den // g, dx // g
    return _canon(
        x.conductor, [a * fx + b * fo for a, b in zip(x.num, num)], dx * fx
    )


# ---------------------------------------------------------------------------
# field inverse and subfields


def _power_map(m: int, num, k: int) -> list[int]:
    """sum_j num[j] z^(j k) in the power basis of Q(zeta_m): the conjugate
    sigma_k for k prime to m, the embedding of a subfield for k = m / d."""
    acc = [0] * euler_phi(m)
    for j, c in enumerate(num):
        if c:
            for i, e in enumerate(_zeta_power(m, j * k)):
                acc[i] += c * e
    return acc


@lru_cache(maxsize=8192)
def _inverse(m: int, num: tuple, den: int) -> CycNum:
    """The field inverse of the nonzero num/den at conductor m.

    With P the product of the conjugates sigma_k(num), 1 < k < m prime to
    m, the norm N = num * P is a nonzero integer and the inverse is
    den * P / N.
    Cached: inversion is much rarer than multiplication but tends to hit
    the same scalars over and over."""
    if not any(num[1:]):
        prod, norm = [1] + [0] * (len(num) - 1), num[0]
    else:
        prod = None
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = _power_map(m, num, k)
                prod = conj if prod is None else _mul_int(m, prod, conj)
        norm_vec = _mul_int(m, num, prod)
        if any(norm_vec[1:]):
            raise ArithmeticFault(f"the norm of {num} over Phi_{m} is not rational")
        norm = norm_vec[0]
    if norm < 0:
        den, norm = -den, -norm
    return _canon(m, [den * c for c in prod], norm)


def _subfield_coords(m: int, d: int, num: tuple) -> tuple[list[int], int] | None:
    """Integer coordinates (c, q) with num = (1/q) sum_j c_j zeta_d^j, where
    zeta_d = z^(m/d), or None when num does not lie in Q(zeta_d).  The
    system is solved by fraction-free Gauss-Jordan elimination."""
    phi_d = euler_phi(d)
    step = m // d
    cols = [_zeta_power(m, j * step) for j in range(phi_d)]
    rows = [[col[i] for col in cols] + [num[i]] for i in range(len(num))]
    # the powers of zeta_d are independent, so every column has a pivot
    for k in range(phi_d):
        hit = next(r for r in range(k, len(rows)) if rows[r][k])
        rows[k], rows[hit] = rows[hit], rows[k]
        p = rows[k]
        for r, row in enumerate(rows):
            f = row[k]
            if r != k and f:
                rows[r] = [p[k] * x - f * y for x, y in zip(row, p)]
    if any(row[-1] for row in rows[phi_d:]):
        return None
    # row k now reads rows[k][k] * c_k = rows[k][-1]
    q = lcm(*(rows[k][k] for k in range(phi_d)))
    return [rows[k][-1] * (q // rows[k][k]) for k in range(phi_d)], q


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
        den = x.den
        if den % p == 0:
            raise NotReducible(f"{x.text()} has a denominator divisible by {p}")
        acc = sum(c * rk for c, rk in zip(x.num, self._powers) if c)
        return acc % p if den == 1 else acc * pow(den, -1, p) % p


# ---------------------------------------------------------------------------


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k at its natural conductor m / gcd(k, m)."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    k %= m
    g = gcd(k, m)
    return _make(m // g, _zeta_power(m // g, k // g), 1)


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
        try:
            coeff = Fraction(m.group("rat") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in cyclotomic literal {text!r}") from None
        zpart = m.group("pz") or m.group("z")
        exp = 0
        if zpart:
            exp = 1 if zpart == "z" else int(zpart[2:])
        # z^m = 1, so _zeta_power reduces the exponent mod m first
        q = sign * coeff
        term = [q.numerator * e for e in _zeta_power(conductor, exp)]
        acc = acc + _canon(conductor, term, q.denominator)
    return acc
