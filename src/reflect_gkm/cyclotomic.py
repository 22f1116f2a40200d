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

The text form of every exact literal is defined here, once.  CycNum.text
writes a polynomial in z with high powers first, for example
``1/2*z^2 - 1``, and it and polynomials.poly_text join signed terms
through join_terms.  parse_terms reads both: signed terms at top-level +
and -, factors at top-level * in any order, each a rational, z or z^k, a
parenthesized literal or a variable name with an optional ^k, whitespace
ignored.  parse_cyc is its case with no variables, so a group-file entry
and a map-file coefficient follow one grammar.

keyed_dot_products is the one kernel for sums of products: it forms
{key: sum x y} from (key, x, y) triples on the integer numerators, so each
output (a polynomial coefficient, a matrix entry) costs one gcd instead of
one per product and partial sum.  numerator_dot_products is its twin on
bare integer numerators, for callers that keep one common denominator
themselves; from_numerators turns such a vector back into a CycNum.
numerator_dot_products adds each product into its key's sum where it is
formed.  At phi = 1 the field is Q and a product is one integer; at
phi = 2 (m = 3, 4, 6) it is (a0 b0 - c Phi_0, a0 b1 + a1 b0 - c Phi_1)
with c = a1 b1, from z^2 = -Phi_0 - Phi_1 z.  Above that a key sums the
unreduced convolutions of its products and is reduced once: the residue
modulo the monic Phi_m is Z-linear (r(u + v) - r(u) - r(v) is a multiple
of Phi_m of degree below phi, so 0), so the residue of the sum is the sum
of the residues, the vector that reducing every product gives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "ArithmeticFault",
    "ConductorMismatch",
    "CycNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "from_numerators",
    "join_terms",
    "keyed_dot_products",
    "numerator_dot_products",
    "parse_cyc",
    "parse_terms",
    "root_of_unity",
]


class ConductorMismatch(Exception):
    """Arithmetic mixed two values with different declared conductors."""


class ArithmeticFault(ArithmeticError):
    """An identity that exact arithmetic relies on failed to hold; this is
    a library bug, never a property of the input."""


class NonUnitDivisor(ValueError):
    """A power-series divisor whose constant term is not 1 or -1."""


# ---------------------------------------------------------------------------
# univariate polynomials over int or CycNum coefficients, as coefficient
# lists low degree first; the one set of these helpers in the package.
# Nothing here divides: a quotient is a power series by a divisor with
# constant term 1 or -1 (Phi_m below, the Molien series in groups.py).


def upoly_trim(p: list) -> list:
    """Drop trailing zero coefficients, in place."""
    while p and not p[-1]:
        p.pop()
    return p


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


def upoly_series_quotient(a: list, b: list, k: int) -> list:
    """The first k coefficients of the power series a / b, for b whose
    constant term b_0 is 1 or -1 (an int or a CycNum); any other b raises
    NonUnitDivisor.  Then 1 / b_0 = b_0, so q_d = b_0 (a_d - sum_{j>=1}
    b_j q_{d-j}) never divides, ints stay ints, and b's zero terms are
    skipped."""
    if not b or not (b[0] == 1 or b[0] == -1):
        lead = b[0] if b else 0
        raise NonUnitDivisor(f"a power-series divisor has constant term {lead}, not 1 or -1")
    negate = b[0] != 1
    terms = [(j, c) for j, c in enumerate(b) if j and c]
    zero = b[0] - b[0]
    out = []
    for d in range(k):
        acc = a[d] if d < len(a) else zero
        for j, c in terms:
            if j > d:
                break
            acc = acc - c * out[d - j]
        out.append(-acc if negate else acc)
    return out


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first: the power series (x^m - 1) / b for b the product of Phi_d over
    the proper divisors d of m, whose constant term is -1 (Phi_1 = x - 1)
    or 1 (m = 1), cut after degree phi(m) = m - deg b.

    Coefficients phi(m) + 1, ..., m of the series must vanish, and that
    proves the division exact.  Write x^m - 1 = q b + r with deg q = phi(m)
    and deg r < deg b, so the series is q + r / b and its coefficients past
    phi(m) are those of s = r / b.  From degree deg b on, b s = r says b_0
    s_k = -sum_{j>=1} b_j s_{k-j}: each coefficient is fixed by the deg b
    before it.  So the deg b = m - phi(m) zeros checked here make every
    later one zero, and s is a polynomial.  Then r = b s has degree at
    least deg b unless s = 0, so s = 0 and r = 0.  A nonzero coefficient
    there raises ArithmeticFault."""
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    den = [1]
    for d in _divisors(m)[:-1]:
        den = upoly_mul(den, list(cyclotomic_polynomial(d)))
    phi = m + 1 - len(den)
    series = upoly_series_quotient([-1] + [0] * (m - 1) + [1], den, m + 1)
    if any(series[phi + 1 :]):
        raise ArithmeticFault(f"cyclotomic division left a remainder at m={m}")
    return tuple(series[: phi + 1])


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


@lru_cache(maxsize=4096)
def _zeta_power(m: int, e: int) -> tuple[int, ...]:
    """z^e reduced into the power basis of Q(zeta_m); z^m = 1, so only
    e mod m is reduced."""
    return tuple(_reduce_mod(m, [0] * (e % m) + [1]))


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
        def terms():
            coeffs = self.coeffs
            for k in range(len(coeffs) - 1, -1, -1):
                c = coeffs[k]
                if c:
                    mag = abs(c)
                    zpow = "z" if k == 1 else f"z^{k}"
                    body = str(mag) if k == 0 else zpow if mag == 1 else f"{mag}*{zpow}"
                    yield c, body

        return join_terms(terms())

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


def keyed_dot_products(conductor: int, triples) -> dict:
    """{key: sum x * y} over (key, x, y) triples of CycNums at the given
    conductor, zero sums dropped.  Products are formed on the integer
    numerators and added per key over the lcm of their denominators; each
    total is canonicalised once.  Callers vouch for the operands' conductor
    (polynomials check it once per polynomial)."""
    m = conductor
    sums: dict = {}
    for key, x, y in triples:
        a, b = x.num, y.num
        prod = [a[0] * b[0]] if len(a) == 1 else _mul_int(m, a, b)
        d = x.den * y.den
        slot = sums.get(key)
        if slot is None:
            sums[key] = [prod, d]
            continue
        acc, den = slot
        if d == den:
            slot[0] = [u + v for u, v in zip(acc, prod)]
        else:
            g = gcd(den, d)
            fa, fp = d // g, den // g
            slot[0] = [u * fa + v * fp for u, v in zip(acc, prod)]
            slot[1] = den * fa
    return {key: _canon(m, acc, den) for key, (acc, den) in sums.items() if any(acc)}


def numerator_dot_products(conductor: int, triples, start: dict) -> dict:
    """{key: start[key] + sum a * b} over (key, a, b) triples of integer
    coefficient vectors at the conductor, zero sums dropped; nothing is
    canonicalised and start's vectors are left as they are.  Each product
    is added into its key's sum where it is formed (see the module
    docstring): a new tuple per product at phi <= 2, and above that an
    unreduced convolution per key, reduced once."""
    m = conductor
    mod = cyclotomic_polynomial(m)
    phi = len(mod) - 1
    if phi <= 2:
        sums = dict(start)
        get = sums.get
        if phi == 1:
            for key, a, b in triples:
                acc = get(key)
                sums[key] = (a[0] * b[0],) if acc is None else (acc[0] + a[0] * b[0],)
            return {key: acc for key, acc in sums.items() if acc[0]}
        p0, p1 = mod[:2]
        for key, (a0, a1), (b0, b1) in triples:
            c2 = a1 * b1
            acc = get(key)
            if acc is None:
                sums[key] = (a0 * b0 - c2 * p0, a0 * b1 + a1 * b0 - c2 * p1)
            else:
                sums[key] = (acc[0] + a0 * b0 - c2 * p0, acc[1] + a0 * b1 + a1 * b0 - c2 * p1)
        return {key: acc for key, acc in sums.items() if acc[0] or acc[1]}
    pad = [0] * (phi - 1)
    sums = {key: [*v, *pad] for key, v in start.items()}
    get = sums.get
    for key, a, b in triples:
        acc = get(key)
        if acc is None:
            acc = sums[key] = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    if y:
                        acc[k] += x * y
    # _reduce_mod works in place, so each kept acc is its residue
    return {key: acc for key, acc in sums.items() if any(_reduce_mod(m, acc))}


def from_numerators(conductor: int, num, den: int) -> CycNum:
    """The CycNum num/den at the conductor, for an integer vector num of
    length phi(conductor) and an integer den > 0."""
    if den <= 0:
        raise ValueError("a common denominator must be positive")
    return _canon(conductor, num, den)


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


def root_of_unity(m: int, k: int) -> CycNum:
    """zeta_m^k at its natural conductor m / gcd(k, m)."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    k %= m
    g = gcd(k, m)
    return _make(m // g, _zeta_power(m // g, k // g), 1)


def join_terms(terms) -> str:
    """The text of a sum of (sign, body) terms, as in ``a - b + c``; "0"
    when there are none.  CycNum.text and poly_text both write through it."""
    out = ""
    for sign, body in terms:
        if out:
            out += " - " if sign < 0 else " + "
        elif sign < 0:
            out = "-"
        out += body
    return out or "0"


def _split_top_level(s: str, seps: str) -> list[tuple[str, str]]:
    """(separator, piece) pairs of s cut at the characters of seps outside
    parentheses; the first piece's separator is ""."""
    out, depth, sep, start = [], 0, "", 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            raise ValueError("unbalanced parentheses")
        if ch in seps and not depth:
            out.append((sep, s[start:i]))
            sep, start = ch, i + 1
    if depth:
        raise ValueError("unbalanced parentheses")
    return out + [(sep, s[start:])]


def parse_terms(text: str, conductor: int, names=()) -> dict[tuple[int, ...], CycNum]:
    """{exponents of names: coefficient} of an exact literal; the one
    grammar behind parse_cyc (no names, so the one key is ()) and
    polynomials.parse_poly.

    Whitespace is ignored.  A literal is signed terms split at top-level
    + and -, and a term is factors split at top-level *.  A factor is a
    rational a or a/b, z or z^k (z^m = 1), a parenthesized literal with no
    names, or one of names with an optional ^k."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty literal")
    # the exponent of z rides in the last slot; z is the root even if named
    index = {name: k for k, name in enumerate([*names, "z"])}
    out: dict = {}
    # a leading sign leaves an empty first piece
    for sep, chunk in _split_top_level(s, "+-")[s[0] in "+-" :]:
        factors = [f for _, f in _split_top_level(chunk, "*")]
        if "" in factors:
            raise ValueError(
                f"empty factor in {chunk!r}" if chunk else f"dangling sign in {text!r}"
            )
        num, den, exps, scalars = -1 if sep == "-" else 1, 1, [0] * (len(names) + 1), []
        for factor in factors:
            base, hat, power = factor.partition("^")
            top, slash, bottom = base.partition("/")
            if factor[0] == "(" and factor[-1] == ")":
                try:
                    scalars.append(parse_cyc(factor[1:-1], conductor))
                except RecursionError:
                    raise ValueError(f"parentheses nested too deeply in {text[:40]!r}") from None
            elif hat and not power.isdecimal():
                raise ValueError(f"bad exponent in {factor!r}")
            elif base in index:
                exps[index[base]] += int(power or 1)
            elif not hat and top.isdecimal() and (bottom.isdecimal() or not slash):
                num, den = num * int(top), den * int(bottom or 1)
            else:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        # _zeta_power reduces the exponent mod m
        term = _canon(conductor, [num * e for e in _zeta_power(conductor, exps.pop())], den)
        for c in scalars:
            term = term * c
        key = tuple(exps)
        out[key] = out[key] + term if key in out else term
    return out


def parse_cyc(text: str, conductor: int) -> CycNum:
    """The value of a literal with no names, such as CycNum.text writes
    (parse_terms); exponents of z are reduced mod the conductor."""
    return parse_terms(text, conductor)[()]
