"""Exact linear algebra over cyclotomic coefficients.

Plain Gaussian elimination, no pivoting heuristics: coefficients are exact,
so the first nonzero entry in a column is as good a pivot as any, and doing
it this way keeps every basis and nullspace deterministic, which the
verification reports rely on.  Everything accepts CycNum entries; Fractions
work too since only +, -, *, / and truthiness are used.  The small dense
matrices (group elements) take CycNum entries only: mat_mul and mat_vec
sum their products in one cyclotomic.keyed_dot_products call.  rank_mod_p
is the one exception: it works on integers modulo a prime, for the rank
step of localization.DimensionTriples' certificate, on the matrix that
localization._lift_matrix_mod_p evaluates from the lifts.  rref is the
package's only elimination over Q(zeta_m); cyclotomic._subfield_coords,
fraction-free over the integers, is the other one outside this module,
since cyclotomic sits below linalg in the import order.

PrimeReduction maps values into a prime field F_p by sending z to a root
of the cyclotomic polynomial modulo p, for rank_mod_p.  It is a ring
homomorphism on every value whose common denominator is prime to p, and
refuses any other value, so a rank computed from reduced entries never
exceeds the exact one.
"""

from __future__ import annotations

from typing import Sequence

from .cyclotomic import (
    ConductorMismatch,
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
    keyed_dot_products,
)

__all__ = [
    "NotReducible",
    "PrimeReduction",
    "mat_identity",
    "mat_inv",
    "mat_mul",
    "mat_vec",
    "nullspace",
    "rank",
    "rank_mod_p",
    "rref",
]

Matrix = tuple[tuple[CycNum, ...], ...]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p, p prime, of a matrix of integers read modulo p."""
    work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = pow(work[r][col], -1, p)
        tail = [x * inv % p for x in work[r][col:]]
        for i in range(r + 1, len(work)):
            row = work[i]
            f = row[col]
            if f:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
        r += 1
        if r == len(work):
            break
    return r


# ---------------------------------------------------------------------------
# reduction into a prime field, for rank_mod_p


class NotReducible(ArithmeticError):
    """A value has a coefficient denominator divisible by the prime, so it
    has no image in F_p."""


# The first 13 primes as strong-probable-prime bases decide primality for
# every n below _MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86,
# 2017); the first 12 do not: psi_12 = 318665857834031151167461 is composite
# and passes all of them.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality as a proof, not a probabilistic test: strong Miller-Rabin
    on the bases above.  n at or above their bound is refused."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin bound")
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    def for_conductor(cls, conductor: int, above: int = _PRIME_FLOOR) -> "PrimeReduction":
        """The least prime p = 1 (mod m) above 2^30, or above a prime it gave
        before, with the first a^((p-1)/m), a = 2, 3, ..., a root of Phi_m."""
        m = conductor
        p = (above // m + 1) * m + 1
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


def nullspace(rows: Sequence[Sequence], ncols: int, conductor: int) -> list[tuple[CycNum, ...]]:
    """Deterministic basis of the right kernel, one vector per free column,
    in ascending free-column order."""
    zero = CycNum.zero(conductor)
    one = CycNum.one(conductor)
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for k, pc in enumerate(pivots):
            entry = red[k][free]
            if entry:
                vec[pc] = -entry
        basis.append(tuple(vec))
    return basis


# -- small dense matrices (group elements) -----------------------------------


def mat_identity(n: int, conductor: int) -> Matrix:
    zero = CycNum.zero(conductor)
    one = CycNum.one(conductor)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return _products(a, list(zip(*b)))


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(row[0] for row in _products(a, [v]))


def _products(rows, cols) -> Matrix:
    """The matrix of row . col, all entries from one keyed_dot_products call;
    zero entries (most of a monomial matrix) add no product."""
    m = rows[0][0].conductor
    triples = []
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            for x, y in zip(row, col):
                if x.conductor != m or y.conductor != m:
                    raise ConductorMismatch(f"a matrix entry off conductor {m}")
                if x and y:
                    triples.append(((i, j), x, y))
    sums = keyed_dot_products(m, triples)
    zero = CycNum.zero(m)
    return tuple(tuple(sums.get((i, j), zero) for j in range(len(cols))) for i in range(len(rows)))


def mat_inv(a: Matrix, conductor: int) -> Matrix:
    n = len(a)
    ident = mat_identity(n, conductor)
    aug = [list(a[i]) + list(ident[i]) for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))
