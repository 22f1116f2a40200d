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
"""

from __future__ import annotations

from typing import Sequence

from .cyclotomic import ConductorMismatch, CycNum, keyed_dot_products

__all__ = [
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
