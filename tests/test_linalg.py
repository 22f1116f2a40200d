import random
from fractions import Fraction

import pytest

from reflect_gkm.cyclotomic import (
    ConductorMismatch,
    CycNum,
    euler_phi,
    root_of_unity,
)
from reflect_gkm.linalg import (
    PrimeReduction,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rank_mod_p,
    rref,
)


def c(v, m=1):
    return CycNum.rational(m, Fraction(v))


def test_rref_and_rank():
    rows = [
        [c(1), c(2), c(3)],
        [c(2), c(4), c(6)],
        [c(0), c(1), c(1)],
    ]
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2
    # pivot rows reduced: first row should have zero in the second column
    assert not red[0][1]


def test_nullspace_orthogonality():
    rows = [
        [c(1), c(1), c(0)],
        [c(0), c(1), c(-1)],
    ]
    basis = nullspace(rows, 3, 1)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        acc = c(0)
        for a, b in zip(row, vec):
            acc = acc + a * b
        assert not acc


def test_nullspace_of_empty_system():
    basis = nullspace([], 2, 1)
    assert len(basis) == 2


def test_matrix_inverse_over_cyclotomics():
    z = root_of_unity(3, 1)
    a = ((z, CycNum.one(3)), (CycNum.zero(3), 1 + z))
    inv = mat_inv(a, 3)
    assert mat_mul(a, inv) == mat_identity(2, 3)
    assert mat_mul(inv, a) == mat_identity(2, 3)


def test_matrix_products_against_entrywise_sums():
    rng = random.Random("matrix-products")
    for m in (1, 3, 4, 5):
        # about half the entries zero, as in the groups' monomial matrices
        def entry():
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                      for _ in range(euler_phi(m))]
            return CycNum(m, coeffs) if rng.random() < 0.5 else CycNum.zero(m)

        a = tuple(tuple(entry() for _ in range(3)) for _ in range(3))
        b = tuple(tuple(entry() for _ in range(3)) for _ in range(3))
        v = tuple(entry() for _ in range(3))

        def dot(row, col):
            total = CycNum.zero(m)
            for x, y in zip(row, col):
                total = total + x * y
            return total

        assert mat_mul(a, b) == tuple(tuple(dot(r, col) for col in zip(*b)) for r in a)
        assert mat_vec(a, v) == tuple(dot(r, v) for r in a)
    mixed = ((CycNum.one(3), root_of_unity(4, 1)), (CycNum.zero(3), CycNum.one(3)))
    with pytest.raises(ConductorMismatch):
        mat_mul(mixed, mat_identity(2, 3))


def test_singular_matrix_raises():
    a = ((c(1), c(2)), (c(2), c(4)))
    with pytest.raises(ValueError):
        mat_inv(a, 1)


def _random_cyc(rng, m):
    return CycNum(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(euler_phi(m))])


@pytest.mark.parametrize("m", [1, 3, 4])
def test_rank_mod_p_matches_exact_rank(m):
    rng = random.Random(m)
    red = PrimeReduction.for_conductor(m)
    zero = CycNum.zero(m)
    for nrows, ncols, inner in ((4, 5, 5), (6, 4, 2), (5, 6, 3), (3, 3, 0)):
        # a product of nrows x inner and inner x ncols factors has rank <= inner
        left = [[_random_cyc(rng, m) for _ in range(inner)] for _ in range(nrows)]
        right = [[_random_cyc(rng, m) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [sum((a * right[k][j] for k, a in enumerate(row)), zero) for j in range(ncols)]
            for row in left
        ]
        # a zero column, so pivots have to be searched for
        for row in rows:
            row[0] = zero
        reduced = [[red.reduce(x) for x in row] for row in rows]
        assert rank_mod_p(reduced, red.prime) == rank(rows) <= inner


def test_rank_mod_p_small_cases():
    assert rank_mod_p([], 7) == 0
    assert rank_mod_p([[0, 0], [0, 0]], 7) == 0
    # rank 2 over Q, but the second row is three times the first mod 7
    assert rank_mod_p([[1, 2], [3, 13]], 7) == 1
    assert rank_mod_p([[1, 2], [3, 5]], 7) == 2
