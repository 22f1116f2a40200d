"""CycNum's integer-numerator form against a Fraction-based reference.

The reference below lives only here: coefficient lists of Fractions,
reduced modulo the cyclotomic polynomial, with the inverse found by solving
the multiplication-matrix system over Q.  It shares no arithmetic with
CycNum, so agreement on seeded operands checks the integer path.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from reflect_gkm.cyclotomic import (
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
    keyed_dot_products,
    parse_cyc,
)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]
# denominators that share factors, so sums and products cancel partly
DENOMS = [1, 1, 2, 3, 4, 6, 9, 12, 18, 35]


# ---------------------------------------------------------------------------
# the Fraction reference


def ref_reduce(m, vec):
    mod = cyclotomic_polynomial(m)
    phi = len(mod) - 1
    r = [Fraction(c) for c in vec]
    for k in range(len(r) - 1, phi - 1, -1):
        c = r[k]
        for j in range(phi + 1):
            r[k - phi + j] -= c * mod[j]
    r.extend([Fraction(0)] * (phi - len(r)))
    return r[:phi]


def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def ref_mul(m, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(m, conv)


def ref_solve(cols, rhs):
    """The unique c with sum_j c_j cols[j] = rhs, or None (Gauss-Jordan over
    Q on the augmented system)."""
    rows = [[col[i] for col in cols] + [rhs[i]] for i in range(len(rhs))]
    piv = 0
    for k in range(len(cols)):
        hit = next((r for r in range(piv, len(rows)) if rows[r][k]), None)
        if hit is None:
            return None
        rows[piv], rows[hit] = rows[hit], rows[piv]
        rows[piv] = [x / rows[piv][k] for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][k]:
                f = rows[r][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        piv += 1
    if any(row[-1] for row in rows[piv:]):
        return None
    return [rows[k][-1] for k in range(len(cols))]


def ref_zeta(m, e):
    return ref_reduce(m, [0] * (e % m) + [1])


def ref_inverse(m, a):
    """Solve a * c = 1: column j is a * z^j."""
    phi = euler_phi(m)
    cols = [ref_mul(m, a, ref_zeta(m, j)) for j in range(phi)]
    return ref_solve(cols, [Fraction(1)] + [Fraction(0)] * (phi - 1))


def ref_minimal(m, a):
    """(d, coordinates) at the smallest d | m whose field holds a."""
    for d in range(1, m + 1):
        if m % d == 0:
            cols = [ref_zeta(m, j * (m // d)) for j in range(euler_phi(d))]
            sol = ref_solve(cols, a)
            if sol is not None:
                return d, sol


# ---------------------------------------------------------------------------


def assert_canonical(x, m):
    assert x.conductor == m
    assert len(x.num) == euler_phi(m)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1


def operands(m, rng, count):
    phi = euler_phi(m)
    out = [[Fraction(0)] * phi, [Fraction(1)] + [Fraction(0)] * (phi - 1)]
    while len(out) < count:
        out.append([
            Fraction(rng.choice([0, rng.randint(-40, 40)]), rng.choice(DENOMS))
            for _ in range(phi)
        ])
    return out


@pytest.mark.parametrize("m", CONDUCTORS)
def test_ring_operations_match_the_fraction_reference(m):
    rng = random.Random(f"cycnum-reference:{m}")
    vecs = operands(m, rng, 9)
    nums = [CycNum(m, v) for v in vecs]
    for x in nums:
        assert_canonical(x, m)
    for a, x in zip(vecs, nums):
        neg = -x
        assert_canonical(neg, m)
        assert list(neg.coeffs) == [-c for c in a]
        for b, y in zip(vecs, nums):
            for got, want in (
                (x + y, ref_add(a, b)),
                (x - y, ref_sub(a, b)),
                (x * y, ref_mul(m, a, b)),
            ):
                assert_canonical(got, m)
                assert list(got.coeffs) == want
            assert (x == y) == (a == b)
        if any(a):
            inv = x.inverse()
            assert_canonical(inv, m)
            assert list(inv.coeffs) == ref_inverse(m, a)
        q = Fraction(rng.randint(-9, 9), rng.choice(DENOMS))
        for got, want in ((x * q, [c * q for c in a]), (x + q, [a[0] + q] + a[1:])):
            assert_canonical(got, m)
            assert list(got.coeffs) == want
    # the product kernel against per-term CycNum products and sums, on
    # prefixes of the pairs under two keys and on pairs that cancel to zero
    pairs = list(zip(nums, reversed(nums)))
    cancelling = pairs + [(-x, y) for x, y in pairs]
    for case in [pairs[:k] for k in range(len(pairs) + 1)] + [cancelling]:
        want = {}
        for k, (x, y) in enumerate(case):
            want[k % 2] = want.get(k % 2, CycNum.zero(m)) + x * y
        got = keyed_dot_products(m, ((k % 2, x, y) for k, (x, y) in enumerate(case)))
        assert set(got) == {key for key, v in want.items() if v}
        for key, v in got.items():
            assert_canonical(v, m)
            assert (v.num, v.den) == (want[key].num, want[key].den)
    assert keyed_dot_products(m, ((None, x, y) for x, y in cancelling)) == {}


@pytest.mark.parametrize("m", CONDUCTORS)
def test_equality_and_hash_follow_the_value(m):
    rng = random.Random(f"cycnum-hash:{m}")
    values = [CycNum(m, a) for a in operands(m, rng, 12)]
    # values of proper subfields, written at m
    values += [
        CycNum(d, v).embed(m)
        for d in range(1, m)
        if m % d == 0
        for v in operands(d, rng, 3)[2:]
    ]
    for x in values:
        a = list(x.coeffs)
        d, coords = ref_minimal(m, a)
        small = x.minimal()
        assert_canonical(small, d)
        assert list(small.coeffs) == coords
        assert small == x and hash(small) == hash(x)
        # the same value written at a multiple of the conductor
        big = x.embed(2 * m)
        assert_canonical(big, 2 * m)
        assert big == x and hash(big) == hash(x)
        if d == 1:
            assert hash(x) == hash(coords[0]) and x == coords[0]
        # unreduced input lands on the same canonical pair: z^m = 1
        shifted = CycNum(m, [0] * m + [c * 6 for c in a])
        assert_canonical(shifted, m)
        assert shifted == 6 * x and hash(shifted) == hash(6 * x)


def test_zero_is_canonical_at_every_conductor():
    for m in CONDUCTORS:
        z = CycNum(m, [Fraction(0, 1)] * euler_phi(m))
        assert z.num == (0,) * euler_phi(m) and z.den == 1
        assert z == CycNum.zero(m) == 0 and not z


def test_parse_reduces_huge_exponents_first():
    t0 = time.perf_counter()
    assert parse_cyc("z^1000000000001", 3) == parse_cyc("z^2", 3)
    assert parse_cyc("-3/4*z^2000000000", 5) == parse_cyc("-3/4", 5)
    assert time.perf_counter() - t0 < 1.0
