from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_gkm import cyclotomic, localization
from reflect_gkm.cyclotomic import (
    ArithmeticFault,
    ConductorMismatch,
    CycNum,
    NonUnitDivisor,
    cyclotomic_polynomial,
    euler_phi,
    parse_cyc,
    root_of_unity,
    upoly_mul,
    upoly_series_quotient,
)
from reflect_gkm.linalg import NotReducible, PrimeReduction, _is_prime


def test_cyclotomic_polynomial_table():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_are_integral_and_factor_x_m_minus_1():
    # an oracle that never divides: prod_{d | m} Phi_d = x^m - 1
    for m in range(1, 1001):
        assert all(type(c) is int for c in cyclotomic_polynomial(m))
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = upoly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (m - 1) + [1], m


def test_cyclotomic_division_checks_its_tail(monkeypatch):
    # a nonzero coefficient past phi(m) is a remainder, however it arose;
    # the divisors' polynomials are cached first, so only m = 12 sees it
    want = cyclotomic_polynomial(12)
    original = cyclotomic.upoly_series_quotient

    def faulty(a, b, k):
        out = original(a, b, k)
        out[-1] += 1
        return out

    monkeypatch.setattr(cyclotomic, "upoly_series_quotient", faulty)
    with pytest.raises(ArithmeticFault, match="remainder at m=12"):
        cyclotomic_polynomial.__wrapped__(12)
    monkeypatch.undo()
    assert cyclotomic_polynomial.__wrapped__(12) == want == (1, 0, -1, 0, 1)


def test_univariate_helpers_stay_exact():
    # int inputs give ints, never Fractions or floats
    q = upoly_series_quotient([1], [1, -1], 4)
    assert q == [1, 1, 1, 1] and all(type(c) is int for c in q)
    # a constant term of -1 negates; zero terms of the divisor are skipped
    assert upoly_series_quotient([1, 2], [-1, 0, 0, 1], 7) == [-1, -2, 0, -1, -2, 0, -1]
    assert upoly_mul([-1, 0, 0, 1], [-1, -2, 0, -1, -2, 0, -1])[:7] == [1, 2, 0, 0, 0, 0, 0]
    # over Q(zeta_3): 1 / (1 - z t) = sum_k z^k t^k
    one, z = CycNum.one(3), root_of_unity(3, 1)
    assert upoly_series_quotient([one], [one, -z], 4) == [z**k for k in range(4)]
    assert upoly_mul([-z, one], [one, one]) == [-z, one - z, one]


@pytest.mark.parametrize("den", [[2, 1], [0, 1], [], [root_of_unity(3, 1)]])
def test_series_quotient_refuses_a_non_unit_constant_term(den):
    with pytest.raises(NonUnitDivisor, match="not 1 or -1"):
        upoly_series_quotient([1], den, 3)


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_inverse_of_one_plus_zeta3():
    # 1 + zeta_3 has inverse -zeta_3 since (1 + z)(-z) = -z - z^2 = 1 mod z^2+z+1
    a = 1 + root_of_unity(3, 1)
    inv = a.inverse()
    assert inv == -root_of_unity(3, 1)
    assert a * inv == 1


def test_power_sum_cancellation():
    # sum of zeta_m^{kj} over j vanishes unless m divides k
    for m in range(2, 10):
        z = root_of_unity(m, 1)
        for k in range(2 * m):
            total = CycNum.zero(m)
            for j in range(m):
                total = total + z ** (k * j)
            if k % m == 0:
                assert total == m
            else:
                assert total == 0, (m, k)


def test_root_of_unity_conductor_normalization():
    a = root_of_unity(6, 2)
    assert a.conductor == 3
    assert a == root_of_unity(3, 1)
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(4, 2).conductor == 2
    one = root_of_unity(5, 0)
    assert one.conductor == 1 and one == 1


def test_cross_conductor_equality_and_hash():
    z6 = root_of_unity(6, 1)
    z3 = root_of_unity(3, 1)
    assert z6.conductor == 6
    assert z6 == 1 + z3
    assert hash(z6) == hash(1 + z3)
    small = z6.minimal()
    assert small.conductor == 3
    assert small.coeffs == (Fraction(1), Fraction(1))
    half = CycNum.rational(12, Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert half == Fraction(1, 2)


def test_conductor_mismatch_is_a_fault():
    with pytest.raises(ConductorMismatch):
        CycNum.one(3) + CycNum.one(4)
    with pytest.raises(ConductorMismatch):
        CycNum.one(3) * root_of_unity(4, 1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(5).inverse()
    with pytest.raises(ZeroDivisionError):
        1 / CycNum.zero(4)


def test_negative_powers():
    a = 1 + root_of_unity(3, 1)
    assert a ** (-2) * a**2 == 1
    assert a**0 == 1


def test_text_examples():
    v = CycNum(12, [Fraction(-1), Fraction(0), Fraction(1, 2)])
    assert v.text() == "1/2*z^2 - 1"
    assert parse_cyc(v.text(), 12) == v
    assert parse_cyc("z", 4) == root_of_unity(4, 1)
    assert parse_cyc("-z^3 + 2", 8) == 2 - root_of_unity(8, 3)
    assert parse_cyc("0", 7) == 0
    assert CycNum.zero(9).text() == "0"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cyc("z^", 4)
    with pytest.raises(ValueError):
        parse_cyc("2**z", 4)
    with pytest.raises(ValueError):
        parse_cyc("", 4)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _cyc12(coeffs):
    return CycNum(12, coeffs)


@settings(max_examples=60)
@given(st.lists(_coeff, min_size=4, max_size=4), st.lists(_coeff, min_size=4, max_size=4), st.lists(_coeff, min_size=4, max_size=4))
def test_field_axioms(a, b, c):
    x, y, z = _cyc12(a), _cyc12(b), _cyc12(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x - x == 0
    if y:
        assert (x / y) * y == x


@settings(max_examples=60)
@given(st.lists(_coeff, min_size=4, max_size=4))
def test_text_round_trip(coeffs):
    v = _cyc12(coeffs)
    assert parse_cyc(v.text(), 12) == v


# the primes p = 1 (mod m) above 2^30, in order, for each conductor tested:
# the first is for_conductor(m), and each next one the prime that the
# theorem certificate's rank step retries with
FOR_CONDUCTOR_PRIMES = {
    1: (1073741827, 1073741831, 1073741833),
    2: (1073741827, 1073741831, 1073741833),
    3: (1073741827, 1073741833, 1073741839),
    4: (1073741833, 1073741857, 1073741909),
    5: (1073741831, 1073741891, 1073741971),
    8: (1073741833, 1073741857, 1073741953),
    12: (1073741833, 1073741857, 1073741953),
}


def _prime_by_trial_division(n):
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12])
def test_prime_reduction_is_a_ring_map(m):
    pins = FOR_CONDUCTOR_PRIMES[m]
    assert len(pins) == localization._RANK_PRIMES
    # every prime = 1 (mod m) from 2^30 to the last pin, none skipped
    span = range(2**30, pins[-1] + 1)
    assert tuple(n for n in span if n % m == 1 % m and _prime_by_trial_division(n)) == pins
    red = PrimeReduction.for_conductor(m)
    for want in pins:
        p = red.prime
        assert p == want and p % m == 1 % m
        assert red.reduce(root_of_unity(m, 1)) == red.root
        vals = [
            CycNum(m, [Fraction(k * j - 2, j + 1) for j in range(euler_phi(m))])
            for k in range(-2, 3)
        ]
        for a in vals:
            for b in vals:
                assert red.reduce(a + b) == (red.reduce(a) + red.reduce(b)) % p
                assert red.reduce(a * b) == red.reduce(a) * red.reduce(b) % p
        red = PrimeReduction.for_conductor(m, p)


def test_prime_reduction_refuses_denominators_divisible_by_p():
    # 2 is a root of z^2 + z + 1 modulo 7
    red = PrimeReduction(3, 7, 2)
    assert red.reduce(CycNum(3, (Fraction(1, 2), 1))) == (4 + 2) % 7
    with pytest.raises(NotReducible):
        red.reduce(CycNum(3, (Fraction(1, 14), 1)))
    with pytest.raises(NotReducible):
        red.reduce(CycNum(3, (0, Fraction(3, 7))))
    with pytest.raises(ConductorMismatch):
        red.reduce(CycNum.one(4))


def test_prime_reduction_checks_its_prime_and_root():
    with pytest.raises(ValueError, match="not prime"):
        PrimeReduction(3, 91, 9)
    with pytest.raises(ValueError, match="not a root"):
        PrimeReduction(3, 7, 3)


def test_is_prime_agrees_with_a_sieve():
    limit = 2 * 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(limit) if _is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


@pytest.mark.parametrize(
    "n",
    [
        # psi_12: a strong pseudoprime to every prime base up to 37
        318665857834031151167461,
        # psi_9 = psi_10 = psi_11
        3825123056546413051,
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


def test_is_prime_refuses_beyond_the_deterministic_bound():
    # psi_13 is the least n the 13 bases cannot decide; psi_13 - 1 is even
    psi13 = 3317044064679887385961981
    assert _is_prime(psi13 - 1) is False
    for n in (psi13, psi13 + 1, 2**89 - 1):
        with pytest.raises(ValueError, match="beyond"):
            _is_prime(n)
