import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_gkm.cyclotomic import ConductorMismatch, CycNum, euler_phi, parse_cyc, root_of_unity
from reflect_gkm.polynomials import (
    LinearForm,
    LinearSubstitution,
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    graded_monomials,
    hyperplane_coordinates,
    parse_poly,
    poly_text,
    sum_of_products,
    weighted_sum,
)


def homogeneous_components(f):
    """{degree: the terms of f of that degree}."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(sum(e), {})[e] = c
    return {d: MultiPoly(f.nvars, f.conductor, t) for d, t in sorted(buckets.items())}


def xy(conductor=1):
    return (
        MultiPoly.variable(2, conductor, 0),
        MultiPoly.variable(2, conductor, 1),
    )


def test_ring_basics():
    x, y = xy()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x - y) * (x + y) == x**2 - y**2
    f = Fraction(1, 3) * x
    assert f + f + f == x
    assert x - x == MultiPoly.zero(2, 1)
    assert not (x - x)


def test_degree_and_homogeneity():
    x, y = xy()
    assert MultiPoly.zero(2, 1).degree() is None
    assert MultiPoly.one(2, 1).degree() == 0
    f = x**3 + x * y
    assert f.degree() == 3
    assert not f.is_homogeneous()
    comps = homogeneous_components(f)
    assert sorted(comps) == [2, 3]
    assert comps[2] == x * y and comps[3] == x**3
    assert sum(comps.values(), MultiPoly.zero(2, 1)) == f


def test_graded_monomials_order_and_count():
    assert graded_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert len(graded_monomials(3, 4)) == comb(4 + 2, 2)
    assert all(sum(e) == 4 for e in graded_monomials(3, 4))
    assert graded_monomials(0, 0) == ((),)
    assert graded_monomials(0, 2) == ()


def test_text_round_trip_examples():
    z = root_of_unity(12, 1)
    x, y = xy(12)
    f = z * x**2 * y - Fraction(1, 3) * y**3
    assert poly_text(f) == "z*x1^2*x2 - 1/3*x2^3"
    assert parse_poly(poly_text(f), 2, 12) == f
    g = (1 + z) * x
    assert poly_text(g) == "(z + 1)*x1"
    assert parse_poly(poly_text(g), 2, 12) == g
    assert poly_text(MultiPoly.zero(2, 12)) == "0"
    assert parse_poly("0", 2, 12) == MultiPoly.zero(2, 12)
    assert poly_text(-x) == "-x1"
    assert parse_poly("-x1", 2, 12) == -x


def test_text_custom_names():
    x, y = xy()
    f = x**2 - y
    assert poly_text(f, names=["a", "b"]) == "a^2 - b"
    assert parse_poly("a^2 - b", 2, 1, names=["a", "b"]) == f


def test_parse_rejects_unknown_names():
    with pytest.raises(ValueError):
        parse_poly("x3 + 1", 2, 1)
    with pytest.raises(ValueError):
        parse_poly("x1 + ", 2, 1)
    with pytest.raises(ValueError):
        parse_poly("(z + 1*x1", 2, 3)


@pytest.mark.parametrize("text", ["x1**2", "*x1", "x1*", "(z)*", "2**x1", "x1 + *x2"])
def test_parse_rejects_empty_factors(text):
    # x1**2 once read as 2*x1
    with pytest.raises(ValueError, match="empty factor"):
        parse_poly(text, 2, 3)


# (literal, its value as a function of z)
SCALAR_LITERALS = [
    ("2*z", lambda z: 2 * z),
    ("(z)", lambda z: z),
    ("z*2", lambda z: 2 * z),
    ("((z))", lambda z: z),
    ("z\t+ 1", lambda z: z + 1),
    ("-z^3 + 2", lambda z: 2 - z**3),
    ("z^1000000000001", lambda z: z ** (1000000000001 % z.conductor)),
]


@pytest.mark.parametrize("m", [1, 3, 4, 12])
@pytest.mark.parametrize("text, value", SCALAR_LITERALS, ids=[t for t, _ in SCALAR_LITERALS])
def test_group_entries_and_map_coefficients_share_one_grammar(text, value, m):
    expected = value(root_of_unity(m, 1).embed(m))
    assert parse_cyc(text, m) == expected
    assert parse_poly(f"({text})*x1", 1, m) == MultiPoly(1, m, {(1,): expected})


@pytest.mark.parametrize(
    "text, message",
    [
        ("z^", "bad exponent"),
        ("2**z", "empty factor"),
        ("", "empty literal"),
        ("x1**2", "empty factor"),
        ("(z + 1*x1", "unbalanced parentheses"),
        ("x1 + ", "dangling sign"),
        ("1/0", "zero denominator"),
    ],
)
def test_both_parsers_refuse_malformed_literals(text, message):
    with pytest.raises(ValueError):
        parse_cyc(text, 3)
    with pytest.raises(ValueError, match=message):
        parse_poly(text, 1, 3)


def test_divide_exact_example():
    # (2x - y)^2 (x + y) divided by the normalized form of 2x - y, squared
    x, y = xy()
    scale, form = LinearForm.normalize([2, -1], 1)
    assert scale == 2
    assert form.coeffs[0] == 1
    f = (2 * x - y) ** 2 * (x + y)
    q = divide_by_linear_power(f, form, 2)
    assert q == 4 * (x + y)
    assert q * form.as_poly() ** 2 == f


def test_divide_failure_witness():
    x, y = xy()
    _, form = LinearForm.normalize([1, 0], 1)
    res = divide_by_linear_power(x**2 + y**2, form, 1)
    assert isinstance(res, NotDivisible)
    assert res.valuation == 0
    assert res.witness == y**2


def test_divide_nonpositive_power_multiplies():
    x, y = xy()
    _, form = LinearForm.normalize([1, 1], 1)
    f = x - y
    assert divide_by_linear_power(f, form, 0) == f
    assert divide_by_linear_power(f, form, -2) == f * (x + y) ** 2


def test_zero_dividend():
    _, form = LinearForm.normalize([1, 2], 1)
    z = MultiPoly.zero(2, 1)
    assert divide_by_linear_power(z, form, 3) == z


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_poly2 = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeff, max_size=5
).map(lambda d: MultiPoly(2, 4, d))
_form2 = (
    st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    .filter(lambda t: any(t))
    .map(lambda t: LinearForm.normalize(t, 4)[1])
)


@settings(max_examples=60)
@given(_poly2, _form2, st.integers(1, 2))
def test_divide_after_multiplying_recovers(f, form, k):
    g = f * form.as_poly() ** k
    assert divide_by_linear_power(g, form, k) == f


def inverse_coordinates(form):
    """u_1 -> form, u_slot(j) -> x_j: the inverse of hyperplane_coordinates."""
    n, m = form.nvars, form.conductor
    rows = [[CycNum.zero(m)] * n for _ in range(n)]
    rows[0] = list(form.coeffs)
    rest = [j for j in range(n) if j != form.pivot]
    for slot, j in enumerate(rest, start=1):
        rows[slot][j] = CycNum.one(m)
    return LinearSubstitution(rows, m)


@settings(max_examples=60)
@given(_poly2, _form2)
def test_hyperplane_coordinates_invert(f, form):
    to_axis = hyperplane_coordinates(form)
    assert inverse_coordinates(form).apply(to_axis.apply(f)) == f
    assert to_axis.apply(form.as_poly()) == MultiPoly.variable(2, 4, 0)


@settings(max_examples=60)
@given(_poly2)
def test_text_round_trip_random(f):
    assert parse_poly(poly_text(f), 2, 4) == f


def test_hyperplane_coordinates_cache_is_bounded():
    _, form = LinearForm.normalize([1, 3], 1)
    assert hyperplane_coordinates(form) is hyperplane_coordinates(form)
    maxsize = hyperplane_coordinates.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def coordinate_division(f, form, power):
    """The route division used to take, kept here as the oracle: rewrite f
    with the form as the first coordinate, read the valuation off the
    lowest u_1-exponent, and shift or take the lowest layer back."""
    if power <= 0:
        return f * form.as_poly() ** (-power)
    if not f:
        return f
    to_axis, from_axis = hyperplane_coordinates(form), inverse_coordinates(form)
    g = to_axis.apply(f)
    val = min(e[0] for e in g.terms)
    if val >= power:
        shifted = {(e[0] - power,) + e[1:]: c for e, c in g.terms.items()}
        return from_axis.apply(MultiPoly(f.nvars, f.conductor, shifted))
    layer = {e: c for e, c in g.terms.items() if e[0] == val}
    return NotDivisible(val, from_axis.apply(MultiPoly(f.nvars, f.conductor, layer)))


def _random_scalar(rng, m):
    return CycNum(m, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)])


def _random_poly(rng, n, m, terms=4, dmax=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, dmax) for _ in range(n))
        out[e] = _random_scalar(rng, m)
    return MultiPoly(n, m, out)


def _division_cases():
    rng = random.Random(20)
    for m in (1, 3, 4):
        for n in (2, 3):
            forms = [
                LinearForm.normalize([0, 1] + [0] * (n - 2), m)[1],  # one term, pivot x2
                LinearForm.normalize([0] + [_random_scalar(rng, m) or 1 for _ in range(n - 1)], m)[1],
            ]
            for _ in range(3):
                coeffs = [_random_scalar(rng, m) for _ in range(n)]
                if any(coeffs):
                    forms.append(LinearForm.normalize(coeffs, m)[1])
            for form in forms:
                for a in range(4):
                    g = _random_poly(rng, n, m)
                    yield g * form.as_poly() ** a, form
                yield MultiPoly.zero(n, m), form


def test_horner_division_equals_coordinate_route():
    pivots = set()
    for f, form in _division_cases():
        pivots.add(form.pivot)
        for power in range(5):
            mine = divide_by_linear_power(f, form, power)
            oracle = coordinate_division(f, form, power)
            assert type(mine) is type(oracle), (f, form, power)
            if isinstance(oracle, NotDivisible):
                assert mine.valuation == oracle.valuation
                assert mine.witness == oracle.witness
            else:
                assert mine == oracle
                assert mine * form.as_poly() ** power == f
    assert pivots == {0, 1}


def cycnum_horner_division(f, form, power):
    """Horner division with every coefficient a canonical CycNum, one
    linear-form product at a time: the route the integer steps replaced,
    kept here as the oracle."""
    n, m, p = f.nvars, f.conductor, form.pivot
    root = [(j, -c) for j, c in enumerate(form.coeffs) if c and j != p]

    def plus_root_multiple(base, q):
        out = dict(base)
        for e, c in q.items():
            for j, cj in root:
                key = e[:j] + (e[j] + 1,) + e[j + 1 :]
                v = out[key] + c * cj if key in out else c * cj
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out

    slices = [{} for _ in range(1 + max(e[p] for e in f.terms))]
    for e, c in f.terms.items():
        slices[e[p]][e[:p] + (0,) + e[p + 1 :]] = c
    for step in range(power):
        quotient = [{} for _ in range(len(slices) - 1)]
        carry = {}
        for k in range(len(slices) - 1, 0, -1):
            carry = quotient[k - 1] = plus_root_multiple(slices[k], carry)
        remainder = plus_root_multiple(slices[0], carry)
        if remainder:
            return NotDivisible(step, MultiPoly(n, m, remainder) * form.as_poly() ** step)
        slices = quotient
    return MultiPoly(
        n, m, {e[:p] + (k,) + e[p + 1 :]: c for k, piece in enumerate(slices) for e, c in piece.items()}
    )


def test_integer_horner_equals_cycnum_horner():
    # forms with coefficient denominators (D > 1) take the scaled branch;
    # dividends carry mixed coefficient denominators
    rng = random.Random(21)
    cases = [(f, form) for f, form in _division_cases() if f]
    for m in (1, 3, 4):
        for _ in range(6):
            _, form = LinearForm.normalize(
                [_random_scalar(rng, m) or 1, Fraction(rng.randint(-5, 5), rng.randint(1, 6))], m
            )
            for a in range(5):
                cases.append((_random_poly(rng, 2, m, terms=5) * form.as_poly() ** a, form))
    scaled = divided = witnessed = 0
    for f, form in cases:
        scaled += form.integral_root[0] > 1
        for power in range(1, 6):
            mine = divide_by_linear_power(f, form, power)
            oracle = cycnum_horner_division(f, form, power)
            assert type(mine) is type(oracle), (f, form, power)
            if isinstance(oracle, NotDivisible):
                witnessed += 1
                assert mine.valuation == oracle.valuation
                assert mine.witness.terms == oracle.witness.terms
            else:
                divided += 1
                assert mine.terms == oracle.terms
    assert scaled > 20 and divided > 100 and witnessed > 100


def test_division_by_a_single_variable_shifts():
    x, y = xy(3)
    _, form = LinearForm.normalize([0, 2], 3)
    assert divide_by_linear_power(y**3 * x + y**2, form, 2) == y * x + 1
    res = divide_by_linear_power(y**3 * x + y**2, form, 3)
    assert isinstance(res, NotDivisible)
    assert (res.valuation, res.witness) == (2, y**2)


def _full_scalar(rng, m):
    # every power-basis coefficient, over denominators sharing factors
    return CycNum(m, [
        Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.choice((1, 2, 3, 4, 6, 9, 12)))
        for _ in range(euler_phi(m))
    ])


def test_weighted_sum_matches_repeated_addition():
    for m in (1, 2, 3, 4, 5, 7, 8, 9, 12):
        rng = random.Random(f"weighted-sum:{m}")
        polys = [_random_poly(rng, 2, m) for _ in range(4)]
        polys += [
            MultiPoly(2, m, {e: _full_scalar(rng, m) for e in graded_monomials(2, 2)})
            for _ in range(3)
        ]
        weights = [_random_scalar(rng, m) for _ in range(4)]
        weights += [_full_scalar(rng, m) for _ in range(2)] + [0]
        polys.append(polys[0])
        weights.append(-weights[0])
        expected = MultiPoly.zero(2, m)
        for f, w in zip(polys, weights):
            expected = expected + f * w
        assert weighted_sum(zip(polys, weights), 2, m) == expected
        # a sum that cancels to zero leaves no term
        f, w = polys[4], weights[4]
        assert weighted_sum([(f, w), (f, -w)], 2, m).terms == {}
    # cancelling terms leave no zero coefficient behind
    x, y = xy()
    total = weighted_sum([(x + y, 1), (x - y, -1)], 2, 1)
    assert total == 2 * y and total.terms == {(0, 1): CycNum(1, [2])}


def test_kernel_operands_must_fit_the_call():
    # a 1-variable operand in a 2-variable sum used to come back as a
    # 2-variable polynomial holding a 1-tuple key
    two, one = MultiPoly(2, 3, {(1, 0): 1}), MultiPoly(1, 3, {(2,): 1})
    with pytest.raises(ValueError):
        weighted_sum([(two, 1), (one, 1)], 2, 3)
    with pytest.raises(ValueError):
        sum_of_products([(two, two), (one, one)], 2, 3)
    with pytest.raises(ValueError):
        two * MultiPoly(1, 3, {(1,): 1})
    rational = MultiPoly(2, 1, {(0, 1): 1})
    with pytest.raises(ConductorMismatch):
        weighted_sum([(two, 1), (rational, 1)], 2, 3)
    with pytest.raises(ConductorMismatch):
        sum_of_products([(two, rational)], 2, 3)
    with pytest.raises(ConductorMismatch):
        two + rational


@pytest.mark.parametrize("exponent", [-1, 1.5, True, Fraction(1)])
def test_exponents_must_be_nonnegative_ints(exponent):
    # x1^-1 once built and printed as "1", and x1^1.5 printed as text that
    # parse_poly refuses
    with pytest.raises(ValueError, match="not a nonnegative int"):
        MultiPoly(1, 3, {(exponent,): 1})
    with pytest.raises(ValueError, match="not a nonnegative int"):
        MultiPoly(2, 3, [((2, exponent), 1)])


def test_division_checks_its_form():
    f = MultiPoly(1, 3, {(2,): 1})
    _, wide = LinearForm.normalize([1, 1], 3)
    # a form with more variables than f used to raise a bare IndexError
    with pytest.raises(ValueError):
        divide_by_linear_power(f, wide, 1)
    # a form over conductor 3 against f over conductor 1: f has no term in
    # the pivot variable x1, so no coefficient of the two ever meets
    _, form = LinearForm.normalize([1, root_of_unity(3, 1)], 3)
    g = MultiPoly(2, 1, {(0, 2): 1})
    for power in (-1, 0, 1, 2):
        with pytest.raises(ConductorMismatch):
            divide_by_linear_power(g, form, power)


KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 12)
# denominators that share factors, so sums over their lcm cancel partly
_kernel_den = st.sampled_from((1, 2, 3, 4, 6, 9, 12, 35))


@st.composite
def _kernel_scalar(draw, m):
    return CycNum(m, [
        Fraction(draw(st.integers(-6, 6)), draw(_kernel_den)) for _ in range(euler_phi(m))
    ])


@st.composite
def _kernel_poly(draw, m):
    # exponents 0..2 in two variables, so products collide on monomials
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4))
    return MultiPoly(2, m, {e: draw(_kernel_scalar(m)) for e in keys})


@st.composite
def _kernel_case(draw):
    m = draw(st.sampled_from(KERNEL_CONDUCTORS))
    pairs = draw(st.lists(st.tuples(_kernel_poly(m), _kernel_poly(m)), max_size=4))
    weights = [draw(_kernel_scalar(m)) for _ in pairs]
    cancel = draw(st.booleans())
    if cancel:
        # every pair again with its first factor negated: the totals cancel
        pairs += [(-f, g) for f, g in pairs]
        weights += weights
    return m, pairs, weights, cancel


def _naive_sum(m, products):
    """{monomial: sum of coefficients}, one CycNum sum at a time, zeros
    dropped."""
    acc = {}
    for e, c in products:
        acc[e] = acc.get(e, CycNum.zero(m)) + c
    return {e: c for e, c in acc.items() if c}


def _naive_products(f, g):
    return [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in f.terms.items()
        for e2, c2 in g.terms.items()
    ]


def _assert_kernel_result(got, want, m):
    assert got.nvars == 2 and got.conductor == m
    assert got.terms == want
    for c in got.terms.values():
        # never a stored zero, always the canonical pair
        assert c and c.conductor == m and c.den > 0 and gcd(c.den, *c.num) == 1


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_kernel_matches_naive_cycnum_sums(case):
    m, pairs, weights, cancel = case
    products = [p for f, g in pairs for p in _naive_products(f, g)]
    got = sum_of_products(pairs, 2, m)
    _assert_kernel_result(got, _naive_sum(m, products), m)
    for f, g in pairs:
        _assert_kernel_result(f * g, _naive_sum(m, _naive_products(f, g)), m)
    firsts = [f for f, _ in pairs]
    scaled = [(e, c * w) for f, w in zip(firsts, weights) for e, c in f.terms.items()]
    combo = weighted_sum(zip(firsts, weights), 2, m)
    _assert_kernel_result(combo, _naive_sum(m, scaled), m)
    if cancel:
        assert got.terms == {} and combo.terms == {}
