from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_gkm.cyclotomic import CycNum, root_of_unity
from reflect_gkm.polynomials import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    divide_by_linear_power,
    graded_monomials,
    hyperplane_coordinates,
    parse_poly,
    poly_text,
)


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
    comps = f.homogeneous_components()
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


@settings(max_examples=60)
@given(_poly2, _form2)
def test_hyperplane_coordinates_invert(f, form):
    coords = hyperplane_coordinates(form)
    assert coords.from_axis(coords.to_axis(f)) == f
    assert coords.to_axis(form.as_poly()) == MultiPoly.variable(2, 4, 0)


@settings(max_examples=60)
@given(_poly2)
def test_text_round_trip_random(f):
    assert parse_poly(poly_text(f), 2, 4) == f


def test_hyperplane_coordinates_cache_is_bounded():
    _, form = LinearForm.normalize([1, 3], 1)
    assert hyperplane_coordinates(form) is hyperplane_coordinates(form)
    maxsize = hyperplane_coordinates.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
