import pytest

from reflect_gkm.groups import load_group
from reflect_gkm.invariants import (
    coinvariant_basis,
    coinvariant_histogram,
    degree_histogram,
    graded_count,
    hilbert_ideal_piece,
    invariant_basis,
    reynolds,
    tensor_hilbert_coefficients,
)
from reflect_gkm.polynomials import MultiPoly, graded_monomials, poly_text


@pytest.fixture(scope="module")
def z2():
    return load_group("z2")


@pytest.fixture(scope="module")
def z3():
    return load_group("z3")


@pytest.fixture(scope="module")
def s3():
    return load_group("s3")


def test_reynolds_examples(z2, z3):
    x = MultiPoly.variable(1, 2, 0)
    assert reynolds(z2, x) == MultiPoly.zero(1, 2)
    assert reynolds(z2, x**2) == x**2
    y = MultiPoly.variable(1, 3, 0)
    assert reynolds(z3, y**3) == y**3
    assert reynolds(z3, y**2) == MultiPoly.zero(1, 3)


def test_reynolds_is_an_invariant_projector(s3):
    f = MultiPoly(2, 1, {(2, 1): 1, (0, 1): 3, (1, 0): -2})
    r = reynolds(s3, f)
    assert reynolds(s3, r) == r
    for el in s3.elements:
        assert s3.act(el.index, r) == r


def test_invariant_basis_examples(z2, s3):
    assert invariant_basis(z2, 1).dimension == 0
    b = invariant_basis(z2, 2)
    assert b.dimension == 1
    assert poly_text(b.vectors[0]) == "x1^2"
    assert invariant_basis(s3, 2).dimension == 1
    assert invariant_basis(s3, 3).dimension == 1


def test_invariant_dimensions_match_molien():
    for name in ("z2", "z3", "z4", "s3", "b2", "g312"):
        g = load_group(name)
        want = g.molien().coefficients(6)
        got = [invariant_basis(g, d).dimension for d in range(7)]
        assert got == want, name


def test_hilbert_ideal_examples(z2, z3):
    assert hilbert_ideal_piece(z2, 1).dimension == 0
    piece = hilbert_ideal_piece(z2, 2)
    assert piece.dimension == 1
    x = MultiPoly.variable(1, 3, 0)
    quartic = hilbert_ideal_piece(z3, 4)
    assert quartic.dimension == 1
    assert quartic.vectors[0] == x**4


def test_ideal_plus_coinvariants_fill_each_degree(s3):
    coinv = coinvariant_basis(s3)
    hist = coinv.histogram()
    for d in range(5):
        total = len(graded_monomials(2, d))
        ideal = hilbert_ideal_piece(s3, d).dimension
        standard = hist[d] if d < len(hist) else 0
        assert ideal + standard == total, d


# The greedy graded-lex standard monomials of every bundled group.  The
# report digests cannot see this choice: the degree rows do not depend on
# which lifts are picked.
LIFTS = {
    "z2": "1,x1",
    "z3": "1,x1,x1^2",
    "z4": "1,x1,x1^2,x1^3",
    "s3": "1,x1,x2,x1^2,x1*x2,x1^2*x2",
    "b2": "1,x1,x2,x1^2,x1*x2,x1^3,x1^2*x2,x1^3*x2",
    "g312": "1,x1,x2,x1^2,x1*x2,x2^2,x1^3,x1^2*x2,x1*x2^2,x1^4,x1^3*x2,"
    "x1^2*x2^2,x1^5,x1^4*x2,x1^3*x2^2,x1^5*x2,x1^4*x2^2,x1^5*x2^2",
}


def test_coinvariant_basis_small():
    for name, lifts in LIFTS.items():
        b = coinvariant_basis(load_group(name))
        assert ",".join(poly_text(p) for p in b.lifts) == lifts, name
        assert b.degrees == [sum(next(iter(p.terms))) for p in b.lifts], name


def _is_rref(vectors, monomials):
    pivots = [next(k for k, e in enumerate(monomials) if e in v.terms) for v in vectors]
    if pivots != sorted(set(pivots)):
        return False
    for i, v in enumerate(vectors):
        for j, p in enumerate(pivots):
            want = 1 if i == j else 0
            if v.terms.get(monomials[p], 0) != want:
                return False
    return True


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_invariant_and_ideal_bases_are_reduced(name):
    g = load_group(name)
    for d in range(6):
        monomials = graded_monomials(g.dimension, d)
        inv = invariant_basis(g, d).vectors
        for v in inv:
            assert reynolds(g, v) == v
        assert _is_rref(inv, monomials)
        assert _is_rref(hilbert_ideal_piece(g, d).vectors, monomials)


def test_coinvariant_histograms():
    assert coinvariant_histogram((2, 3)) == [1, 2, 2, 1]
    assert coinvariant_histogram((2, 4)) == [1, 2, 2, 2, 1]
    assert coinvariant_histogram((3, 6)) == [1, 2, 3, 3, 3, 3, 2, 1]
    for name, size in (("s3", 6), ("b2", 8), ("g312", 18)):
        g = load_group(name)
        b = coinvariant_basis(g)
        assert b.size == size
        assert b.histogram() == coinvariant_histogram(g.fundamental_degrees())


def test_tensor_hilbert_coefficients():
    assert tensor_hilbert_coefficients((2,), 1, 4) == [1, 2, 2, 2, 2]
    assert tensor_hilbert_coefficients((3,), 1, 3) == [1, 2, 3, 3]
    assert tensor_hilbert_coefficients((4,), 1, 4) == [1, 2, 3, 4, 4]
    assert tensor_hilbert_coefficients((2, 3), 2, 4) == [1, 4, 9, 15, 21]
    assert tensor_hilbert_coefficients((2, 4), 2, 4) == [1, 4, 9, 16, 24]
    assert tensor_hilbert_coefficients((3, 6), 2, 4) == [1, 4, 10, 19, 31]
    # the same count for any histogram: one generator in degree 0 over one
    # variable, then generators in degrees 0, 2, 2 over two (1, 2, 3+2, 4+2*2)
    assert [graded_count([1], 1, d) for d in range(4)] == [1, 1, 1, 1]
    assert [graded_count(degree_histogram([2, 0, 2]), 2, d) for d in range(4)] == [1, 2, 5, 8]
    assert degree_histogram([]) == [0]
    assert degree_histogram([1, 3, 1]) == [0, 2, 0, 1]
