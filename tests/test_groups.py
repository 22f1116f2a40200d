import json
from importlib import resources
from itertools import zip_longest

import pytest

from reflect_gkm import build_hypergraph, coinvariant_basis, run_suite
from reflect_gkm import groups as groups_module
from reflect_gkm.cli import main
from reflect_gkm.cyclotomic import (
    ConductorMismatch,
    CycNum,
    parse_cyc,
    root_of_unity,
    upoly_mul,
    upoly_trim,
)
from reflect_gkm.groups import (
    CapExceeded,
    GroupFileError,
    GroupInvariantViolated,
    NotPolynomialInvariantRing,
    SingularGenerator,
    _fixed_space_degrees,
    bundled_names,
    group_closure,
    load_group,
    parse_group_dict,
)
from reflect_gkm.linalg import mat_identity, mat_mul
from reflect_gkm.polynomials import LinearForm, MultiPoly, parse_poly, poly_text


EXPECTED = {
    # name: (order, reflection count, degrees)
    "z2": (2, 1, (2,)),
    "z3": (3, 2, (3,)),
    "z4": (4, 3, (4,)),
    "s3": (6, 3, (2, 3)),
    "b2": (8, 4, (2, 4)),
    "g312": (18, 7, (3, 6)),
}


@pytest.fixture(scope="module")
def groups():
    return {name: load_group(name) for name in bundled_names()}


def test_bundled_inventory():
    assert set(bundled_names()) == set(EXPECTED)


def test_orders_reflection_counts_degrees(groups):
    for name, (order, nrefl, degrees) in EXPECTED.items():
        g = groups[name]
        assert g.order == order, name
        assert len(g.reflections()) == nrefl, name
        assert g.fundamental_degrees() == degrees, name
        prod = 1
        for d in degrees:
            prod *= d
        assert prod == order, name
        assert g.generated_by_reflections(), name


def test_cayley_tables(groups):
    for g in groups.values():
        n = g.order
        # identity row and column
        assert g.mult_table[0] == list(range(n))
        assert [g.mult_table[i][0] for i in range(n)] == list(range(n))
        # inverses really invert
        for i in range(n):
            assert g.mul(i, g.inv(i)) == 0
        # associativity spot check on the full table for small groups
        if n <= 8:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


G412 = {
    "name": "g412",
    "dimension": 2,
    "conductor": 4,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}


def seven_group_data(name):
    """The definition of a bundled group, or of G(4,1,2)."""
    if name == "g412":
        return G412
    text = resources.files("reflect_gkm").joinpath(f"groups/{name}.json").read_text()
    return json.loads(text)


def load_seven(name, tmp_path):
    """The group of seven_group_data, loaded from a file in tmp_path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(seven_group_data(name)))
    return load_group(str(path))


def pairwise_closure(matrices, conductor):
    """The BFS closure with every table entry from its own matrix product,
    |W|^2 of them, indexed by CycNum equality and hashing."""
    ident = mat_identity(len(matrices[0]), conductor)
    index = {ident: 0}
    elements = [ident]
    for base in elements:
        for g in matrices:
            prod = mat_mul(base, g)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
    mult = [[index[mat_mul(a, b)] for b in elements] for a in elements]
    inverse = [row.index(0) for row in mult]
    return elements, mult, inverse


SEVEN = list(EXPECTED) + ["g412"]


@pytest.mark.parametrize("name", SEVEN)
def test_closure_tables_match_pairwise_products(name, tmp_path):
    data = seven_group_data(name)
    n, m = data["dimension"], data["conductor"]
    gens = []
    for flat in data["generators"]:
        entries = [parse_cyc(str(e), m) for e in flat]
        gens.append(tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n)))
    want = pairwise_closure(gens, m)
    assert group_closure(gens, m) == want
    g = load_seven(name, tmp_path)
    assert (g.elements, g.mult_table, g.inverse_table) == want


# num and den of the reduced Molien series, as the sum of one term per
# element gave them
MOLIEN = {
    "z2": ((1,), (1, 0, -1)),
    "z3": ((1,), (1, 0, 0, -1)),
    "z4": ((1,), (1, 0, 0, 0, -1)),
    "s3": ((1,), (1, 0, -1, -1, 0, 1)),
    "b2": ((1,), (1, 0, -1, 0, -1, 0, 1)),
    "g312": ((1,), (1, 0, 0, -1, 0, 0, -1, 0, 0, 1)),
    "g412": ((1,), (1, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 1)),
}


def series_of(num, den, dmax):
    """The power series num / den through degree dmax, for den(0) = 1."""
    out = []
    for d in range(dmax + 1):
        acc = num[d] if d < len(num) else 0
        acc -= sum(den[k] * out[d - k] for k in range(1, min(d, len(den) - 1) + 1))
        out.append(acc)
    return out


def deciding_degree(group, den_degree):
    """A degree through which equal series coefficients decide that the
    Molien series equals a fraction p / q with deg p < deg q = den_degree
    and q(0) = 1.  Each of the |W| terms 1 / det(1 - t w) is proper with a
    denominator of degree n, so the series is P / D with deg P < deg D =
    n |W| and D(0) = 1.  P q - p D has degree below n |W| + den_degree,
    and it is D q times the difference of the two series, with D q(0) = 1:
    when the difference vanishes through that degree, so does every
    coefficient of P q - p D, and the two fractions are equal."""
    return group.dimension * group.order + den_degree


@pytest.mark.parametrize("name", SEVEN)
def test_molien_series_is_pinned(name, tmp_path):
    g = load_seven(name, tmp_path)
    num, den = MOLIEN[name]
    dmax = deciding_degree(g, len(den) - 1)
    coeffs = g.molien().coefficients(dmax)
    assert coeffs == series_of(num, den, dmax)
    assert all(type(c) is int for c in coeffs)


def cofactor_det(mat):
    """The determinant of a matrix of univariate polynomials (coefficient
    lists, low degree first) by cofactor expansion along the first row."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = []
    for j in range(n):
        entry = mat[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = upoly_mul(entry, cofactor_det(minor))
        if j % 2:
            term = [-c for c in term]
        acc = upoly_trim([a + b for a, b in zip_longest(acc, term, fillvalue=0)])
    return acc


SCALAR3 = {
    "name": "scalar3",
    "dimension": 2,
    "conductor": 3,
    "variables": ["x1", "x2"],
    "generators": [["z", "0", "0", "z"]],
}


@pytest.mark.parametrize("name", SEVEN + ["scalar3"])
def test_newton_determinant_equals_the_cofactor_expansion(name, tmp_path):
    # det(1 - t w) from the traces of w's powers, against the expansion of
    # the matrix 1 - t w by cofactors, at every element
    g = parse_group_dict(SCALAR3) if name == "scalar3" else load_seven(name, tmp_path)
    n, m = g.dimension, g.conductor
    one, zero = CycNum.one(m), CycNum.zero(m)
    for w, matrix in enumerate(g.elements):
        entries = [
            [upoly_trim([one if i == j else zero, -matrix[i][j]]) for j in range(n)]
            for i in range(n)
        ]
        assert groups_module._det_one_minus_tw(g, w) == cofactor_det(entries), (name, w)


def test_bfs_order_is_deterministic(groups):
    z3 = groups["z3"]
    z = root_of_unity(3, 1)
    assert z3.elements[1] == ((z,),)
    assert z3.elements[2] == ((z * z,),)
    g312 = groups["g312"]
    assert g312.elements[1][0][0] == z
    assert g312.elements[2][0][1] == 1


def test_action_on_polynomials(groups):
    s3 = groups["s3"]
    x1 = MultiPoly.variable(2, 1, 0)
    x2 = MultiPoly.variable(2, 1, 1)
    # generator [[-1,1],[0,1]] sends x1 to -x1 + x2 and fixes x2
    assert s3.act(1, x1) == -x1 + x2
    assert s3.act(1, x2) == x2
    # the action is a right action composed through the Cayley table
    f = x1**2 * x2 - 3 * x2**3
    for a in range(s3.order):
        for b in range(s3.order):
            assert s3.act(a, s3.act(b, f)) == s3.act(s3.mul(a, b), f)


def test_reflection_data_z3(groups):
    z3 = groups["z3"]
    refl = z3.reflections()
    assert [s.element for s in refl] == [1, 2]
    s = refl[0]
    assert s.order == 3
    assert s.coroot.coeffs[0] == 1
    # s . x = zeta^-1 x, so the co-root eigenvalue is zeta^2
    assert s.eigenvalue == root_of_unity(3, 2)
    assert refl[0].hyperplane == refl[1].hyperplane == 0


def test_reflection_data_g312(groups):
    g = groups["g312"]
    refl = g.reflections()
    orders = sorted(s.order for s in refl)
    assert orders == [2, 2, 2, 3, 3, 3, 3]
    assert len({s.hyperplane for s in refl}) == 5


def test_conjugate_reflection_example(groups):
    g = groups["g312"]
    s = g.reflection_at(1)  # diag(zeta, 1)
    assert str(s.coroot) == "x1"
    w = 2  # swap
    c, conj = g.conjugate_reflection(s, w)
    assert str(conj.coroot) == "x2"
    assert c == 1
    assert conj.order == 3


def test_cyclic_powers_and_cosets(groups):
    z3 = groups["z3"]
    assert z3.cyclic_powers(1) == (0, 1, 2)
    assert z3.right_cosets(1) == ((0, 1, 2),)
    b2 = groups["b2"]
    refl = b2.reflections()
    for s in refl:
        cosets = b2.right_cosets(s.element)
        assert len(cosets) == 4
        seen = [x for coset in cosets for x in coset]
        assert sorted(seen) == list(range(8))
        for coset in cosets:
            assert coset[0] == min(coset)
            assert b2.mul(coset[0], s.element) == coset[1]


@pytest.mark.parametrize("name", SEVEN)
def test_generators_index_the_file_matrices(name, tmp_path):
    data = seven_group_data(name)
    g = load_seven(name, tmp_path)
    n, m = data["dimension"], data["conductor"]
    for idx, flat in zip(g.generators, data["generators"], strict=True):
        assert [x for row in g.elements[idx] for x in row] == [
            parse_cyc(str(e), m) for e in flat
        ]
    # a repeated generator and the identity keep their places in file order
    ident = [("1" if i == j else "0") for i in range(n) for j in range(n)]
    twice = dict(data, generators=[ident] + data["generators"] + data["generators"][:1])
    again = parse_group_dict(twice)
    assert again.generators == (0,) + g.generators + g.generators[:1]


def test_molien_coefficients(groups):
    s3 = groups["s3"]
    assert s3.molien().coefficients(6) == [1, 0, 1, 1, 1, 1, 2]
    z4 = groups["z4"]
    assert z4.molien().coefficients(8) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


# the identity alone, and <-I, swap>: two reflections of order 2 (swap and
# -swap) whose product is -I, which is not a reflection
TRIVIAL2 = {
    "name": "trivial2",
    "dimension": 2,
    "conductor": 1,
    "variables": ["x1", "x2"],
    "generators": [["1", "0", "0", "1"]],
}
TWO_MIRRORS = {
    "name": "two_mirrors",
    "dimension": 2,
    "conductor": 1,
    "variables": ["x1", "x2"],
    "generators": [["-1", "0", "0", "-1"], ["0", "1", "1", "0"]],
}


@pytest.mark.parametrize("name", SEVEN + ["trivial2", "two_mirrors"])
def test_fixed_space_degrees_match_molien(name, tmp_path):
    extra = {"trivial2": TRIVIAL2, "two_mirrors": TWO_MIRRORS}
    g = parse_group_dict(extra[name]) if name in extra else load_seven(name, tmp_path)
    degrees = g.fundamental_degrees()
    # the Molien series is exactly 1 / prod_i (1 - t^{d_i})
    den = [1]
    for d in degrees:
        den = [a - b for a, b in zip(den + [0] * d, [0] * d + den)]
    dmax = deciding_degree(g, sum(degrees))
    assert g.molien().coefficients(dmax) == series_of((1,), den, dmax)
    assert len(degrees) == g.dimension
    prod = 1
    for d in degrees:
        prod *= d
    assert prod == g.order
    assert sum(d - 1 for d in degrees) == len(g.reflections())
    if name in extra:
        assert degrees == {"trivial2": (1, 1), "two_mirrors": (2, 2)}[name]


def test_fixed_space_counts_that_do_not_split_are_a_library_bug():
    # t^2 + 2t + 2 has no integer root
    with pytest.raises(GroupInvariantViolated, match="do not split"):
        _fixed_space_degrees([2, 2, 1])
    assert _fixed_space_degrees([10, 7, 1]) == (3, 6)


@pytest.mark.parametrize("name", ["z3", "g312"])
def test_set_up_and_verify_never_compute_the_molien_series(name, monkeypatch):
    def refuse(group):
        raise AssertionError("the Molien series is not on the set-up or verify path")

    monkeypatch.setattr(groups_module, "_molien_series", refuse)
    g = load_group(name)
    assert g.fundamental_degrees() == EXPECTED[name][2]
    assert coinvariant_basis(g).size == g.order
    build_hypergraph(g)
    report = run_suite(g, dmax=4, trials=2, seed=0, sections=("theorem", "hypergraph"))
    assert report.ok
    with pytest.raises(AssertionError, match="Molien"):
        g.molien()


def test_scalar_group_is_not_a_reflection_group():
    g = parse_group_dict(SCALAR3)
    assert g.order == 3
    assert g.reflections() == ()
    assert not g.generated_by_reflections()
    with pytest.raises(NotPolynomialInvariantRing):
        g.fundamental_degrees()
    assert g.molien().coefficients(3) == [1, 0, 0, 4]
    # the series is (1 + 2t^3) / (1 - t^3)^2, whose numerator is not 1
    dmax = deciding_degree(g, 6)
    coeffs = [1, 0, 0, 4, 0, 0, 7, 0, 0, 10, 0, 0, 13]
    assert g.molien().coefficients(dmax) == coeffs
    assert coeffs == series_of((1, 0, 0, 2), (1, 0, 0, -2, 0, 0, 1), dmax)


# G(12,1,2): the first Molien series here at a conductor above 4
G1212 = {
    "name": "g1212",
    "dimension": 2,
    "conductor": 12,
    "variables": ["x1", "x2"],
    "generators": [["0", "1", "1", "0"], ["z", "0", "0", "1"]],
}


def test_molien_series_at_conductor_12():
    g = parse_group_dict(G1212)
    assert g.order == 288
    assert g.fundamental_degrees() == (12, 24)
    dmax = deciding_degree(g, 36)
    den = upoly_mul([1] + [0] * 11 + [-1], [1] + [0] * 23 + [-1])
    assert g.molien().coefficients(dmax) == series_of((1,), den, dmax)


def test_molien_guard_refuses_a_non_integral_coefficient(monkeypatch):
    # 1/2 (1 / (1 - t) + 1 / (1 - 2t)) has t-coefficient 3/2
    original = groups_module._det_one_minus_tw

    def doubled(group, w):
        det = original(group, w)
        return [det[0], 2 * det[1]] if w else det

    monkeypatch.setattr(groups_module, "_det_one_minus_tw", doubled)
    g = load_group("z2")
    with pytest.raises(GroupInvariantViolated, match="Molien series has a non-integral coefficient"):
        g.molien().coefficients(1)


def _faulty_act_linear(monkeypatch, g, fault):
    """Make g.act_linear return fault(scale, form) of the true image."""
    original = g.act_linear
    monkeypatch.setattr(g, "act_linear", lambda w, form: fault(*original(w, form)))


def test_reflections_refuse_a_coroot_that_is_not_an_eigenvector(monkeypatch):
    g = load_group("s3")
    m = g.conductor

    def turned(c, form):
        # the form with its last coefficient moved by 1
        return c, LinearForm.normalize([*form.coeffs[:-1], form.coeffs[-1] + 1], m)[1]

    _faulty_act_linear(monkeypatch, g, turned)
    with pytest.raises(GroupInvariantViolated, match="co-root is not an eigenvector"):
        g.reflections()


def test_reflections_refuse_an_eigenvalue_that_is_not_primitive(monkeypatch):
    g = load_group("s3")
    _faulty_act_linear(monkeypatch, g, lambda c, form: (CycNum.one(g.conductor), form))
    with pytest.raises(
        GroupInvariantViolated,
        match="eigenvalue is not a primitive root of unity of order 2",
    ):
        g.reflections()


def test_conjugate_reflection_refuses_a_hyperplane_mismatch(monkeypatch):
    g = load_group("g312")
    s = g.reflection_at(1)
    _, conj = g.conjugate_reflection(s, 2)
    other = next(r.coroot for r in g.reflections() if r.coroot != conj.coroot)
    _faulty_act_linear(monkeypatch, g, lambda c, form: (c, other))
    with pytest.raises(GroupInvariantViolated, match="conjugated hyperplane mismatch"):
        g.conjugate_reflection(s, 2)


def test_group_file_faults(tmp_path):
    with pytest.raises(GroupFileError, match="missing field"):
        parse_group_dict({"name": "broken"})
    with pytest.raises(GroupFileError, match="generator 1"):
        parse_group_dict(
            {
                "name": "bad",
                "dimension": 2,
                "conductor": 1,
                "variables": ["x1", "x2"],
                "generators": [["1", "0", "0", "1"], ["1", "0", "0"]],
            }
        )
    with pytest.raises(SingularGenerator):
        parse_group_dict(
            {
                "name": "sing",
                "dimension": 1,
                "conductor": 1,
                "variables": ["x1"],
                "generators": [["0"]],
            }
        )
    with pytest.raises(GroupFileError, match="generator 0"):
        parse_group_dict(
            {
                "name": "junk",
                "dimension": 1,
                "conductor": 4,
                "variables": ["x1"],
                "generators": [["q"]],
            }
        )
    with pytest.raises(GroupFileError):
        load_group(tmp_path / "missing.json")
    flip = {
        "name": "flip",
        "dimension": 1,
        "conductor": 2,
        "variables": ["x1"],
        "generators": [["-1"]],
    }
    assert parse_group_dict(flip).order == 2
    # JSON true is a Python int, but not a dimension or a conductor
    for key in ("dimension", "conductor"):
        with pytest.raises(GroupFileError, match=key):
            parse_group_dict({**flip, key: True})
    # z reads back as the root of unity, a repeated name as its first
    # variable, and a non-identifier not at all
    for names in (["z"], ["a", "a"], ["x^2"], ["2x"], [""], ["x y"]):
        data = {
            **flip,
            "dimension": len(names),
            "generators": [["-1"] + ["0", "0", "1"] * (len(names) - 1)],
            "variables": names,
        }
        with pytest.raises(GroupFileError, match="variables"):
            parse_group_dict(data)
        path = tmp_path / "names.json"
        path.write_text(json.dumps(data))
        assert main(["group", "info", "--group", str(path)]) == 2
    # the name is written into DOT output between quotes
    for name in ('z2" [color=red', "back\\slash", "new\nline", "tab\t", "del\x7f", "c1\x85"):
        with pytest.raises(GroupFileError, match="name"):
            parse_group_dict({**flip, "name": name})
        path = tmp_path / "name.json"
        path.write_text(json.dumps({**flip, "name": name}))
        assert main(["hypergraph", "export", "--format", "dot", "--group", str(path)]) == 2
    assert parse_group_dict({**flip, "name": "G(2,1,1) ζ"}).name == "G(2,1,1) ζ"


def test_variable_names_read_back(groups):
    for g in groups.values():
        n, m = g.dimension, g.conductor
        zeta = root_of_unity(m, 1)
        f = MultiPoly(n, m, {(1,) + (0,) * (n - 1): zeta, (0,) * (n - 1) + (2,): 3})
        assert parse_poly(poly_text(f, g.variables), n, m, names=g.variables) == f
    renamed = parse_group_dict(
        {
            "name": "flip",
            "dimension": 2,
            "conductor": 2,
            "variables": ["u", "v_2"],
            "generators": [["-1", "0", "0", "1"]],
        }
    )
    f = MultiPoly(2, 2, {(1, 0): 1, (1, 2): -2})
    text = poly_text(f, renamed.variables)
    assert text == "-2*u*v_2^2 + u"
    assert parse_poly(text, 2, 2, names=renamed.variables) == f


def test_group_file_entries_read_in_any_factor_order(groups):
    # generator entries follow the one literal grammar that map files use
    written = [["(z)", "0", "0", "1"], ["0", "1", "1", "0"]]
    g312 = parse_group_dict({**seven_group_data("g312"), "generators": written})
    assert g312.elements == groups["g312"].elements
    swap = {"name": "swap", "dimension": 2, "conductor": 3, "variables": ["x1", "x2"]}
    plain = parse_group_dict({**swap, "generators": [["0", "2*z", "1/2*z^2", "0"]]})
    swapped = parse_group_dict({**swap, "generators": [["0", "z*2", "(1/2)*z^2", "0"]]})
    assert plain.order == 2
    assert swapped.elements == plain.elements


def test_action_checks_its_operand(groups):
    # at every element, the identity included; a wrong variable count once
    # escaped as StopIteration and a wrong conductor was named backwards
    z3 = groups["z3"]
    wide = MultiPoly.variable(2, 3, 0)
    rational = MultiPoly.variable(1, 1, 0)
    for i in range(z3.order):
        with pytest.raises(ValueError, match="an operand in 2 variables, not 1"):
            z3.act(i, wide)
        with pytest.raises(ConductorMismatch, match="an operand over conductor 1, not 3"):
            z3.act(i, rational)
    with pytest.raises(ValueError, match=r"exponents \(1, 1\) do not fit 1 variables"):
        z3.monomial_image(1, (1, 1))


def test_negative_exponents_are_refused_before_any_recursion(groups):
    # monomial_image(1, (-1,)) on z3 used to recurse to RecursionError,
    # and so did act on a polynomial holding that exponent
    z3 = groups["z3"]
    with pytest.raises(ValueError, match=r"exponents \(-1,\) include a negative one"):
        z3.monomial_image(1, (-1,))
    with pytest.raises(ValueError, match="not a nonnegative int"):
        z3.act(1, MultiPoly(1, 3, {(-1,): 1}))
    assert z3.monomial_image(1, (2,)) == z3.act(1, MultiPoly(1, 3, {(2,): 1}))


def test_a_unit_monomial_acts_as_its_memoized_image(groups):
    # x^e with coefficient 1 is the group's memoized image itself, shared
    # as act(0, f) shares f; any other coefficient is a new polynomial
    g = groups["g312"]
    for e in ((0, 0), (2, 1), (0, 3)):
        f = MultiPoly(g.dimension, g.conductor, {e: 1})
        assert g.act(0, f) is f
        for x in range(1, g.order):
            assert g.act(x, f) is g.monomial_image(x, e)
            assert g.act(x, f * 3) == g.monomial_image(x, e) * 3


def test_closure_cap(monkeypatch):
    one = CycNum.one(1)
    zero = CycNum.zero(1)
    swap = ((zero, one), (one, zero))
    neg = ((-one, zero), (zero, one))
    monkeypatch.setattr(groups_module, "_CAP", 3)
    with pytest.raises(CapExceeded, match="group order exceeds cap 3"):
        group_closure([swap, neg], 1)
    # they generate the 8 signed permutations, which fill a cap of 8
    monkeypatch.setattr(groups_module, "_CAP", 8)
    assert len(group_closure([swap, neg], 1)[0]) == 8


def test_group_file_conductor_must_not_exceed_the_cap():
    data = {
        "name": "flip",
        "dimension": 1,
        "conductor": groups_module._CAP + 1,
        "variables": ["x1"],
        "generators": [["-1"]],
    }
    message = f"conductor {groups_module._CAP + 1} exceeds the closure cap {groups_module._CAP}"
    with pytest.raises(GroupFileError, match=message):
        parse_group_dict(data)
    # the cap is not part of the schema: a "cap" key is ignored like any
    # other unknown key, and cannot raise it
    with pytest.raises(GroupFileError, match=message):
        parse_group_dict({**data, "cap": 10**6})
    assert parse_group_dict({**data, "conductor": 2, "cap": 1}).order == 2


def test_orbit_table_matches_cosets_and_action(groups):
    for g in groups.values():
        for s in g.reflections():
            table = g.orbits(s)
            assert g.orbits(s) is table
            assert tuple(o.members for o in table) == g.right_cosets(s.element)
            for o in table:
                assert (o.scale, o.form) == g.act_linear(o.rep, s.coroot)
                # member j = rep s^j sees tau_j times the same form
                for x, t in zip(o.members, o.tau):
                    assert g.act_linear(x, s.coroot) == (t, o.form)
