import json
from fractions import Fraction
from importlib import resources

import pytest

from reflect_gkm.cli import main
from reflect_gkm.cyclotomic import CycNum, parse_cyc, root_of_unity
from reflect_gkm.groups import (
    CapExceeded,
    GroupFileError,
    NotPolynomialInvariantRing,
    SingularGenerator,
    bundled_names,
    group_closure,
    load_group,
    parse_group_dict,
)
from reflect_gkm.linalg import mat_identity, mat_mul
from reflect_gkm.polynomials import MultiPoly, parse_poly, poly_text


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
    assert ([e.matrix for e in g.elements], g.mult_table, g.inverse_table) == want


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


@pytest.mark.parametrize("name", SEVEN)
def test_molien_series_is_pinned(name, tmp_path):
    series = load_seven(name, tmp_path).molien()
    num, den = MOLIEN[name]
    assert (series.num, series.den) == (
        tuple(Fraction(c) for c in num),
        tuple(Fraction(c) for c in den),
    )
    assert all(type(c) is Fraction for c in series.num + series.den)


def test_bfs_order_is_deterministic(groups):
    z3 = groups["z3"]
    z = root_of_unity(3, 1)
    assert z3.elements[1].matrix == ((z,),)
    assert z3.elements[2].matrix == ((z * z,),)
    g312 = groups["g312"]
    assert g312.elements[1].matrix[0][0] == z
    assert g312.elements[2].matrix[0][1] == 1


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
        assert [x for row in g.elements[idx].matrix for x in row] == [
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


def test_scalar_group_is_not_a_reflection_group():
    data = {
        "name": "scalar3",
        "dimension": 2,
        "conductor": 3,
        "variables": ["x1", "x2"],
        "generators": [["z", "0", "0", "z"]],
    }
    g = parse_group_dict(data)
    assert g.order == 3
    assert g.reflections() == ()
    assert not g.generated_by_reflections()
    assert g.molien().degrees is None
    with pytest.raises(NotPolynomialInvariantRing):
        g.fundamental_degrees()
    assert g.molien().coefficients(3) == [1, 0, 0, 4]


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


def test_closure_cap():
    one = CycNum.one(1)
    zero = CycNum.zero(1)
    swap = ((zero, one), (one, zero))
    neg = ((-one, zero), (zero, one))
    with pytest.raises(CapExceeded):
        group_closure([swap, neg], 1, cap=3)


@pytest.mark.parametrize("cap", ["abc", None, True, 0, -3, 2.5])
def test_group_file_cap_must_be_a_positive_int(cap, tmp_path, capsys):
    data = {
        "name": "flip",
        "dimension": 1,
        "conductor": 1,
        "variables": ["x1"],
        "generators": [["-1"]],
        "cap": cap,
    }
    with pytest.raises(GroupFileError, match="cap"):
        parse_group_dict(data)
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(data))
    assert main(["group", "info", "--group", str(path)]) == 2
    assert "cap must be a positive integer" in capsys.readouterr().err
    assert parse_group_dict({**data, "cap": 2}).order == 2


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
