"""The package's public names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import reflect_gkm

MODULES = ["reflect_gkm"] + [
    f"reflect_gkm.{info.name}" for info in pkgutil.iter_modules(reflect_gkm.__path__)
]


SOURCES = sorted(Path(reflect_gkm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert_statements(path):
    # python -O strips assert, so a correctness guard raises a named
    # exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def test_source_walk_sees_every_module():
    # an empty walk would pass the assert guard above vacuously
    assert [f"reflect_gkm.{p.stem}" for p in SOURCES if p.stem != "__init__"] == sorted(
        MODULES[1:]
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _functions(tree):
    """(qualified name, node) of every function, methods as Class.name."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(tree, "")
    return out


def _mentions(node, name):
    return any(
        (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
        or (isinstance(n, ast.alias) and n.name == name)
        for n in ast.walk(node)
    )


def _multiplies_denominators(node):
    """Does a loop in node form x.den * y.den, the denominator of a product
    it is about to accumulate?"""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and all(
            isinstance(side, ast.Attribute) and side.attr == "den" for side in (n.left, n.right)
        )
        for loop in ast.walk(node)
        if isinstance(loop, (ast.For, ast.While))
        for n in ast.walk(loop)
    )


def _adds_products_in_place(node):
    """Does a loop in node add a product into an indexed slot in place,
    acc[k] += x * y, the step of a sum of products?"""
    return any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, (ast.Add, ast.Sub))
        and isinstance(n.target, ast.Subscript)
        and any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult) for b in ast.walk(n.value))
        for loop in ast.walk(node)
        if isinstance(loop, (ast.For, ast.While))
        for n in ast.walk(loop)
    )


def test_one_product_kernel():
    # products of integer numerators are formed only in cyclotomic, and
    # summed per key only in its two kernels: keyed_dot_products, over a
    # common denominator it keeps, reducing each product by _mul_int, and
    # numerator_dot_products, for the fraction-free sums over a denominator
    # the caller keeps, reducing each key's sum once by _reduce_mod; the
    # rest of the package reaches products through them
    mul_int, reducing, accumulating, in_place = set(), set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "cyclotomic.py":
            for name in ("_mul_int", "_reduce_mod"):
                assert not _mentions(tree, name), (path.name, name)
        for name, node in _functions(tree):
            where = f"{path.stem}.{name}"
            if _mentions(node, "_mul_int") and not name.startswith("_mul_int"):
                mul_int.add(where)
            if _mentions(node, "_reduce_mod") and not name.startswith("_reduce_mod"):
                reducing.add(where)
            if _multiplies_denominators(node):
                accumulating.add(where)
            if _adds_products_in_place(node):
                in_place.add(where)
    # one product, the norm of an inverse and the denominator-keeping kernel
    assert mul_int == {
        "cyclotomic.keyed_dot_products",
        "cyclotomic.CycNum.__mul__",
        "cyclotomic._inverse",
    }
    # a literal, a power of z, one product and the per-key sums
    assert reducing == {
        "cyclotomic.CycNum.__init__",
        "cyclotomic._zeta_power",
        "cyclotomic._mul_int",
        "cyclotomic.numerator_dot_products",
    }
    assert accumulating == {"cyclotomic.keyed_dot_products"}
    # a product, its reduction, a conjugate's power map and the per-key sums
    assert in_place == {
        "cyclotomic._mul_int",
        "cyclotomic._reduce_mod",
        "cyclotomic._power_map",
        "cyclotomic.numerator_dot_products",
    }


def test_mat_inv_only_in_linalg_and_group_closure():
    # a group generator's singularity is the only inverse the package
    # eliminates for; an orbit's Vandermonde inverse is built from its
    # eigenvalue weights and certified by one product, never eliminated
    users = set()
    for path in SOURCES:
        if path.stem == "linalg":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        users.update(
            f"{path.stem}.{name}"
            for name, node in _functions(tree)
            if _mentions(node, "mat_inv")
        )
        if path.stem != "groups":
            assert not _mentions(tree, "mat_inv"), path.name
    assert users == {"groups.group_closure"}


def test_one_sum_over_a_hypergraph_edge():
    # an edge is an orbit: the hypergraph's sums and verdicts are the orbit
    # sums equivariant forms on a map's numerators, so hypergraph.py sums no
    # values and reads none; the certified rows are built from the pieces
    # the sums read, so groups.py keeps no second weight table; and every
    # function that reads a reflection's weight row is _orbit_sum, the one
    # coset sum, the certificate's rows, or the exact oracle's conditions
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not _mentions(tree, "lagrange_weights"), path.name
        if path.stem == "hypergraph":
            # a map's values are an attribute read; dict.values() is a call
            called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
            assert not any(
                isinstance(n, ast.Attribute) and n.attr in ("values", "_values")
                and id(n) not in called
                for n in ast.walk(tree)
            )
        if path.stem == "groups":
            assert "eigenvalue_weights" not in path.read_text()
        if path.stem != "polynomials":
            assert not _mentions(tree, "weighted_sum"), path.name
        else:
            # weighted_sum sits only behind the linear action
            calling = {name for name, node in _functions(tree) if _mentions(node, "weighted_sum")}
            assert calling == {"LinearSubstitution.apply"}
        readers.update(
            f"{path.stem}.{name}"
            for name, node in _functions(tree)
            if any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "weights"
                for n in ast.walk(node)
            )
        )
    assert readers == {
        "equivariant._orbit_sum",
        "equivariant.divisibility_conditions",
        "groups._certified_inverse",
    }


def test_suite_counts_checks_only_in_its_tally():
    # every runner yields outcomes, and _tally alone turns them into the
    # checks and failures of a LemmaResult
    tree = ast.parse((Path(reflect_gkm.__file__).parent / "suite.py").read_text())
    counters = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Name)
        and node.target.id in ("checks", "failures")
    ]
    assert counters == []
    constructing = {
        name
        for name, node in _functions(tree)
        if any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "LemmaResult"
            for n in ast.walk(node)
        )
    }
    assert constructing == {"_tally"}


def test_one_grammar_reads_every_literal():
    # the text form of exact literals is parsed in cyclotomic alone:
    # polynomials imports no re and splits nothing itself, and parse_cyc and
    # parse_poly both read through cyclotomic.parse_terms
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for stem in ("cyclotomic", "polynomials"):
        assert not _mentions(trees[stem], "re"), stem
    splitters, readers = set(), set()
    for stem, tree in trees.items():
        for name, node in _functions(tree):
            if "split" in name:
                splitters.add(f"{stem}.{name}")
            if any(
                isinstance(n, ast.Call) and _mentions(n.func, "parse_terms") for n in ast.walk(node)
            ):
                readers.add(f"{stem}.{name}")
    assert splitters == {"cyclotomic._split_top_level"}
    assert readers == {"cyclotomic.parse_cyc", "polynomials.parse_poly"}


def test_orbit_sums_are_read_from_orbit_records():
    # every weighted orbit sum of the operators and the verdict is formed by
    # _orbit_sum from an Orbit record, and the identity coset is the first
    # record of the orbit table, never rebuilt from the powers of s; what
    # the verdict and the witness do with that sum is polynomials' (below)
    tree = ast.parse((Path(reflect_gkm.__file__).parent / "equivariant.py").read_text())

    def calling(callee):
        return {
            name
            for name, node in _functions(tree)
            if any(isinstance(n, ast.Call) and _mentions(n.func, callee) for n in ast.walk(node))
        }

    assert calling("numerator_dot_products") == {"_orbit_sum"}
    assert calling("_orbit_sum") == {"_deciding_sum", "orbit_difference", "divided_difference"}
    # the verdict and the failures list read the same deciding sum, once
    assert calling("_deciding_sum") == {"_sum_divides", "_coset_failure"}
    assert calling("_sum_divides") == {"membership", "lift_membership"}
    assert not _mentions(tree, "cyclic_powers")


# how polynomials decides, divides and witnesses form^i | S
DIVISION_INTERNALS = (
    "_horner",
    "_plus_root_multiple",
    "_times",
    "_root_power",
    "_root_powers",
    "_restriction",
    "_first_remainder",
    "_remainder_witness",
)


def test_one_module_divides_by_a_form_power():
    # whether form^i divides a sum, its quotient and its witness are
    # polynomials' alone: the division internals are defined and named
    # nowhere else, no module imports a private name from polynomials, and
    # elsewhere only equivariant._deciding_sum reads integral_root, to sum a
    # coordinate form's S_i below x_p^i
    defined, readers = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(
            f"{path.stem}.{name}" for name, _ in _functions(tree) if name in DIVISION_INTERNALS
        )
        if path.stem == "polynomials":
            continue
        for name in DIVISION_INTERNALS:
            assert not _mentions(tree, name), (path.stem, name)
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("polynomials")
            for alias in node.names
        ]
        assert not [name for name in imported if name.startswith("_")], path.stem
        readers.update(
            f"{path.stem}.{name}"
            for name, node in _functions(tree)
            if _mentions(node, "integral_root")
        )
    assert defined == {f"polynomials.{name}" for name in DIVISION_INTERNALS}
    assert readers == {"equivariant._deciding_sum"}


def _euclid_steps(node):
    """Lines of a, b = b, ... inside a while loop: the step of Euclid's
    algorithm, whatever a and b are."""
    return [
        n.lineno
        for loop in ast.walk(node)
        if isinstance(loop, ast.While)
        for n in ast.walk(loop)
        if isinstance(n, ast.Assign)
        and isinstance(n.targets[0], ast.Tuple)
        and isinstance(n.value, ast.Tuple)
        and len(n.targets[0].elts) == len(n.value.elts) == 2
        and ast.unparse(n.value.elts[0]) == ast.unparse(n.targets[0].elts[1])
    ]


def test_no_polynomial_euclid():
    # Phi_m and the Molien series are exact power series by divisors with
    # constant term 1 or -1, so no polynomial is divided with a remainder
    # and no gcd of polynomials is taken
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    helpers = {name for name, _ in _functions(trees["cyclotomic"]) if name.startswith("upoly_")}
    assert helpers == {"upoly_trim", "upoly_mul", "upoly_series_quotient"}
    quotients = set()
    for stem, tree in trees.items():
        for name in ("divmod", "upoly_divmod", "upoly_gcd", "upoly_add", "_reciprocal"):
            assert not _mentions(tree, name), (stem, name)
        assert _euclid_steps(tree) == [], stem
        for name, node in _functions(tree):
            assert "gcd" not in name and "divmod" not in name, (stem, name)
            if _mentions(node, "upoly_series_quotient") and name != "upoly_series_quotient":
                quotients.add(f"{stem}.{name}")
    assert quotients == {"cyclotomic.cyclotomic_polynomial", "groups.MolienSeries.coefficients"}


def _cache_maxsize(decorator):
    """The maxsize of a functools cache decorator: None for an unbounded
    one, a number for a bounded one, False for any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return None
    if name != "lru_cache":
        return False
    given = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args if call else []
    return ast.literal_eval(given[0]) if given else 128


def test_caches_are_bounded_or_keyed_by_the_conductor():
    # a cache keyed by input sizes (degrees, exponents, forms) is bounded;
    # only a table of the conductor alone is not, and a group file cannot
    # take a conductor above groups._CAP
    unbounded = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _functions(tree):
            for decorator in node.decorator_list:
                if _cache_maxsize(decorator) is None:
                    unbounded[f"{path.stem}.{name}"] = [a.arg for a in node.args.args]
    assert unbounded == {
        "cyclotomic._divisors": ["m"],
        "cyclotomic.cyclotomic_polynomial": ["m"],
        "cyclotomic._phi_terms": ["m"],
    }


def test_one_localization_routine():
    # _localized_numerators forms every value's numerators with
    # numerator_dot_products, its one kernel, and builds no CycNum; localize
    # and the sampler's maps both reach it, and localize_at is localize read
    # at one element
    source = Path(reflect_gkm.__file__).parent
    tree = ast.parse((source / "localization.py").read_text())
    functions = dict(_functions(tree))
    callers = {
        name for name, node in functions.items() if _mentions(node, "numerator_dot_products")
    }
    assert callers == {"_localized_numerators"}
    for name in ("keyed_dot_products", "from_numerators", "weighted_sum", "sum_of_products"):
        assert not _mentions(tree, name), name
    assert _mentions(functions["localize"], "_localized_numerators")
    assert _mentions(functions["localize_at"], "localize")
    sampling = dict(_functions(ast.parse((source / "sampling.py").read_text())))
    routes = {name for name, node in sampling.items() if _mentions(node, "_localized_numerators")}
    assert routes == {"_localized"}
    assert not any(_mentions(node, "localize") for node in sampling.values())


def test_maps_convert_to_numerators_in_one_place():
    # integral_numerators is applied to a map's values only inside
    # GroupMap.numerators, which keeps the result, so no verdict or
    # operator converts a map again; its other callers convert polynomials
    # that are not a map's values
    calls = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _functions(tree):
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and _mentions(n.func, "integral_numerators"):
                    reads_values = any(
                        _mentions(a, "values") or _mentions(a, "_values") for a in n.args
                    )
                    calls.add((f"{path.stem}.{name}", reads_values))
    assert calls == {
        ("equivariant.GroupMap.numerators", True),
        ("equivariant.divided_difference", False),
        ("equivariant.lift_membership", False),
        ("groups.ReflectionGroup.monomial_numerators", False),
        ("localization.localize", False),
        ("polynomials.divide_by_linear_power", False),
    }


def test_one_linear_polynomial_builder():
    # sum_k c_k x_k, a variable and a linear form's polynomial among them,
    # is built in one place
    tree = ast.parse((Path(reflect_gkm.__file__).parent / "polynomials.py").read_text())
    builders = {name for name, node in _functions(tree) if _mentions(node, "_linear_poly")}
    assert builders == {"LinearForm.as_poly", "LinearSubstitution.__init__", "MultiPoly.variable"}


# exact elimination for the theorem rows: kept only as the tests' oracle
EXACT_ROUTINES = ("divisibility_conditions", "image_graded_dimension", "membership_basis")


def _references(tree, names):
    """(innermost enclosing function, name, is the callee of a call) for
    every name or attribute in tree spelled as one of names."""
    found = []

    def visit(node, where, callee):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, None)
                continue
            spelled = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and spelled in names:
                found.append((where, spelled, child is callee))
            visit(child, where, child.func if isinstance(child, ast.Call) else None)

    visit(tree, "<module>", None)
    return found


def test_exact_routines_are_reached_only_from_each_other():
    # the certificate is the theorem rows' one route: no program path or
    # demo reaches exact elimination, and the only call among the three is
    # membership_basis eliminating divisibility_conditions' rows
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    references = set()
    for path in SOURCES + demos:
        tree = ast.parse(path.read_text(), filename=str(path))
        references.update(
            (f"{path.stem}.{where}", name, called)
            for where, name, called in _references(tree, EXACT_ROUTINES)
        )
    assert references == {("equivariant.membership_basis", "divisibility_conditions", True)}
