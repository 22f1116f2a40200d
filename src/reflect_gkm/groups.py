"""Finite matrix groups and their pseudo-reflections.

A group lives entirely in exact cyclotomic arithmetic: elements are n x n
CycNum matrices enumerated breadth-first from the identity (multiplying on
the right by the generators in file order), so element indices, Cayley
tables, coset representatives and every downstream basis are deterministic.

Conventions used throughout the package:

  * the action on polynomials is (w . f)(v) = f(w^-1 v), implemented as the
    substitution x_k -> sum_j (w^-1)[k][j] x_j;
  * a pseudo-reflection is a non-identity element with rank(s - id) = 1; its
    co-root is the normalized linear form cutting out the fixed hyperplane,
    read off the first nonzero row of s - id;
  * the eigenvalue lambda of s, s . ell = lambda ell for the co-root ell
    (contragredient action), is a primitive |s|-th root of unity;
  * reflections() builds each s with its eigenvalue weights lambda^{-ij},
    i, j < |s|; s.weights(i) reads row i mod |s|, since lambda^|s| = 1.
    hyperplane_generators() keeps each hyperplane's first of maximal order:
    it generates the stabilizer, so the others there are its powers;
  * the orbit table of s, ReflectionGroup.orbits(s), cached on the group,
    holds one Orbit (a hypergraph edge) per right coset x<s>, in
    right_cosets order: s, the members [x, xs, ...], and x . ell = scale *
    form, form normalized, so member j sees tau_j * form, tau_j = scale *
    lambda^j.  Each per-coset scalar (scale^-i and the certified
    Vandermonde inverse, whose row i is scale^-i / size times s.weights(i))
    is a function of tau, built on first use and shared by equal-tau
    orbits.

The invariant ring is polynomial exactly when the pseudo-reflections
generate the group (Chevalley-Shephard-Todd), and then the fundamental
degrees d_i that drive the rest of the package satisfy sum_w t^{dim V^w}
= prod_i (t + d_i - 1) (Shephard-Todd 1954; Solomon, Nagoya Math. J. 22,
1963); reflections() counts dim V^w = n - rank(w - 1) in its one rank
pass.  The Molien series sum_w 1/det(1 - t w) / |W| is the invariant
Hilbert series: the molien command prints its coefficients, and the tests
check it against 1 / prod_i (1 - t^{d_i}).  det(1 - t w) comes from the
traces of w's powers by Newton's identities, and its constant term is 1,
so each distinct one inverts as an exact power series: no determinant is
expanded, no fraction reduced and no gcd of polynomials taken.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from pathlib import Path

from .cyclotomic import ConductorMismatch, CycNum, parse_cyc, upoly_series_quotient
from .linalg import mat_identity, mat_inv, mat_mul, mat_vec, rank
from .polynomials import Exponents, LinearForm, LinearSubstitution, MultiPoly, _check_operand
from .polynomials import integral_numerators

__all__ = [
    "CapExceeded",
    "GroupFileError",
    "GroupInvariantViolated",
    "MolienSeries",
    "NotPolynomialInvariantRing",
    "Orbit",
    "PseudoReflection",
    "ReflectionGroup",
    "SingularGenerator",
    "bundled_names",
    "group_closure",
    "load_group",
    "parse_group_dict",
]


class GroupFileError(Exception):
    """The group definition violates the schema."""


class SingularGenerator(Exception):
    """A declared generator is not invertible."""


class CapExceeded(Exception):
    """Closure passed _CAP elements without terminating."""


class GroupInvariantViolated(Exception):
    """A fact that holds in every finite matrix group failed to hold; this
    is a library bug, never a property of the input."""


class NotPolynomialInvariantRing(Exception):
    """The pseudo-reflections do not generate the group, so by
    Chevalley-Shephard-Todd its invariant ring is not polynomial and it has
    no fundamental degrees."""


@dataclass(frozen=True)
class PseudoReflection:
    element: int
    order: int
    coroot: LinearForm
    eigenvalue: CycNum
    hyperplane: int
    weight_table: tuple[tuple[CycNum, ...], ...] = field(compare=False, repr=False)

    def weights(self, i: int) -> tuple[CycNum, ...]:
        """lambda^{-ij} for j < order, row i mod order of weight_table."""
        return self.weight_table[i % self.order]


@dataclass(frozen=True)
class Orbit:
    """One right coset x<s>, the hyperedge of s through x: member j
    (= rep s^j) sees tau[j] * form, so rep . ell_s = scale * form.  Its
    scalars depend on tau alone, so orbits with equal tau share them."""

    reflection: PseudoReflection
    members: tuple[int, ...]
    form: LinearForm
    tau: tuple[CycNum, ...]
    scalars: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rep(self) -> int:
        return self.members[0]

    @property
    def scale(self) -> CycNum:
        return self.tau[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def _kept(self, key, build):
        got = self.scalars.get(key)
        if got is None:
            got = self.scalars[key] = build()
        return got

    @property
    def vandermonde_inverse(self):
        """The matrix D with row i = scale^-i lambda^{-ij} / size, read from
        the pieces the edge sums use, inverse_scale_power(i) / size and
        reflection.weights(i), once V . D = I is checked exactly for
        V = [tau_j^i] (what that proves is in the hypergraph module
        docstring); else GroupInvariantViolated, naming the orbit's members
        and reflection."""
        return self._kept("vandermonde", lambda: _certified_inverse(self))

    def inverse_scale_power(self, i: int) -> CycNum:
        """scale^-i, which turns (rep . ell_s)^i into form^i."""
        return self._kept(("scale", i), lambda: self.scale ** (-i))


def _certified_inverse(orbit: Orbit) -> tuple[tuple[CycNum, ...], ...]:
    # the reflection's eigenvalue and order are tau[1] / tau[0] and
    # len(tau), so orbits with equal tau have equal rows
    r = orbit.size
    rows = ((orbit.inverse_scale_power(i) / r, orbit.reflection.weights(i)) for i in range(r))
    inverse = tuple(tuple(base * w for w in weights) for base, weights in rows)
    V = tuple(tuple(t**i for i in range(r)) for t in orbit.tau)
    if mat_mul(V, inverse) != mat_identity(r, orbit.form.conductor):
        raise GroupInvariantViolated(
            f"edge {list(orbit.members)} of reflection {orbit.reflection.element}: "
            "its eigenvalue weights do not invert the Vandermonde matrix of its tau"
        )
    return inverse


def _matrix_key(matrix) -> tuple:
    """The exact (num, den) pairs of a matrix's entries, which are canonical
    at the one conductor of the group, so equal matrices have equal keys."""
    return tuple((x.num, x.den) for row in matrix for x in row)


# The largest group order the closure accepts.  A group of order at most
# _CAP has exponent e <= _CAP and, by Brauer's theorem, is realized over
# Q(zeta_e), so no accepted group needs a conductor above _CAP either.
_CAP = 10000


def group_closure(matrices, conductor: int):
    """BFS closure of a generator list; returns (elements, mult_table,
    inverse_table).  Deterministic: the identity is element 0 and products
    are explored in generator file order.

    The BFS records right[x][g], the index of x * gen_g, and for each
    element b > 0 the word (parent, g) that first reached it, b = parent *
    gen_g, parent < b.  So a * b = (a * parent) * gen_g fills the Cayley
    table by integer lookups: |W| * #generators matrix products in all."""
    n = len(matrices[0])
    for k, g in enumerate(matrices):
        if len(g) != n or any(len(row) != n for row in g):
            raise GroupFileError(f"generator {k}: not an {n} x {n} matrix")
        try:
            mat_inv(g, conductor)
        except ValueError:
            raise SingularGenerator(f"generator {k} is singular") from None
    ident = mat_identity(n, conductor)
    index = {_matrix_key(ident): 0}
    elements = [ident]
    words = [None]
    right = []
    # the loop reads elements as the BFS appends to it
    for x, base in enumerate(elements):
        row = []
        for g, gen in enumerate(matrices):
            prod = mat_mul(base, gen)
            key = _matrix_key(prod)
            j = index.get(key)
            if j is None:
                if len(elements) >= _CAP:
                    raise CapExceeded(f"group order exceeds cap {_CAP}")
                j = index[key] = len(elements)
                elements.append(prod)
                words.append((x, g))
            row.append(j)
        right.append(row)
    mult = []
    steps = words[1:]
    for a in range(len(elements)):
        row = [a]
        for parent, g in steps:
            row.append(right[row[parent]][g])
        mult.append(row)
    inverse = [row.index(0) for row in mult]
    return elements, mult, inverse


class ReflectionGroup:
    """A finite matrix group; elements[i] is the n x n matrix of element i,
    in the BFS order of group_closure, so the identity is elements[0]."""

    def __init__(
        self, name, dimension, conductor, variables, elements, mult_table, inverse_table, generators
    ):
        self.name = name
        self.dimension = dimension
        self.conductor = conductor
        self.variables = list(variables)
        self.elements = list(elements)
        self.mult_table = mult_table
        self.inverse_table = inverse_table
        # element indices of the file's generators, in file order
        self.generators = tuple(generators)
        self._subs: dict[int, LinearSubstitution] = {}
        self._reflections: tuple[PseudoReflection, ...] | None = None
        # set by reflections(); fixed[k] counts the w with dim V^w = k
        self._by_element: dict[int, PseudoReflection] = {}
        self._stabilizer_generators: tuple[PseudoReflection, ...] = ()
        self._fixed: list[int] = []
        self._molien: MolienSeries | None = None
        self._degrees: tuple[int, ...] | None = None
        self._orbits: dict[int, tuple[Orbit, ...]] = {}
        self._image_tables: dict[Exponents, tuple[int, list]] = {}
        self._transported: dict[tuple[int, int], tuple[CycNum, LinearForm]] = {}
        self._scalars: dict[tuple, dict] = {}

    # -- bookkeeping ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.mult_table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse_table[i]

    def cyclic_powers(self, i: int) -> tuple[int, ...]:
        """Indices of e, s, s^2, ... for s the element at index i."""
        out = [0]
        cur = i
        while cur != 0:
            out.append(cur)
            cur = self.mult_table[cur][i]
        return tuple(out)

    def right_cosets(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Right cosets x<s> with members ordered [x, xs, xs^2, ...]; the
        representative x is the smallest index in its coset."""
        powers = self.cyclic_powers(i)
        seen = [False] * self.order
        cosets = []
        for x in range(self.order):
            if seen[x]:
                continue
            members = tuple(self.mult_table[x][p] for p in powers)
            for m in members:
                seen[m] = True
            cosets.append(members)
        return tuple(cosets)

    def orbits(self, s: PseudoReflection) -> tuple[Orbit, ...]:
        """The orbit table of s: one Orbit per right coset, in right_cosets
        order.  Cached on the group."""
        got = self._orbits.get(s.element)
        if got is None:
            out = []
            for coset in self.right_cosets(s.element):
                # the powers of s share its co-root, so the transport to a
                # representative is computed once per (representative, hyperplane)
                key = (coset[0], s.hyperplane)
                moved = self._transported.get(key)
                if moved is None:
                    moved = self._transported[key] = self.act_linear(coset[0], s.coroot)
                c, form = moved
                tau = tuple(c * s.eigenvalue**j for j in range(len(coset)))
                # orbits with equal tau share their scalars; (num, den) is
                # exact at one conductor
                exact = tuple((t.num, t.den) for t in tau)
                scalars = self._scalars.setdefault(exact, {})
                out.append(Orbit(s, coset, form, tau, scalars))
            got = self._orbits[s.element] = tuple(out)
        return got

    # -- actions ---------------------------------------------------------

    def _substitution(self, i: int) -> LinearSubstitution:
        got = self._subs.get(i)
        if got is None:
            inv_matrix = self.elements[self.inverse_table[i]]
            got = self._subs[i] = LinearSubstitution(inv_matrix, self.conductor)
        return got

    def act(self, i: int, f: MultiPoly) -> MultiPoly:
        """(w . f)(v) = f(w^-1 v) for w the element at index i."""
        _check_operand(f, self.dimension, self.conductor)
        if i == 0:
            return f
        return self._substitution(i).apply(f)

    def monomial_image(self, i: int, exps: Exponents) -> MultiPoly:
        """w . x^exps for w the element at index i, memoized on the group."""
        return self._substitution(i).monomial_image(exps)

    def monomial_numerators(self, exps: Exponents) -> tuple[int, list]:
        """(L, [x . x^exps as integer numerator items over L, per element x]):
        integral_numerators of the memoized images, cached on the group."""
        if exps not in self._image_tables:
            images = [self.monomial_image(x, exps) for x in range(self.order)]
            nums, den = integral_numerators(images, self.dimension, self.conductor)
            self._image_tables[exps] = den, [tuple(v.items()) for v in nums]
        return self._image_tables[exps]

    def act_linear(self, i: int, form: LinearForm) -> tuple[CycNum, LinearForm]:
        """w . form, split as (scale, normalized form)."""
        inv_matrix = self.elements[self.inverse_table[i]]
        coeffs = mat_vec(tuple(zip(*inv_matrix)), form.coeffs)
        return LinearForm.normalize(coeffs, self.conductor)

    # -- reflections -------------------------------------------------------

    def reflections(self) -> tuple[PseudoReflection, ...]:
        """All pseudo-reflections, each power of one that still fixes its
        hyperplane included.  The same pass counts the elements by
        fixed-space dimension n - rank(w - 1) for fundamental_degrees."""
        if self._reflections is not None:
            return self._reflections
        n = self.dimension
        ident = mat_identity(n, self.conductor)
        hyperplanes: dict[LinearForm, int] = {}
        found, best = [], {}
        fixed = [0] * n + [1]
        for w in range(1, self.order):
            diff = tuple(
                tuple(a - b for a, b in zip(row, irow))
                for row, irow in zip(self.elements[w], ident)
            )
            r = rank(diff)
            fixed[n - r] += 1
            if r != 1:
                continue
            row = next(r for r in diff if any(r))
            _, coroot = LinearForm.normalize(row, self.conductor)
            lam, image = self.act_linear(w, coroot)
            if image != coroot:
                raise GroupInvariantViolated(f"element {w}: co-root is not an eigenvector")
            order = len(self.cyclic_powers(w))
            if lam**order != 1 or any(lam**k == 1 for k in range(1, order)):
                raise GroupInvariantViolated(
                    f"element {w}: eigenvalue is not a primitive "
                    f"root of unity of order {order}"
                )
            hid = hyperplanes.setdefault(coroot, len(hyperplanes))
            down = [lam ** (-j) for j in range(order)]
            table = tuple(
                tuple(down[i * j % order] for j in range(order)) for i in range(order)
            )
            found.append(PseudoReflection(w, order, coroot, lam, hid, table))
            if hid not in best or order > best[hid].order:
                best[hid] = found[-1]
        self._reflections = tuple(found)
        self._by_element = {s.element: s for s in found}
        self._stabilizer_generators = tuple(best.values())
        self._fixed = fixed
        return self._reflections

    def hyperplane_generators(self) -> tuple[PseudoReflection, ...]:
        """One generator per hyperplane stabilizer (module docstring)."""
        self.reflections()
        return self._stabilizer_generators

    def reflection_at(self, element_index: int) -> PseudoReflection:
        self.reflections()
        return self._by_element[element_index]

    def generated_by_reflections(self) -> bool:
        gens = [s.element for s in self.reflections()]
        # the loop reads reached as it appends to it
        reached = [0]
        seen = {0}
        for x in reached:
            for g in gens:
                y = self.mult_table[x][g]
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        return len(seen) == self.order

    def conjugate_reflection(self, s: PseudoReflection, w: int) -> tuple[CycNum, PseudoReflection]:
        """The reflection w s w^-1 together with the scale c relating the
        transported co-root to the canonical one: w . ell_s = c * ell_{wsw^-1}."""
        target = self.mult_table[self.mult_table[w][s.element]][self.inverse_table[w]]
        conj = self.reflection_at(target)
        c, form = self.act_linear(w, s.coroot)
        if form != conj.coroot:
            raise GroupInvariantViolated("conjugated hyperplane mismatch")
        return c, conj

    # -- Molien series ------------------------------------------------------

    def molien(self) -> "MolienSeries":
        if self._molien is None:
            self._molien = _molien_series(self)
        return self._molien

    def fundamental_degrees(self) -> tuple[int, ...]:
        """The d_i in ascending order, peeled from the fixed-space histogram
        (module docstring).  Cached on the group."""
        if self._degrees is None:
            if not self.generated_by_reflections():
                raise NotPolynomialInvariantRing(
                    f"group {self.name!r} is not generated by its pseudo-reflections, "
                    "so its invariant ring is not polynomial"
                )
            self._degrees = _fixed_space_degrees(self._fixed)
        return self._degrees

    def __repr__(self):
        return f"ReflectionGroup({self.name!r}, order={self.order})"


def _fixed_space_degrees(fixed: list[int]) -> tuple[int, ...]:
    """The d_i with sum_k fixed[k] t^k = prod_i (t + d_i - 1), by dividing
    out t + r for r = 0, 1, ...; each d_i is at most prod_i d_i = |W|."""
    high, degrees = fixed[::-1], []
    for r in range(sum(fixed)):
        while len(high) > 1:
            # synthetic division by t + r; the last entry is the value at -r
            quo = list(accumulate(high, lambda acc, c: c - r * acc))
            if quo[-1]:
                break
            high = quo[:-1]
            degrees.append(r + 1)
    if high != [1]:
        raise GroupInvariantViolated(f"fixed-space counts {fixed} do not split as t + d - 1")
    return tuple(degrees)


# ---------------------------------------------------------------------------
# Molien series: det(1 - t w) as a CycNum coefficient list, low degree first


def _det_one_minus_tw(group: ReflectionGroup, w: int) -> list:
    """det(1 - t w) = sum_k (-1)^k e_k t^k, e_k the elementary symmetric
    functions of w's eigenvalues, from their power sums p_i = tr(w^i)
    along w's powers in the multiplication table.  Newton's identities
    k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} p_i say that c_k = (-1)^k e_k
    has k c_k = -sum_{i<=k} c_{k-i} p_i."""
    n = group.dimension
    traces, x = [], w
    for _ in range(n):
        matrix = group.elements[x]
        traces.append(sum(matrix[k][k] for k in range(n)))
        x = group.mul(x, w)
    coeffs = [CycNum.one(group.conductor)]
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    return coeffs


@dataclass(frozen=True)
class MolienSeries:
    """The invariant Hilbert series (1/|W|) sum_c n_c / det_c, where n_c
    elements w have det(1 - t w) = det_c.  For a group generated by
    reflections it is 1 / prod_i (1 - t^{d_i}) over
    ReflectionGroup.fundamental_degrees()."""

    order: int
    classes: tuple[tuple[tuple[CycNum, ...], int], ...]

    def coefficients(self, dmax: int) -> list[int]:
        """Power series coefficients (invariant dimensions) up to dmax.
        Each det_c has constant term 1, so 1 / det_c is an exact power
        series (cyclotomic.upoly_series_quotient)."""
        total = [0] * (dmax + 1)
        for det, count in self.classes:
            for d, c in enumerate(upoly_series_quotient(det[:1], det, dmax + 1)):
                total[d] = total[d] + count * c
        if not all(c.is_rational() and c.den == 1 and c.num[0] % self.order == 0 for c in total):
            raise GroupInvariantViolated("Molien series has a non-integral coefficient")
        return [c.num[0] // self.order for c in total]


def _molien_series(group: ReflectionGroup) -> MolienSeries:
    # det(1 - tw) is a class function: count the elements per exact polynomial
    classes: dict[tuple, list] = {}
    for w in range(group.order):
        dw = _det_one_minus_tw(group, w)
        classes.setdefault(tuple((c.num, c.den) for c in dw), [dw, 0])[1] += 1
    return MolienSeries(group.order, tuple((tuple(dw), count) for dw, count in classes.values()))


# ---------------------------------------------------------------------------
# group files


_BUNDLED = ("z2", "z3", "z4", "s3", "b2", "g312")


def bundled_names() -> tuple[str, ...]:
    return _BUNDLED


def parse_group_dict(data: dict) -> ReflectionGroup:
    if not isinstance(data, dict):
        raise GroupFileError("group definition must be a JSON object")
    for key in ("name", "dimension", "conductor", "variables", "generators"):
        if key not in data:
            raise GroupFileError(f"missing field {key!r}")
    name = data["name"]
    n = data["dimension"]
    m = data["conductor"]
    variables = data["variables"]
    gens = data["generators"]
    # the name goes verbatim into text reports and quoted into DOT output
    if not isinstance(name, str) or re.search(r'[\\"\x00-\x1f\x7f-\x9f]', name):
        raise GroupFileError("name must be a string with no quote, backslash or control character")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GroupFileError("dimension must be a positive integer")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise GroupFileError("conductor must be a positive integer")
    # no accepted group needs a larger conductor (see _CAP): refuse it first
    if m > _CAP:
        raise GroupFileError(
            f"conductor {m} exceeds the closure cap {_CAP}: a group of order at most "
            f"{_CAP} is realized over Q(zeta_e) for its exponent e <= {_CAP}"
        )
    # names must read back through parse_poly: identifiers, distinct, and
    # not z, the root of unity
    if (
        not isinstance(variables, list)
        or len(variables) != n
        or not all(isinstance(v, str) and v.isidentifier() and v != "z" for v in variables)
        or len(set(variables)) != n
    ):
        raise GroupFileError(f"variables must be {n} distinct identifiers other than z")
    if not isinstance(gens, list) or not gens:
        raise GroupFileError("generators must be a nonempty list")
    matrices = []
    for k, flat in enumerate(gens):
        if not isinstance(flat, list) or len(flat) != n * n:
            raise GroupFileError(
                f"generator {k}: expected a row-major list of {n * n} entries"
            )
        try:
            entries = [parse_cyc(str(e), m) for e in flat]
        except (ValueError, ConductorMismatch) as exc:
            raise GroupFileError(f"generator {k}: {exc}") from None
        matrices.append(
            tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        )
    elements, mult, inverse = group_closure(matrices, m)
    # the BFS reaches each generator from the identity, among the first elements
    generators = tuple(elements.index(g) for g in matrices)
    return ReflectionGroup(name, n, m, variables, elements, mult, inverse, generators)


def load_group(source) -> ReflectionGroup:
    """Load a group from a JSON file path or a bundled name (z2, z3, z4,
    s3, b2, g312)."""
    if isinstance(source, str) and source in _BUNDLED:
        text = (
            resources.files("reflect_gkm").joinpath(f"groups/{source}.json").read_text()
        )
        return parse_group_dict(json.loads(text))
    if not Path(source).exists():
        raise GroupFileError(f"no such group file or bundled name: {source}")
    return parse_group_dict(_read_json(source, GroupFileError))


def _read_json(path, error: type[Exception]):
    """The JSON value in the UTF-8 file at path; a file that cannot be read
    or decoded, or is not JSON that Python reads (an integer past its digit
    limit, arrays nested past its recursion limit), raises error, the
    caller's file error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
