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
  * the eigenvalue lambda of s is defined by s . ell = lambda ell for the
    co-root ell (contragredient action); it is a primitive |s|-th root of
    unity;
  * reflections() builds each s with its eigenvalue weights lambda^{-ij},
    i, j < |s|; s.weights(i) reads row i mod |s|, since lambda^|s| = 1;
  * the orbit table of s, ReflectionGroup.orbits(s), holds one Orbit per
    right coset x<s>, in right_cosets order: s, the members [x, xs, xs^2,
    ...], and the co-root transported to the representative, x . ell =
    scale * form with form normalized.  Member j sees tau_j * form with
    tau_j = scale * lambda^j.  The table is computed once per (group,
    reflection) and cached on the group.  An Orbit is also a hyperedge of
    the reflection hypergraph.  Every per-coset scalar (scale^-i, the
    Vandermonde inverse, both edge-integral weight vectors and whether
    they are equal) is a function of tau, so it is computed on first use
    and kept in a table that all orbits of the group with equal tau share.

The Molien series sum_w 1/det(1 - t w) / |W| is computed as an exact
rational function, one term per distinct det(1 - t w) weighted by how
many elements share it, and its denominator is factored as prod (1 - t^{d_i});
the d_i are the fundamental degrees that drive the rest of the package.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .cyclotomic import (
    ConductorMismatch,
    CycNum,
    parse_cyc,
    upoly_add,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_trim,
)
from .linalg import mat_identity, mat_inv, mat_mul, mat_vec, rank
from .polynomials import LinearForm, LinearSubstitution, MultiPoly

__all__ = [
    "CapExceeded",
    "GroupElement",
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
    """Closure passed the configured element cap without terminating."""


class GroupInvariantViolated(Exception):
    """A fact that holds in every finite matrix group failed to hold; this
    is a library bug, never a property of the input."""


class NotPolynomialInvariantRing(Exception):
    """The Molien series does not factor as prod 1/(1 - t^d); the group is
    not generated by pseudo-reflections."""


@dataclass(frozen=True)
class GroupElement:
    index: int
    matrix: tuple[tuple[CycNum, ...], ...]


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
    """One right coset x<s> with the co-root of s transported to it:
    member j (= rep s^j) sees tau[j] * form, so rep . ell_s = scale * form.
    It is also the hyperedge of s through x.  Its scalars below depend on
    tau alone, so orbits with equal tau share one table of them."""

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
        """Inverse of the Vandermonde matrix [tau_j^i]."""

        def invert():
            V = [[t**i for i in range(self.size)] for t in self.tau]
            return mat_inv(V, self.form.conductor)

        return self._kept("vandermonde", invert)

    def inverse_scale_power(self, i: int) -> CycNum:
        """scale^-i, which turns (rep . ell_s)^i into form^i."""
        return self._kept(("scale", i), lambda: self.scale ** (-i))

    def lagrange_weights(self, k: int) -> tuple[CycNum, ...]:
        """tau_j^k / prod_{l != j} (tau_j - tau_l) for each member j."""
        return self._kept(("lagrange", k), lambda: _lagrange_weights(self, k))

    def eigenvalue_weights(self, k: int) -> tuple[CycNum, ...]:
        """scale^-i lambda^{-ij} / size for each member j, i = size - 1 - k."""
        return self._kept(("eigenvalue", k), lambda: _eigenvalue_weights(self, k))

    def weights_agree(self, k: int) -> bool:
        """Are the two weight vectors above exactly equal?  The edge
        integrals are linear in the vertex values, so equal vectors make
        the two routes agree on every map."""
        return self._kept(
            ("agree", k), lambda: self.lagrange_weights(k) == self.eigenvalue_weights(k)
        )


def _lagrange_weights(orbit: Orbit, k: int) -> tuple[CycNum, ...]:
    # 1 / prod_{l != j} (tau_j - tau_l) is the leading coefficient of the
    # j-th Lagrange basis polynomial: the last row of the Vandermonde inverse
    leading = orbit.vandermonde_inverse[orbit.size - 1]
    return tuple(t**k * lead for t, lead in zip(orbit.tau, leading))


def _eigenvalue_weights(orbit: Orbit, k: int) -> tuple[CycNum, ...]:
    # the reflection's eigenvalue and order are tau[1] / tau[0] and
    # len(tau), so orbits with equal tau have equal weights
    i = orbit.size - 1 - k
    base = orbit.inverse_scale_power(i) / orbit.size
    return tuple(base * w for w in orbit.reflection.weights(i))


def _matrix_key(matrix) -> tuple:
    """The exact (num, den) pairs of a matrix's entries, which are canonical
    at the one conductor of the group, so equal matrices have equal keys."""
    return tuple((x.num, x.den) for row in matrix for x in row)


def group_closure(matrices, conductor: int, cap: int = 10000):
    """BFS closure of a generator list; returns (elements, mult_table,
    inverse_table).  Deterministic: the identity is element 0 and products
    are explored in generator file order.

    The BFS records right[x][g], the index of x * gen_g, and for each
    element b > 0 the word (parent, g) that first reached it, b = parent *
    gen_g, with parent < b.  So a * b = (a * parent) * gen_g, and the Cayley
    table is filled row by row from integer lookups: |W| * #generators
    matrix products in all."""
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
                if len(elements) >= cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
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
    def __init__(
        self, name, dimension, conductor, variables, elements, mult_table, inverse_table, generators
    ):
        self.name = name
        self.dimension = dimension
        self.conductor = conductor
        self.variables = list(variables)
        self.elements = [GroupElement(i, m) for i, m in enumerate(elements)]
        self.mult_table = mult_table
        self.inverse_table = inverse_table
        # element indices of the file's generators, in file order
        self.generators = tuple(generators)
        self._subs: dict[int, LinearSubstitution] = {}
        self._reflections: tuple[PseudoReflection, ...] | None = None
        self._by_element: dict[int, PseudoReflection] = {}
        self._molien: MolienSeries | None = None
        self._orbits: dict[int, tuple[Orbit, ...]] = {}
        self._transported: dict[tuple[int, int], tuple[CycNum, LinearForm]] = {}
        self._scalars: dict[tuple, dict] = {}

    # -- bookkeeping ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
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
            inv_matrix = self.elements[self.inverse_table[i]].matrix
            got = self._subs[i] = LinearSubstitution(inv_matrix, self.conductor)
        return got

    def act(self, i: int, f: MultiPoly) -> MultiPoly:
        """(w . f)(v) = f(w^-1 v) for w the element at index i."""
        if i == 0:
            return f
        return self._substitution(i).apply(f)

    def act_linear(self, i: int, form: LinearForm) -> tuple[CycNum, LinearForm]:
        """w . form, split as (scale, normalized form)."""
        inv_matrix = self.elements[self.inverse_table[i]].matrix
        coeffs = mat_vec(tuple(zip(*inv_matrix)), form.coeffs)
        return LinearForm.normalize(coeffs, self.conductor)

    # -- reflections -------------------------------------------------------

    def reflections(self) -> tuple[PseudoReflection, ...]:
        """All pseudo-reflections (not one per hyperplane: every power of an
        order-d reflection that still fixes the hyperplane is listed)."""
        if self._reflections is not None:
            return self._reflections
        ident = mat_identity(self.dimension, self.conductor)
        hyperplanes: dict[LinearForm, int] = {}
        found = []
        for el in self.elements[1:]:
            diff = tuple(
                tuple(a - b for a, b in zip(row, irow))
                for row, irow in zip(el.matrix, ident)
            )
            if rank(diff) != 1:
                continue
            row = next(r for r in diff if any(r))
            _, coroot = LinearForm.normalize(row, self.conductor)
            lam, image = self.act_linear(el.index, coroot)
            if image != coroot:
                raise GroupInvariantViolated(
                    f"element {el.index}: co-root is not an eigenvector"
                )
            order = len(self.cyclic_powers(el.index))
            if lam**order != 1 or any(lam**k == 1 for k in range(1, order)):
                raise GroupInvariantViolated(
                    f"element {el.index}: eigenvalue is not a primitive "
                    f"root of unity of order {order}"
                )
            hid = hyperplanes.setdefault(coroot, len(hyperplanes))
            down = [lam ** (-j) for j in range(order)]
            table = tuple(
                tuple(down[i * j % order] for j in range(order)) for i in range(order)
            )
            found.append(PseudoReflection(el.index, order, coroot, lam, hid, table))
        self._reflections = tuple(found)
        self._by_element = {s.element: s for s in found}
        return self._reflections

    def reflection_at(self, element_index: int) -> PseudoReflection:
        self.reflections()
        return self._by_element[element_index]

    def generated_by_reflections(self) -> bool:
        gens = [s.element for s in self.reflections()]
        if not gens:
            return self.order == 1
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mult_table[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
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
        degs = self.molien().degrees
        if degs is None:
            raise NotPolynomialInvariantRing(
                f"group {self.name!r}: Molien series does not factor as "
                "a product of 1/(1 - t^d)"
            )
        return degs

    def __repr__(self):
        return f"ReflectionGroup({self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Molien series: univariate polynomials over CycNum (the upoly_* helpers of
# cyclotomic), coefficient lists low degree first


def _u_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = []
    for j in range(n):
        entry = mat[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = upoly_mul(entry, _u_det(minor))
        if j % 2:
            term = [-c for c in term]
        acc = upoly_add(acc, term)
    return acc


@dataclass
class MolienSeries:
    """The invariant Hilbert series as a reduced fraction num/den with
    den(0) = 1, plus the factored degrees when den = prod (1 - t^{d_i})
    and num = 1."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]
    degrees: tuple[int, ...] | None

    def coefficients(self, dmax: int) -> list[int]:
        """Power series coefficients (invariant dimensions) up to dmax."""
        out: list[Fraction] = []
        for d in range(dmax + 1):
            acc = self.num[d] if d < len(self.num) else Fraction(0)
            for k in range(1, min(d, len(self.den) - 1) + 1):
                acc -= self.den[k] * out[d - k]
            out.append(acc)
        if any(a.denominator != 1 for a in out):
            raise GroupInvariantViolated("Molien series has a non-integral coefficient")
        return [int(a) for a in out]


def _molien_series(group: ReflectionGroup) -> MolienSeries:
    m = group.conductor
    zero = CycNum.zero(m)
    one = CycNum.one(m)
    # det(1 - tw) is a class function: count the elements per exact
    # polynomial, then add count / det once per distinct one
    classes: dict[tuple, list] = {}
    for el in group.elements:
        entries = [
            [
                upoly_trim([(one if i == j else zero), -el.matrix[i][j]])
                for j in range(group.dimension)
            ]
            for i in range(group.dimension)
        ]
        dw = _u_det(entries)
        key = tuple((c.num, c.den) for c in dw)
        got = classes.get(key)
        if got is None:
            classes[key] = [dw, 1]
        else:
            got[1] += 1
    num: list = []
    den = [one]
    for dw, count in classes.values():
        num = upoly_add(upoly_mul(num, dw), [c * count for c in den])
        den = upoly_mul(den, dw)
        g = upoly_gcd(num, den)
        if len(g) > 1:
            num = upoly_divmod(num, g)[0]
            den = upoly_divmod(den, g)[0]
    den = [c * group.order for c in den]
    g = upoly_gcd(num, den)
    if len(g) > 1:
        num = upoly_divmod(num, g)[0]
        den = upoly_divmod(den, g)[0]
    scale = den[0].inverse()
    num = [c * scale for c in num]
    den = [c * scale for c in den]
    num_q = tuple(c.as_fraction() for c in num)
    den_q = tuple(c.as_fraction() for c in den)
    degrees = _peel_degrees(list(den_q), group.dimension) if num_q == (Fraction(1),) else None
    return MolienSeries(num_q, den_q, degrees)


def _peel_degrees(den: list[Fraction], nvars: int) -> tuple[int, ...] | None:
    """Factor den as prod over nvars factors (1 - t^d); the smallest positive
    exponent present must be one of the d's, so peel it and repeat."""
    cur = den
    degs: list[int] = []
    for _ in range(nvars):
        e = next((k for k in range(1, len(cur)) if cur[k]), None)
        if e is None:
            return None
        factor = [Fraction(1)] + [Fraction(0)] * (e - 1) + [Fraction(-1)]
        quo, rem = upoly_divmod(cur, factor)
        if rem:
            return None
        cur = quo
        degs.append(e)
    if cur != [Fraction(1)]:
        return None
    return tuple(degs)


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
    cap = data.get("cap", 10000)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise GroupFileError("cap must be a positive integer")
    elements, mult, inverse = group_closure(matrices, m, cap)
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
    path = Path(source)
    if not path.exists():
        raise GroupFileError(f"no such group file or bundled name: {source}")
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise GroupFileError(f"cannot read {source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GroupFileError(f"{path}: invalid JSON ({exc})") from None
    return parse_group_dict(data)
