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
  * the orbit table of s, ReflectionGroup.orbits(s), holds one Orbit per
    right coset x<s>, in right_cosets order: the members [x, xs, xs^2, ...],
    and the co-root transported to the representative, x . ell = scale *
    form with form normalized.  Member j sees tau_j * form with tau_j =
    scale * lambda^j.  The table is computed once per (group, reflection)
    and cached on the group; every consumer of transported co-roots reads
    it instead of acting on the co-root again.

The Molien series sum_w 1/det(1 - t w) / |W| is computed as an exact
rational function and its denominator is factored as prod (1 - t^{d_i});
the d_i are the fundamental degrees that drive the rest of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Orbit:
    """One right coset x<s> with the co-root of s transported to it:
    member j (= rep s^j) sees tau[j] * form, so rep . ell_s = scale * form."""

    members: tuple[int, ...]
    form: LinearForm
    tau: tuple[CycNum, ...]

    @property
    def rep(self) -> int:
        return self.members[0]

    @property
    def scale(self) -> CycNum:
        return self.tau[0]


def group_closure(matrices, conductor: int, cap: int = 10000):
    """BFS closure of a generator list; returns (elements, mult_table,
    inverse_table).  Deterministic: the identity is element 0 and products
    are explored in generator file order."""
    n = len(matrices[0])
    for k, g in enumerate(matrices):
        if len(g) != n or any(len(row) != n for row in g):
            raise GroupFileError(f"generator {k}: not an {n} x {n} matrix")
        try:
            mat_inv(g, conductor)
        except ValueError:
            raise SingularGenerator(f"generator {k} is singular") from None
    ident = mat_identity(n, conductor)
    index: dict = {ident: 0}
    elements = [ident]
    head = 0
    while head < len(elements):
        base = elements[head]
        head += 1
        for g in matrices:
            prod = mat_mul(base, g)
            if prod not in index:
                if len(elements) >= cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
                index[prod] = len(elements)
                elements.append(prod)
    size = len(elements)
    mult = [[index[mat_mul(a, b)] for b in elements] for a in elements]
    inverse = [0] * size
    for i in range(size):
        inverse[i] = next(j for j in range(size) if mult[i][j] == 0)
    return elements, mult, inverse


class ReflectionGroup:
    def __init__(self, name, dimension, conductor, variables, elements, mult_table, inverse_table):
        self.name = name
        self.dimension = dimension
        self.conductor = conductor
        self.variables = list(variables)
        self.elements = [GroupElement(i, m) for i, m in enumerate(elements)]
        self.mult_table = mult_table
        self.inverse_table = inverse_table
        self._subs: dict[int, LinearSubstitution] = {}
        self._reflections: tuple[PseudoReflection, ...] | None = None
        self._by_element: dict[int, PseudoReflection] = {}
        self._molien: MolienSeries | None = None
        self._cosets: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._orbits: dict[int, tuple[Orbit, ...]] = {}
        self._transported: dict[tuple[int, int], tuple[CycNum, LinearForm]] = {}

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

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != 0:
            cur = self.mult_table[cur][i]
            k += 1
        return k

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
        got = self._cosets.get(i)
        if got is not None:
            return got
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
        out = tuple(cosets)
        self._cosets[i] = out
        return out

    def orbits(self, s: PseudoReflection) -> tuple[Orbit, ...]:
        """The orbit table of s: one Orbit per right coset, in right_cosets
        order.  Cached on the group, like the cosets themselves."""
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
                out.append(Orbit(coset, form, tau))
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
            order = self.element_order(el.index)
            if lam**order != 1 or any(lam**k == 1 for k in range(1, order)):
                raise GroupInvariantViolated(
                    f"element {el.index}: eigenvalue is not a primitive "
                    f"root of unity of order {order}"
                )
            hid = hyperplanes.setdefault(coroot, len(hyperplanes))
            found.append(PseudoReflection(el.index, order, coroot, lam, hid))
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
    num: list = []
    den = [one]
    for el in group.elements:
        entries = [
            [
                upoly_trim([(one if i == j else zero), -el.matrix[i][j]])
                for j in range(group.dimension)
            ]
            for i in range(group.dimension)
        ]
        dw = _u_det(entries)
        num = upoly_add(upoly_mul(num, dw), den)
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
    if not isinstance(name, str):
        raise GroupFileError("name must be a string")
    if not isinstance(n, int) or n < 1:
        raise GroupFileError("dimension must be a positive integer")
    if not isinstance(m, int) or m < 1:
        raise GroupFileError("conductor must be a positive integer")
    if (
        not isinstance(variables, list)
        or len(variables) != n
        or not all(isinstance(v, str) for v in variables)
    ):
        raise GroupFileError(f"variables must be {n} strings")
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
    return ReflectionGroup(name, n, m, variables, elements, mult, inverse)


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
