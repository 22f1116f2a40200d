"""Maps from a group into its polynomial ring, and the weighted
divided-difference operators along pseudo-reflections.

A GroupMap F assigns a polynomial F(x) to every element x, with the right
action (F . w)(x) = F(x w^-1).  For a pseudo-reflection s of order r with
co-root ell and eigenvalue lambda, the order-i operator along s is

    (orbit_difference(s, i, F))(x)
        = x(ell)^-i * sum_{j<r} lambda^{-ij} F(x s^j),

a lambda-weighted average over the right <s>-orbit of x divided by the i-th
power of the transported co-root.  The sum is unchanged (up to exact
cancellation of the weights) along the orbit, so the operator value is
computed once per right coset and propagated; whether the division is exact
is likewise a property of the coset, not the representative.

A map is a *member* when every such division is exact, over every
pseudo-reflection s (all of them, including proper powers sharing a
hyperplane) and every 1 <= i <= order(s) - 1.  Members are exactly the
localization images of tensors, which DimensionTriples establishes for
every degree at once; this module gives the verdict it rests on, and
membership_basis, the exact nullspace the tests check it against.

membership decides the verdict from one reflection per hyperplane K,
group.hyperplane_generators(): a generator s of the cyclic stabilizer W_K,
of maximal order e = e_K.  Write S_c(x) = sum_{j<e} lambda^{-cj}
F(x s^j) for its weighted sums on the coset x<s>.  The other reflections
with hyperplane K are the powers s^k, and they add nothing:

  * if gcd(k, e) = 1, s^k has eigenvalue lambda^k and the same cosets, and
    reindexing j -> kj mod e turns its order-i sum into S_i itself;
  * if gcd(k, e) = g > 1, s^k has order e/g, and discrete Fourier inversion
    F(x s^a) = (1/e) sum_c lambda^{ca} S_c(x) gives its order-i sum on the
    sub-coset through x as (1/g) sum of S_c over c = i (mod e/g); every
    such c is >= i, so ell^c | S_c makes it divisible by ell^i.

So the verdict checks S_i for 1 <= i < e on every coset, hyperplane by
hyperplane, and returns at the first failure; divisibility_conditions
takes the same generators.  The certificate's failures list is still per
reflection, over every pseudo-reflection and power, exactly as the
definition reads; it is built by that full loop when it is first read,
which only the command line does.  _coset_failure decides each coset
there by _sum_divides and divides only a failing sum, for its witness;
the hypergraph's edges, which are orbit records, share it.

The verdict runs on integer numerators, with no CycNum canonicalised and
no quotient built.  It reads F.numerators(), the values of F as integer
coefficient vectors over one positive common denominator L, so it holds
L F(x).  A map made by localize or the sampler holds only these, and its
values are built from them when first read; a map made from values
computes them once, with L the lcm of all their coefficient denominators
(integral_numerators), and the verdict, the operators and the failure
list share them.  The weights lambda^{-ij} are roots of unity
(reflections() checks the eigenvalue), with integer coordinates in the
power basis, so L S_i is an integer combination of those vectors.  A coset where F is zero is
skipped.  One routine, _sum_divides, forms S_i on a coset and decides it
from what decides it.  (1) A coordinate form x_p divides S_i to order i
exactly when every term has x_p-exponent at least i; the weights are
scalars, so only the terms of the values below x_p^i are summed, and
they must cancel.  Any other form is ell = x_p + a(x').  Let D be the
lcm of the coefficient denominators of a, so r = -D a has integer
coefficients, and top the x_p-degree of S_i.  (2) At i = 1: ell is monic
of degree 1 in x_p with root x_p = -a = r / D, so by the remainder
theorem over the polynomials in x' it divides S_1 exactly when
S_1(r / D, x') = 0.  With L S_1 = sum_e c_e x_p^(e_p) x'^(e'), c_e
integer vectors,

    L D^top S_1(r / D, x') = sum_e c_e D^(top - e_p) r^(e_p) x'^(e'),

an integer combination (e_p <= top), and L D^top is a nonzero scalar.
So one pass over the terms of S_1, with the powers r^k of the
x_p-degrees k present (_root_power, kept per form), decides it, where
Horner walks every x_p-degree from top down.  (3) At i >= 2,
substituting y = D x_p and scaling the slice of x_p^k by D^(top - k)
gives

    g(y, x') = L D^top S_i(y / D, x'),    D ell = y - r(x'),

with g integral.  x_p -> y / D is an invertible change of variables and
L D^top and D are nonzero scalars, so ell^i divides S_i exactly when
(y - r)^i divides g, and each Horner step on g adds integer products
only.  _orbit_sum is the one place a coset sum S_i is formed, for the
verdict, the failures, the operators and the hypergraph's edges.
divide_numerators divides one, by the exponents for a coordinate form
and by the steps of (3) otherwise, and scales the quotient or the
witness back once per coefficient; a failing S_1 on any other form
takes (2)'s sum as its witness, Horner's first remainder times L D^top,
so a huge x_p-degree is never sliced.

An equivariant map, F(x) = x . e, needs only the identity coset <s> of
each generator, the first record of its orbit table, group.orbits(s)[0]:
its members are the powers of s and its form is ell_s.  Its order-i sum
there is P_i = sum_j lambda^{-ij} s^j . e, and on the coset x<s>
(members x s^j, the same weights) it is x . P_i.  That orbit's form is a
nonzero multiple of x . ell_s, and x acts as a ring automorphism, so
x . ell_s^i divides x . P_i exactly when ell_s^i divides P_i.
lift_membership decides the map x -> x . e from e alone this way: it
forms s^j . e on the identity cosets only and divides there,
sum_K (e_K - 1) divisions instead of |W|/e_K times as many, and builds
the map only to list the failures of a refusal.  P_i is e's
divided_difference, exact for every polynomial, so only a fault in the
division, the action or the reflection data makes it refuse.  This is
step (a) of the DimensionTriples certificate, whose lifts e_j localize
to x -> x . e_j.

divided_difference is the same weighted average acting on a single
polynomial through the group action instead of along orbits; values of
orbit differences of members are where it shows up downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from pathlib import Path

from .cyclotomic import CycNum, from_numerators, numerator_dot_products
from .groups import GroupInvariantViolated, Orbit, PseudoReflection, ReflectionGroup, _read_json
from .linalg import nullspace
from .polynomials import (
    LinearForm,
    MultiPoly,
    NotDivisible,
    _horner,
    _plus_root_multiple,
    divide_numerators,
    graded_monomials,
    hyperplane_coordinates,
    integral_numerators,
    parse_poly,
    poly_text,
)

__all__ = [
    "GroupMap",
    "MapFileError",
    "MembershipCertificate",
    "MembershipFailure",
    "MembershipRuleViolated",
    "NotAMember",
    "condition_entries",
    "coroot_map",
    "divided_difference",
    "divisibility_conditions",
    "dump_group_map",
    "lift_membership",
    "load_group_map",
    "membership",
    "membership_basis",
    "orbit_decomposition",
    "orbit_difference",
    "scatter_conditions",
]


class MapFileError(Exception):
    """A group-map file violates the schema."""


class MembershipRuleViolated(Exception):
    """membership() said "not a member" but no condition over all
    pseudo-reflections fails: the one-generator-per-hyperplane rule and the
    full definition disagree, which is a library bug."""


class NotAMember(Exception):
    """An operation required a member; carries the failing certificate."""

    def __init__(self, certificate: "MembershipCertificate"):
        super().__init__("map fails the divisibility membership conditions")
        self.certificate = certificate


def _polynomial(group: ReflectionGroup, num: dict, den: int) -> MultiPoly:
    """The polynomial with the integer numerator dict num over den."""
    m = group.conductor
    return MultiPoly._make(
        group.dimension, m, {e: from_numerators(m, c, den) for e, c in num.items()}
    )


class GroupMap:
    """A tuple of polynomials indexed by group elements.

    A map holds its values, or their integer numerators over one positive
    common denominator, (numerators, den), or both.  localize and the
    sampler build maps from numerators alone; values are then built from
    them, one from_numerators per coefficient, only when first read.  The
    verdicts and operators read numerators(), which a map built from
    values computes once.  Nothing mutates a value or a numerator dict,
    and numerators() hands out the ones it keeps: maps made by act share
    them."""

    __slots__ = ("group", "_values", "_numerators")

    def __init__(self, group: ReflectionGroup, values):
        vals = tuple(values)
        if len(vals) != group.order:
            raise ValueError("one value per group element required")
        self._set(group, vals, None)

    def _set(self, group, values, numerators):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_numerators", numerators)

    @classmethod
    def _from_numerators(cls, group: ReflectionGroup, numerators, den: int) -> "GroupMap":
        """The map whose value at x has the integer numerator dict
        numerators[x] over den > 0; its values are built on first read."""
        nums = tuple(numerators)
        if len(nums) != group.order:
            raise ValueError("one value per group element required")
        if den <= 0:
            raise ValueError("a common denominator must be positive")
        out = object.__new__(cls)
        out._set(group, None, (nums, den))
        return out

    @property
    def values(self) -> tuple[MultiPoly, ...]:
        vals = self._values
        if vals is None:
            nums, den = self._numerators
            vals = tuple(_polynomial(self.group, v, den) for v in nums)
            object.__setattr__(self, "_values", vals)
        return vals

    def _value(self, x: int) -> MultiPoly:
        """F(x), built alone when the values are not."""
        if self._values is not None:
            return self._values[x]
        nums, den = self._numerators
        return _polynomial(self.group, nums[x], den)

    def numerators(self) -> tuple[tuple[dict, ...], int]:
        """([{exponents: integer numerators}] per element, den): the values
        over one positive common denominator, computed once."""
        got = self._numerators
        if got is None:
            g = self.group
            nums, den = integral_numerators(self._values, g.dimension, g.conductor)
            got = (tuple(nums), den)
            object.__setattr__(self, "_numerators", got)
        return got

    def __setattr__(self, name, value):
        raise AttributeError("GroupMap is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, group: ReflectionGroup, value) -> "GroupMap":
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(group.dimension, group.conductor, value)
        return cls(group, [value] * group.order)

    @classmethod
    def zero(cls, group: ReflectionGroup) -> "GroupMap":
        return cls.constant(group, 0)

    # -- pointwise ring structure -------------------------------------------

    def _lift(self, other):
        if isinstance(other, GroupMap):
            if other.group is not self.group:
                raise ValueError("maps over different groups")
            return other
        if isinstance(other, (int, Fraction, CycNum, MultiPoly)):
            return GroupMap.constant(self.group, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GroupMap(self.group, [a + b for a, b in zip(self.values, o.values)])

    __radd__ = __add__

    def __neg__(self):
        return GroupMap(self.group, [-a for a in self.values])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GroupMap(self.group, [a - b for a, b in zip(self.values, o.values)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GroupMap(self.group, [a * b for a, b in zip(self.values, o.values)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # the ring structure is pointwise, so powers are too; MultiPoly.__pow__
        # raises ValueError on a negative or non-integer exponent
        return GroupMap(self.group, [a**n for a in self.values])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return GroupMap(self.group, [a / other for a in self.values])
        return NotImplemented

    def __bool__(self):
        if self._values is None:
            return any(self._numerators[0])
        return any(self._values)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.values == o.values

    __hash__ = None

    # -- the right action ----------------------------------------------------

    def act(self, w: int) -> "GroupMap":
        """(F . w)(x) = F(x w^-1)."""
        g = self.group
        wi = g.inv(w)
        moved = [g.mul(x, wi) for x in range(g.order)]
        vals, nums = self._values, self._numerators
        out = object.__new__(GroupMap)
        out._set(
            g,
            None if vals is None else tuple(vals[y] for y in moved),
            None if nums is None else (tuple(nums[0][y] for y in moved), nums[1]),
        )
        return out

    # -- grading -------------------------------------------------------------

    def degree(self) -> int | None:
        degs = [v.degree() for v in self.values if v]
        return max(degs) if degs else None

    def __repr__(self):
        inner = ", ".join(poly_text(v) for v in self.values)
        return f"GroupMap[{inner}]"


# ---------------------------------------------------------------------------
# certificates


@dataclass
class MembershipFailure:
    element: int
    reflection: PseudoReflection
    power: int
    witness: NotDivisible


class MembershipCertificate:
    """The verdict ok, and the failing (coset, reflection, power)
    conditions.  A certificate from membership() carries the map and lists
    its failures, over every pseudo-reflection, on first read."""

    def __init__(self, ok: bool, F: GroupMap | None = None, failures=None):
        self.ok = ok
        self._map = F
        self._failures = failures

    @property
    def failures(self) -> list[MembershipFailure]:
        if self._failures is None:
            self._failures = [] if self.ok else _all_failures(self._map)
            if not self.ok and not self._failures:
                raise MembershipRuleViolated(
                    "membership verdict is 'not a member' but every "
                    "divisibility condition holds"
                )
        return self._failures


# ---------------------------------------------------------------------------
# operators


def coroot_map(group: ReflectionGroup, s: PseudoReflection) -> GroupMap:
    """The map x -> x(ell_s), the transported co-root of s: member j of an
    orbit takes tau_j times the orbit's form."""
    values: list = [None] * group.order
    for orbit in group.orbits(s):
        poly = orbit.form.as_poly()
        for x, t in zip(orbit.members, orbit.tau):
            values[x] = poly * t
    return GroupMap(group, values)


def divided_difference(group: ReflectionGroup, s: PseudoReflection, i: int, f: MultiPoly):
    """ell_s^-i sum_j lambda^{-ij} s^j(f) on a single polynomial.

    For i <= order - 1 the division is always exact (a failure would be a
    library bug and raises GroupInvariantViolated); beyond that the result
    may genuinely be non-polynomial and NotDivisible is returned as data.
    """
    identity = group.orbits(s)[0]
    moved = [group.act(x, f) for x in identity.members]
    values, den = integral_numerators(moved, group.dimension, group.conductor)
    acc = _orbit_sum(identity, i, dict(zip(identity.members, values)))
    res = divide_numerators(acc, den, identity.form, i)
    if isinstance(res, NotDivisible) and i <= s.order - 1:
        raise GroupInvariantViolated(
            "inexact division in a range where it is guaranteed exact"
        )
    return res


def orbit_difference(group: ReflectionGroup, s: PseudoReflection, i: int, F: GroupMap):
    """The order-i weighted difference of F along right <s>-orbits; returns
    the certificate of failed divisibilities instead of a map when F is not
    smooth enough."""
    numerators, den = F.numerators()
    values: list[MultiPoly | None] = [None] * group.order
    failures: list[MembershipFailure] = []
    for orbit in group.orbits(s):
        res = divide_numerators(_orbit_sum(orbit, i, numerators), den, orbit.form, i)
        if isinstance(res, NotDivisible):
            failures.append(MembershipFailure(orbit.rep, s, i, res))
            continue
        value = res * orbit.inverse_scale_power(i)
        for member in orbit.members:
            values[member] = value
    if failures:
        return MembershipCertificate(False, failures=failures)
    return GroupMap(group, values)


def _orbit_sum(orbit: Orbit, i: int, values, below=None) -> dict:
    """S_i = sum_j lambda^{-ij} F(x s^j) on the orbit x<s>, from values[y],
    the integer numerator dict of F(y) (integral_numerators), at each
    member y; only its terms of pivot exponent below `below` if given.
    The weights are roots of unity, with integer numerators read once per
    call, and the first is 1."""
    members = orbit.members
    first = values[members[0]]
    weights = [w.num for w in orbit.reflection.weights(i)[1:]]
    pairs = zip([values[x] for x in members[1:]], weights)
    if below is None:
        triples = ((e, w, c) for v, w in pairs for e, c in v.items())
    else:
        p = orbit.form.pivot
        triples = ((e, w, c) for v, w in pairs for e, c in v.items() if e[p] < below)
        first = {e: c for e, c in first.items() if e[p] < below}
    return numerator_dot_products(orbit.form.conductor, triples, first)


def _times(m: int, a: dict, b: dict) -> dict:
    """The product of two polynomials with integer numerators."""
    pairs = ((tuple(map(add, e, f)), c, d) for e, c in a.items() for f, d in b.items())
    return numerator_dot_products(m, pairs, {})


# the degrees of r^k kept per root, by _root_power
_POWERS_KEPT = 64


@lru_cache(maxsize=256)
def _root_powers(m: int, n: int, p: int, root) -> dict:
    """{k: r^k}, filled by _root_power, for the form x_p + a in n variables
    at conductor m with integral_root root: these fix the form, so its
    copies on every orbit share one table."""
    return {}


def _root_power(form: LinearForm, powers: dict, k: int) -> tuple:
    """r^k for r = -D a, the root of form = x_p + a times D (integral_root),
    as (shift, numerators) pairs with pivot entry -k, so that x_p^k x'^e
    plus a shift is a term of x'^e r^k.  Built from r^j, the largest power
    below k in powers (1 if none is): one more factor r for j = k - 1,
    else r^(k - j) squared up its bits from the pivot coefficient 1.
    powers keeps the first _POWERS_KEPT degrees."""
    n, m, p = form.nvars, form.conductor, form.pivot
    root = form.integral_root[1]
    unit = {(0,) * n: form.coeffs[p].num}
    j = max((d for d in powers if d < k), default=None)
    got = unit if j is None else {e[:p] + (0,) + e[p + 1 :]: c for e, c in powers[j]}
    step = k - (j or 0)
    if step == 1:
        got = _plus_root_multiple(m, {}, got, root)
    elif step:
        factor = unit
        for bit in bin(step)[2:]:
            factor = _times(m, factor, factor)
            if bit == "1":
                factor = _plus_root_multiple(m, {}, factor, root)
        got = _times(m, got, factor)
    got = tuple((e[:p] + (-k,) + e[p + 1 :], tuple(c)) for e, c in got.items())
    if len(powers) < _POWERS_KEPT:
        powers[k] = got
    return got


def _restriction(form: LinearForm, S: dict) -> tuple[dict, int]:
    """(L D^top S_1(r / D, x'), top) for S = L S_1 nonzero, top its
    x_p-degree, and a form that is not a coordinate: (2) of the module
    docstring."""
    D = form.integral_root[0]
    m, p = form.conductor, form.pivot
    powers = _root_powers(m, form.nvars, p, form.integral_root)
    top = max(e[p] for e in S)
    if D != 1:
        S = {e: [x * D ** (top - e[p]) for x in c] for e, c in S.items()}
    restricted = (
        (tuple(map(add, e, f)), c, r)
        for e, c in S.items()
        for f, r in powers.get(e[p]) or _root_power(form, powers, e[p])
    )
    return numerator_dot_products(m, restricted, {}), top


def _sum_divides(orbit: Orbit, i: int, values) -> bool:
    """Does the orbit's form^i divide its S_i?  Decided as the module
    docstring's (1)-(3) say, on the coset's values alone."""
    form = orbit.form
    if not form.integral_root[1]:
        return not _orbit_sum(orbit, i, values, i)
    S = _orbit_sum(orbit, i, values)
    if not S or i > 1:
        return not S or _horner(S, form, i)[0] == i
    return not _restriction(form, S)[0]


def _witness(form: LinearForm, i: int, S: dict, den: int) -> NotDivisible | None:
    """None when form^i divides the sum S, integer numerators over den;
    else divide_numerators' NotDivisible.  At i = 1 on a form that is not
    a coordinate, that witness is Horner's first remainder, (2)'s R over
    den D^top (divide_numerators at power 0 builds it), so it is read off
    R with no slice per x_p-degree."""
    D, root = form.integral_root
    if i > 1 or not root or not S:
        res = divide_numerators(S, den, form, i)
        return res if isinstance(res, NotDivisible) else None
    R, top = _restriction(form, S)
    return NotDivisible(0, divide_numerators(R, den * D**top, form, 0)) if R else None


def _coset_failure(orbit: Orbit, i: int, values, den: int) -> NotDivisible | None:
    """The witness of the coset's S_i, or None: decided by _sum_divides,
    so only a failing sum is divided."""
    if _sum_divides(orbit, i, values):
        return None
    return _witness(orbit.form, i, _orbit_sum(orbit, i, values), den)


def membership(F: GroupMap) -> MembershipCertificate:
    """Is F a member?  Decided as the module docstring says, one generator
    per hyperplane, stopping at the first failed division; the certificate
    lists the failures over all pseudo-reflections on read."""
    group = F.group
    values, _ = F.numerators()
    zero = {x for x, v in enumerate(values) if not v}
    for s in group.hyperplane_generators():
        orbits = [o for o in group.orbits(s) if not zero.issuperset(o.members)]
        for i in range(1, s.order):
            for orbit in orbits:
                if not _sum_divides(orbit, i, values):
                    return MembershipCertificate(False, F)
    return MembershipCertificate(True)


def lift_membership(group: ReflectionGroup, e: MultiPoly) -> MembershipCertificate:
    """membership of the map x -> x . e, from the identity coset <s> of
    each hyperplane generator (see the module docstring)."""
    for s in group.hyperplane_generators():
        identity = group.orbits(s)[0]
        moved = [group.act(x, e) for x in identity.members]
        values, _ = integral_numerators(moved, group.dimension, group.conductor)
        values = dict(zip(identity.members, values))
        for i in range(1, s.order):
            if not _sum_divides(identity, i, values):
                return MembershipCertificate(
                    False, GroupMap(group, [group.act(x, e) for x in range(group.order)])
                )
    return MembershipCertificate(True)


def _all_failures(F: GroupMap) -> list[MembershipFailure]:
    """Every failing (coset, reflection, power), over all pseudo-reflections
    and all orders 1 <= i < order(s)."""
    group = F.group
    values, den = F.numerators()
    failures: list[MembershipFailure] = []
    for s in group.reflections():
        for i in range(1, s.order):
            for orbit in group.orbits(s):
                witness = _coset_failure(orbit, i, values, den)
                if witness is not None:
                    failures.append(MembershipFailure(orbit.rep, s, i, witness))
    return failures


def orbit_decomposition(group: ReflectionGroup, F: GroupMap, s: PseudoReflection) -> list[GroupMap]:
    """[orbit_difference(s, j, F) for j < order(s)]; for members these
    reassemble F as (1/order) sum_j component_j * coroot_map^j."""
    cert = membership(F)
    if not cert.ok:
        raise NotAMember(cert)
    return [orbit_difference(group, s, j, F) for j in range(s.order)]


# ---------------------------------------------------------------------------
# the graded membership nullspace


def condition_entries(form: LinearForm, power: int, d: int, weights) -> tuple[int, list]:
    """Divisibility by form^power of sum_j weights[j] * F(members[j]), for a
    degree-d map F, as linear conditions on the monomial coefficients of the
    F(members[j]): the coefficients below order `power` in the hyperplane
    coordinates of form must vanish.

    Returns (number of conditions, [(condition, monomial index, [weights[j]
    * coefficient])]), monomials in graded_monomials order; scatter_conditions
    places the entries at given members.
    """
    monomials = graded_monomials(form.nvars, d)
    low = [e for e in monomials if e[0] < power]
    if not low:
        return 0, []
    row_of = {e: k for k, e in enumerate(low)}
    to_axis = hyperplane_coordinates(form)
    entries = [
        (row_of[e], k, [wt * c for wt in weights])
        for k, mono in enumerate(monomials)
        for e, c in to_axis.monomial_image(mono).terms.items()
        if e in row_of
    ]
    return len(low), entries


def scatter_conditions(conditions: tuple[int, list], members, nmono: int) -> list[dict[int, CycNum]]:
    """Sparse rows {column: coefficient} of condition_entries output, with
    weight j at the columns of members[j] (element major, nmono monomials
    per element)."""
    count, entries = conditions
    rows: list[dict[int, CycNum]] = [{} for _ in range(count)]
    for slot, k, weighted in entries:
        for member, value in zip(members, weighted):
            rows[slot][member * nmono + k] = value
    return rows


def divisibility_conditions(group: ReflectionGroup, d: int) -> list[dict[int, CycNum]]:
    """The linear conditions cutting out the degree-d homogeneous members,
    as sparse rows {column: coefficient}.

    Columns are the monomial coefficients of F(x) for every x, element
    major, monomials in graded_monomials order.  Each (generator, order,
    orbit) triple contributes the conditions "the low-order part of the
    weighted orbit sum vanishes in hyperplane coordinates", which is
    divisibility said without dividing.  As in membership, one generator
    per hyperplane spans the conditions of all reflections.
    """
    nmono = len(graded_monomials(group.dimension, d))
    rows: list[dict[int, CycNum]] = []
    for s in group.hyperplane_generators():
        for i in range(1, s.order):
            weights = s.weights(i)
            # orbits sharing a transported co-root share their entries
            shared: dict[LinearForm, tuple[int, list]] = {}
            for orbit in group.orbits(s):
                got = shared.get(orbit.form)
                if got is None:
                    got = shared[orbit.form] = condition_entries(orbit.form, i, d, weights)
                rows.extend(scatter_conditions(got, orbit.members, nmono))
    return rows


def membership_basis(group: ReflectionGroup, d: int) -> list[GroupMap]:
    """Deterministic basis of the degree-d homogeneous members: the
    nullspace of divisibility_conditions(group, d)."""
    n, m = group.dimension, group.conductor
    monomials = graded_monomials(n, d)
    nmono = len(monomials)
    ncols = group.order * nmono
    zero = CycNum.zero(m)
    rows = [
        [row.get(j, zero) for j in range(ncols)]
        for row in divisibility_conditions(group, d)
    ]
    basis = nullspace(rows, ncols, m)
    out = []
    for vec in basis:
        values = []
        for x in range(group.order):
            chunk = vec[x * nmono : (x + 1) * nmono]
            values.append(
                MultiPoly(n, m, {e: c for e, c in zip(monomials, chunk) if c})
            )
        out.append(GroupMap(group, values))
    return out


# ---------------------------------------------------------------------------
# files


def dump_group_map(F: GroupMap) -> dict:
    g = F.group
    return {
        "group": g.name,
        "values": {
            str(x): poly_text(F.values[x], names=g.variables)
            for x in range(g.order)
        },
    }


def load_group_map(source, group: ReflectionGroup) -> GroupMap:
    """Read the JSON form {"group": name, "values": {"<index>": "<poly>"}};
    an index is written in decimal without leading zeros, and missing
    indices mean zero."""
    data = _read_json(source, MapFileError) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict) or "values" not in data:
        raise MapFileError("map file must be an object with a 'values' field")
    declared = data.get("group")
    if declared is not None and declared != group.name:
        raise MapFileError(
            f"map is declared for group {declared!r}, not {group.name!r}"
        )
    raw = data["values"]
    if not isinstance(raw, dict):
        raise MapFileError("'values' must map element indices to polynomials")
    values = [MultiPoly.zero(group.dimension, group.conductor)] * group.order
    width = len(str(group.order - 1))
    for key, text in raw.items():
        # only the canonical decimal spelling is an index, so no two keys
        # name the same element; a key longer than the largest index is
        # out of range before int() reads it
        if not (isinstance(key, str) and key.isascii() and key.isdecimal()) or (
            key[0] == "0" and key != "0"
        ):
            raise MapFileError(f"bad element index {key!r}: not a decimal without leading zeros")
        if len(key) > width:
            raise MapFileError(f"element index of {len(key)} digits out of range")
        idx = int(key)
        if idx >= group.order:
            raise MapFileError(f"element index {idx} out of range")
        try:
            values[idx] = parse_poly(
                str(text), group.dimension, group.conductor, names=group.variables
            )
        except ValueError as exc:
            raise MapFileError(f"value at index {idx}: {exc}") from None
    return GroupMap(group, values)
