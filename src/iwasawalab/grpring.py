"""Group-ring elements as finite-level p-adic measures.

A measure is a finitely supported coefficient map on a finite group, over one
of three coefficient rings: cyclotomic numbers (a rational is one of
conductor 1), truncated p-adic numbers, or symbolic expressions (the adapter
for the last lives with the symbolic engine).  Towers of measures connected
by pushforwards model inverse-limit elements.

Coefficient-ring adapter contract: zero, one, from_int, from_fraction,
from_cyclo, is_zero, inv, mul_by_root(x, m, k) = x * zeta_m^k,
root_sum(coeffs, m, exps) = sum_i coeffs[i] * zeta_m^exps[i], and the
packed forms of _CoeffAdapter (packs, sums, lift).  Over p-adic
coefficients the ring places zeta_m (PadicRing.roots_of_unity, the choice of
a prime above p) and takes the root sums (PadicRing.root_sum).  Every sum of
roots of unity runs on values lifted to Z[X]/(X^M - 1) and packed into one
integer each, where zeta_M^s is a rotation (Nussbaumer's polynomial
transform), whenever the ring packs the order at hand:

* the Fourier transform (_transform), for the operations that need every
  character: fourier_invert and eval_all_chars over the whole group,
  idempotent_split and assemble_from_components over the Delta axes.  It
  runs one axis at a time, each split by Cooley-Tukey over the prime
  factors of its order, on the lifted values; each output is lowered once.
* the one-character operations eval_char, twist and build_theta_component
  (_character_sums).  When the ring packs the group exponent (every
  cyclotomic measure, and p-adic measures on p-groups) a measure lifts its
  coefficients once, on first use, and keeps the forms (Measure._lifted):
  each sum is one right shift per point and one addition, and all the sums
  of a call are lowered at once.  Otherwise each sum is one root_sum.

One character is |G| terms through the lifted forms; through the transform
it would cost |G| times the sum of the prime factors and a lower per
character, so the split is by operation, not by size.  The exponents k of
chi(g) = zeta_m^k are tabulated once per character.

This module holds the group layout only.  The packed format lives in arith:
the lifts (arith._cyclo_lift, PadicRing._rotation_lift) and the one fold
mod Phi_M on whole integers that lowers both (arith._cyclo_fold).  convolve
of two p-adic measures on an abelian group is one Kronecker product of the
ring (PadicRing._product); _conv_layout places the group axes and says
which product block folds onto which element.  Measures on a semidirect
group and the cyclotomic and symbolic rings take the generic double loop.

Conventions that matter downstream:

* eval_char(f, chi) = sum_g f(g) chi(g); on convolutions this is
  multiplicative in f for fixed chi.
* twist(f, chi)(g) = f(g) chi(g^-1), so eval(twist(f, chi), psi)
  = eval(f, psi * chi^-1).
* the theta-component of a measure nu on a covering group C is defined by
  integrating xi^-1 . (f o pr) against delta * sigma^-1 convolved with nu;
  evaluated at a character chi1 of the quotient this equals
  Omega_p^-1 * delta * eta(sigma^-1) * eval(nu, eta) with
  eta = xi^-1 . (chi1 o pr).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import lcm, prod
from operator import add, itemgetter, mul, rshift

from .arith import (
    ArithError,
    CycloNumber,
    PadicRing,
    _cyclo_lift,
    embed_cyclo_padic,
    factorize,
    zeta,
)
from .chargroup import (
    FinAbGroup,
    GroupChar,
    GroupHom,
    SemidirectGroup,
    char_table,
)
from .reps import ArtinRep

__all__ = [
    "MeasureError",
    "UndecidableAtPrecision",
    "PrecisionExhausted",
    "CYCLO",
    "PadicCoeffs",
    "Measure",
    "convolve",
    "eval_char",
    "eval_rep",
    "twist",
    "idempotent_split",
    "assemble_from_components",
    "extend_trivially",
    "is_unit",
    "build_theta_component",
    "fourier_invert",
    "eval_all_chars",
    "pushforward",
    "Tower",
    "SyntheticPipelineResult",
    "synthetic_interpolation_check",
    "measure_to_text",
    "measure_from_text",
    "random_measure",
]


class MeasureError(ValueError):
    pass


class UndecidableAtPrecision(MeasureError):
    """Unit test could not be decided at the working precision."""


class PrecisionExhausted(MeasureError):
    """Fourier inversion divides by p^v_p(|G|), which the working precision
    cannot absorb."""


# ---------------------------------------------------------------------------
# coefficient-ring adapters
# ---------------------------------------------------------------------------

class _CoeffAdapter:
    """Defaults of the adapter contract for rings with no packed form.

    root_sum(coeffs, m, exps) returns sum_i coeffs[i] * zeta_m^exps[i]; the
    default adds mul_by_root terms, skipping exponent 0.  A ring packs an
    order n (packs(n)) when it can lift values to forms in which zeta_n is a
    rotation.  lift(values, m, terms) returns (forms, sums, lower) for n | m:
    one form per value; sums(n), a rotation table (arith._DoubledSums) whose
    sums(n)(cols, exps)[q] = sum_j cols[j][q] * zeta_n^exps[j][q] on forms
    and whose sums.shifts(n)[k] is the right shift that multiplies a form by
    zeta_n^k; and lower(forms, counts), the ring elements of sums of
    counts[i] rotated forms (of `terms` each by default), one reduction per
    sum.  The transform (_transform) runs one axis of order n at a time:

    * an axis with packs(n) false runs on ring elements, through sums(n)
      below: one root_sum per output;
    * the axes with packs(n) true run together on lifted forms, each output
      a sum of `terms` rotated lifted values.

    The one-character operations (_character_sums) take the measure's own
    lifted forms when the ring packs the group exponent, and root_sum
    otherwise.

    Which ring uses which:

    * CYCLO packs every order: arith._cyclo_lift lifts the values to
      Z[X]/(X^M - 1), M the lcm of m and their conductors, and lowers each
      sum through the fold mod Phi_M (arith._cyclo_fold).  root_sum is one
      lift, one sum of shifted forms and one lower.
    * PadicCoeffs packs the orders dividing p^k: PadicRing._rotation_lift
      puts each beta-block in Z[X]/(X^{p^k} - 1) and lowers through the
      same fold at p^k, then Barrett's remainder mod p^N.  An axis of
      prime-to-p order n runs on ring elements through PadicRing.root_sum,
      one product by one of the n Teichmueller images of mu_n per term.
    * SymCoeffs takes the defaults here: every sum on ring elements.
    """

    def packs(self, n):
        return False

    def sums(self, n):
        """sums(n)(cols, exps)[q] = sum_j cols[j][q] * zeta_n^exps[j][q] on ring
        elements: one root_sum per output."""
        def rotate_sums(cols, exps):
            return [self.root_sum(xs, n, ts) for xs, ts in zip(zip(*cols), zip(*exps))]

        return rotate_sums

    def root_sum(self, coeffs, m, exps):
        terms = [self.mul_by_root(c, m, k) if k else c for c, k in zip(coeffs, exps)]
        return reduce(add, terms) if terms else self.zero()


class _CycloCoeffs(_CoeffAdapter):
    name = "cyclotomic"

    def zero(self):
        return CycloNumber.from_rational(0)

    def one(self):
        return CycloNumber.from_rational(1)

    def from_int(self, n):
        return CycloNumber.from_rational(n)

    def from_fraction(self, q):
        return CycloNumber.from_rational(q)

    def from_cyclo(self, c):
        return c

    def is_zero(self, x):
        return x.is_zero()

    def inv(self, x):
        return x.inverse()

    def mul_by_root(self, x, m, k):
        return x.mul_root(m, k)

    def packs(self, n):
        return True

    def lift(self, values, m, terms):
        return _cyclo_lift(values, m, terms)

    def root_sum(self, coeffs, m, exps):
        if not coeffs:
            return self.zero()
        forms, sums, lower = self.lift(coeffs, m, len(coeffs))
        shifts = sums.shifts(m)
        return lower([sum(x >> shifts[k % m] for x, k in zip(forms, exps))])[0]

    def __repr__(self):
        return "CYCLO"


CYCLO = _CycloCoeffs()


class PadicCoeffs(_CoeffAdapter):
    """Adapter for a fixed PadicRing; roots of unity are placed, and root
    sums taken, by the ring (PadicRing.roots_of_unity and root_sum)."""

    name = "padic"

    def __init__(self, ring: PadicRing):
        self.ring = ring

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def from_int(self, n):
        return self.ring.from_int(n)

    def from_fraction(self, q):
        return self.ring.from_fraction(q)

    def from_cyclo(self, c: CycloNumber):
        return embed_cyclo_padic(c, self.ring)

    def is_zero(self, x):
        return x.is_zero()

    def inv(self, x):
        return x.inverse()

    def mul_by_root(self, x, m, k):
        return self.ring.root_sum([x], m, [k])

    def root_sum(self, coeffs, m, exps):
        return self.ring.root_sum(coeffs, m, exps)

    def packs(self, n):
        return self.ring.eisenstein_pk % n == 0

    def lift(self, values, m, terms):
        return self.ring._rotation_lift(values, terms)

    def __repr__(self):
        return f"PadicCoeffs({self.ring!r})"


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class Measure:
    """Finitely supported coefficient map on a finite group.

    Immutable by convention: operations return new measures, and nothing
    assigns to coeffs after construction.  The group is a FinAbGroup
    (elements are tuples) or a SemidirectGroup (elements are (tuple, eps)
    pairs).
    """

    def __init__(self, group, ring, coeffs: dict):
        if isinstance(group, FinAbGroup):
            norm = group.normalize
        else:
            def norm(x):
                return (group.base.normalize(x[0]), x[1] % 2)
        self._set(group, ring, {norm(g): c for g, c in coeffs.items() if not ring.is_zero(c)})

    @classmethod
    def _of(cls, group, ring, coeffs: dict) -> "Measure":
        """The measure of coeffs whose keys are already canonical elements
        (as normalize returns them): __init__ without normalize."""
        self = object.__new__(cls)
        self._set(group, ring, {g: c for g, c in coeffs.items() if not ring.is_zero(c)})
        return self

    def _set(self, group, ring, coeffs: dict) -> None:
        self.group = group
        self.ring = ring
        self.coeffs = coeffs
        self._lift = None

    def _lifted(self) -> tuple:
        """(forms, shifts, lower) for a ring that packs the group exponent m,
        built on first use: forms[g] is f(g) lifted by
        ring.lift(values, m, |G|), so a slot holds any sum over the support;
        form >> shifts[k] is f(g) * zeta_m^k; lower(sums, counts) are the
        ring elements of sums of counts[i] such terms."""
        if self._lift is None:
            m = self.group.exponent()
            forms, sums, lower = self.ring.lift(list(self.coeffs.values()), m,
                                                self.group.order())
            self._lift = (dict(zip(self.coeffs, forms)), sums.shifts(m), lower)
        return self._lift

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def delta(group, ring, g=None) -> "Measure":
        if g is None:
            g = group.identity()
        return Measure(group, ring, {g: ring.one()})

    @staticmethod
    def zero(group, ring) -> "Measure":
        return Measure(group, ring, {})

    # -- ring structure -------------------------------------------------------

    def _check(self, other: "Measure"):
        if self.group != other.group:
            raise MeasureError("group mismatch")
        r1, r2 = self.ring, other.ring
        if r1 is r2:
            return
        if isinstance(r1, PadicCoeffs) or isinstance(r2, PadicCoeffs):
            if not (isinstance(r1, PadicCoeffs) and isinstance(r2, PadicCoeffs)
                    and r1.ring is r2.ring):
                raise MeasureError("coefficient ring mismatch")
        elif r1.name != r2.name:
            raise MeasureError("coefficient ring mismatch")

    def __add__(self, other: "Measure") -> "Measure":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return Measure._of(self.group, self.ring, out)

    def __neg__(self):
        return Measure._of(self.group, self.ring, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "Measure":
        return Measure._of(self.group, self.ring, {g: c * s for g, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        if self.group != other.group:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        z = self.ring.zero()
        for g in keys:
            if self.coeffs.get(g, z) != other.coeffs.get(g, z):
                return False
        return True

    def __hash__(self):
        raise TypeError("measures are not hashable")

    def augmentation(self):
        total = self.ring.zero()
        for c in self.coeffs.values():
            total = total + c
        return total

    def __repr__(self):
        items = ", ".join(f"{g}:{c}" for g, c in sorted(self.coeffs.items())[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"Measure({self.group!r}, {self.ring!r}, {{{items}{more}}})"


@lru_cache(maxsize=None)
def _group_index(orders: tuple[int, ...]):
    """(index, inverse) for Z/n_1 x ... x Z/n_r: index maps an element to its
    position in elements() order, inverse[b] is the position of -g_b."""
    group = FinAbGroup(orders)
    elements = group.elements()
    index = {g: i for i, g in enumerate(elements)}
    return index, tuple(index[group.neg(g)] for g in elements)


@lru_cache(maxsize=None)
def _char_row(orders: tuple[int, ...], exponents: tuple[int, ...]) -> tuple[int, ...]:
    """row[b] = k with chi(g_b) = zeta_m^k for the character chi with these
    exponents (m the group exponent, b in elements() order), built once per
    character."""
    group = FinAbGroup(orders)
    m = group.exponent()
    weights = [e * (m // n) for e, n in zip(exponents, orders)]
    return tuple(sum(map(mul, weights, g)) % m for g in group.elements())


@lru_cache(maxsize=32)
def _hom_row(hom: GroupHom) -> tuple:
    """row[b] = hom.apply(g_b), b in elements() order of the source, built
    once per homomorphism (the 32 most recent are kept)."""
    return tuple(map(hom.apply, hom.source.elements()))


@lru_cache(maxsize=None)
def _conv_layout(orders: tuple[int, ...]):
    """(elements, positions, fold): the Kronecker layout of a product on
    Z/n_1 x ... x Z/n_r.

    Axis i spans 2n_i - 1 blocks (the last axis fastest), so the product of
    two packed measures has no wrap-around; positions[g] is the block of
    element g, fold[t] the index in elements() of the element that product
    block t folds onto mod each n_i.
    """
    spans = [2 * n - 1 for n in orders]
    strides = [1] * len(orders)
    for i in range(len(orders) - 2, -1, -1):
        strides[i] = strides[i + 1] * spans[i + 1]
    elements = FinAbGroup(orders).elements()
    positions = {g: sum(x * s for x, s in zip(g, strides)) for g in elements}
    index = {g: i for i, g in enumerate(elements)}
    fold = [index[tuple(y % n for y, n in zip(ys, orders))]
            for ys in product(*map(range, spans))]
    return elements, positions, fold


def _convolve_packed(f: Measure, g: Measure) -> Measure:
    """convolve for p-adic measures on an abelian group: one Kronecker
    product of the ring (PadicRing._product), with the group axes laid out
    by _conv_layout."""
    group, ring = f.group, f.ring.ring
    if not f.coeffs or not g.coeffs:
        return Measure._of(group, f.ring, {})
    elements, positions, fold = _conv_layout(group.orders)
    out = ring._product({positions[x]: c.coords for x, c in f.coeffs.items()},
                        {positions[x]: c.coords for x, c in g.coeffs.items()},
                        fold, len(elements))
    return Measure._of(group, f.ring, dict(zip(elements, out)))


def convolve(f: Measure, g: Measure) -> Measure:
    """(f * g)(h) = sum over ab = h of f(a) g(b)."""
    f._check(g)
    group = f.group
    if isinstance(group, FinAbGroup) and isinstance(f.ring, PadicCoeffs):
        return _convolve_packed(f, g)
    mul = group.add if isinstance(group, FinAbGroup) else group.mul
    out: dict = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            h = mul(a, b)
            term = ca * cb
            out[h] = out[h] + term if h in out else term
    return Measure(group, f.ring, out)


def _character_sums(f: Measure, terms: list) -> list:
    """[sum over i of f(points[i]) * zeta_m^exps[i] for (points, exps) in
    terms], m the exponent of f's abelian group, every point in f's support.

    Over a ring that packs m, each sum adds rotations of f's lifted forms
    (Measure._lifted) and all of them are lowered at once; otherwise each is
    one root_sum.
    """
    ring, m = f.ring, f.group.exponent()
    if not terms:
        return []
    if not ring.packs(m):
        return [ring.root_sum(list(map(f.coeffs.__getitem__, points)), m, exps)
                for points, exps in terms]
    forms, shifts, lower = f._lifted()
    return lower([sum(map(rshift, map(forms.__getitem__, points), map(shifts.__getitem__, exps)))
                  for points, exps in terms], [len(points) for points, _ in terms])


def eval_char(f: Measure, chi: GroupChar):
    """sum_g f(g) chi(g); abelian groups only."""
    if not isinstance(f.group, FinAbGroup):
        raise MeasureError("eval_char needs an abelian group")
    if chi.group != f.group:
        raise MeasureError("character group mismatch")
    if not f.coeffs:
        return f.ring.zero()
    index, _ = _group_index(f.group.orders)
    exponents = _char_row(f.group.orders, chi.exponents)
    return _character_sums(f, [(f.coeffs, [exponents[index[g]] for g in f.coeffs])])[0]


def eval_rep(f: Measure, rho: ArtinRep):
    """det(sum_g f(g) rho(g)) for measures on the ambient semidirect group."""
    if not isinstance(f.group, SemidirectGroup):
        raise MeasureError("eval_rep needs a measure on the semidirect group")
    if rho.ambient.base != f.group.base:
        raise MeasureError("representation lives on a different group")
    ring = f.ring
    n = rho.dimension
    acc = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for g, c in f.coeffs.items():
        mat = rho.matrix(g)
        for i in range(n):
            for j in range(n):
                entry = mat[i][j]
                if not entry.is_zero():
                    acc[i][j] = acc[i][j] + c * ring.from_cyclo(entry)
    if n == 1:
        return acc[0][0]
    return acc[0][0] * acc[1][1] - acc[0][1] * acc[1][0]


def twist(f: Measure, chi: GroupChar) -> Measure:
    """g -> f(g) chi(g^-1); satisfies eval(twist(f, chi), psi) = eval(f, psi chi^-1)."""
    if not isinstance(f.group, FinAbGroup):
        raise MeasureError("twist needs an abelian group")
    if chi.group != f.group:
        raise MeasureError("character group mismatch")
    index, inverse = _group_index(f.group.orders)
    row = _char_row(f.group.orders, chi.exponents)
    values = _character_sums(f, [((g,), (row[inverse[index[g]]],)) for g in f.coeffs])
    return Measure._of(f.group, f.ring, dict(zip(f.coeffs, values)))


# ---------------------------------------------------------------------------
# idempotent decomposition over a prime-to-p part
# ---------------------------------------------------------------------------

def _split_element(group: FinAbGroup, delta_indices: tuple[int, ...]):
    """(delta_group, part_group, keys): keys[b] = (d, x), the Delta and the
    complementary coordinates of the b-th element of the group."""
    rest = tuple(i for i in range(group.rank) if i not in delta_indices)
    delta_group = FinAbGroup(tuple(group.orders[i] for i in delta_indices))
    part_group = FinAbGroup(tuple(group.orders[i] for i in rest))
    elements = group.elements()
    columns = list(zip(*elements))

    def project(indices):
        return list(zip(*(columns[i] for i in indices))) if indices else [()] * len(elements)

    return delta_group, part_group, list(zip(project(delta_indices), project(rest)))


def idempotent_split(f: Measure, delta_indices) -> dict[tuple, Measure]:
    """Components of a measure on Delta x G1, keyed by Delta-character exponents.

    component_theta(x) = sum over d of theta(d) f(d, x); then
    eval(f, theta.chi1) = eval(component_theta, chi1), and reassembly by
    |Delta|^-1 sum_theta theta(d^-1) component_theta(x) recovers f exactly.
    """
    group = f.group
    if not isinstance(group, FinAbGroup):
        raise MeasureError("idempotent_split needs an abelian group")
    delta_indices = tuple(delta_indices)
    delta_group, part_group, keys = _split_element(group, delta_indices)
    ring = f.ring
    # |Delta| must be invertible and its character values available
    try:
        ring.inv(ring.from_int(delta_group.order()))
        ring.from_cyclo(zeta(delta_group.exponent()))
    except (ArithError, ZeroDivisionError) as exc:
        raise MeasureError(f"coefficient ring cannot split off Delta: {exc}") from exc
    # component_theta(x) sits where the Delta axes carry theta's exponents
    zero = ring.zero()
    values = [f.coeffs.get(g, zero) for g in group.elements()]
    sums = _transform(ring, values, group.orders, 1, delta_indices)
    components: dict[tuple, dict] = {theta.exponents: {} for theta in char_table(delta_group)}
    for (d, x), value in zip(keys, sums):
        components[d][x] = value
    return {key: Measure(part_group, ring, coeffs) for key, coeffs in components.items()}


def assemble_from_components(components: dict[tuple, Measure], group: FinAbGroup,
                             delta_indices) -> Measure:
    """Inverse of idempotent_split."""
    delta_indices = tuple(delta_indices)
    delta_group, _, keys = _split_element(group, delta_indices)
    thetas = char_table(delta_group)
    if set(components) != {t.exponents for t in thetas}:
        raise MeasureError("need exactly one component per Delta-character")
    sample = next(iter(components.values()))
    ring = sample.ring
    inv_order = ring.inv(ring.from_int(delta_group.order()))
    # f(d, x) = |Delta|^-1 sum over theta of theta(d^-1) component_theta(x),
    # with component_theta(x) placed where the Delta axes carry theta's exponents
    zero = ring.zero()
    values = [components[d].coeffs.get(x, zero) for d, x in keys]
    sums = _transform(ring, values, group.orders, -1, delta_indices)
    return Measure._of(group, ring, {g: t * inv_order for g, t in zip(group.elements(), sums)
                                     if not ring.is_zero(t)})


# ---------------------------------------------------------------------------
# trivial extension along G -> G x| <c>
# ---------------------------------------------------------------------------

def extend_trivially(f: Measure, sg: SemidirectGroup) -> Measure:
    """Image of a measure on G under Lambda(G) -> Lambda(G x| <c>)."""
    if not isinstance(f.group, FinAbGroup):
        raise MeasureError("extend_trivially starts from an abelian measure")
    if sg.base != f.group:
        raise MeasureError("declared index-2 overgroup has a different base")
    return Measure(sg, f.ring, {(g, 0): c for g, c in f.coeffs.items()})


# ---------------------------------------------------------------------------
# unit test with explicit inverse
# ---------------------------------------------------------------------------

def _support_subgroup_abelianizes(f: Measure):
    """If f on a semidirect group is supported on G x {0} or on <c> alone,
    return an equivalent abelian measure plus a rebuild map."""
    group = f.group
    if isinstance(group, FinAbGroup):
        return f, lambda m: m
    if all(eps == 0 for (_, eps) in f.coeffs):
        base = group.base
        inner = Measure(base, f.ring, {g: c for (g, eps), c in f.coeffs.items()})
        return inner, lambda m: extend_trivially(m, group)
    if all(g == group.base.identity() for (g, _) in f.coeffs):
        z2 = FinAbGroup((2,))
        inner = Measure(z2, f.ring, {(eps,): c for (_, eps), c in f.coeffs.items()})

        def rebuild(m):
            return Measure(group, f.ring,
                           {(group.base.identity(), e[0]): c for e, c in m.coeffs.items()})

        return inner, rebuild
    raise MeasureError("unit test supports measures on an abelian subgroup only")


def is_unit(f: Measure, p: int | None = None):
    """Local-ring unit criterion with constructed inverse.

    Over p-adic coefficients on an abelian group split as (prime-to-p) x
    (p-part): every theta-component must have unit augmentation; the inverse
    is assembled from componentwise Newton iterations and f * f^-1 = delta_e
    is asserted before returning.

    Returns (True, inverse) or (False, None).
    """
    inner, rebuild = _support_subgroup_abelianizes(f)
    ring = inner.ring
    if isinstance(ring, PadicCoeffs):
        p = ring.ring.p
    elif ring.name == "symbolic":
        ok, inv = _symbolic_unit(inner)
        return (ok, rebuild(inv) if ok else None)
    else:
        raise MeasureError("unit test needs a local coefficient ring (p-adic or symbolic)")
    group = inner.group
    delta_idx = []
    for i, n in enumerate(group.orders):
        fac = factorize(n) if n > 1 else {}
        if p in fac and len(fac) > 1:
            raise MeasureError(f"factor Z/{n} mixes p with prime-to-p torsion; split it")
        if n > 1 and p not in fac:
            delta_idx.append(i)
    components = idempotent_split(inner, tuple(delta_idx)) if delta_idx else {
        (): inner}
    inverses: dict[tuple, Measure] = {}
    for key, comp in components.items():
        aug = comp.augmentation()
        v = aug.valuation()
        if v is None:
            raise UndecidableAtPrecision(
                "component augmentation is 0 at working precision")
        if v > 0:
            return False, None
        inverses[key] = _newton_inverse(comp)
    if delta_idx:
        inv_inner = assemble_from_components(inverses, group, tuple(delta_idx))
    else:
        inv_inner = inverses[()]
    check = convolve(inner, inv_inner)
    if check != Measure.delta(group, ring):
        raise MeasureError("constructed inverse failed verification")
    return True, rebuild(inv_inner)


def _newton_inverse(f: Measure) -> Measure:
    """Inverse of a measure on a p-group with unit augmentation (local ring)."""
    ring = f.ring
    group = f.group
    one = Measure.delta(group, ring)
    x = one.scale(ring.inv(f.augmentation()))
    two = one + one
    fx = convolve(f, x)
    for _ in range(64):
        x = convolve(x, two - fx)
        fx = convolve(f, x)
        if fx == one:
            return x
    raise UndecidableAtPrecision("inverse iteration did not converge")


def _symbolic_unit(f: Measure):
    """Unit test over symbolic coefficients; handles the supported shapes:
    every theta-component of the prime-to-p split must be a single point with
    an invertible coefficient."""
    group = f.group
    delta_idx = tuple(range(group.rank))  # symbolic case: treat all torsion as Delta
    comps = idempotent_split(f, delta_idx)
    inv_comps = {}
    for key, comp in comps.items():
        if len(comp.coeffs) != 1:
            raise MeasureError(
                "symbolic unit test only supports single-point components")
        (x, c), = comp.coeffs.items()
        inv_comps[key] = Measure(comp.group, comp.ring, {comp.group.neg(x): f.ring.inv(c)})
    inv = assemble_from_components(inv_comps, group, delta_idx)
    if convolve(f, inv) != Measure.delta(group, f.ring):
        return False, None
    return True, inv


# ---------------------------------------------------------------------------
# theta components of covering measures
# ---------------------------------------------------------------------------

def build_theta_component(nu: Measure, psi_theta: GroupChar, delta_value,
                          sigma_delta, omega_p, pr: GroupHom,
                          kernel_label: str = "sigma_home") -> Measure:
    """mu_theta on the quotient, defined by the convolved-and-projected integral.

    For f on the quotient: int f d(mu_theta) =
    Omega_p^-1 int_C psi_theta^-1 . (f o pr) d(delta sigma_delta^-1 * nu).
    Pointwise this is mu_theta(x) = Omega_p^-1 delta sum over h with
    pr(sigma^-1 h) = x of psi_theta^-1(sigma^-1 h) nu(h).
    """
    group = nu.group
    if not isinstance(group, FinAbGroup):
        raise MeasureError("covering measure must be abelian")
    if psi_theta.group != group or pr.source != group:
        raise MeasureError("character/projection live on the wrong group")
    sigma_delta = group.normalize(sigma_delta)
    if kernel_label in group.subgroups:
        if sigma_delta not in group.subgroups[kernel_label]:
            raise MeasureError(f"sigma element lies outside subgroup {kernel_label!r}")
    ring = nu.ring
    scale = delta_value * ring.inv(omega_p)
    sigma_inv = group.neg(sigma_delta)
    index, inverse = _group_index(group.orders)
    psi_row = _char_row(group.orders, psi_theta.exponents)
    # nu's points h grouped by their point x = pr(sigma^-1 h), each with the
    # exponent of psi_theta^-1(sigma^-1 h)
    images = _hom_row(pr)
    by_point: dict[tuple, tuple[list, list]] = {}
    for h in nu.coeffs:
        b = index[group.add(sigma_inv, h)]
        points, exps = by_point.setdefault(images[b], ([], []))
        points.append(h)
        exps.append(psi_row[inverse[b]])
    sums = _character_sums(nu, list(by_point.values()))
    return Measure._of(pr.target, ring, {x: t * scale for x, t in zip(by_point, sums)})


# ---------------------------------------------------------------------------
# Fourier machinery
#
# The transform below serves the operations that need every character.
# eval_char, twist and build_theta_component need one, so they sum
# rotations of the measure's lifted forms (or call root_sum): for one
# character the transform would lift every value and compute every output to
# read one of them.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _axis_plan(orders: tuple[int, ...], axis: int, sign: int) -> tuple:
    """The stages of _axis_pass: per prime factor r of n = orders[axis], one
    (gather, exponent list) pair per j < r, over the whole array.

    Cooley-Tukey in Stockham order, every line of the axis at once.  Before
    the stage of r, position k R + c (c < R) of a line holds the transform,
    at k, of the line's subsequence c, c + R r, c + 2 R r, ... (over the
    root zeta_n^(R r)); the stage combines r of them into

        A[k R + c] = sum_{j < r} zeta_n^(sign R j k) A'[((k mod m) r + j) R + c]

    with m = n / (R r); the last stage has R = 1.  The plan depends on the
    shape only, so the 32 most recent ones are kept.
    """
    n = orders[axis]
    inner = prod(orders[axis + 1:])
    starts = range(0, prod(orders), n * inner)
    stages = []
    R = n
    for r in (q for q, count in factorize(n).items() for _ in range(count)):
        R //= r
        m = n // (R * r)
        terms = []
        for j in range(r):
            src = [((q // R % m) * r + j) * R + q % R for q in range(n)]
            exp = [sign * R * j * (q // R) % n for q in range(n)]
            terms.append((itemgetter(*[s + p * inner + i for s in starts for p in src
                                       for i in range(inner)]),
                          [t for _ in starts for t in exp for _ in range(inner)]))
        stages.append(terms)
    return tuple(stages)


def _axis_pass(values: list, orders: tuple, axis: int, sign: int, rotate_sums) -> list:
    """The transform along one axis of values (in elements() order),
    b_axis -> sum over a_axis of values[.., a_axis, ..] * zeta_n^(sign a b)
    with n = orders[axis]: one rotate_sums call (see _CoeffAdapter) over r
    columns per prime factor r of n, as _axis_plan lays out."""
    if orders[axis] == 1:
        return values
    for terms in _axis_plan(orders, axis, sign):
        values = rotate_sums([gather(values) for gather, _ in terms], [exp for _, exp in terms])
    return values


def _transform(ring, values: list, orders: tuple, sign: int, axes) -> list:
    """out[b] = sum over a of values[a] * prod over i in axes of
    zeta_{n_i}^(sign a_i b_i), the sum over the a that agree with b off axes;
    values and out in FinAbGroup(orders).elements() order.

    One axis at a time (_axis_pass), each by Cooley-Tukey over the prime
    factors of its order: a transform over every axis is |G| * sum over axes
    of the prime factors of n_i (with multiplicity) terms.  The axes the
    ring packs (see _CoeffAdapter) run on the lifted forms, each output
    lowered once at the end; the others run first, on ring elements.
    """
    packed = [i for i in axes if ring.packs(orders[i])]
    for i in axes:
        if i not in packed:
            values = _axis_pass(values, orders, i, sign, ring.sums(orders[i]))
    if packed:
        forms, sums, lower = ring.lift(values, lcm(*(orders[i] for i in packed)),
                                       prod(orders[i] for i in packed))
        for i in packed:
            forms = _axis_pass(forms, orders, i, sign, sums(orders[i]))
        values = lower(forms)
    return values


def fourier_invert(values: dict[GroupChar, object], group: FinAbGroup, ring) -> Measure:
    """Measure with prescribed character evaluations: m(g) = |G|^-1 sum over
    chi of values[chi] chi(g^-1).

    One _transform call: |G| * sum over axes of the prime factors of n_i
    (with multiplicity) terms, against |G|^2 for the dense sum; Z/4 x Z/25
    takes 100 * (2 + 2 + 5 + 5) = 1,400 terms instead of 10,000.

    Over p-adic coefficients the p-part of |G| is divided out exactly, which
    drops the working precision by v_p(|G|); non-divisible sums (values that
    are not the evaluation vector of an integral measure) raise, and so does
    a precision of at most v_p(|G|) (PrecisionExhausted).
    """
    table = char_table(group)
    if set(values) != set(table):
        raise MeasureError("need exactly one value per character")
    order = group.order()
    if isinstance(ring, PadicCoeffs):
        p, precision = ring.ring.p, ring.ring.precision
        k, m = 0, order
        while m % p == 0:
            k += 1
            m //= p
        if k >= precision:
            raise PrecisionExhausted(
                f"Fourier inversion over a group of order {order} loses "
                f"v_{p}(|G|) = {k} digits of precision; the ring has precision {precision}")
    # char_table order is elements() order of the exponents
    sums = _transform(ring, [values[chi] for chi in table], group.orders, -1,
                      range(group.rank))
    raw = dict(zip(group.elements(), sums))
    if isinstance(ring, PadicCoeffs):
        inv_m = pow(m, -1, ring.ring.pN)
        out_ring = ring
        out = {}
        for g, t in raw.items():
            # a zero sum is divisible and leaves the support
            if t.is_zero():
                continue
            if m != 1:
                t = t * inv_m
            if k:
                try:
                    t = t.divide_exact_p_power(k)
                except ArithError as exc:
                    raise MeasureError(
                        f"values do not invert to an integral measure: {exc}") from exc
            out[g] = t
        if k:
            out_ring = PadicCoeffs(PadicRing(p, ring.ring.precision - k,
                                             ring.ring.unram_degree,
                                             ring.ring.eisenstein_pk))
        return Measure._of(group, out_ring, out)
    inv_order = ring.inv(ring.from_int(order))
    return Measure._of(group, ring, {g: t * inv_order for g, t in raw.items()
                                     if not ring.is_zero(t)})


def eval_all_chars(f: Measure) -> dict[GroupChar, object]:
    """chi -> eval_char(f, chi) for every character, in one _transform call:
    |G| * sum over axes of the prime factors of n_i (with multiplicity)
    terms, as for fourier_invert, against |G|^2 for |G| eval_char calls."""
    group = f.group
    if not isinstance(group, FinAbGroup):
        raise MeasureError("eval_all_chars needs an abelian group")
    zero = f.ring.zero()
    values = [f.coeffs.get(g, zero) for g in group.elements()]
    sums = _transform(f.ring, values, group.orders, 1, range(group.rank))
    return dict(zip(char_table(group), sums))


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def pushforward(f: Measure, hom: GroupHom) -> Measure:
    if hom.source != f.group:
        raise MeasureError("pushforward along a map with different source")
    out: dict = {}
    for g, c in f.coeffs.items():
        h = hom.apply(g)
        out[h] = out[h] + c if h in out else c
    return Measure(hom.target, f.ring, out)


@dataclass
class Tower:
    """Compatible measures along declared surjections (finest level first)."""

    groups: list[FinAbGroup]
    projections: list[GroupHom]  # projections[i]: groups[i] -> groups[i+1]
    measures: list[Measure]

    def validate(self) -> None:
        if len(self.groups) != len(self.measures):
            raise MeasureError("one measure per level required")
        if len(self.projections) != len(self.groups) - 1:
            raise MeasureError("one projection per consecutive pair required")
        for i, hom in enumerate(self.projections):
            if hom.source != self.groups[i] or hom.target != self.groups[i + 1]:
                raise MeasureError(f"projection {i} connects wrong levels")
            if not hom.is_surjective():
                raise MeasureError(f"projection {i} is not surjective")
            if pushforward(self.measures[i], hom) != self.measures[i + 1]:
                raise MeasureError(f"measure at level {i} does not push to level {i + 1}")


# ---------------------------------------------------------------------------
# serialization (deterministic text format)
# ---------------------------------------------------------------------------

def _coeff_to_text(ring, c) -> str:
    if ring is CYCLO:
        return f"{c.m}:" + ",".join(str(x) for x in c.coeffs)
    if isinstance(ring, PadicCoeffs):
        return ",".join(str(x) for x in c.coords)
    raise MeasureError(f"no text form for ring {ring!r}")


def _coeff_from_text(ring, text: str):
    if ring is CYCLO:
        m, colon, rest = text.partition(":")
        if not colon:  # a bare rational, as in files tagged "ring = rational"
            return CycloNumber.from_rational(Fraction(text))
        return CycloNumber(int(m), [Fraction(t) for t in rest.split(",")])
    if isinstance(ring, PadicCoeffs):
        return ring.ring.from_coords([int(t) for t in text.split(",")])
    raise MeasureError(f"no text form for ring {ring!r}")


def measure_to_text(f: Measure) -> str:
    """Byte-stable text form: header lines then sorted (element, coefficient) rows."""
    if not isinstance(f.group, FinAbGroup):
        raise MeasureError("serialization covers abelian measures")
    lines = [
        "measure/1",
        "group = " + " ".join(str(n) for n in f.group.orders),
        "ring = " + _ring_tag(f.ring),
    ]
    for g in sorted(f.coeffs):
        lines.append(" ".join(str(x) for x in g) + " | " + _coeff_to_text(f.ring, f.coeffs[g]))
    return "\n".join(lines) + "\n"


def _ring_tag(ring) -> str:
    if ring is CYCLO:
        return "cyclotomic"
    if isinstance(ring, PadicCoeffs):
        r = ring.ring
        return f"padic p={r.p} N={r.precision} f={r.unram_degree} pk={r.eisenstein_pk}"
    raise MeasureError(f"no tag for ring {ring!r}")


def measure_from_text(text: str) -> Measure:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "measure/1":
        raise MeasureError("unknown serialization header")
    group = None
    ring = None
    coeffs = {}
    for line in lines[1:]:
        if line.startswith("group = "):
            orders = tuple(int(t) for t in line[len("group = "):].split())
            group = FinAbGroup(orders)
        elif line.startswith("ring = "):
            tag = line[len("ring = "):]
            if tag in ("cyclotomic", "rational"):
                ring = CYCLO
            elif tag.startswith("padic"):
                kv = dict(part.split("=") for part in tag.split()[1:])
                ring = PadicCoeffs(PadicRing(int(kv["p"]), int(kv["N"]),
                                             int(kv["f"]), int(kv["pk"])))
            else:
                raise MeasureError(f"unknown ring tag {tag!r}")
        else:
            if group is None or ring is None:
                raise MeasureError("coefficient row before header rows")
            elem_text, _, coeff_text = line.partition(" | ")
            g = tuple(int(t) for t in elem_text.split())
            coeffs[g] = _coeff_from_text(ring, coeff_text)
    if group is None or ring is None:
        raise MeasureError("missing group or ring header")
    return Measure(group, ring, coeffs)


# ---------------------------------------------------------------------------
# synthetic measure-construction pipeline
# ---------------------------------------------------------------------------

@dataclass
class SyntheticPipelineResult:
    d_k: int
    p: int
    delta_residue: int
    sigma: tuple
    checks: int
    failures: list


def synthetic_interpolation_check(p: int, d_k: int, prescriptions: int,
                                  rng, precision: int = 12) -> SyntheticPipelineResult:
    """Generate covering measures from prescribed evaluation values and push
    them through the theta-component construction; verify the finite-level
    evaluation identity for every character of the quotient.

    The covering group models the units modulo p^3 as Z/(p-1) x Z/p^2; the
    sigma element is the class of the canonical square root of -d_K; the
    projection collapses the torsion part.  Values are prescribed as random
    root-of-unity multiples of rationals, the measure is produced by exact
    Fourier inversion, and both sides of the evaluation identity are computed
    through independent code paths (split/assemble machinery vs direct
    summation over the covering group).
    """
    from .arith import discrete_log, padic_sqrt, primitive_root

    q = p ** 3
    torsion = p - 1
    pp = p * p
    C = FinAbGroup((torsion, pp))
    C.add_subgroup_label("sigma_home", [(1, 0), (0, 1)])
    G1 = FinAbGroup((pp,))
    pr = GroupHom(C, G1, ((0, 1),))
    # sigma: decompose delta mod p^3 into Teichmueller and one-unit exponents
    delta = padic_sqrt(-d_k, p, max(precision, 3))
    dres = delta.coords[0] % q
    g0 = primitive_root(p)
    t_exp = discrete_log(dres % p, g0, p)
    teich = pow(g0, p ** (max(precision, 3) - 1) * t_exp, q) % q
    one_unit = dres * pow(teich, -1, q) % q
    u_exp = next(x for x in range(pp)
                 if pow(1 + p, x, q) == one_unit)
    sigma = (t_exp, u_exp)
    chars_C = char_table(C)
    delta_group = FinAbGroup((torsion,))
    failures = []
    checks = 0
    for trial in range(prescriptions):
        values = {}
        dense = trial % 10 == 9  # occasional dense prescriptions
        for chi in chars_C:
            # integer scales keep denominators bounded through the pipeline
            root = zeta(C.exponent(), rng.randrange(C.exponent()))
            v = root * rng.randint(1, 4)
            if dense:
                v = v + zeta(C.exponent(), rng.randrange(C.exponent()))
            values[chi] = v
        nu = fourier_invert(values, C, CYCLO)
        psi = GroupChar(C, (rng.randrange(torsion), rng.randrange(pp)))
        omega_p = CYCLO.from_fraction(Fraction(rng.choice([2, 3, 7])))
        delta_value = CYCLO.from_fraction(Fraction(dres))
        components = {}
        for theta in char_table(delta_group):
            psi_theta = psi * GroupChar(C, (theta.exponents[0], 0))
            components[theta.exponents] = build_theta_component(
                nu, psi_theta, delta_value, sigma, omega_p, pr)
        assembled = assemble_from_components(components, C, (0,))
        inv_omega = CYCLO.inv(omega_p)
        for theta in char_table(delta_group):
            psi_theta = psi * GroupChar(C, (theta.exponents[0], 0))
            for k1 in range(0, pp, max(1, pp // 4 + 1)):
                chi1 = GroupChar(G1, (k1,))
                full = GroupChar(C, (theta.exponents[0], k1))
                lhs = eval_char(assembled, full)
                eta = psi_theta.inverse() * pr.pullback_char(chi1)
                rhs = (inv_omega * delta_value * eta.value(C.neg(sigma))
                       * eval_char(nu, eta))
                checks += 1
                if lhs != rhs:
                    failures.append({
                        "trial": trial,
                        "theta": theta.exponents,
                        "chi1": k1,
                        "lhs": repr(lhs),
                        "rhs": repr(rhs),
                    })
    return SyntheticPipelineResult(d_k, p, dres, sigma, checks, failures)


# ---------------------------------------------------------------------------
# test helpers
# ---------------------------------------------------------------------------

def random_measure(group, ring, rng, density: float = 0.7, span: int = 9) -> Measure:
    """Deterministic pseudo-random measure for property checks."""
    elements = group.elements()
    coeffs = {}
    for g in elements:
        if rng.random() > density:
            continue
        n = rng.randint(-span, span)
        if n == 0:
            continue
        coeffs[g] = ring.from_int(n)
    if not coeffs:
        coeffs[elements[rng.randrange(len(elements))]] = ring.one()
    return Measure(group, ring, coeffs)
