"""Galois-descent checks at finite level.

The unramified closure's valuation ring is modeled by a finite unramified
extension of configurable degree (default 4); elements of the working ring
carry the ramified directions (p-power roots of unity) and the "extra"
unramified directions explicitly, so the descent statements become
coordinate statements checkable at precision:

* a value lies in L(rho) iff its unramified coordinates vanish;
* a coefficient lies in the O-part iff unramified and ramified coordinates
  both vanish (only the Z_p coordinate survives).

The evaluation map, its injectivity at finite level, the det map, and a
bounded sampling search toward the unit-descent theorem live here; the
sampling search is experimental and its failure is never a refutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arith import PadicNumber, PadicRing
from .chargroup import (
    FinAbGroup,
    GaloisAction,
    GroupChar,
    GroupHom,
    SemidirectGroup,
    char_table,
)
from .grpring import (
    Measure,
    MeasureError,
    PadicCoeffs,
    convolve,
    eval_all_chars,
    eval_char,
    eval_rep,
    fourier_invert,
    is_unit,
    twist,
)
from .reps import ArtinRep

__all__ = [
    "DescentError",
    "DModel",
    "ValueVector",
    "hom_description",
    "invert_values",
    "integral_descent_check",
    "DescentVerdict",
    "det_map",
    "det_gamma",
    "ev_of",
    "ev_kernel_check",
    "twist_invariant_family_from_unit",
    "unit_descent_search",
    "EvKernelReport",
    "UnitDescentReport",
]


class DescentError(ValueError):
    pass


class DModel:
    """Working model of the unramified-closure coefficient ring.

    ring = unramified degree f tensor the cyclotomic-Eisenstein part needed
    by the group's p-power character values.
    """

    def __init__(self, p: int, p_power_exponent: int, precision: int = 12,
                 unram_degree: int = 4):
        pk = p ** p_power_exponent if p_power_exponent else 1
        self.ring = PadicRing(p, precision, unram_degree, pk)
        self.coeffs = PadicCoeffs(self.ring)

    # -- coordinate slices ------------------------------------------------

    def in_L_part(self, x: PadicNumber) -> bool:
        """No unramified directions: the value lies in Q_p(zeta_{p^k})."""
        return not any(x.coords[self.ring.e:])

    def in_O_part(self, x: PadicNumber) -> bool:
        """Only the Z_p coordinate: no unramified and no ramified directions."""
        return not any(x.coords[1:])

    def zeta_action(self, x: PadicNumber, a: int) -> PadicNumber:
        """The inertia action zeta -> zeta^a (trivial on the unramified part)."""
        return self.ring.zeta_substitution(x, a)

    def random_non_O_unit(self, rng: random.Random) -> PadicNumber:
        """A unit with a genuine unramified direction (violates the O-part)."""
        ring = self.ring
        if ring.unram_degree < 2:
            raise DescentError("model has no extra unramified directions")
        coords = [0] * ring.dim
        coords[0] = 1 + rng.randrange(ring.p - 1)
        coords[ring.e] = 1 + rng.randrange(ring.p - 1)  # beta-coordinate
        return ring.from_coords(coords)


@dataclass
class ValueVector:
    """Map from characters to scalars, with an optional equivariance flag."""

    group: FinAbGroup
    values: dict  # GroupChar -> scalar
    equivariant_checked: bool = False

    def check_equivariance(self, model: DModel, action: GaloisAction) -> bool:
        """h(chi^a) = sigma_a(h(chi)) for every declared action generator."""
        for gen in action.generators:
            p_mults = {a % n for a, n in zip(gen, self.group.orders)
                       if n > 1 and n % model.ring.p == 0}
            if len(p_mults) > 1:
                raise DescentError(
                    "generator acts with inconsistent multipliers on the p-part")
            a_p = next(iter(p_mults), 1)
            for chi, v in self.values.items():
                img_chi = GroupChar(self.group,
                                    tuple(a * e for a, e in zip(gen, chi.exponents)))
                if self.values[img_chi] != model.zeta_action(v, a_p):
                    self.equivariant_checked = False
                    return False
        self.equivariant_checked = True
        return True


def hom_description(f: Measure) -> ValueVector:
    """rho -> sum m_g rho(g); bijective with invert_values."""
    return ValueVector(f.group, eval_all_chars(f))


def invert_values(v: ValueVector, ring) -> Measure:
    return fourier_invert(v.values, v.group, ring)


@dataclass
class DescentVerdict:
    hypothesis_holds: bool
    conclusion_holds: bool
    vacuous: bool
    bad_values: list = field(default_factory=list)
    bad_coefficients: list = field(default_factory=list)

    @property
    def lemma_respected(self) -> bool:
        return self.vacuous or self.conclusion_holds


def integral_descent_check(f: Measure, model: DModel) -> DescentVerdict:
    """Values-in-L(rho) implies coefficients-in-O, checked coordinatewise.

    Hypothesis: every evaluation lies in the ramified slice.  Conclusion:
    every coefficient has vanishing unramified coordinates at precision (the
    O-part).  If the hypothesis fails the check is vacuous and says so, with
    the witnesses attached.
    """
    group = f.group
    if not isinstance(group, FinAbGroup):
        raise DescentError("descent check needs an abelian group")
    p = model.ring.p
    for n in group.orders:
        if n <= 1:
            continue
        if n % p == 0:
            t = n
            while t % p == 0:
                t //= p
            if t != 1:
                raise DescentError(f"factor Z/{n} mixes p-power and torsion parts")
        elif (p - 1) % n != 0:
            raise DescentError(
                f"torsion factor Z/{n} has exponent not dividing p-1 = {p - 1}")
    bad_values = []
    for chi, val in eval_all_chars(f).items():
        if not model.in_L_part(val):
            bad_values.append((chi.exponents, val))
    hypothesis = not bad_values
    bad_coeffs = []
    for g, c in f.coeffs.items():
        if not model.in_O_part(c):
            bad_coeffs.append((g, c))
    conclusion = not bad_coeffs
    return DescentVerdict(hypothesis, conclusion, vacuous=not hypothesis,
                          bad_values=bad_values, bad_coefficients=bad_coeffs)


# ---------------------------------------------------------------------------
# det and ev maps
# ---------------------------------------------------------------------------

def det_map(u: Measure, irreps: list[ArtinRep]) -> dict:
    """rho -> det(rho(u)) for an invertible measure on the semidirect group."""
    try:
        ok, _ = is_unit(u)
    except MeasureError as exc:
        raise DescentError(f"cannot certify invertibility: {exc}") from exc
    if not ok:
        raise DescentError("det map is defined on units only")
    return {i: eval_rep(u, rho) for i, rho in enumerate(irreps)}


def det_gamma(f: Measure, rho: ArtinRep, gamma_hom: GroupHom) -> Measure:
    """The Lambda(Gamma)-valued determinant: det of rho tensor the projection.

    f lives on the semidirect group; gamma_hom is the distinguished quotient
    of the abelian base onto the cyclic level Gamma_n and must be invariant
    under the c-action.
    """
    sg = f.group
    if not isinstance(sg, SemidirectGroup):
        raise DescentError("det_gamma needs a measure on the semidirect group")
    base = sg.base
    if gamma_hom.source != base:
        raise DescentError("quotient map must start at the abelian base")
    for i in range(base.rank):
        gen = tuple(1 if k == i else 0 for k in range(base.rank))
        if gamma_hom.apply(sg.c_action.apply(gen)) != gamma_hom.apply(gen):
            raise DescentError("Gamma-quotient is not c-invariant")
    gamma = gamma_hom.target
    ring = f.ring
    n = rho.dimension
    acc = [[{} for _ in range(n)] for _ in range(n)]
    for x, c in f.coeffs.items():
        g, _eps = x
        mat = rho.matrix(x)
        target = gamma_hom.apply(g)
        for i in range(n):
            for j in range(n):
                entry = mat[i][j]
                if entry.is_zero():
                    continue
                coeff = c * ring.from_cyclo(entry)
                d = acc[i][j]
                d[target] = d[target] + coeff if target in d else coeff
    mats = [[Measure(gamma, ring, acc[i][j]) for j in range(n)] for i in range(n)]
    if n == 1:
        return mats[0][0]
    return convolve(mats[0][0], mats[1][1]) - convolve(mats[0][1], mats[1][0])


def ev_of(det_measure: Measure) -> object:
    """Evaluation at the trivial character of Gamma (the augmentation)."""
    return det_measure.augmentation()


@dataclass
class EvKernelReport:
    twist_invariant: bool
    all_ev_trivial: bool
    kernel_trivial: bool
    witness: tuple | None = None


def ev_kernel_check(sg: SemidirectGroup, gamma_hom: GroupHom,
                    family: dict, ring) -> EvKernelReport:
    """Finite-level injectivity of ev on twist-invariant families.

    family: rep index -> Measure on Gamma_n, one per classified irrep, with
    the reps listed by classify_irreps ordering.  Twist invariance
    f(rho tensor chi) = tw_{chi^-1}(f(rho)) is verified first (witness
    reported on failure); then, if every f(rho) evaluates to 1 at the
    trivial character, twist invariance forces f(rho)(chi) = 1 for every chi
    and Fourier completeness forces f(rho) = delta_e.
    """
    from .reps import classify_irreps

    irreps = classify_irreps(sg)
    gamma = gamma_hom.target
    delta_e = Measure.delta(gamma, ring)
    index = {r.key: i for i, r in enumerate(irreps)}
    # twist invariance over every (rho, chi)
    for chi_g in char_table(gamma):
        pulled = gamma_hom.pullback_char(chi_g)
        for i, rho in enumerate(irreps):
            twisted = rho.tensor_char(pulled)
            ti = index[twisted.key]
            expect = twist(family[i], chi_g.inverse())
            if family[ti] != expect:
                return EvKernelReport(False, False, False, witness=(i, chi_g.exponents))
    one = ring.one()
    nontrivial = [i for i in range(len(irreps)) if ev_of(family[i]) != one]
    if nontrivial:
        # contrapositive witness: a representation where ev detects the family
        return EvKernelReport(True, False, True, witness=(nontrivial[0], "ev"))
    # constructive conclusion: all evaluations 1 at every character
    for i in range(len(irreps)):
        for chi_g in char_table(gamma):
            if eval_char(family[i], chi_g) != one:
                return EvKernelReport(True, True, False, witness=(i, chi_g.exponents))
        if family[i] != delta_e:
            return EvKernelReport(True, True, False, witness=(i, "fourier"))
    return EvKernelReport(True, True, True)


def twist_invariant_family_from_unit(sg: SemidirectGroup, gamma_hom: GroupHom,
                                     u: Measure) -> dict:
    """The canonical twist-invariant family rho -> det_gamma(u, rho)."""
    from .reps import classify_irreps

    return {i: det_gamma(u, rho, gamma_hom) for i, rho in enumerate(classify_irreps(sg))}


# ---------------------------------------------------------------------------
# experimental unit-descent sampling
# ---------------------------------------------------------------------------

@dataclass
class UnitDescentReport:
    invariant: bool
    found: bool
    candidate: Measure | None
    searched: int
    note: str = "experimental: a failed search is not a refutation"


def unit_descent_search(u: Measure, model: DModel, sg: SemidirectGroup,
                        coefficient_span: int = 6) -> UnitDescentReport:
    """Search for an O-coefficient unit with the same det values as u.

    Checks that the det values are fixed by the coefficient Frobenius (the
    unramified-Galois invariance hypothesis), then tries: u itself when its
    coefficients already lie in the O-part; the Frobenius average; and a
    bounded enumeration of single-point measures.  Outcomes are data.
    """
    from .reps import classify_irreps

    irreps = classify_irreps(sg)
    ok, _ = is_unit(u)
    if not ok:
        raise DescentError("unit_descent_search needs a unit")
    dets = det_map(u, irreps)
    ring = model.ring
    for val in dets.values():
        if ring.frobenius(val) != val:
            raise DescentError("det values are not invariant under Frobenius")
    searched = 0

    def matches(cand: Measure) -> bool:
        okc, _ = is_unit(cand)
        if not okc:
            return False
        return all(eval_rep(cand, rho) == dets[i] for i, rho in enumerate(irreps))

    if all(model.in_O_part(c) for c in u.coeffs.values()):
        return UnitDescentReport(True, True, u, searched)
    # Frobenius average
    f_deg = ring.unram_degree
    avg = u
    for _ in range(f_deg - 1):
        avg = Measure(u.group, u.ring,
                      {g: ring.frobenius(c) for g, c in avg.coeffs.items()})
        searched += 1
        if all(model.in_O_part(c) for c in avg.coeffs.values()) and matches(avg):
            return UnitDescentReport(True, True, avg, searched)
    # bounded single-point enumeration
    for g in u.group.elements():
        for c0 in range(1, coefficient_span):
            cand = Measure(u.group, u.ring, {g: ring.from_int(c0)})
            searched += 1
            if matches(cand):
                return UnitDescentReport(True, True, cand, searched)
    return UnitDescentReport(True, False, None, searched)
