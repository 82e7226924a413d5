"""Period-lattice checks over the nine class-number-one imaginary fields.

A lattice is described by (1, tau) with tau totally imaginary.  The checks:
stability under multiplication by the declared order (exact 2x2 rational
solves), the decomposition tau = s sqrt(-d) with s a p-unit, and a search
among the elements of the right norm for a generator alpha with
O alpha = Z + Z tau, whose valuation at the canonical prime above a split p
must vanish.

Two order modes:

* 'maximal': the actual maximal order (omega = sqrt(-m) for d in {4, 8},
  omega = (1 + sqrt(-d))/2 for d = 3 mod 4);
* 'sqrt-order': the order Z + Z sqrt(-d), so the source computation can be
  replayed with its own basis convention.

In maximal mode no purely imaginary tau gives a stable lattice containing 1
when d = 3 mod 4 (omega has a half-integral rational part); the scan reports
those empty outcomes explicitly rather than hiding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt

from .arith import (
    CLASS_NUMBER_ONE_DISCS,
    QuadFieldElem,
    is_prime,
    legendre_symbol,
)

__all__ = [
    "LatticeError",
    "CmLattice",
    "cm_stable",
    "decompose_tau",
    "find_generator",
    "scan_discriminant",
    "smallest_split_prime",
]


class LatticeError(ValueError):
    pass


def order_generator(d: int, mode: str) -> QuadFieldElem:
    if mode == "sqrt-order":
        return QuadFieldElem.sqrt_minus_d(d)
    if mode != "maximal":
        raise LatticeError(f"unknown order mode {mode!r}")
    if d == 4:
        return QuadFieldElem(4, Fraction(0), Fraction(1, 2))  # i
    if d == 8:
        return QuadFieldElem(8, Fraction(0), Fraction(1, 2))  # sqrt(-2)
    # d = 3 mod 4: omega = (1 + sqrt(-d)) / 2
    return QuadFieldElem(d, Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class CmLattice:
    """Z + Z tau with tau a totally imaginary element of Q(sqrt(-d))."""

    d: int
    tau: QuadFieldElem
    mode: str = "maximal"

    def __post_init__(self):
        if self.d not in CLASS_NUMBER_ONE_DISCS:
            raise LatticeError(f"unsupported discriminant parameter {self.d}")
        if self.tau.d != self.d:
            raise LatticeError("tau lives in a different field")
        if self.tau.b == 0:
            raise LatticeError("tau must be irrational (nondegenerate lattice)")

    def omega(self) -> QuadFieldElem:
        return order_generator(self.d, self.mode)

    def coordinates(self, x: QuadFieldElem) -> tuple[Fraction, Fraction]:
        """(u, v) with x = u * 1 + v * tau (exact 2x2 solve)."""
        # x.a = u + v tau.a ; x.b = v tau.b
        if self.tau.b == 0:
            raise LatticeError("degenerate lattice")
        v = x.b / self.tau.b
        u = x.a - v * self.tau.a
        return u, v

    def contains(self, x: QuadFieldElem) -> bool:
        u, v = self.coordinates(x)
        return u.denominator == 1 and v.denominator == 1


def cm_stable(lat: CmLattice) -> bool:
    """True iff omega * 1 and omega * tau both lie in Z + Z tau."""
    w = lat.omega()
    return lat.contains(w) and lat.contains(w * lat.tau)


@dataclass
class TauDecomposition:
    s: Fraction
    s_prime: Fraction
    s_prime_divides: bool
    p_unit: bool
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.s_prime_divides and self.p_unit


def decompose_tau(lat: CmLattice, p: int) -> TauDecomposition:
    """Write tau = s sqrt(-d); assert d s integral, s' = d s divides d, and
    s is a p-unit.  Failures carry a witness string, not an exception."""
    if p % 2 == 0 or lat.d % p == 0:
        raise LatticeError(f"p = {p} violates p odd and p not dividing d = {lat.d}")
    if lat.tau.a != 0:
        raise LatticeError("tau is not of the form s sqrt(-d)")
    s = lat.tau.b
    s_prime = lat.d * s
    report = TauDecomposition(s, s_prime, True, True)
    if s_prime.denominator != 1:
        report.s_prime_divides = False
        report.witness = f"d*s = {s_prime} is not integral"
        return report
    if int(s_prime) == 0 or lat.d % int(s_prime) != 0:
        report.s_prime_divides = False
        report.witness = f"s' = {s_prime} does not divide {lat.d}"
    if s.numerator % p == 0 or s.denominator % p == 0:
        report.p_unit = False
        report.witness += f" v_{p}(s) != 0 for s = {s}"
    return report


@dataclass
class GeneratorResult:
    alpha: QuadFieldElem | None
    p_unit: bool
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.alpha is not None and self.p_unit


def _covolume_ratio(lat: CmLattice) -> Fraction:
    """[imaginary part of tau] / [imaginary part of omega]: the norm of the
    fractional ideal (Z + Z tau) relative to the order."""
    w = lat.omega()
    return abs(lat.tau.b) / abs(w.b)


def find_generator(lat: CmLattice, p: int) -> GeneratorResult:
    """Search alpha with O * alpha = Z + Z tau; verify v_p(alpha) = 0 at the
    canonical split prime.

    alpha = m + n tau must have norm t, the covolume ratio.  With
    tau = a + b sqrt(-d), N(m + n tau) = (m + n a)^2 + d (n b)^2 = t, so
    d b^2 n^2 <= t and |m| <= sqrt(t) + |n a|: the search box holds every
    element of norm t.  Such an element spans O alpha inside the lattice
    with the same covolume, so the search fails only when no element has
    norm t.  Candidates go outward, by max(|m|, |n|) and then (m, n), so
    the small generators are found first.
    """
    if legendre_symbol(-lat.d, p) != 1:
        raise LatticeError(f"p = {p} is not split in Q(sqrt(-{lat.d}))")
    if not cm_stable(lat):
        raise LatticeError("lattice is not stable under the declared order")
    target_norm = _covolume_ratio(lat)
    a, b = lat.tau.a, lat.tau.b
    n_max = isqrt(floor(target_norm / (lat.d * b * b)))
    m_max = isqrt(floor(target_norm)) + ceil(n_max * abs(a))
    w = lat.omega()
    candidates = sorted(
        ((m, n) for m in range(-m_max, m_max + 1) for n in range(-n_max, n_max + 1)
         if (m, n) != (0, 0)),
        key=lambda t: (max(abs(t[0]), abs(t[1])), t))
    for m, n in candidates:
        alpha = QuadFieldElem.rational(lat.d, m) + lat.tau * n
        if alpha.norm() != target_norm:
            continue
        # O alpha inside the lattice and alpha^-1 lattice inside O
        if not (lat.contains(alpha) and lat.contains(alpha * w)):
            continue
        inv = alpha.inverse()
        one_c = inv * QuadFieldElem.rational(lat.d, 1)
        tau_c = inv * lat.tau
        if not (_in_order(one_c, w) and _in_order(tau_c, w)):
            continue
        v = alpha.valuation_at_split_prime(p)
        if v != 0:
            return GeneratorResult(alpha, False, f"v_p(alpha) = {v} for alpha = {alpha}")
        return GeneratorResult(alpha, True)
    return GeneratorResult(None, False, f"no element m + n tau has norm {target_norm}")


def _in_order(x: QuadFieldElem, omega: QuadFieldElem) -> bool:
    """Is x in Z + Z omega?  Exact 2x2 solve against (1, omega)."""
    if omega.b == 0:
        raise LatticeError("degenerate order")
    v = x.b / omega.b
    u = x.a - v * omega.a
    return u.denominator == 1 and v.denominator == 1


def smallest_split_prime(d: int, minimum: int = 5) -> int:
    p = minimum
    while True:
        if is_prime(p) and d % p != 0 and legendre_symbol(-d, p) == 1:
            return p
        p += 1


@dataclass
class ScanEntry:
    s_prime: int
    tau: str
    stable: bool
    tau_report: TauDecomposition | None
    generator: GeneratorResult | None

    def as_dict(self):
        out = {"s_prime": self.s_prime, "tau": self.tau, "stable": self.stable}
        if self.tau_report is not None:
            out["s"] = str(self.tau_report.s)
            out["s_pass"] = self.tau_report.passed
            if self.tau_report.witness:
                out["s_witness"] = self.tau_report.witness
        if self.generator is not None:
            out["alpha"] = repr(self.generator.alpha)
            out["alpha_pass"] = self.generator.passed
            if self.generator.witness:
                out["alpha_witness"] = self.generator.witness
        return out


@dataclass
class ScanReport:
    d: int
    p: int
    mode: str
    entries: list[ScanEntry]

    @property
    def stable_entries(self):
        return [e for e in self.entries if e.stable]

    @property
    def all_stable_pass(self) -> bool:
        return all(e.tau_report.passed and e.generator.passed
                   for e in self.stable_entries)

    @property
    def empty_scan(self) -> bool:
        return not self.stable_entries

    def as_dict(self):
        return {
            "d_K": self.d,
            "p": self.p,
            "mode": self.mode,
            "empty_scan": self.empty_scan,
            "all_stable_pass": self.all_stable_pass,
            "entries": [e.as_dict() for e in self.entries],
        }


def scan_discriminant(d: int, p: int | None = None, mode: str = "maximal") -> ScanReport:
    """Brute-force scan over tau = (s'/d) sqrt(-d) for s' dividing d.

    Every stable lattice found is pushed through decompose_tau and
    find_generator; d = 3 mod 4 in maximal mode yields an empty scan, which
    is reported as such (the half-integral omega excludes purely imaginary
    tau; this mirrors the source computation's basis convention gap).
    """
    if p is None:
        p = smallest_split_prime(d)
    entries = []
    for s_prime in range(1, d + 1):
        if d % s_prime != 0:
            continue
        tau = QuadFieldElem(d, Fraction(0), Fraction(s_prime, d))
        lat = CmLattice(d, tau, mode)
        stable = cm_stable(lat)
        entry = ScanEntry(s_prime, repr(tau), stable, None, None)
        if stable:
            entry.tau_report = decompose_tau(lat, p)
            entry.generator = find_generator(lat, p)
        entries.append(entry)
    return ScanReport(d, p, mode, entries)
