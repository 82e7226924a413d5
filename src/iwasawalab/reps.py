"""Irreducible representations of G x| <c> with involutive c.

Every irreducible is either linear (a character of the abelianization) or
induced from a character chi of G with chi != chi^c; the induced ones come
with an explicit 2x2 matrix realization with exact cyclotomic entries.
Characters are compared as value functions, so Ind(chi) and Ind(chi^c)
deduplicate automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arith import CycloNumber
from .chargroup import (
    GroupChar,
    GroupError,
    SemidirectGroup,
    char_table,
    conductor_exponent,
)

__all__ = [
    "ArtinRep",
    "RepInvariants",
    "classify_irreps",
    "induce",
    "inner_product",
    "rep_invariants",
]


@dataclass(frozen=True)
class ArtinRep:
    """kind 'linear': character chi of G with chi = chi^c plus a sign at c.
    kind 'induced': the 2-dimensional induction of chi (chi != chi^c when
    irreducible; reducible inductions are permitted but flagged)."""

    ambient: SemidirectGroup
    kind: str  # "linear" | "induced"
    chi: GroupChar
    sign: int = 1

    def __post_init__(self):
        if self.kind not in ("linear", "induced"):
            raise GroupError(f"unknown representation kind {self.kind!r}")
        if self.kind == "linear":
            if self.sign not in (1, -1):
                raise GroupError("sign at c must be +-1")
            if self.chi_conj() != self.chi:
                raise GroupError("a linear extension needs a c-fixed character")

    def chi_conj(self) -> GroupChar:
        return self.ambient.conjugate_char(self.chi)

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "linear" else 2

    def is_irreducible(self) -> bool:
        return self.kind == "linear" or self.chi != self.chi_conj()

    # -- value functions ----------------------------------------------------

    def character(self, x) -> CycloNumber:
        g, eps = x
        if self.kind == "linear":
            v = self.chi.value(g)
            return v * self.sign if eps else v
        if eps:
            return CycloNumber.from_rational(0)
        return self.chi.value(g) + self.chi_conj().value(g)

    def matrix(self, x):
        """1x1 or 2x2 matrix of exact cyclotomic entries."""
        g, eps = x
        one = CycloNumber.from_rational(1)
        zero = CycloNumber.from_rational(0)
        if self.kind == "linear":
            v = self.chi.value(g)
            return ((v * self.sign if eps else v,),)
        a, b = self.chi.value(g), self.chi_conj().value(g)
        if eps:
            return ((zero, a), (b, zero))
        return ((a, zero), (zero, b))

    # -- functorial pieces ----------------------------------------------------

    def restriction(self) -> list[GroupChar]:
        if self.kind == "linear":
            return [self.chi]
        return [self.chi, self.chi_conj()]

    def contragredient(self) -> "ArtinRep":
        if self.kind == "linear":
            return ArtinRep(self.ambient, "linear", self.chi.inverse(), self.sign)
        return ArtinRep(self.ambient, "induced", self.chi.inverse())

    def tensor_char(self, xi: GroupChar) -> "ArtinRep":
        """Twist by a c-fixed character of G (e.g. a pullback from Gamma)."""
        if self.ambient.conjugate_char(xi) != xi:
            raise GroupError("twisting character must be c-fixed")
        if self.kind == "linear":
            return ArtinRep(self.ambient, "linear", self.chi * xi, self.sign)
        return ArtinRep(self.ambient, "induced", self.chi * xi)

    @cached_property
    def key(self) -> tuple:
        """Canonical key of the character: Ind(chi) and Ind(chi^c) share one."""
        if self.kind == "linear":
            return ("linear", self.chi.exponents, self.sign)
        return ("induced", min(self.chi.exponents, self.chi_conj().exponents))

    def same_character(self, other: "ArtinRep") -> bool:
        return self.ambient.base == other.ambient.base and self.key == other.key

    def __repr__(self):
        if self.kind == "linear":
            return f"Rep(linear {self.chi.exponents}, c->{self.sign:+d})"
        return f"Rep(Ind {self.chi.exponents})"


@dataclass(frozen=True)
class RepInvariants:
    d_plus: int
    d_minus: int
    contragredient: ArtinRep
    f_p: int | None


def classify_irreps(sg: SemidirectGroup) -> list[ArtinRep]:
    """Complete duplicate-free list of irreducibles; deterministic order.

    Linear representations come first, sorted by (chi exponents, sign with +1
    first); induced ones follow, sorted by the smaller exponent vector of the
    pair {chi, chi^c}.  CLI indices refer to this ordering.
    """
    base = sg.base
    table = char_table(base)
    linear: list[ArtinRep] = []
    induced: list[ArtinRep] = []
    seen_pairs: set[frozenset] = set()
    for chi in table:
        cc = sg.conjugate_char(chi)
        if cc == chi:
            linear.append(ArtinRep(sg, "linear", chi, 1))
            linear.append(ArtinRep(sg, "linear", chi, -1))
        else:
            pair = frozenset((chi.exponents, cc.exponents))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                rep_chi = chi if chi.exponents <= cc.exponents else cc
                induced.append(ArtinRep(sg, "induced", rep_chi))
    linear.sort(key=lambda r: (r.chi.exponents, -r.sign))
    induced.sort(key=lambda r: r.chi.exponents)
    out = linear + induced
    total = sum(r.dimension ** 2 for r in out)
    if total != sg.order():
        raise GroupError(f"classification incomplete: sum dim^2 = {total} != {sg.order()}")
    return out


def induce(sg: SemidirectGroup, chi: GroupChar) -> ArtinRep:
    """Induction of a G-character; reducible when chi is c-fixed."""
    return ArtinRep(sg, "induced", chi)


def inner_product(rho1: ArtinRep, rho2: ArtinRep) -> int:
    """Exact character inner product over the ambient group."""
    sg = rho1.ambient
    if sg.base != rho2.ambient.base:
        raise GroupError("representations of different groups")
    total = CycloNumber.from_rational(0)
    for x in sg.elements():
        total = total + rho1.character(x) * rho2.character(x).conjugate()
    value = total / sg.order()
    if not value.is_rational():
        raise GroupError("inner product is not rational (character-table bug)")
    q = value.rational_value()
    if q.denominator != 1 or q < 0:
        raise GroupError(f"inner product {q} is not a nonnegative integer")
    return int(q)


def inner_product_with_char(rho: ArtinRep, chi: GroupChar) -> int:
    """(Res rho, chi)_G, exactly."""
    base = rho.ambient.base
    total = CycloNumber.from_rational(0)
    for g in base.elements():
        total = total + rho.character((g, 0)) * chi.value(g).conjugate()
    value = total / base.order()
    if not value.is_rational() or value.rational_value().denominator != 1:
        raise GroupError("restriction inner product is not an integer")
    return int(value.rational_value())


def _coset_multisets(rho: ArtinRep):
    """The character function as G-character multisets on the two cosets.

    On G x {0} the character is the sum of the restriction characters; on
    G x {1} a linear representation contributes its character with the sign
    at c, an induced one vanishes.
    """
    if rho.kind == "linear":
        return [(rho.chi, 1)], [(rho.chi, rho.sign)]
    return [(rho.chi, 1), (rho.chi_conj(), 1)], []


def inner_product_fast(rho1: ArtinRep, rho2: ArtinRep) -> int:
    """Exact inner product via character orthogonality on the base group.

    Each coset sum of products of G-characters collapses by orthogonality to
    |G| times a matching count, so the full inner product is
    (matches on the identity coset + matches on the c-coset) / 2; this is the
    closed form of the same exact sum as inner_product.
    """
    a0, a1 = _coset_multisets(rho1)
    b0, b1 = _coset_multisets(rho2)

    def matches(ms1, ms2):
        return sum(ca * cb for chi_a, ca in ms1 for chi_b, cb in ms2
                   if chi_a == chi_b)

    total = matches(a0, b0) + matches(a1, b1)
    if total % 2:
        raise GroupError("inner product is not an integer (character-table bug)")
    value = total // 2
    if value < 0:
        raise GroupError(f"inner product {value} is negative")
    return value


def inner_product_with_char_fast(rho: ArtinRep, chi: GroupChar) -> int:
    """(Res rho, chi)_G by orthogonality: the multiplicity of chi in the
    identity-coset multiset."""
    ms0, _ = _coset_multisets(rho)
    return sum(c for chi_a, c in ms0 if chi_a == chi)


def rep_invariants(rho: ArtinRep, want_conductor: bool = True) -> RepInvariants:
    """Eigenspace dimensions of rho(c), the contragredient, and the p-part
    conductor exponent assembled from the inducing character's local data."""
    if rho.kind == "linear":
        d_plus, d_minus = (1, 0) if rho.sign == 1 else (0, 1)
    else:
        d_plus, d_minus = 1, 1  # the swap matrix has eigenvalues +1 and -1
    f_p = None
    if want_conductor:
        group = rho.ambient.base
        if "p" not in group.inertia or "pbar" not in group.inertia:
            raise GroupError("missing inertia data for conductor assembly")
        if rho.kind == "induced":
            f_p = conductor_exponent(rho.chi, "p") + conductor_exponent(rho.chi, "pbar")
        else:
            f_p = conductor_exponent(rho.chi, "pbar")
    return RepInvariants(d_plus, d_minus, rho.contragredient(), f_p)
