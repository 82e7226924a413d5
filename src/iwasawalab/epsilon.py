"""Gauss sums and local constants for finite-order characters of Q_p.

Conventions are first-class data here, because the identities being checked
are precisely statements about convention mismatch:

* the additive character direction is an explicit argument, 'psi(x)' or
  'psi(-x)'; flipping it multiplies the local constant by chi(-1);
* the Haar normalization is the one giving the integers volume 1 ('dx1');
* the local integral is realized as the level-n character sum
  sum over units u mod p^n of chi(u) zeta^(s * t * u), with s the additive
  direction sign and t the "different shift" (default 1).  The shift is the
  image of a generator of the relevant local different: for the completion
  of an imaginary quadratic field at a split prime it is the canonical
  square root of -d, and that shift is exactly what the sigma-shift lemma
  trades against the chi(sigma) factor;
* the character argument follows the inverse-Frobenius (geometric)
  identification of the Galois group with the unit group, so chi itself, not
  its inverse, appears in the sum.

Unramified twist parts scale the constant by value(p)^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    CycloNumber,
    _accumulate_roots,
    discrete_log,
    euler_phi,
    is_prime,
    lcm,
    legendre_symbol,
    padic_sqrt,
    primitive_root,
    zeta,
)

__all__ = [
    "EpsilonError",
    "LocalChar",
    "PSI_X",
    "PSI_MINUS_X",
    "local_char_table",
    "gauss_sum",
    "epsilon_factor",
    "verify_sigma_delta",
    "inductivity_split",
    "SigmaDeltaReport",
]

PSI_X = "psi(x)"
PSI_MINUS_X = "psi(-x)"


class EpsilonError(ValueError):
    pass


@dataclass(frozen=True)
class LocalChar:
    """Finite-order character of Q_p^x with conductor exponent n.

    The ramified part is a character of (Z/p^n)^x recorded as the exponent k
    against the smallest primitive root g mod p^n: chi(g) = zeta_phi(p^n)^k.
    n = 0 is the trivial ramified part.  unram_value, when present, is the
    value of an unramified twist at p (the Frobenius value); the units see
    only the ramified part.
    """

    p: int
    n: int
    exponent: int = 0
    unram_value: object | None = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise EpsilonError(f"bad prime {self.p}")
        if self.n < 0:
            raise EpsilonError("conductor exponent must be >= 0")
        if self.n == 0:
            if self.exponent:
                raise EpsilonError("trivial ramified part cannot carry an exponent")
            object.__setattr__(self, "exponent", 0)
            return
        q = self.p ** self.n
        phi = euler_phi(q)
        k = self.exponent % phi
        object.__setattr__(self, "exponent", k)
        # conductor exactness: nontrivial on the deepest layer
        if self.n == 1:
            if k == 0:
                raise EpsilonError("conductor p needs a nontrivial character")
        else:
            # 1 + p^(n-1) generates the last filtration step; chi on it is
            # zeta^(k * dlog(1 + p^(n-1)))
            g = primitive_root(q)
            d = discrete_log((1 + self.p ** (self.n - 1)) % q, g, q)
            if k * d % phi == 0:
                raise EpsilonError(
                    f"exponent {k} has conductor smaller than p^{self.n}")

    @property
    def modulus(self) -> int:
        return self.p ** max(self.n, 1)

    def generator(self) -> int:
        return primitive_root(self.modulus)

    def value(self, a: int) -> CycloNumber:
        """chi(a) for a prime to p (ramified part only)."""
        if a % self.p == 0:
            raise EpsilonError(f"{a} is not a unit at {self.p}")
        if self.n == 0:
            return CycloNumber.from_rational(1)
        q = self.modulus
        phi = euler_phi(q)
        lg = discrete_log(a % q, self.generator(), q)
        return zeta(phi, self.exponent * lg)

    def value_exponent(self, a: int) -> tuple[int, int]:
        if self.n == 0:
            return 1, 0
        q = self.modulus
        phi = euler_phi(q)
        lg = discrete_log(a % q, self.generator(), q)
        return phi, self.exponent * lg % phi

    def bar(self) -> "LocalChar":
        inv_unram = None
        if self.unram_value is not None:
            inv_unram = _invert_scalar(self.unram_value)
        return LocalChar(self.p, self.n, -self.exponent if self.n else 0, inv_unram)

    def at_minus_one(self) -> CycloNumber:
        if self.n == 0:
            return CycloNumber.from_rational(1)
        return self.value(self.modulus - 1)

    def __repr__(self):
        extra = f", unram={self.unram_value}" if self.unram_value is not None else ""
        return f"LocalChar({self.p}:{self.n}:{self.exponent}{extra})"


def _invert_scalar(v):
    if hasattr(v, "inverse"):
        return v.inverse()
    return 1 / v


def local_char_table(p: int, n_max: int) -> list[LocalChar]:
    """All characters of (Z/p^n_max)^x, each at its exact conductor level."""
    out = []
    for k in range(euler_phi(p ** n_max)):
        n = n_max
        while n > 0 and _factors_through(p, n_max, k, n - 1):
            n -= 1
        if n == 0:
            out.append(LocalChar(p, 0))
        else:
            out.append(LocalChar(p, n, _restrict_exponent(p, n_max, k, n)))
    return out


def _factors_through(p: int, n_max: int, k: int, smaller_n: int) -> bool:
    """Does the exponent-k character mod p^n_max factor through (Z/p^smaller_n)^x?"""
    if smaller_n == 0:
        return k == 0
    q = p ** n_max
    phi = euler_phi(q)
    g = primitive_root(q)
    qs = p ** smaller_n
    # kernel of reduction: elements = 1 mod p^smaller_n
    for a in range(1, q, qs):
        if a % p == 0:
            continue
        lg = discrete_log(a % q, g, q)
        if k * lg % phi != 0:
            return False
    return True


def _restrict_exponent(p: int, n_max: int, k: int, n: int) -> int:
    """Exponent of the conductor-level character matching level-n_max data."""
    q, qs = p ** n_max, p ** n
    phi, phis = euler_phi(q), euler_phi(qs)
    g, gs = primitive_root(q), primitive_root(qs)
    # value on gs determines the exponent at the lower level
    lg = discrete_log(gs % q, g, q)
    val = k * lg % phi  # chi(gs) = zeta_phi^val; rewrite as zeta_phis^e
    if val * phis % phi != 0:
        raise EpsilonError("restriction is not defined (internal)")
    return val * phis // phi


def _character_sum(chi: LocalChar, t: int) -> CycloNumber:
    """sum over units u mod p^n of chi(u) zeta_{p^n}^(t*u), in Q(zeta_m), m = p^n (p-1).

    Units run over powers of the generator, so chi(g^j) = zeta_phi^(k*j);
    exponents are counted mod m and the counts go through the root-sum
    kernel once.
    """
    q = chi.modulus
    phi = euler_phi(q)
    m = lcm(phi, q)  # = p^n (p-1): the field housing both value sets
    g = chi.generator()
    counts = [0] * m
    u = 1
    for j in range(phi):
        # chi(u) zeta_q^(t*u) with u = g^j, as one exponent mod m
        counts[(chi.exponent * j * (m // phi) + t * u * (m // q)) % m] += 1
        u = u * g % q
    buf = [0] * euler_phi(m)
    _accumulate_roots(buf, m, counts)
    return CycloNumber._from_ints(m, buf)


def gauss_sum(chi: LocalChar) -> CycloNumber:
    """G(chi) = sum over units a mod p^n of chi(a) zeta_{p^n}^{-a}."""
    if chi.n < 1:
        raise EpsilonError("gauss_sum needs conductor exponent >= 1 "
                           "(use epsilon_factor for the unramified case)")
    return _character_sum(chi, -1)


def epsilon_factor(chi: LocalChar, additive: str = PSI_MINUS_X,
                   measure: str = "dx1", shift: int = 1) -> CycloNumber:
    """Tate local constant as an explicit level-n character sum.

    shift is the image of the local different generator (1 over Q_p itself);
    both convention tags are explicit arguments.  For n = 0 the constant is 1
    and unramified twists contribute value(p)^0 = 1.
    """
    if measure != "dx1":
        raise EpsilonError(f"unsupported Haar normalization {measure!r}")
    if additive not in (PSI_X, PSI_MINUS_X):
        raise EpsilonError(f"unsupported additive convention {additive!r}")
    sign = 1 if additive == PSI_X else -1
    if chi.n == 0:
        return CycloNumber.from_rational(1)
    if shift % chi.p == 0:
        raise EpsilonError("different shift must be a unit")
    total = _character_sum(chi, sign * shift)
    if chi.unram_value is not None:
        scale = chi.unram_value
        for _ in range(chi.n - 1):
            scale = scale * chi.unram_value
        total = total * scale
    return total


@dataclass
class SigmaDeltaReport:
    d_k: int
    p: int
    chi: LocalChar
    delta_residue: int
    holds: bool
    lhs: CycloNumber
    rhs: CycloNumber
    frobenius_sensitive: bool = True  # inverse-Frobenius identification used

    def as_dict(self):
        return {
            "d_K": self.d_k,
            "p": self.p,
            "chi": f"{self.chi.p}:{self.chi.n}:{self.chi.exponent}",
            "delta_mod_pn": self.delta_residue,
            "holds": self.holds,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "frobenius_sensitive": self.frobenius_sensitive,
        }


def verify_sigma_delta(chi: LocalChar, d_k: int, precision: int = 12) -> SigmaDeltaReport:
    """Check G(chi) = chi(delta) * e_p(chi) exactly in the cyclotomic field.

    delta is the canonical square root of -d_K in Z_p (p split, checked via
    the residue symbol); chi(sigma_delta) is realized as chi(delta mod p^n)
    through zeta -> zeta^delta, and the local constant is taken with the
    psi(-x) convention and different shift delta.
    """
    p = chi.p
    if d_k % p == 0:
        raise EpsilonError(f"p = {p} divides d_K = {d_k}: lemma inapplicable")
    if legendre_symbol(-d_k, p) != 1:
        raise EpsilonError(f"p = {p} is inert in Q(sqrt(-{d_k})): lemma inapplicable")
    if chi.n < 1:
        raise EpsilonError("need a ramified character")
    delta = padic_sqrt(-d_k, p, max(precision, chi.n))
    delta_res = delta.coords[0] % chi.modulus
    lhs = gauss_sum(chi)
    rhs = chi.value(delta_res) * epsilon_factor(chi, PSI_MINUS_X, "dx1", shift=delta_res)
    return SigmaDeltaReport(d_k, p, chi, delta_res, lhs == rhs, lhs, rhs)


def inductivity_split(chi_at_p: LocalChar, chi_at_pbar: LocalChar,
                      additive: str = PSI_MINUS_X) -> dict:
    """Split-prime local constant of the induced representation.

    e_p(rho) = e_p(chi) * e_pbar(chi) and f_p = f_p-part + f_pbar-part; the
    two completions are modeled by two independent local characters.
    """
    if chi_at_p.p != chi_at_pbar.p:
        raise EpsilonError("the two completions must share the residue prime")
    e1 = epsilon_factor(chi_at_p, additive)
    e2 = epsilon_factor(chi_at_pbar, additive)
    return {
        "epsilon": e1 * e2,
        "conductor_exponent": chi_at_p.n + chi_at_pbar.n,
        "factors": (e1, e2),
    }
