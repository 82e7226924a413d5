"""Multivariate rational-function engine over cyclotomic scalars.

The engine exists to replay interpolation-ratio cancellations: both sides of
an interpolation formula are assembled as products of period symbols, Euler
polynomial factors, and opaque atoms (L-series values, prime-to-p local
constants, Frobenius values), and their quotient is reduced to canonical
form.  A clean reduction is a monomial in the period symbols; any residual
polynomial factor or unresolved atom is the failure detector and is reported
verbatim.

Canonical form: a fraction with numerator and denominator kept as multisets
of primitive polynomial factors in a fixed graded-lexicographic monomial
order, leading coefficients normalized into the scalar, the relation
u * w = p^(k-1) * eps_f applied by eliminating w, and i reduced modulo
i^2 = -1.  Every `SymExpr` is in this form, and the arithmetic relies on it.
Raw input (the constructor, `poly`, sums) folds each factor through one
step, `_Fold.absorb`; so does the quotient of any exact division of a
numerator factor by a denominator factor or the reverse.  A product,
inverse or power of canonical operands (`_product`) merges the scalars and
monomials and concatenates the factor lists without refolding them: it
cancels identical factors and tries exact division only on cross pairs,
since no pair inside one canonical operand divides.  A factor-free product
is a monomial merge.  Atoms and scalars are canonical at construction: a
lone scalar, and a symbol other than w (eliminated) and i (reduced mod 4),
never enter the fold.  A rewrite step of `reduce_ratio` is one product
(`_rewrite`): the expression with the atom's monomial removed, times |e|
copies of the replacement (of its inverse when e < 0) that share one
origin, as in a power.
L-values and prime-to-p epsilon factors are opaque unit atoms with
an explicit rewrite-rule list (inductivity, imprimitivity, epsilon
splitting, the functional equation); nothing analytic is ever estimated.
Expansions of the Gamma function happen at positive integers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial

from .arith import CycloNumber, zeta
from .chargroup import FinAbGroup, GroupChar, SemidirectGroup, char_table, conductor_exponent
from .grpring import Measure, _CoeffAdapter, assemble_from_components, idempotent_split
from .reps import ArtinRep, classify_irreps, rep_invariants

__all__ = [
    "SymError",
    "DivisionGuardExceeded",
    "Relation",
    "SymExpr",
    "SYM",
    "SymCoeffs",
    "gamma_ratio",
    "RatioContext",
    "build_char_interpolation_rhs",
    "build_rep_interpolation_rhs",
    "reduce_ratio",
    "reduce_rep_ratio",
    "expected_period_ratio",
    "build_period_correction",
    "period_correction_inverse",
    "TwistUnitData",
    "ThetaRecord",
    "build_twist_unit",
    "twist_unit_evaluation",
]


class SymError(ValueError):
    pass


class DivisionGuardExceeded(SymError):
    """Exact polynomial division gave up after its step guard: divisibility
    is undecided, which is neither a quotient nor a residual factor."""


# base symbols
OM_PLUS = "Om+"
OM_MINUS = "Om-"
OM_INF = "Ominf"
OM_P = "Omp"
TWO_PI = "2pi"
I_UNIT = "i"
U = "u"
W = "w"
P = "p"
EPS_F = "eps_f"


@dataclass(frozen=True)
class Relation:
    """u * w = p^(k-1) * eps_f(p); weight 2 with trivial nebentypus by default."""

    k: int = 2
    trivial_nebentypus: bool = True


Mono = tuple[tuple[str, int], ...]  # sorted, nonzero exponents


def _mono_from_dict(d: dict) -> Mono:
    if 0 in d.values():
        return tuple(sorted((s, e) for s, e in d.items() if e))
    return tuple(sorted(d.items()))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for s, e in b:
        d[s] = d.get(s, 0) + e
    return _mono_from_dict(d)


def _mono_pow(a: Mono, n: int) -> Mono:
    return _mono_from_dict({s: e * n for s, e in a})


def _mono_key(m: Mono):
    return (sum(e for _, e in m), m)


Poly = tuple[tuple[Mono, CycloNumber], ...]  # sorted descending by _mono_key


def _poly_from_dict(d: dict) -> Poly:
    items = [(m, c) for m, c in d.items() if not c.is_zero()]
    items.sort(key=lambda t: _mono_key(t[0]), reverse=True)
    return tuple(items)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: dict = {}
    for ma, ca in a:
        for mb, cb in b:
            m = _mono_mul(ma, mb)
            c = ca * cb
            out[m] = out[m] + c if m in out else c
    return _poly_from_dict(out)


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b:
        out[m] = out[m] + c if m in out else c
    return _poly_from_dict(out)


def _poly_scale(a: Poly, s: CycloNumber) -> Poly:
    return _poly_from_dict({m: c * s for m, c in a})


def _mono_divides(a: Mono, b: Mono) -> bool:
    db = dict(b)
    return all(db.get(s, 0) >= e for s, e in a)


def _mono_div(b: Mono, a: Mono) -> Mono:
    d = dict(b)
    for s, e in a:
        d[s] = d.get(s, 0) - e
    return _mono_from_dict(d)


_DIVISION_STEPS = 4096


def _poly_divide_exact(num: Poly, den: Poly) -> Poly | None:
    """Multivariate long division: the quotient if the remainder vanishes,
    None if it provably does not.  Raises DivisionGuardExceeded after
    _DIVISION_STEPS steps, when divisibility is still undecided."""
    if not den:
        raise SymError("division by the zero polynomial")
    rem = dict(num)
    quot: dict = {}
    lead_m, lead_c = den[0]
    guard = 0
    while rem:
        guard += 1
        if guard > _DIVISION_STEPS:
            raise DivisionGuardExceeded(
                f"exact division undecided after {_DIVISION_STEPS} steps "
                f"({len(num)}-term dividend, {len(den)}-term divisor)")
        m = max(rem, key=_mono_key)
        c = rem[m]
        if not _mono_divides(lead_m, m):
            return None
        qm = _mono_div(m, lead_m)
        qc = c / lead_c
        quot[qm] = quot.get(qm, CycloNumber.from_rational(0)) + qc
        for dm, dc in den:
            t = _mono_mul(qm, dm)
            nc = rem.get(t, CycloNumber.from_rational(0)) - qc * dc
            if nc.is_zero():
                rem.pop(t, None)
            else:
                rem[t] = nc
    return _poly_from_dict(quot)


class SymExpr:
    """Canonical factored fraction; immutable."""

    __slots__ = ("rel", "scalar", "mono", "num", "den")

    def __init__(self, rel: Relation, scalar, mono=None, num=(), den=()):
        if not isinstance(scalar, CycloNumber):
            scalar = CycloNumber.from_rational(scalar)
        self.rel = rel
        if not mono and not num and not den:
            # a lone scalar is canonical as it stands
            self.scalar, self.mono, self.num, self.den = \
                _ZERO_FORM if scalar.is_zero() else (scalar, (), (), ())
            return
        mono = mono or ()
        if isinstance(mono, dict):
            mono = _mono_from_dict(mono)
        self.scalar, self.mono, self.num, self.den = _normalize(rel, scalar, mono,
                                                                list(num), list(den))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def sym(name: str, power: int = 1, rel: Relation = Relation()) -> "SymExpr":
        """name^power; only w (eliminated) and i (reduced mod 4) need the fold."""
        if name == W or name == I_UNIT:
            return SymExpr(rel, 1, {name: power})
        return _canonical(rel, _ONE, ((name, power),) if power else (), (), ())

    @staticmethod
    def poly(terms: dict, rel: Relation = Relation()) -> "SymExpr":
        """terms: mono-dict -> scalar; a single polynomial factor."""
        p = _poly_from_dict({
            _mono_from_dict(dict(m)): (c if isinstance(c, CycloNumber)
                                       else CycloNumber.from_rational(c))
            for m, c in terms.items()})
        return SymExpr(rel, 1, (), [p], ())

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    def is_monomial(self) -> bool:
        return not self.num and not self.den and not self.is_zero()

    def atoms(self) -> list[tuple[str, int]]:
        return [(s, e) for s, e in self.mono if s.startswith("@")]

    # -- arithmetic ------------------------------------------------------------

    def _chk(self, other: "SymExpr"):
        # relations are few and shared: identity settles almost every call
        if self.rel is not other.rel and self.rel != other.rel:
            raise SymError(f"relation mismatch: {self.rel} vs {other.rel}")

    def __mul__(self, other):
        if not isinstance(other, SymExpr):
            other = SymExpr(self.rel, other)
        self._chk(other)
        md = dict(self.mono)
        for s, e in other.mono:
            md[s] = md.get(s, 0) + e
        return _product(self.rel, self.scalar * other.scalar, md,
                        ((0, self.num, self.den), (1, other.num, other.den)))

    __rmul__ = __mul__

    def inverse(self) -> "SymExpr":
        if self.is_zero():
            raise SymError("division by zero expression")
        return _product(self.rel, self.scalar.inverse(), {s: -e for s, e in self.mono},
                        ((0, self.den, self.num),))

    def __truediv__(self, other):
        if not isinstance(other, SymExpr):
            other = SymExpr(self.rel, other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return SymExpr(self.rel, other) / self

    def __pow__(self, n: int):
        """The |n|-fold product of self (of its inverse when n < 0), built in
        one step: the n copies share one origin, so no pair is tried."""
        if n == 0:
            return SymExpr(self.rel, 1)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        return _product(self.rel, base.scalar ** n, {s: e * n for s, e in base.mono},
                        ((0, base.num, base.den),) * n)

    def __neg__(self):
        return _canonical(self.rel, -self.scalar, self.mono, self.num, self.den)

    def _as_poly_pair(self) -> tuple[Poly, list[Poly]]:
        """(expanded numerator polynomial, denominator factor list)."""
        pos = {s: e for s, e in self.mono if e > 0}
        neg = {s: -e for s, e in self.mono if e < 0}
        npoly: Poly = ((_mono_from_dict(pos), self.scalar),)
        for p in self.num:
            npoly = _poly_mul(npoly, p)
        dens = list(self.den)
        if neg:
            dens.append(((_mono_from_dict(neg), CycloNumber.from_rational(1)),))
        return npoly, dens

    def __add__(self, other):
        if not isinstance(other, SymExpr):
            other = SymExpr(self.rel, other)
        self._chk(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1 = self._as_poly_pair()
        n2, d2 = other._as_poly_pair()
        left = n1
        for p in d2:
            left = _poly_mul(left, p)
        right = n2
        for p in d1:
            right = _poly_mul(right, p)
        total = _poly_add(left, right)
        if not total:
            return SymExpr(self.rel, 0)
        return SymExpr(self.rel, 1, (), [total], d1 + d2)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, SymExpr):
            other = SymExpr(self.rel, other)
        return self + (-other)

    def __rsub__(self, other):
        return SymExpr(self.rel, other) - self

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SymExpr):
            if not isinstance(other, (int, Fraction, CycloNumber)):
                return NotImplemented
            other = SymExpr(self.rel, other)
        if self.rel != other.rel:
            return False
        if (self.scalar, self.mono) == (other.scalar, other.mono) and \
                self.num == other.num and self.den == other.den:
            return True
        diff = self - other
        return diff.is_zero()

    def __hash__(self):
        raise TypeError("symbolic expressions are not hashable")

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.scalar != 1 or (not self.mono and not self.num):
            parts.append(_render_cyclo(self.scalar))
        for s, e in self.mono:
            parts.append(s if e == 1 else f"{s}^{e}")
        for p in self.num:
            parts.append("(" + _render_poly(p) + ")")
        text = " * ".join(parts) if parts else "1"
        if self.den:
            text += " / [" + " * ".join("(" + _render_poly(p) + ")" for p in self.den) + "]"
        return text

    def __repr__(self):
        return f"SymExpr({self.render()})"


def _canonical(rel: Relation, scalar: CycloNumber, mono: Mono,
               num: tuple, den: tuple) -> SymExpr:
    """The SymExpr of parts that are already in canonical form."""
    x = object.__new__(SymExpr)
    x.rel, x.scalar, x.mono, x.num, x.den = rel, scalar, mono, num, den
    return x


def _render_cyclo(c: CycloNumber) -> str:
    if c.is_rational():
        return str(c.rational_value())
    return repr(c)


def _render_poly(p: Poly) -> str:
    terms = []
    for m, c in p:
        bits = [f"{s}^{e}" if e != 1 else s for s, e in m]
        cs = _render_cyclo(c)
        if bits:
            terms.append((cs + "*" if cs != "1" else "") + "*".join(bits))
        else:
            terms.append(cs)
    return " + ".join(terms) if terms else "0"


def _reduce_term(rel: Relation, d: dict, coeff: CycloNumber) -> tuple[Mono, CycloNumber]:
    """(mono, coeff) of one term with w eliminated and i reduced; consumes d."""
    if W in d:
        e = d.pop(W)
        # w = p^(k-1) eps_f / u
        d[P] = d.get(P, 0) + (rel.k - 1) * e
        if not rel.trivial_nebentypus:
            d[EPS_F] = d.get(EPS_F, 0) + e
        d[U] = d.get(U, 0) - e
    if I_UNIT in d:
        e = d.pop(I_UNIT) % 4
        if e >= 2:
            coeff = -coeff
            e -= 2
        if e:
            d[I_UNIT] = e
    return _mono_from_dict(d), coeff


def _canon(rel: Relation, poly: Poly) -> tuple[Mono, Poly] | None:
    """(shift, poly): the factor with the relation applied to every term and
    its negative exponents cleared, so that the original factor is
    shift * poly with shift a monomial of exponents <= 0; None for zero."""
    fixed: dict = {}
    for m, c in poly:
        key, c2 = _reduce_term(rel, dict(m), c)
        fixed[key] = fixed[key] + c2 if key in fixed else c2
    fixed = {m: c for m, c in fixed.items() if not c.is_zero()}
    if not fixed:
        return None
    mins: dict = {}
    for m in fixed:
        for s, e in m:
            if e < 0:
                mins[s] = min(mins.get(s, 0), e)
    shift = _mono_from_dict(mins)
    if shift:
        lift = _mono_pow(shift, -1)
        fixed = {_mono_mul(m, lift): c for m, c in fixed.items()}
    return shift, _poly_from_dict(fixed)


_ZERO_FORM = (CycloNumber.from_rational(0), (), (), ())
_ONE = CycloNumber.from_rational(1)


class _Fold:
    """A canonical form under construction: the scalar, the monomial
    exponents, and per side the monic factors, each tagged by its origin.
    Two factors with the same origin that is not None came from one
    canonical operand (or from copies of it, in a power) and so never divide
    one another; None marks a factor from raw input or from a division,
    which is tried against every factor."""

    __slots__ = ("rel", "scalar", "md", "sides", "origins")

    def __init__(self, rel: Relation, scalar: CycloNumber, md: dict):
        self.rel = rel
        self.scalar = scalar
        self.md = md
        self.sides: dict[int, list[Poly]] = {1: [], -1: []}
        self.origins: dict[int, list] = {1: [], -1: []}

    def add(self, poly: Poly, sign: int, origin) -> None:
        """Append a factor that is already canonical (monic, relation applied,
        no negative exponents, more than one term) to a side."""
        self.sides[sign].append(poly)
        self.origins[sign].append(origin)

    def absorb(self, poly: Poly, sign: int) -> bool:
        """Fold one raw factor into the numerator (sign 1) or the denominator
        (sign -1); False if it is the zero polynomial in a numerator."""
        res = _canon(self.rel, poly)
        if res is None:
            if sign == -1:
                raise SymError("zero polynomial in a denominator")
            return False
        shift, poly = res
        # a one-term factor joins the monomial part; a longer one is made monic
        m, c = poly[0]
        if len(poly) == 1:
            shift = _mono_mul(shift, m)
        else:
            self.add(poly if c == 1 else _poly_scale(poly, c.inverse()), sign, None)
        md = self.md
        for s, e in shift:
            md[s] = md.get(s, 0) + sign * e
        if len(poly) == 1 or not (c == 1):
            self.scalar = self.scalar * c if sign == 1 else self.scalar * c.inverse()
        return True

    def settle(self):
        """Cancel identical factors, then replace each numerator/denominator
        pair that divides exactly either way by its folded quotient until no
        pair divides; pairs of one origin are skipped, every other pair is
        visited in the order of a fold over all pairs."""
        num, den = self.sides[1], self.sides[-1]
        num_origin, den_origin = self.origins[1], self.origins[-1]
        i = 0
        while i < len(num):
            p = num[i]
            if p in den:
                j = den.index(p)
                del den[j], den_origin[j], num[i], num_origin[i]
                continue
            i += 1
        changed = True
        while changed and num and den:
            changed = False
            for (i, n), (j, d) in product(enumerate(num), enumerate(den)):
                if num_origin[i] is not None and num_origin[i] == den_origin[j]:
                    continue
                for a, b, sign in ((n, d, 1), (d, n, -1)):
                    q = _poly_divide_exact(a, b)
                    if q is not None:
                        break
                else:
                    continue
                del num[i], num_origin[i], den[j], den_origin[j]
                if not self.absorb(q, sign):
                    return _ZERO_FORM
                changed = True
                break
        for side in (num, den):
            if len(side) > 1:
                side.sort(key=_render_poly)
        mono, scalar = _reduce_term(self.rel, self.md, self.scalar)
        return scalar, mono, tuple(num), tuple(den)


def _normalize(rel: Relation, scalar: CycloNumber, mono: Mono,
               num: list, den: list):
    """The canonical form (scalar, mono, num, den) of
    scalar * mono * prod(num) / prod(den), for raw input.

    Every input factor passes through `_Fold.absorb`: canonicalise it, move
    its monomial content and leading coefficient into the monomial part and
    scalar, and keep what is left as a factor of its side.  `_Fold.settle`
    then cancels identical factors and divides out every pair that divides.
    Products of canonical operands skip this fold (`_product`): their
    factors are canonical already and only cross pairs can divide."""
    if scalar.is_zero():
        return _ZERO_FORM
    if not num and not den:
        mono, scalar = _reduce_term(rel, dict(mono), scalar)
        return scalar, mono, (), ()
    fold = _Fold(rel, scalar, dict(mono))
    for side, sign in ((num, 1), (den, -1)):
        for p in side:
            if not fold.absorb(p, sign):
                return _ZERO_FORM
    return fold.settle()


def _product(rel: Relation, scalar: CycloNumber, md: dict, operands) -> "SymExpr":
    """scalar * md * prod(num) / prod(den) over the (origin, num, den) factor
    lists of canonical operands, where md holds the sum of their canonical
    monomials.  The fold of all the factors would re-canonicalise each one
    to itself; so the factors are added as they are, and the settle step
    tries only pairs of different origin."""
    if scalar.is_zero():
        return _canonical(rel, *_ZERO_FORM)
    fold = None
    for origin, num, den in operands:
        for side, sign in ((num, 1), (den, -1)):
            if side and fold is None:
                fold = _Fold(rel, scalar, md)
            for p in side:
                fold.add(p, sign, origin)
    if fold is None:
        mono, scalar = _reduce_term(rel, md, scalar)
        return _canonical(rel, scalar, mono, (), ())
    return _canonical(rel, *fold.settle())


# ---------------------------------------------------------------------------
# coefficient-ring adapter so measures can carry symbolic coefficients
# ---------------------------------------------------------------------------

class SymCoeffs(_CoeffAdapter):
    name = "symbolic"

    def __init__(self, rel: Relation = Relation()):
        self.rel = rel

    def zero(self):
        return SymExpr(self.rel, 0)

    def one(self):
        return SymExpr(self.rel, 1)

    def from_int(self, n):
        return SymExpr(self.rel, n)

    def from_fraction(self, q):
        return SymExpr(self.rel, q)

    def from_cyclo(self, c):
        return SymExpr(self.rel, c)

    def is_zero(self, x):
        return x.is_zero()

    def inv(self, x):
        return x.inverse()

    def mul_by_root(self, x, m, k):
        return x * SymExpr(self.rel, zeta(m, k))


SYM = SymCoeffs()


# ---------------------------------------------------------------------------
# Gamma bookkeeping
# ---------------------------------------------------------------------------

def gamma_ratio(k: int, j: int, rel: Relation | None = None) -> SymExpr:
    """Gamma_psi(1-j) / Gamma_psibar(k-1+j) in canonical form.

    Computed two ways and compared: from the definition
    Gamma_phi(s) = Gamma(s - min(type)) / (2pi)^(s - min(type)) for the types
    (k-1, 0) and (0, k-1), and from the displayed closed form
    Gamma(1-j)/Gamma(k-1+j) * (2pi)^(k-2+2j).  Gamma is expanded at positive
    integers only; a pole argument raises.
    """
    rel = rel or Relation(k=k)
    if 1 - j <= 0 or k - 1 + j <= 0:
        raise SymError(f"Gamma pole at (k={k}, j={j}); expansion refused")
    # definition path: types (k-1,0) and (0,k-1) both have min = 0
    via_definition = (
        SymExpr(rel, Fraction(factorial(-j)))
        / SymExpr(rel, Fraction(factorial(k - 2 + j)))
        * SymExpr.sym(TWO_PI, -(1 - j), rel) / SymExpr.sym(TWO_PI, -(k - 1 + j), rel)
    )
    closed_form = (
        SymExpr(rel, Fraction(factorial(-j), factorial(k - 2 + j)))
        * SymExpr.sym(TWO_PI, k - 2 + 2 * j, rel)
    )
    if not (via_definition == closed_form):
        raise SymError("gamma bookkeeping mismatch (internal)")
    return closed_form


# ---------------------------------------------------------------------------
# ratio context: one tower level, one weight
# ---------------------------------------------------------------------------

@dataclass
class RatioContext:
    """Concrete finite level (group, characters, conductors) plus weight data."""

    sg: SemidirectGroup
    k: int = 2
    trivial_nebentypus: bool = True

    def __post_init__(self):
        if self.k == 2 and not self.trivial_nebentypus:
            raise SymError("weight 2 runs use a trivial nebentypus here")
        self.rel = Relation(self.k, self.trivial_nebentypus)
        self.chars = char_table(self.sg.base)
        self.index = {chi.exponents: i for i, chi in enumerate(self.chars)}
        self.reps = classify_irreps(self.sg)
        self.registry: dict[str, tuple] = {}

    # -- char bookkeeping --------------------------------------------------

    def idx_of(self, chi: GroupChar) -> int:
        return self.index[chi.exponents]

    def conj_idx(self, idx: int) -> int:
        return self.idx_of(self.sg.conjugate_char(self.chars[idx]))

    def inv_idx(self, idx: int) -> int:
        return self.idx_of(self.chars[idx].inverse())

    def f_place(self, idx: int, place: str) -> int:
        label = "pbar" if place in ("pb", "pbar") else "p"
        return conductor_exponent(self.chars[idx], label)

    @cached_property
    def _rep_lookup(self) -> dict[tuple, int]:
        return {r.key: i for i, r in enumerate(self.reps)}

    def rep_index(self, rho: ArtinRep) -> int:
        i = self._rep_lookup.get(rho.key)
        if i is None or rho.ambient.base != self.sg.base:
            raise SymError("representation is not in the classified list")
        return i

    # -- atom constructors (conjugation-normalized) ---------------------------

    def _norm_place_char(self, place: str, idx: int) -> tuple[str, int]:
        ci = self.conj_idx(idx)
        if ci == idx:
            return "p", idx
        if ci < idx:
            return ("pb" if place == "p" else "p"), ci
        return place, idx

    def eps_atom(self, place: str, idx: int) -> SymExpr:
        place, idx = self._norm_place_char(place, idx)
        name = f"@e[{place}](c{idx})"
        self.registry[name] = ("eps-terminal", place, idx)
        return SymExpr.sym(name, 1, self.rel)

    def fr_symbol(self, place: str, idx: int) -> str | None:
        """Frobenius-value symbol; None means the concrete value 1 (trivial chi)."""
        if self.chars[idx].is_trivial():
            return None
        place, idx = self._norm_place_char(place, idx)
        name = f"@fr[{place}](c{idx})"
        self.registry[name] = ("fr-terminal", place, idx)
        return name

    def euler_factor(self, place: str, idx: int, arg: dict, psi_side: str = "") -> SymExpr:
        """P_place(psi-part * chi_idx, arg) as a polynomial factor (1 if ramified).

        psi_side in {"", "psibar", "psi"}: the unramified weight character whose
        Frobenius value enters through u, w, p, eps_f.
        """
        if self.f_place(idx, place) > 0:
            return SymExpr(self.rel, 1)
        frob: dict = dict(arg)
        if psi_side == "psi":
            # F_p(psi) = w, F_pbar(psi) = u
            frob[W if place == "p" else U] = frob.get(W if place == "p" else U, 0) + 1
        elif psi_side == "psibar":
            # F_p(psibar) = p^(k-1)/w, F_pbar(psibar) = p^(k-1)/u
            frob[P] = frob.get(P, 0) + (self.k - 1)
            t = W if place == "p" else U
            frob[t] = frob.get(t, 0) - 1
        fsym = self.fr_symbol(place, idx)
        if fsym is not None:
            frob[fsym] = frob.get(fsym, 0) + 1
        return SymExpr.poly({(): 1, tuple(sorted(frob.items())): -1}, self.rel)

    def L_atom(self, side: str, idx: int, s_tag: str, imprimitive: bool) -> SymExpr:
        tag = "Lpp" if imprimitive else "L"
        name = f"@{tag}[{side}*c{idx};s={s_tag}]"
        self.registry[name] = ("L-primitive" if not imprimitive else "L-terminal",
                               side, idx, s_tag)
        return SymExpr.sym(name, 1, self.rel)

    def rep_atom(self, kind: str, rep_idx: int, extra: str = "") -> SymExpr:
        name = f"@{kind}[r{rep_idx}{(';' + extra) if extra else ''}]"
        self.registry[name] = (kind, rep_idx, extra)
        return SymExpr.sym(name, 1, self.rel)


# ---------------------------------------------------------------------------
# measure-side templates (one evaluation character)
# ---------------------------------------------------------------------------

VARIANTS = ("elliptic-p", "elliptic-pbar", "weightk-1", "weightk-2")


def build_char_interpolation_rhs(ctx: RatioContext, eval_idx: int, variant: str,
                                 j: int = 0) -> SymExpr:
    """Formal right-hand side of the selected interpolation formula, as a
    function of the evaluation character (by stable index).

    elliptic-p / elliptic-pbar: the two weight-2 variants, differing in the
    place of the epsilon term and conductor exponent (evaluation at xi reads
    off L(psibar * xi^-1, 1)).  weightk-1 / weightk-2: the weight-k
    variants at twist j (the evaluation character is chi in the displayed
    formulas, with L at psibar*chi resp. psi*chi^-1).
    """
    if variant not in VARIANTS:
        raise SymError(f"unknown variant {variant!r}")
    rel = ctx.rel
    if variant.startswith("elliptic"):
        if ctx.k != 2 or j != 0:
            raise SymError("elliptic variants need k = 2, j = 0")
        xi = eval_idx
        xibar = ctx.inv_idx(xi)
        place = "p" if variant == "elliptic-p" else "pb"
        fexp = ctx.f_place(xi, "p" if place == "p" else "pbar")
        expr = ctx.L_atom("psibar", xibar, "1", imprimitive=False)
        expr = expr * SymExpr.sym(OM_INF, -1, rel)
        expr = expr * ctx.eps_atom(place, xi)
        expr = expr * ctx.euler_factor("p", xi, {U: -1})
        expr = expr * ctx.euler_factor("pb", xibar, {U: -1})
        expr = expr * SymExpr.sym(U, -fexp, rel)
        return expr
    if not (0 <= -j and 0 < ctx.k - 1 + j):
        raise SymError(f"(k={ctx.k}, j={j}) outside the admissible range")
    chi = eval_idx
    chibar = ctx.inv_idx(chi)
    k = ctx.k
    gamma_scalar = SymExpr(rel, Fraction(factorial(k - 2 + j)))
    common = (
        gamma_scalar
        * SymExpr.sym(I_UNIT, j, rel)
        * SymExpr.sym(TWO_PI, -j, rel)
        * SymExpr.sym(OM_INF, -(k - 1), rel)
        * ctx.euler_factor("p", chibar, {W: 1, P: j - 1})
        * ctx.euler_factor("pb", chi, {U: -1, P: -j})
    )
    f_p_bar = ctx.f_place(chibar, "p")
    f_pb_bar = ctx.f_place(chibar, "pbar")
    if variant == "weightk-1":
        return (
            common
            * ctx.L_atom("psibar", chi, f"{k - 1 + j}", imprimitive=False)
            * ctx.eps_atom("p", chibar)
            * SymExpr(rel, 1, {W: f_p_bar, P: -f_p_bar + j * f_p_bar})
        )
    return (
        common
        * ctx.L_atom("psi", chibar, f"{1 - j}", imprimitive=False)
        * ctx.eps_atom("pb", chi)
        * SymExpr(rel, 1, {U: -f_pb_bar, P: -j * f_p_bar})
        * gamma_ratio(k, j, rel)
    )


# ---------------------------------------------------------------------------
# representation-side targets
# ---------------------------------------------------------------------------

def build_rep_interpolation_rhs(ctx: RatioContext, rho: ArtinRep,
                                variant: str = "elliptic", j: int = 0) -> SymExpr:
    """Formal right-hand side of the interpolation formula at a representation.

    'elliptic': the weight-2 formula
      L_R(E, rho, 1) / (Om+^{d+} Om-^{d-}) e_p(rho-dual) P_p(rho-dual, u^-1)
      / P_p(rho, w^-1) u^{-f_p(rho-dual)}   (R = {p} for these curves).
    'weightk-1' / 'weightk-2': the two weight-k targets at twist j.
    The composite rho-level atoms expand under reduce_ratio's rewrite rules.
    """
    rel = ctx.rel
    inv = rep_invariants(rho)
    ridx = ctx.rep_index(rho)
    d = rho.dimension
    f_p_dual = _f_p_of_dual(ctx, rho)
    periods = SymExpr.sym(OM_PLUS, -inv.d_plus, rel) * SymExpr.sym(OM_MINUS, -inv.d_minus, rel)
    if variant == "elliptic":
        if ctx.k != 2 or j != 0:
            raise SymError("elliptic target needs k = 2, j = 0")
        return (
            ctx.rep_atom("LR", ridx)
            * periods
            * ctx.rep_atom("eP", ridx, "bar")
            * ctx.rep_atom("PP", ridx, "bar;u^-1")
            / ctx.rep_atom("PP", ridx, "w^-1")
            * SymExpr.sym(U, -f_p_dual, rel)
        )
    if not (0 <= -j and 0 < ctx.k - 1 + j):
        raise SymError(f"(k={ctx.k}, j={j}) outside the admissible range")
    k = ctx.k
    if variant == "weightk-1":
        return (
            SymExpr(rel, Fraction(factorial(k - 2 + j)) ** d)
            * SymExpr.sym(I_UNIT, d * j, rel)
            * ctx.rep_atom("LppSeries", ridx, f"psibar;{k - 1 + j}")
            * SymExpr.sym(TWO_PI, -d * (k - 2 + j), rel)
            * periods
            * ctx.rep_atom("eP", ridx, "bar")
            * ctx.rep_atom("PP", ridx, f"bar;w^1*p^{j - 1}")
            / ctx.rep_atom("PP", ridx, f"w^-1*p^{-j}")
            * SymExpr(rel, 1, {W: f_p_dual, P: (j - 1) * f_p_dual})
        )
    if variant == "weightk-2":
        return (
            SymExpr(rel, Fraction(factorial(-j)) ** d)
            * SymExpr.sym(I_UNIT, d * j, rel)
            * ctx.rep_atom("LppSeries", ridx, f"psi;{1 - j}")
            * SymExpr.sym(TWO_PI, d * j, rel)
            * periods
            * ctx.rep_atom("eP", ridx, "")
            * ctx.rep_atom("PP", ridx, f"u^-1*p^{-j}")
            / ctx.rep_atom("PP", ridx, f"bar;u^1*p^{j - 1}")
            * SymExpr(rel, 1, {U: -f_p_dual, P: -j * f_p_dual})
        )
    raise SymError(f"unknown target variant {variant!r}")


def _f_p_of_dual(ctx: RatioContext, rho: ArtinRep) -> int:
    dual = rho.contragredient()
    if rho.kind == "induced":
        return (conductor_exponent(dual.chi, "p") + conductor_exponent(dual.chi, "pbar"))
    return conductor_exponent(dual.chi, "pbar")


def _period_units(ctx: RatioContext) -> tuple[SymExpr, SymExpr]:
    """The weight-k period-change units a = (2pi)^(k-2) Om+ / Ominf^(k-1) and
    b = (2pi)^(k-2) Om- / Ominf^(k-1)."""
    k = ctx.k
    return tuple(SymExpr(ctx.rel, 1, {TWO_PI: k - 2, om: 1, OM_INF: -(k - 1)})
                 for om in (OM_PLUS, OM_MINUS))


def expected_period_ratio(ctx: RatioContext, rho: ArtinRep) -> SymExpr:
    """The value the measure/target ratio must reduce to: the evaluation of
    the period-correction unit at the contragredient representation."""
    a, b = _period_units(ctx)
    if rho.kind == "induced":
        return a * b
    return a if rho.sign == 1 else b


# ---------------------------------------------------------------------------
# rewrite rules and the reduction loop
# ---------------------------------------------------------------------------

def _arg_from_tag(tag: str) -> dict:
    """'u^-1*p^-2' -> {'u': -1, 'p': -2} ('' -> {})."""
    out: dict = {}
    if not tag:
        return out
    for part in tag.split("*"):
        sym, _, e = part.partition("^")
        out[sym] = out.get(sym, 0) + (int(e) if e else 1)
    return out


def _restriction_indices(ctx: RatioContext, rep_idx: int, bar: bool) -> list[int]:
    rho = ctx.reps[rep_idx]
    target = rho.contragredient() if bar else rho
    return [ctx.idx_of(c) for c in target.restriction()]


def _expand_atom(ctx: RatioContext, name: str) -> tuple[str, SymExpr] | None:
    """(rule name, replacement) for one composite atom, or None if terminal."""
    entry = ctx.registry.get(name)
    if entry is None:
        raise SymError(f"unregistered atom {name!r}")
    kind = entry[0]
    rel = ctx.rel
    if kind in ("eps-terminal", "fr-terminal", "L-terminal", "epsQ-terminal"):
        return None
    if kind == "LR":
        # L with the Euler factor at p removed = full L times that factor
        _, ridx, _ = entry
        repl = ctx.rep_atom("Lfull", ridx, "1") * ctx.rep_atom("PEuler", ridx, "1")
        return ("imprimitive-L-series", repl)
    if kind == "Lfull":
        _, ridx, s_tag = entry
        repl = SymExpr(rel, 1)
        for cidx in _restriction_indices(ctx, ridx, bar=False):
            repl = repl * ctx.L_atom("psibar", cidx, s_tag, imprimitive=False)
        return ("induction", repl)
    if kind == "LppSeries":
        _, ridx, extra = entry
        side, s_tag = extra.split(";")
        bar = side == "psi"  # the psi-side target is the dual motive at rho-dual
        repl = SymExpr(rel, 1)
        for cidx in _restriction_indices(ctx, ridx, bar=bar):
            repl = repl * ctx.L_atom(side, cidx, s_tag, imprimitive=True)
        return ("induction", repl)
    if kind == "PEuler":
        _, ridx, s_tag = entry
        s = int(s_tag)
        repl = SymExpr(rel, 1)
        for cidx in _restriction_indices(ctx, ridx, bar=False):
            for place in ("p", "pb"):
                repl = repl * ctx.euler_factor(place, cidx, {P: -s}, psi_side="psibar")
        return ("euler-factor-split", repl)
    if kind == "L-primitive":
        _, side, cidx, s_tag = entry
        s = int(s_tag)
        repl = ctx.L_atom(side, cidx, s_tag, imprimitive=True)
        for place in ("p", "pb"):
            repl = repl / ctx.euler_factor(place, cidx, {P: -s}, psi_side=side)
        return ("imprimitive-expand", repl)
    if kind == "eP":
        _, ridx, extra = entry
        bar = extra == "bar"
        rho = ctx.reps[ridx]
        chars = _restriction_indices(ctx, ridx, bar)
        if rho.kind == "induced":
            cidx = chars[0]
            repl = ctx.eps_atom("p", cidx) * ctx.eps_atom("pb", cidx)
        else:
            repl = ctx.eps_atom("pb", chars[0])
        return ("epsilon-split", repl)
    if kind == "PP":
        _, ridx, extra = entry
        if extra.startswith("bar;"):
            bar, arg_tag = True, extra[4:]
        else:
            bar, arg_tag = False, extra
        arg = _arg_from_tag(arg_tag)
        rho = ctx.reps[ridx]
        chars = _restriction_indices(ctx, ridx, bar)
        if rho.kind == "induced":
            cidx = chars[0]
            repl = ctx.euler_factor("p", cidx, arg) * ctx.euler_factor("pb", cidx, arg)
        else:
            repl = ctx.euler_factor("p", chars[0], arg)
        return ("euler-split", repl)
    raise SymError(f"no expansion rule for atom kind {kind!r}")


def _rewrite(expr: SymExpr, name: str, e: int, repl: SymExpr) -> SymExpr:
    """expr with its atom name^e replaced by repl^e, as one product: the
    |e| copies of repl (of its inverse when e < 0) share one origin, as in
    a power, and only their pairs with expr's factors are tried."""
    expr._chk(repl)
    base = repl if e > 0 else repl.inverse()
    n = abs(e)
    md = dict(expr.mono)
    del md[name]
    for s, x in base.mono:
        md[s] = md.get(s, 0) + n * x
    return _product(expr.rel, expr.scalar * base.scalar ** n, md,
                    ((0, expr.num, expr.den),) + ((1, base.num, base.den),) * n)


def reduce_ratio(ctx: RatioContext, numerator: SymExpr, denominator: SymExpr,
                 j: int = 0, want_trace: bool = False):
    """Reduce numerator/denominator by the rewrite rules to canonical form.

    Returns (expression, trace); the trace lists each rule application with
    the expression before and after.  A fully cancelled result is a monomial;
    anything else (leftover polynomial factors, unresolved atoms) is the
    caller's failure witness.
    """
    expr = numerator / denominator
    trace: list[dict] = []
    guard = 0
    while True:
        guard += 1
        if guard > 500:
            raise SymError("rewrite loop did not terminate")
        progress = False
        for name, e in expr.atoms():
            expansion = _expand_atom(ctx, name)
            if expansion is None:
                continue
            rule, repl = expansion
            before = expr.render() if want_trace else None
            expr = _rewrite(expr, name, e, repl)
            if want_trace:
                trace.append({
                    "rule": rule,
                    "atom": name,
                    "exponent": e,
                    "replacement": repl.render(),
                    "before": before,
                    "after": expr.render(),
                })
            progress = True
            break
        if not progress:
            break
    return expr, trace


def reduce_rep_ratio(ctx: RatioContext, rho: ArtinRep, variant: str = "elliptic",
                     j: int = 0, want_trace: bool = False):
    """reduce_ratio of the character-side formulas, multiplied over the
    restriction of rho, by the target at rho.  The elliptic target pairs with
    the elliptic-pbar formula over the restriction of the contragredient;
    the weight-k targets pair with their own variant over rho's restriction."""
    if variant == "elliptic":
        source, char_variant = rho.contragredient(), "elliptic-pbar"
    else:
        source, char_variant = rho, variant
    num = SymExpr(ctx.rel, 1)
    for chix in source.restriction():
        num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix), char_variant, j)
    den = build_rep_interpolation_rhs(ctx, rho, variant, j)
    return reduce_ratio(ctx, num, den, j, want_trace)


# ---------------------------------------------------------------------------
# period-correction unit
# ---------------------------------------------------------------------------

def build_period_correction(ctx: RatioContext) -> Measure:
    """a (1+c)/2 + b (1-c)/2 with a, b the weight-k period-change units."""
    rel = ctx.rel
    ring = SymCoeffs(rel)
    a, b = _period_units(ctx)
    half = SymExpr(rel, Fraction(1, 2))
    e = (ctx.sg.base.identity(), 0)
    c = (ctx.sg.base.identity(), 1)
    return Measure(ctx.sg, ring, {e: (a + b) * half, c: (a - b) * half})


def period_correction_inverse(ctx: RatioContext) -> Measure:
    """The explicit inverse a^-1 (1+c)/2 + b^-1 (1-c)/2."""
    a, b = _period_units(ctx)
    half = SymExpr(ctx.rel, Fraction(1, 2))
    e = (ctx.sg.base.identity(), 0)
    c = (ctx.sg.base.identity(), 1)
    return Measure(ctx.sg, SymCoeffs(ctx.rel), {e: (a.inverse() + b.inverse()) * half,
                                                c: (a.inverse() - b.inverse()) * half})


# ---------------------------------------------------------------------------
# prime-to-p twist unit
# ---------------------------------------------------------------------------

@dataclass
class ThetaRecord:
    """Per-theta data: the opaque prime-to-p epsilon product (a declared
    unit), the norm of the conductor-different product, and the reciprocity
    element in the Gamma part (kappa value 1/norm under the inverse-Frobenius
    identification)."""

    theta_exponents: tuple
    norm: int
    sigma: tuple
    label: str

    def epsq_atom(self, ctx: RatioContext) -> str:
        name = f"@epsQ({self.label})"
        ctx.registry[name] = ("epsQ-terminal", self.label)
        return name

    def gamma_value(self, ctx: RatioContext, chi_gamma_idx_or_char) -> SymExpr:
        """chibar_Gamma(sigma) as an exact scalar."""
        chi = chi_gamma_idx_or_char
        return SymExpr(ctx.rel, chi.inverse().value(self.sigma))


@dataclass
class TwistUnitData:
    gamma_group: FinAbGroup
    delta_group: FinAbGroup
    records: list[ThetaRecord]

    def full_group(self) -> FinAbGroup:
        return FinAbGroup(self.delta_group.orders + self.gamma_group.orders)


def build_twist_unit(ctx: RatioContext, data: TwistUnitData) -> Measure:
    """Assemble the unit E from its theta components ((1/N) epsQ sigma^-1).

    E is the paper's prime-to-p twist unit: the direct weight-k formula
    times E(chi kappa^j) is the twisted weight-k formula, once the L-value,
    epsilon and conductor terms are traded through the functional equation.
    """
    ring = SymCoeffs(ctx.rel)
    thetas = char_table(data.delta_group)
    want = {t.exponents for t in thetas}
    have = {r.theta_exponents for r in data.records}
    if want != have:
        raise SymError("need exactly one theta record per Delta-character")
    components = {}
    for rec in data.records:
        if rec.norm <= 0:
            raise SymError("norms must be positive integers")
        coeff = (SymExpr(ctx.rel, Fraction(1, rec.norm))
                 * SymExpr.sym(rec.epsq_atom(ctx), 1, ctx.rel))
        components[rec.theta_exponents] = Measure(
            data.gamma_group, ring,
            {data.gamma_group.neg(rec.sigma): coeff})
    group = data.full_group()
    delta_idx = tuple(range(data.delta_group.rank))
    return assemble_from_components(components, group, delta_idx)


def twist_unit_evaluation(ctx: RatioContext, data: TwistUnitData, E: Measure,
                          theta_exponents: tuple, chi_gamma: GroupChar,
                          j: int) -> SymExpr:
    """E(chi kappa^j) through the measure machinery: project the theta
    component by the idempotent split, then sum chi_Gamma kappa^j over the
    support.  kappa(sigma_theta) = 1/norm (inverse-Frobenius identification),
    declared on the component supports."""
    delta_idx = tuple(range(data.delta_group.rank))
    comps = idempotent_split(E, delta_idx)
    comp = comps[theta_exponents]
    rec = next(r for r in data.records if r.theta_exponents == theta_exponents)
    kappa_on_sigma_inv = Fraction(rec.norm)  # kappa(sigma^-1) = norm
    total = SymExpr(ctx.rel, 0)
    for x, c in comp.coeffs.items():
        if x != data.gamma_group.neg(rec.sigma):
            raise SymError("component supported off the declared sigma element")
        total = total + c * SymExpr(ctx.rel, chi_gamma.value(x)) * \
            SymExpr(ctx.rel, kappa_on_sigma_inv ** j)
    return total
