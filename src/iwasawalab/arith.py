"""Exact number-theoretic arithmetic substrate.

Three value families live here:

* :class:`CycloNumber` -- exact elements of the m-th cyclotomic field,
  stored on the power basis of a primitive m-th root of unity modulo the
  m-th cyclotomic polynomial, as integer coordinates over one positive
  common denominator (the layout of FLINT's fmpq_poly).  Cyclotomic
  arithmetic runs on ints: products are schoolbook integer loops reduced
  through the zeta-power table.  Fractions appear only at the edges: the
  public constructor, ``.coeffs`` and rational values.  Equality is
  syntactic on the canonical form, so identities such as ``G * Gbar == p``
  are decidable exactly.

* :class:`PadicNumber` -- truncated elements of Z_p or of a named finite
  extension.  Supported extension shapes: unramified of degree f,
  "cyclotomic-Eisenstein" generated by a primitive p^k-th root of unity,
  and the mixed (unramified tensor Eisenstein) compositum.  All
  coefficients are kept modulo p^N; valuations are reported in units
  where v(p) = 1, so the Eisenstein uniformizer has valuation 1/phi(p^k).

* :class:`QuadFieldElem` -- exact elements a + b*sqrt(-d) of the nine
  imaginary quadratic fields of class number one, with d in
  {3,4,7,8,11,19,43,67,163}.

No floating point is used anywhere.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from math import gcd, lcm
from operator import add, lshift, or_, rshift, sub

__all__ = [
    "MAX_CONDUCTOR",
    "euler_phi",
    "factorize",
    "is_prime",
    "primitive_root",
    "discrete_log",
    "legendre_symbol",
    "cyclotomic_poly",
    "CycloNumber",
    "zeta",
    "PadicRing",
    "PadicNumber",
    "padic_sqrt",
    "embed_cyclo_padic",
    "padic_ring_for_conductor",
    "QuadFieldElem",
    "CLASS_NUMBER_ONE_DISCS",
]

# Conductor guard: merged conductors beyond this raise instead of silently
# producing huge polynomial rings.
MAX_CONDUCTOR = 3000


class ArithError(ValueError):
    """Raised on domain violations (division by zero, bad precision, ...)."""


# ---------------------------------------------------------------------------
# elementary number theory helpers
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; trial division (small n)."""
    if n <= 0:
        raise ArithError(f"factorize expects a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    if gcd(a, n) != 1:
        raise ArithError(f"{a} is not a unit mod {n}")
    order = 1
    x = a % n
    while x != 1:
        x = x * a % n
        order += 1
        if order > n:
            raise ArithError("order computation overflow")
    return order


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q (q а prime power p^k, p odd, or q in {1,2,4})."""
    if q in (1, 2):
        return 1
    phi = euler_phi(q)
    prime_divs = list(factorize(phi))
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divs):
            return g
    raise ArithError(f"no primitive root mod {q}")


def discrete_log(a: int, base: int, q: int) -> int:
    """Exponent e with base^e = a mod q; brute force (groups here are tiny)."""
    a %= q
    x = 1
    for e in range(euler_phi(q)):
        if x == a:
            return e
        x = x * base % q
    raise ArithError(f"{a} is not a power of {base} mod {q}")


def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# ---------------------------------------------------------------------------
# integer polynomial utilities (dense lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ArithError("divisor must be monic")
    quot = [0] * max(1, len(num) - dd)
    while len(num) - 1 >= dd and any(num):
        k = len(num) - 1
        if num[k] == 0:
            num.pop()
            continue
        c = num[k]
        quot[k - dd] = c
        for i, dc in enumerate(den):
            num[k - dd + i] -= c * dc
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low first) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    poly = [0] * m + [1]
    poly[0] = -1  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            if any(rem):
                raise ArithError("cyclotomic division failed")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(poly: tuple[int, ...], count: int,
                modulus: int = 0) -> tuple[tuple[int, ...], ...]:
    """Coordinates of x^k mod poly for k in [d, d + count), d = deg(poly).

    poly is monic with integer coefficients (low first), so every row is
    integral; a nonzero modulus reduces each entry.  This is the one builder
    of reduction rows: Phi_m for CycloNumber and its zeta-power table, and
    the Eisenstein and unramified moduli of PadicRing.
    """
    if poly[-1] != 1:
        raise ArithError("reduction rows need a monic modulus")

    def reduce(x):
        return x % modulus if modulus else x

    d = len(poly) - 1
    first = tuple(reduce(-c) for c in poly[:d])
    rows = []
    current = first
    for _ in range(count):
        rows.append(current)
        top = current[-1]
        current = (0,) + current[:-1]
        if top:
            current = tuple(reduce(c + top * r) for c, r in zip(current, first))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_table(m: int) -> tuple:
    """Sparse integer coordinates of zeta_m^k for k in [0, m), as (index, value) pairs."""
    if m > MAX_CONDUCTOR:
        raise ArithError(f"conductor {m} exceeds configured bound {MAX_CONDUCTOR}")
    phi = euler_phi(m)
    rows = [((k, 1),) for k in range(phi)]
    for row in _power_rows(cyclotomic_poly(m), m - phi):
        rows.append(tuple((j, z) for j, z in enumerate(row) if z))
    return tuple(rows)


def _accumulate_roots(buf: list, m: int, coeffs, a: int = 1, b: int = 0,
                      offset: int = 0) -> None:
    """buf[offset + j] += coordinate j of sum_i coeffs[i] * zeta_m^(a*i + b).

    The one loop over the sparse zeta-power table.  coeffs and buf hold
    integers; callers rescale (cyclotomic) or reduce mod p^N (p-adic) once
    at the end.
    """
    table = _zeta_table(m)
    for i, c in enumerate(coeffs):
        if c:
            for j, z in table[(a * i + b) % m]:
                buf[offset + j] += c * z


def _slot_width(bound: int) -> int:
    """Bytes per slot for packed integers in [0, bound]."""
    return max(1, (bound.bit_length() + 7) // 8)


_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _le_words(data) -> array:
    """64-bit words from ints or little-endian bytes; tobytes() is little-endian."""
    words = array("Q", data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _pack(values, width: int) -> int:
    """One integer holding nonnegative values in width-byte slots, slot 0 lowest."""
    return int.from_bytes(_pack_bytes(values, width), "little")


def _pack_bytes(values, width: int) -> bytes:
    """Little-endian bytes of _pack(values, width).

    Each value must fit its slot (array raises on a negative value or an
    overflowing word).  The values go through 64-bit words in C and are
    narrowed to width bytes with strided byte copies.
    """
    words = -(-width // 8)
    if words > 1:
        values = [v >> s & _WORD_MASK for v in values
                  for s in range(0, _WORD_BITS * words, _WORD_BITS)]
    raw = _le_words(values).tobytes()
    stride = 8 * words
    if width < stride:
        narrow = bytearray(width * (len(raw) // stride))
        for i in range(width):
            narrow[i::width] = raw[i::stride]
        raw = narrow
    return raw


def _unpack(n: int, count: int, width: int) -> list[int]:
    """The first count width-byte slots of a nonnegative integer (inverse of _pack)."""
    words = -(-width // 8)
    stride = 8 * words
    raw = n.to_bytes(width * count, "little")
    if width < stride:
        wide = bytearray(stride * count)
        for i in range(width):
            wide[i::stride] = raw[i::width]
        raw = wide
    ws = _le_words(raw).tolist()
    if words == 1:
        return ws
    out = ws[0::words]
    for t in range(1, words):
        out = [a | b << (_WORD_BITS * t) for a, b in zip(out, ws[t::words])]
    return out


class _DoubledSums:
    """Rotations of packed values, each with up to `blocks` blocks of
    Z[X]/(X^length - 1) in width-byte slots (slot 0 lowest), every block
    written twice in a row (doubled).

    shifts(n)[t] is the right shift, by length - t length / n slots, that
    leaves x * X^(t length / n) in the low half of every block of x; the
    high halves then hold what is left of the copies, which a reader of the
    low halves ignores.  sums(n) = this object called with n, for the
    transform: sums(n)(cols, exps)[q] = sum_j cols[j][q] * X^(exps[j][q] length / n),
    in the doubled layout: the shifted terms are added, one mask keeps the
    low halves and one left shift doubles them again.  Slots are never
    negative and a rotation only moves them, so no carry crosses a slot
    while the sums fit the width.
    """

    def __init__(self, length: int, width: int, blocks: int):
        self.length = length
        self.slot = 8 * width
        self.bits = self.slot * length
        self.low = ((1 << self.bits) - 1) * sum(1 << 2 * self.bits * b for b in range(blocks))

    def shifts(self, n: int) -> list[int]:
        step = self.length // n
        return [self.bits - self.slot * (t * step) for t in range(n)]

    def __call__(self, n: int):
        shifts, low, bits = self.shifts(n), self.low, self.bits

        def rotate_sums(cols, exps):
            terms = [map(rshift, col, map(shifts.__getitem__, ts))
                     for col, ts in zip(cols, exps)]
            ys = list(map(low.__and__, map(sum, zip(*terms))))
            return list(map(or_, ys, map(lshift, ys, repeat(bits))))

        return rotate_sums


@lru_cache(maxsize=None)
def _fold_rows(big_m: int) -> tuple:
    """(groups, norm) for the reduction mod Phi_M of Z[X]/(X^M - 1), M = big_m.

    The rows of _zeta_table(M) for k >= phi(M) move X^k onto z X^j, at
    distance d = k - j.  groups holds one (z, sets) pair per coefficient z,
    sets one (ks, ds) pair per exponent set ks: ds are the distances at
    which every k in ks has an entry z.  norm is the largest 1 + sum |z|
    over a column j: the fold maps coordinates in [-c, c] into
    [-c norm, c norm].
    """
    phi = euler_phi(big_m)
    by_z: dict[int, dict[int, list]] = {}
    column = [1] * phi
    for k, row in enumerate(_zeta_table(big_m)[phi:], phi):
        for j, z in row:
            by_z.setdefault(z, {}).setdefault(k - j, []).append(k)
            column[j] += abs(z)
    groups = []
    for z, by_d in by_z.items():
        sets: dict[tuple, list] = {}
        for d, ks in by_d.items():
            sets.setdefault(tuple(ks), []).append(d)
        groups.append((z, tuple((ks, tuple(ds)) for ks, ds in sets.items())))
    return tuple(groups), max(column)


@lru_cache(maxsize=64)
def _cyclo_fold(big_m: int, width: int, blocks: int) -> tuple:
    """(fold, ones): the reduction mod Phi_M, M = big_m, on whole integers
    of `blocks` doubled blocks of Z[X]/(X^M - 1) in width-byte slots (2M
    slots a block, as _DoubledSums lays them out), kept per (M, width,
    blocks).  The one fold of both coefficient rings: the CYCLO lower
    (_cyclo_lift) and PadicRing._rotation_lower.

    Slot j < phi(M) of every block of fold(x) holds coordinate j of the
    block's slots [0, M) mod Phi_M, as a signed slot sum; the other slots
    hold 0.  fold(x) is x's phi(M) low slots plus, per coefficient z of
    _fold_rows, z times the sum over its sets (ks, ds) of the slots ks
    moved down by each distance d in ds: one mask (the slots ks), one right
    shift by the largest distance D and one left shift by D - d per
    distance.  At M = p^k that is one set, z = -1, ks = [e, p^k) and
    ds = t p^(k-1) for t = 1..p-1, since X^(e+r) =
    -sum_{t<p-1} X^(r + t p^(k-1)), e = phi(p^k).  ones has a 1 in the
    phi(M) low slots of every block.
    """
    slot = 8 * width
    fill = (1 << slot) - 1

    def spread(ks):
        row = sum(1 << slot * k for k in ks)
        return sum(row << 2 * big_m * slot * b for b in range(blocks))

    ones = spread(range(euler_phi(big_m)))
    low = fill * ones
    parts = tuple((z, tuple((fill * spread(ks), slot * max(ds),
                             tuple(slot * (max(ds) - d) for d in ds)) for ks, ds in sets))
                  for z, sets in _fold_rows(big_m)[0])

    def fold(x: int) -> int:
        y = x & low
        for z, sets in parts:
            t = 0
            for mask, down, lefts in sets:
                h = (x & mask) >> down
                for s in lefts:
                    t += h << s
            y += z * t
        return y

    return fold, ones


def _cyclo_lift(values, m: int, terms: int) -> tuple:
    """(forms, sums, lower) of the CYCLO coefficient ring for CycloNumber
    values and orders n | m (the lift of grpring's adapter contract).

    A value is lifted to Z[X]/(X^M - 1), M the lcm of m and the values'
    conductors, over den, the lcm of their denominators: slot (M / c.m) i
    holds coordinate i of a value of conductor c.m.  One bias, the largest
    coordinate size, is added to every slot, so slots stay nonnegative;
    rotations leave it in place, so a sum of `count` rotated forms has slots
    in [0, 2 count bias].  lower folds each sum mod Phi_M on its own integer
    (_cyclo_fold), takes off the fold of count * bias in every slot and
    builds the canonical CycloNumber once per output.  After the fold a
    coordinate is at most count * bias * norm (_fold_rows) in size, read
    signed: one more bit.
    """
    big_m = lcm(m, *(c.m for c in values))
    den = lcm(*(c.den for c in values))
    ints = [c.num if c.den == den else [x * (den // c.den) for x in c.num] for c in values]
    bias = max(max(map(max, ints)), -min(map(min, ints)))
    width = _slot_width(2 * terms * bias * _fold_rows(big_m)[1])
    slots = [bias] * (big_m * len(values))
    for start, vec, c in zip(range(0, len(slots), big_m), ints, values):
        if any(vec):
            lift = big_m // c.m
            slots[start:start + lift * len(vec):lift] = [x + bias for x in vec]
    raw = memoryview(_pack_bytes(slots, width))
    step = width * big_m
    bits = 8 * step
    # each value's block written twice in a row, as _DoubledSums rotates it
    forms = [x | x << bits for x in
             (int.from_bytes(raw[t:t + step], "little") for t in range(0, len(raw), step))]
    phi = euler_phi(big_m)
    size = width * phi
    top = 1 << 8 * width - 1
    fold, ones = _cyclo_fold(big_m, width, 1)
    half = top * ones
    unit = fold(int.from_bytes((b"\x01" + bytes(width - 1)) * big_m, "little"))

    def lower(forms, counts=None):
        # fold(x) - fold(count * bias in every slot) + top in every low slot
        # puts every coordinate in [0, 2 top); only the phi low slots are read
        folded = [(fold(x) + half - count * bias * unit).to_bytes(size, "little")
                  for x, count in zip(forms, repeat(terms) if counts is None else counts)]
        vals = _unpack(int.from_bytes(b"".join(folded), "little"), phi * len(folded), width)
        return [CycloNumber._from_ints(big_m, map(sub, vals[t:t + phi], repeat(top)), den)
                for t in range(0, len(vals), phi)]

    return forms, _DoubledSums(big_m, width, 1), lower


def _check_conductor(m: int) -> None:
    if m < 1:
        raise ArithError("conductor must be positive")
    if m > MAX_CONDUCTOR:
        raise ArithError(f"conductor {m} exceeds configured bound {MAX_CONDUCTOR}")


@lru_cache(maxsize=None)
def _zeta_num(m: int, k: int) -> tuple[int, ...]:
    """Integer coordinates of zeta_m^k for k in [0, m)."""
    buf = [0] * euler_phi(m)
    for j, z in _zeta_table(m)[k]:
        buf[j] = z
    return tuple(buf)


# ---------------------------------------------------------------------------
# CycloNumber
# ---------------------------------------------------------------------------

def _exact(x) -> Fraction:
    """Fraction(x), for an int, a Fraction or a string such as "1/3".  A
    binary float is refused: 0.1 would be read as
    3602879701896397/36028797018963968, not as the 1/10 it was written for.
    Hot paths test for int and Fraction first and call this for the rest."""
    if isinstance(x, float):
        raise TypeError(f"binary float {x!r} is not an exact value; "
                        f"pass an int, a Fraction or a string such as '1/3'")
    return Fraction(x)


class CycloNumber:
    """Exact element of the m-th cyclotomic field Q(zeta_m).

    The value is sum_i num[i] / den * zeta_m^i on the power basis mod Phi_m:
    num is a tuple of phi(m) ints over one positive int den.  The form is
    canonical, gcd(den, *num) == 1 (zero is (0, ..., 0) over 1), so two
    values at one conductor are equal exactly when their (num, den) are.
    Every operation runs on ints; .coeffs builds Fraction coordinates on
    demand.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        _check_conductor(m)
        phi = euler_phi(m)
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ArithError(f"need {phi} coordinates for conductor {m}, got {len(coeffs)}")
        # the lcm of reduced denominators leaves gcd(den, *num) == 1
        den = lcm(*(c.denominator for c in coeffs))
        self.m = m
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_ints(cls, m: int, ints, den: int = 1) -> "CycloNumber":
        """sum_i ints[i] / den * zeta_m^i (den > 0, phi(m) ints), in canonical form.

        The one internal constructor: it skips the public validation.
        """
        num = tuple(ints)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(c // g for c in num)
                den //= g
        self = object.__new__(cls)
        self.m = m
        self.num = num
        self.den = den
        return self

    @staticmethod
    def from_rational(x, m: int = 1) -> "CycloNumber":
        _check_conductor(m)
        q = x if isinstance(x, (int, Fraction)) else _exact(x)
        return CycloNumber._from_ints(m, (q.numerator,) + (0,) * (euler_phi(m) - 1),
                                      q.denominator)

    @staticmethod
    def zeta_power(m: int, k: int = 1) -> "CycloNumber":
        _check_conductor(m)
        return CycloNumber._from_ints(m, _zeta_num(m, k % m))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates num[i] / den as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ArithError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def lift_to(self, big_m: int) -> "CycloNumber":
        """Image under Q(zeta_m) -> Q(zeta_M) for m | M (exact, injective)."""
        if big_m % self.m != 0:
            raise ArithError(f"{self.m} does not divide {big_m}")
        if big_m == self.m:
            return self
        return self._substitute(big_m, big_m // self.m)

    def _substitute(self, big_m: int, a: int, b: int = 0) -> "CycloNumber":
        """sum_i num[i] / den * zeta_big_m^(a*i + b): lift, Galois action and root shift."""
        buf = [0] * euler_phi(big_m)
        _accumulate_roots(buf, big_m, self.num, a, b)
        return CycloNumber._from_ints(big_m, buf, self.den)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _merge(a: "CycloNumber", b: "CycloNumber") -> tuple["CycloNumber", "CycloNumber"]:
        if a.m == b.m:
            return a, b
        m = a.m * b.m // gcd(a.m, b.m)
        if m > MAX_CONDUCTOR:
            raise ArithError(f"merged conductor {m} exceeds configured bound {MAX_CONDUCTOR}")
        return a.lift_to(m), b.lift_to(m)

    @staticmethod
    def _coerce(x) -> "CycloNumber":
        if isinstance(x, CycloNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNumber.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to CycloNumber")

    def __add__(self, other):
        a, b = CycloNumber._merge(self, CycloNumber._coerce(other))
        if a.den == b.den:
            return CycloNumber._from_ints(a.m, map(add, a.num, b.num), a.den)
        da, db = a.den, b.den
        return CycloNumber._from_ints(a.m, [x * db + y * da for x, y in zip(a.num, b.num)],
                                      da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber._from_ints(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-CycloNumber._coerce(other))

    def __rsub__(self, other):
        return CycloNumber._coerce(other) - self

    def _scale(self, n: int, d: int) -> "CycloNumber":
        """self * n / d for ints n and d > 0."""
        return CycloNumber._from_ints(self.m, [c * n for c in self.num], self.den * d)

    def __mul__(self, other):
        # CycloNumber is tested first: the Fraction test goes through ABCMeta
        if not isinstance(other, CycloNumber):
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            other = CycloNumber._coerce(other)  # any other type raises
        # a rational factor (conductor 1) scales coordinates
        if other.m == 1:
            return self._scale(other.num[0], other.den)
        if self.m == 1:
            return other._scale(self.num[0], self.den)
        a, b = CycloNumber._merge(self, other)
        if a.num.count(0) < b.num.count(0):
            a, b = b, a  # the outer loop runs over the sparser factor
        m, phi = a.m, len(a.num)
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                prod[i:i + phi] = map(add, prod[i:i + phi], [x * y for y in b.num])
        # zeta^(phi + i) = zeta^((phi + i) mod m) reduces through the zeta-power table
        out = prod[:phi]
        _accumulate_roots(out, m, prod[phi:], 1, phi)
        return CycloNumber._from_ints(m, out, a.den * b.den)

    __rmul__ = __mul__

    def mul_root(self, m: int, k: int) -> "CycloNumber":
        """Fast multiplication by zeta_m^k (monomial shift, no full product)."""
        if self.m % m != 0:
            return (self.lift_to(self.m * m // gcd(self.m, m))).mul_root(m, k)
        return self._substitute(self.m, 1, (self.m // m) * k)

    def inverse(self) -> "CycloNumber":
        """1/x from the Galois norm N(x) = x * prod_{sigma != 1} sigma(x), a rational.

        Keep y = x * acc, from acc = 1.  For each sigma_a in turn, with k the
        orbit length of y under sigma_a, multiply y and acc by
        prod_{0<i<k} sigma_a^i(y): y is then fixed by sigma_a and by every
        automorphism that fixed it before.  Once y is rational, 1/x = acc / y.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            # 1 / (n / den) = den / n, the sign moved to the numerator
            n = self.num[0]
            return CycloNumber._from_ints(self.m, (self.den if n > 0 else -self.den,)
                                          + self.num[1:], abs(n))
        m = self.m
        y, acc = self, CycloNumber.from_rational(1, m)
        for a in range(2, m):
            if y.is_rational():
                break
            if gcd(a, m) != 1:
                continue
            k, z = 1, y.galois(a)
            while z != y:
                k, z = k + 1, z.galois(a)
            if k > 1:
                rest = y._orbit_product(a, k - 1).galois(a)
                y, acc = y * rest, acc * rest
        return acc * Fraction(y.den, y.num[0])

    def _orbit_product(self, a: int, n: int) -> "CycloNumber":
        """prod_{i<n} sigma_a^i(self), by halving n (O(log n) products)."""
        if n == 1:
            return self
        half = self._orbit_product(a, n // 2)
        out = half * half.galois(pow(a, n // 2, self.m))
        return self * out.galois(a) if n % 2 else out

    def __truediv__(self, other):
        other = CycloNumber._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloNumber._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = CycloNumber.from_rational(1, self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def galois(self, a: int) -> "CycloNumber":
        """Image under zeta_m -> zeta_m^a (a coprime to m)."""
        if gcd(a, self.m) != 1:
            raise ArithError(f"{a} is not coprime to conductor {self.m}")
        return self._substitute(self.m, a)

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation zeta -> zeta^-1."""
        return self.galois(self.m - 1) if self.m > 1 else self

    # -- comparisons / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            a, b = CycloNumber._merge(self, other)
            return a.den == b.den and a.num == b.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        # lifted copies at different conductors compare equal, so irrational
        # values hash to a class constant to keep the hash/eq contract; a
        # rational value hashes as its Fraction (and so as an equal int)
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash("CycloNumber:irrational")

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.rational_value()})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.m}^{i}" if c != 1 else f"z{self.m}^{i}")
        return "Cyclo(" + " + ".join(terms) + ")"


def zeta(m: int, k: int = 1) -> CycloNumber:
    """Primitive m-th root of unity raised to the k-th power."""
    return CycloNumber.zeta_power(m, k)


# ---------------------------------------------------------------------------
# truncated p-adic arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RingKey:
    p: int
    precision: int
    unram_degree: int
    eisenstein_pk: int


class PadicRing:
    """Truncated valuation ring of Q_p or a named extension.

    descriptor: 'base', 'unramified(f)', 'cyclotomic-eisenstein(p^k)' or
    'mixed(f, p^k)'.  Elements are coordinate vectors on the basis
    beta^i * zeta^j (i < f, j < phi(p^k)) with entries mod p^N, where beta
    generates the unramified part and zeta is a primitive p^k-th root of
    unity.  v(p) = 1, v(zeta - 1) = 1/phi(p^k).

    Products and sums of zeta-power multiples run on packed integers: the
    coordinates (each in [0, p^N)) sit in fixed-width byte slots of one
    Python int, slot 0 lowest.  Every product, PadicNumber.__mul__ and the
    group-ring convolution alike, is one Kronecker product (_product) whose
    raw sums _reduce_product rewrites.  Sums of zeta-power multiples
    (root_sum, the Fourier transform) place each beta-block in p^k slots of
    Z[x]/(x^{p^k} - 1), written twice in a row (_rotation_pack), so
    multiplying by zeta^s is a rotation (_DoubledSums); _rotation_lower
    reduces a sum once, on whole integers, by the fold mod Phi_{p^k} that
    the cyclotomic lower uses too (_cyclo_fold), a bias T, a multiple of
    p^N, in every slot, and Barrett's remainder mod p^N on every slot at
    once.  A rotation slot is a whole number of 64-bit words: the first
    width whose Barrett exponent k (the largest with
    k + bitlen(floor(2^k / p^N)) + 1 bits fitting the slot) leaves
    T >= (terms) * (p^N - 1) with 2T < 2^k (_barrett, _rotation_width).
    So no carry crosses a slot.

    The ring owns the fixed embedding Q(zeta_m) -> ring (roots_of_unity),
    which is the choice of a prime above p: root_sum and embed_cyclo_padic
    place zeta_m through it.
    """

    _instances: dict[_RingKey, "PadicRing"] = {}

    def __new__(cls, p: int, precision: int, unram_degree: int = 1, eisenstein_pk: int = 1):
        key = _RingKey(p, precision, unram_degree, eisenstein_pk)
        inst = cls._instances.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(key)
            cls._instances[key] = inst
        return inst

    def _init(self, key: _RingKey):
        p, N, f, pk = key.p, key.precision, key.unram_degree, key.eisenstein_pk
        if p < 5 or not is_prime(p):
            raise ArithError(f"prime must be >= 5 and prime, got {p}")
        if N < 1:
            raise ArithError("precision must be positive")
        if pk != 1:
            fac = factorize(pk)
            if list(fac) != [p]:
                raise ArithError(f"eisenstein part must be a power of {p}, got {pk}")
        self.p = p
        self.precision = N
        self.unram_degree = f
        self.eisenstein_pk = pk
        self.e = euler_phi(pk) if pk > 1 else 1
        self.pN = p ** N
        self.dim = f * self.e
        self._unram_mod = _find_unramified_modulus(p, f, self.pN) if f > 1 else None
        self._unram_rows = _power_rows(self._unram_mod + (1,), f - 1, self.pN) if f > 1 else ()
        # zeta^(e+k), k < e-1, as sparse (index, value) pairs
        self._eis_rows = tuple(tuple((j, r) for j, r in enumerate(row) if r)
                               for row in _power_rows(cyclotomic_poly(pk), self.e - 1, self.pN))
        self._frob_image = None
        self._teich_gen = None
        self._roots: dict[int, tuple] = {}
        self._lowers: dict[tuple[int, int], tuple] = {}

    # -- descriptor ------------------------------------------------------

    @property
    def descriptor(self) -> str:
        f, pk = self.unram_degree, self.eisenstein_pk
        if f == 1 and pk == 1:
            return "base"
        if pk == 1:
            return f"unramified({f})"
        if f == 1:
            return f"cyclotomic-eisenstein({pk})"
        return f"mixed({f},{pk})"

    def __repr__(self):
        return f"PadicRing(p={self.p}, N={self.precision}, {self.descriptor})"

    # -- element constructors ---------------------------------------------

    def zero(self) -> "PadicNumber":
        return PadicNumber(self, (0,) * self.dim)

    def one(self) -> "PadicNumber":
        coords = [0] * self.dim
        coords[0] = 1
        return PadicNumber(self, tuple(coords))

    def from_int(self, n: int) -> "PadicNumber":
        coords = [0] * self.dim
        coords[0] = n % self.pN
        return PadicNumber(self, tuple(coords))

    def from_fraction(self, q) -> "PadicNumber":
        if not isinstance(q, (int, Fraction)):
            q = _exact(q)
        den = q.denominator
        if den % self.p == 0:
            raise ArithError(f"denominator of {q} is divisible by p={self.p}")
        val = q.numerator * pow(den, -1, self.pN) % self.pN
        return self.from_int(val)

    def from_coords(self, coords) -> "PadicNumber":
        coords = [c % self.pN for c in coords]
        if len(coords) != self.dim:
            raise ArithError("coordinate length mismatch")
        return PadicNumber(self, tuple(coords))

    def unram_gen(self) -> "PadicNumber":
        if self.unram_degree == 1:
            raise ArithError("base ring has no unramified generator")
        coords = [0] * self.dim
        coords[self.e] = 1  # beta^1 * zeta^0
        return PadicNumber(self, tuple(coords))

    def zeta_gen(self) -> "PadicNumber":
        if self.eisenstein_pk == 1:
            raise ArithError("ring has no ramified part")
        coords = [0] * self.dim
        coords[1] = 1  # beta^0 * zeta^1
        return PadicNumber(self, tuple(coords))

    def uniformizer(self) -> "PadicNumber":
        if self.eisenstein_pk == 1:
            return self.from_int(self.p)
        return self.zeta_gen() - self.one()

    # -- canonical multiplicative generator of the Teichmueller part -------

    def teichmuller_generator(self) -> "PadicNumber":
        """Canonical generator of the roots of unity of order p^f - 1."""
        if self._teich_gen is not None:
            return self._teich_gen
        p, f = self.p, self.unram_degree
        target = p ** f - 1
        prime_divs = list(factorize(target))
        if f == 1:
            cand = self.from_int(primitive_root(p))
            gen = _teichmuller_lift(cand)
        else:
            gen = None
            shift = 0
            while gen is None:
                cand = self.unram_gen() + self.from_int(shift)
                if not cand.is_unit():
                    shift += 1
                    continue
                t = _teichmuller_lift(cand)
                if all((t ** (target // q)) != self.one() for q in prime_divs):
                    gen = t
                shift += 1
                if shift > 4 * p:
                    raise ArithError("failed to locate a multiplicative generator")
        self._teich_gen = gen
        return gen

    @staticmethod
    def split_conductor(p: int, m: int) -> tuple[int, int]:
        """(mp, mq): m = mp * mq with mp a power of p and mq prime to p."""
        mp = 1
        while m % (mp * p) == 0:
            mp *= p
        return mp, m // mp

    def roots_of_unity(self, m: int) -> tuple:
        """(mp, u, images, v): where the ring places zeta_m, cached per m.

        With (mp, mq) = split_conductor(p, m), u = mq^-1 mod mp and
        v = mp^-1 mod mq, zeta_m^k = zeta_mp^(k u mod mp) * images[k v mod mq]:
        zeta_mp is the power zeta^(p^k / mp) of the Eisenstein generator and
        images holds the Teichmueller images of mu_mq, the successive powers
        of teichmuller_generator()^((p^f - 1) / mq).
        """
        parts = self._roots.get(m)
        if parts is None:
            mp, mq = self.split_conductor(self.p, m)
            if self.eisenstein_pk % mp:
                raise ArithError(
                    f"conductor {m} needs eisenstein part {mp}, ring has {self.eisenstein_pk}")
            q = self.p ** self.unram_degree
            if (q - 1) % mq:
                raise ArithError(
                    f"conductor {m} needs mu_{mq} in the residue field; "
                    f"unramified degree {self.unram_degree} is insufficient")
            images = [self.one()]
            if mq > 1:
                w = self.teichmuller_generator() ** ((q - 1) // mq)
                for _ in range(mq - 1):
                    images.append(images[-1] * w)
            parts = self._roots[m] = (mp, pow(mq, -1, mp), tuple(images), pow(mp, -1, mq))
        return parts

    # -- packed-integer kernels -------------------------------------------

    def _reduce_product(self, raw: list[int], stride: int) -> tuple[int, ...]:
        """Coordinates of one output of _product from its raw sum.

        raw[i*stride + j] is the unreduced coefficient of beta^i zeta^j, with
        i < 2f-1 and j < stride <= 2e-1.  zeta^j for j >= e is rewritten with
        _eis_rows and beta^i for i >= f with _unram_rows; each coordinate is
        reduced mod p^N once, at the end.
        """
        e, f = self.e, self.unram_degree
        pad = [0] * (e - stride)
        blocks = []
        for base in range(0, len(raw), stride):
            low = raw[base:base + min(e, stride)] + pad
            for k, row in zip(range(base + e, base + stride), self._eis_rows):
                c = raw[k]
                if c:
                    for j, r in row:
                        low[j] += c * r
            blocks.append(low)
        blocks += [[0] * e for _ in range(f - len(blocks))]
        for high, row in zip(blocks[f:], self._unram_rows):
            for t, r in enumerate(row):
                if r:
                    blocks[t] = [a + r * b for a, b in zip(blocks[t], high)]
        pN = self.pN
        return tuple(c % pN for block in blocks[:f] for c in block)

    def _product(self, f: dict, g: dict, fold, count: int) -> list["PadicNumber"]:
        """[sum of f[s] * g[t] over the positions s, t with fold[s + t] = h
        for h < count]: the one Kronecker product layout of the ring.

        f and g map a block position to the coordinates of a nonzero element.
        A family's extent is (rows, cols) when its coordinates vanish outside
        beta^i zeta^j, i < rows, j < cols (1 x 1 for values in Z_p).  Each
        family is packed into one integer: beta^i zeta^j of position s at
        slot s*block + i*stride + j, with stride = cols_f + cols_g - 1 and
        block = (rows_f + rows_g - 1) * stride, so one big-integer multiply
        leaves the raw product of positions summing to t in block t with no
        overlap.  Every output sums the blocks that fold onto it and
        _reduce_product reduces it once.  A slot receives at most
        min(|f|, |g|) * min(rows) * min(cols) products of coordinates below
        p^N, which sets the slot width.  PadicNumber.__mul__ is one block at
        position 0; grpring's packed convolution lays out the group axes.
        """
        e = self.e
        extents = []
        for family in (f, g):
            rows = cols = 0
            for coords in family.values():
                for i in range(0, self.dim, e):
                    part = coords[i:i + e]
                    if any(part):
                        rows = max(rows, i // e + 1)
                        j = e
                        while not part[j - 1]:
                            j -= 1
                        cols = max(cols, j)
            extents.append((rows, cols))
        (rf, cf), (rg, cg) = extents
        stride = cf + cg - 1
        block = (rf + rg - 1) * stride
        width = _slot_width(min(len(f), len(g)) * min(rf, rg) * min(cf, cg) * (self.pN - 1) ** 2)
        prod = 1
        for family, (rows, cols) in zip((f, g), extents):
            slots = [0] * ((max(family) + 1) * block)
            for s, coords in family.items():
                for base, i in zip(range(s * block, (s + 1) * block, stride), range(0, rows * e, e)):
                    slots[base:base + cols] = coords[i:i + cols]
            prod *= _pack(slots, width)
        raw = _unpack(prod, len(fold) * block, width)
        sums = [None] * count
        for t, h in enumerate(fold):
            part = raw[t * block:(t + 1) * block]
            sums[h] = part if sums[h] is None else list(map(add, sums[h], part))
        return [PadicNumber(self, self._reduce_product(s, stride)) for s in sums]

    def _rotation_pack(self, vectors, width: int) -> list[int]:
        """Each coordinate vector with its beta-blocks, each padded to the p^k
        slots of Z[x]/(x^{p^k} - 1) and doubled (trailing zero blocks
        dropped), as _DoubledSums rotates them."""
        e, pk = self.e, self.eisenstein_pk
        pad = [0] * (pk - e)
        slots: list[int] = []
        ends = []
        for coords in vectors:
            blocks = self.dim if any(coords) else 0
            while blocks and not any(coords[blocks - e:blocks]):
                blocks -= e
            for i in range(0, blocks, e):
                block = list(coords[i:i + e]) + pad
                slots += block
                slots += block
            ends.append(len(slots) * width)
        raw = memoryview(_pack_bytes(slots, width))
        out, start = [], 0
        for end in ends:
            out.append(int.from_bytes(raw[start:end], "little"))
            start = end
        return out

    def _barrett(self, width: int) -> tuple[int, int, int]:
        """(k, M, T) for width-byte slots: M = floor(2^k / p^N) with k the
        largest exponent for which k + bitlen(M) + 1 <= the slot's bits, and
        the bias T the largest multiple of p^N with 2T < 2^k."""
        pN = self.pN
        k = (8 * width + pN.bit_length() - 2) // 2
        return k, (1 << k) // pN, pN * ((1 << k - 1) // pN)

    def _rotation_width(self, terms: int) -> int:
        """Bytes per slot, a multiple of 8, for sums of at most `terms`
        rotated values: the first whose bias T covers terms * (p^N - 1)."""
        bound = terms * (self.pN - 1)
        width = 8
        while self._barrett(width)[2] < bound:
            width += 8
        return width

    def _lower_constants(self, width: int, blocks: int) -> tuple:
        """(fold, bias, k, M, qmask, half, ones) for _rotation_lower on
        `blocks` doubled blocks of width-byte slots, kept per (width, blocks).

        fold and ones are _cyclo_fold's at p^k: ones has a 1 in each of the e
        low slots of every block.  bias, qmask and half fill those slots with
        T, bitlen(M) bits and 2^(slot-1) - p^N.
        """
        key = (width, blocks)
        consts = self._lowers.get(key)
        if consts is None:
            fold, ones = _cyclo_fold(self.eisenstein_pk, width, blocks)
            k, M, T = self._barrett(width)
            consts = self._lowers[key] = (
                fold, T * ones, k, M, ((1 << M.bit_length()) - 1) * ones,
                ((1 << 8 * width - 1) - self.pN) * ones, ones)
        return consts

    def _rotation_lower(self, x: int, width: int) -> "PadicNumber":
        """The element held by a sum of rotated _rotation_pack integers, on
        whole integers: slots [0, p^k) of each doubled block hold the block
        in Z[x]/(x^{p^k} - 1).

        Fold (_cyclo_fold at p^k) plus the bias T: z = a[j] + T -
        a[e + j mod p^(k-1)] in slot j < e of every block (z = a[0] + T for
        p^k = 1), in [0, 2T] and congruent to coordinate j mod p^N.
        Barrett: q = (z M) >> k is floor(z / p^N) or one less, so
        r = z - q p^N lies in [0, 2 p^N); the top bit of r + 2^(slot-1) - p^N
        marks the slots where p^N is subtracted once more.  Only the e low
        slots of each block are read.
        """
        span = 2 * self.eisenstein_pk
        slot = 8 * width
        blocks = -(-x.bit_length() // (slot * span))
        if not blocks:
            return self.zero()
        fold, bias, k, M, qmask, half, ones = self._lower_constants(width, blocks)
        z = fold(x) + bias
        pN, e = self.pN, self.e
        r = z - ((z * M >> k) & qmask) * pN
        r -= ((r + half) >> slot - 1 & ones) * pN
        vals = _unpack(r, span * (blocks - 1) + e, width)
        out: list[int] = []
        for base in range(0, len(vals), span):
            out += vals[base:base + e]
        return PadicNumber(self, tuple(out) + (0,) * (self.dim - len(out)))

    def _rotation_lift(self, values, terms: int) -> tuple:
        """(forms, sums, lower) for sums of at most `terms` zeta-power
        multiples of values: their _rotation_pack forms, the rotation sums of
        _DoubledSums on p^k slots, and lower(forms), the elements of such
        sums, one _rotation_lower each."""
        width = self._rotation_width(terms)

        def lower(forms, counts=None):
            return [self._rotation_lower(x, width) for x in forms]

        return (self._rotation_pack([x.coords for x in values], width),
                _DoubledSums(self.eisenstein_pk, width, self.unram_degree), lower)

    def root_sum(self, values, m: int, exps) -> "PadicNumber":
        """sum_i values[i] * zeta_m^exps[i], zeta_m placed by roots_of_unity.

        A prime-to-p order m takes one product by a Teichmueller image per
        term.  Otherwise the terms are grouped by their Teichmueller image;
        a group is one sum of rotations of the packed values, unpacked once
        and multiplied by its image once.
        """
        mp, u, images, v = self.roots_of_unity(m)
        mq = len(images)
        if mp == 1:
            parts = zip((k * v % mq for k in exps), values)
        else:
            forms, sums, lower = self._rotation_lift(values, len(values))
            shifts = sums.shifts(mp)
            groups: dict[int, list] = {}
            for x, k in zip(forms, exps):
                groups.setdefault(k * v % mq, []).append(x >> shifts[k * u % mp])
            parts = zip(groups, lower(list(map(sum, groups.values()))))
        terms = [y * images[a] if a else y for a, y in parts]
        return reduce(add, terms) if terms else self.zero()

    def zeta_substitution(self, x: "PadicNumber", a: int) -> "PadicNumber":
        """The inertia action zeta -> zeta^a (a prime to p): each beta-block
        through the zeta-power table of p^k (_accumulate_roots, the kernel of
        CycloNumber._substitute), every coordinate reduced mod p^N once."""
        pk = self.eisenstein_pk
        if pk == 1:
            return x
        if a % self.p == 0:
            raise ArithError(f"zeta -> zeta^{a} is not an automorphism: {a} is divisible by p")
        e, coords = self.e, x.coords
        buf = [0] * self.dim
        for base in range(0, self.dim, e):
            _accumulate_roots(buf, pk, coords[base:base + e], a, 0, base)
        pN = self.pN
        return PadicNumber(self, tuple(c % pN for c in buf))

    def frobenius(self, x: "PadicNumber") -> "PadicNumber":
        """Ring automorphism lifting the p-power map on the residue field.

        Acts as identity on the Eisenstein part (zeta is fixed: this is the
        Frobenius of the unramified subextension, which is what the descent
        checks need).
        """
        if self.unram_degree == 1:
            return x
        if self._frob_image is None:
            beta = self.unram_gen()
            # Hensel-lift the root of the unramified modulus congruent to beta^p
            y = beta ** self.p
            mod = list(self._unram_mod) + [1]
            for _ in range(self.precision.bit_length() + 2):
                fy = _eval_int_poly(mod, y)
                dfy = _eval_int_poly([i * c % self.pN for i, c in enumerate(mod)][1:], y)
                y = y - fy * dfy.inverse()
            self._frob_image = y
        img = self._frob_image
        # rewrite x = sum_{i,j} c_ij beta^i zeta^j with beta -> img
        e, f = self.e, self.unram_degree
        acc = self.zero()
        pw = self.one()
        for i in range(f):
            slice_coords = [0] * self.dim
            for j in range(e):
                slice_coords[j] = x.coords[i * e + j]
            acc = acc + PadicNumber(self, tuple(slice_coords)) * pw
            pw = pw * img
        return acc


def _eval_int_poly(coeffs: list[int], x: "PadicNumber") -> "PadicNumber":
    acc = x.ring.zero()
    for c in reversed(coeffs):
        acc = acc * x + x.ring.from_int(c)
    return acc


def _find_unramified_modulus(p: int, f: int, pN: int) -> tuple[int, ...]:
    """Monic degree-f polynomial irreducible mod p, coefficients mod p^N.

    Returned as the low coefficients (length f); the leading 1 is implicit.
    """
    def irreducible_mod_p(low: list[int]) -> bool:
        # poly = x^f + ... ; irreducible iff gcd(x^{p^i} - x, poly) = 1 for i < f
        # and x^{p^f} = x mod poly.
        mod = [c % p for c in low] + [1]

        def mulmod(a, b):
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            prod[i + j] = (prod[i + j] + x * y) % p
            # reduce
            while len(prod) > f:
                top = prod.pop()
                if top:
                    k = len(prod) - f
                    for i in range(f):
                        prod[k + i] = (prod[k + i] - top * mod[i]) % p
            return prod + [0] * (f - len(prod))

        def powx(exp):
            result = [0] * f
            result[0] = 1
            base = ([0, 1] + [0] * (f - 2))[:f] if f >= 2 else [0]
            while exp:
                if exp & 1:
                    result = mulmod(result, base)
                base = mulmod(base, base)
                exp >>= 1
            return result

        x_poly = ([0, 1] + [0] * (f - 2))[:f]
        for i in range(1, f):
            xi = powx(p ** i)
            diff = [(a - b) % p for a, b in zip(xi, x_poly)]
            # gcd(diff, mod) must be 1: check diff is a unit mod (mod, p),
            # cheap version: diff nonzero and f prime -> enough; general: poly gcd
            if not any(diff):
                return False
            if _poly_gcd_deg_mod_p(diff, mod, p) != 0:
                return False
        xf = powx(p ** f)
        return xf == x_poly

    for b in range(1, p):
        for a in range(p):
            low = [b] + [a] + [0] * (f - 2) if f >= 2 else [b]
            low = low[:f]
            if irreducible_mod_p(low):
                return tuple(c % pN for c in low)
    raise ArithError("no irreducible polynomial found (unexpected)")


def _poly_gcd_deg_mod_p(a: list[int], b: list[int], p: int) -> int:
    def trim(x):
        x = list(x)
        while len(x) > 1 and x[-1] % p == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while any(c % p for c in b):
        # a mod b
        a = trim(a)
        while len(a) >= len(b) and any(c % p for c in a):
            if a[-1] % p == 0:
                a.pop()
                continue
            c = a[-1] * pow(b[-1], -1, p) % p
            k = len(a) - len(b)
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % p
            a.pop()
        a, b = b, trim(a if any(a) else [0])
        if not any(b):
            break
    a = trim(a)
    return len(a) - 1


class PadicNumber:
    """Element of a :class:`PadicRing`; immutable coordinate vector mod p^N.

    Invariant: every coordinate c is reduced, 0 <= c < p^N, so two elements
    of one ring are equal exactly when their coords are, and a coordinate is
    zero exactly when it vanishes mod p^N.  Every constructor and ring
    operation returns reduced coordinates; is_zero, __eq__ and the descent
    slices (DModel.in_L_part, in_O_part) read them as they are.
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring: PadicRing, coords: tuple[int, ...]):
        self.ring = ring
        self.coords = coords

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "PadicNumber"):
        if self.ring is not other.ring:
            raise ArithError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        self._check(other)
        pN = self.ring.pN
        return PadicNumber(self.ring, tuple((a + b) % pN for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        pN = self.ring.pN
        return PadicNumber(self.ring, tuple(-a % pN for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.from_int(other) - self

    def __mul__(self, other):
        # PadicNumber first: the Fraction test goes through ABCMeta
        if not isinstance(other, PadicNumber):
            if isinstance(other, int):
                pN = self.ring.pN
                return PadicNumber(self.ring, tuple(a * other % pN for a in self.coords))
            if isinstance(other, Fraction):
                return self * self.ring.from_fraction(other)
        self._check(other)
        a, b = self.coords, other.coords
        # a factor in Z_p scales coordinates
        if not any(b[1:]):
            return self * b[0]
        if not any(a[1:]):
            return other * a[0]
        return self.ring._product({0: a}, {0: b}, (0,), 1)[0]

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- valuation / units --------------------------------------------------

    def _tbasis_slices(self) -> list[list[int]]:
        """Per-beta-degree coordinates rewritten on the (zeta-1) power basis."""
        ring = self.ring
        e = ring.e
        out = []
        for i in range(ring.unram_degree):
            zslice = list(self.coords[i * e:(i + 1) * e])
            # zeta^j = (1+T)^j: invert the binomial transform to get T-coords
            out.append(_zeta_to_t_basis(zslice, ring))
        return out

    def valuation(self) -> Fraction | None:
        """Valuation with v(p) = 1; None means >= precision (indistinguishable from 0)."""
        ring = self.ring
        p, N, e = ring.p, ring.precision, ring.e
        best: Fraction | None = None
        if e == 1:
            for c in self.coords:
                if c % ring.pN == 0:
                    continue
                v = Fraction(_int_val(c, p, N))
                best = v if best is None or v < best else best
        else:
            for tcoords in self._tbasis_slices():
                for j, c in enumerate(tcoords):
                    if c % ring.pN == 0:
                        continue
                    v = Fraction(_int_val(c, p, N)) + Fraction(j, e)
                    best = v if best is None or v < best else best
        return best

    def is_zero(self) -> bool:
        # coordinates are kept in [0, p^N)
        return not any(self.coords)

    def is_unit(self) -> bool:
        """Valuation 0, that is, a nonzero residue."""
        return any(self.residue())

    def residue(self) -> tuple[int, ...]:
        """Image in the residue field F_{p^f} (zeta goes to 1)."""
        ring = self.ring
        e, p = ring.e, ring.p
        out = []
        for i in range(ring.unram_degree):
            out.append(sum(self.coords[i * e:(i + 1) * e]) % p)
        return tuple(out)

    def inverse(self) -> "PadicNumber":
        """1/x by Newton's iteration x <- x * (2 - self * x), started at r^(q-2) = 1/r
        for the residue r in F_q = PadicRing(p, 1, f), q = p^f."""
        ring = self.ring
        if not self.is_unit():
            raise ArithError("cannot invert a non-unit at this precision")
        # the residue field's modulus is the ring's unramified modulus mod p,
        # so the F_q coordinates sit on the beta-coordinates beta^i zeta^0
        start = PadicRing(ring.p, 1, ring.unram_degree).from_coords(self.residue())
        coords = [0] * ring.dim
        coords[::ring.e] = (start ** (ring.p ** ring.unram_degree - 2)).coords
        x = PadicNumber(ring, tuple(coords))
        one, two = ring.one(), ring.from_int(2)
        for _ in range(max(6, ring.precision.bit_length() + ring.e.bit_length() + 3)):
            sx = self * x
            if sx == one:
                return x
            x = x * (two - sx)
        raise ArithError("inverse iteration failed to converge (precision loss)")

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return self * other.inverse()

    def divide_exact_p_power(self, k: int) -> "PadicNumber":
        """Divide by p^k when every coordinate is divisible; drops precision by k."""
        ring = self.ring
        pk = ring.p ** k
        if any(map(pk.__rmod__, self.coords)):
            raise ArithError(f"element is not divisible by p^{k}")
        smaller = PadicRing(ring.p, ring.precision - k, ring.unram_degree, ring.eisenstein_pk)
        # coordinates below p^N divide to coordinates below p^(N-k)
        return PadicNumber(smaller, tuple(map(pk.__rfloordiv__, self.coords)))

    def reduce_precision(self, n: int) -> "PadicNumber":
        ring = self.ring
        if n > ring.precision:
            raise ArithError("cannot increase precision")
        smaller = PadicRing(ring.p, n, ring.unram_degree, ring.eisenstein_pk)
        return smaller.from_coords(self.coords)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        a, b = self, other
        if a.ring is not b.ring:
            if (a.ring.p, a.ring.unram_degree, a.ring.eisenstein_pk) != (
                    b.ring.p, b.ring.unram_degree, b.ring.eisenstein_pk):
                return False
            n = min(a.ring.precision, b.ring.precision)
            a, b = a.reduce_precision(n), b.reduce_precision(n)
        return a.coords == b.coords

    def __hash__(self):
        return hash((self.ring.p, self.ring.precision, self.ring.unram_degree,
                     self.ring.eisenstein_pk, self.coords))

    def __repr__(self):
        ring = self.ring
        if ring.dim == 1:
            return f"Padic({self.coords[0]} mod {ring.p}^{ring.precision})"
        return f"Padic({list(self.coords)} in {ring.descriptor} mod {ring.p}^{ring.precision})"


@lru_cache(maxsize=None)
def _t_transform_matrix(pk: int, pN: int) -> tuple[tuple[int, ...], ...]:
    """Matrix sending zeta-power coords to (zeta-1)-power coords, mod p^N.

    zeta^j = sum_i C(j, i) T^i, so t_i = sum_j C(j, i) z_j.
    """
    from math import comb
    e = euler_phi(pk)
    rows = []
    for i in range(e):
        row = [0] * e
        for j in range(i, e):
            row[j] = comb(j, i) % pN
        rows.append(tuple(row))
    return tuple(rows)


def _zeta_to_t_basis(zcoords: list[int], ring: PadicRing) -> list[int]:
    pk, pN = ring.eisenstein_pk, ring.pN
    e = ring.e
    mat = _t_transform_matrix(pk, pN)
    out = []
    for i in range(e):
        row = mat[i]
        out.append(sum(row[j] * zcoords[j] for j in range(e) if zcoords[j]) % pN)
    return out


def _int_val(c: int, p: int, cap: int) -> int:
    v = 0
    while c % p == 0 and v < cap:
        c //= p
        v += 1
    return v


def _teichmuller_lift(x: PadicNumber) -> PadicNumber:
    """Limit of x^(p^f)^n: the root of unity congruent to x mod the maximal ideal."""
    ring = x.ring
    q = ring.p ** ring.unram_degree
    y = x
    for _ in range(ring.precision + 2):
        y2 = y ** q
        if y2 == y:
            return y2
        y = y2
    return y


def padic_sqrt(x: PadicNumber | int, p: int | None = None, precision: int | None = None) -> PadicNumber:
    """Square root of a unit of Z_p whose residue is a quadratic residue.

    Of the two roots, returns the one whose residue mod p lies in
    {1, ..., (p-1)/2}; this tie-break is fixed so downstream identity checks
    are convention-stable.
    """
    if isinstance(x, int):
        if p is None or precision is None:
            raise ArithError("integer input needs p and precision")
        x = PadicRing(p, precision).from_int(x)
    ring = x.ring
    if ring.unram_degree != 1 or ring.eisenstein_pk != 1:
        raise ArithError("padic_sqrt is defined on the base ring only")
    if not x.is_unit():
        raise ArithError("padic_sqrt needs a unit (zero valuation)")
    a0 = x.coords[0] % ring.p
    if legendre_symbol(a0, ring.p) != 1:
        raise ArithError(f"{a0} is not a quadratic residue mod {ring.p}")
    r0 = next(r for r in range(1, ring.p) if r * r % ring.p == a0)
    # inverse square root z <- z (3 - x z^2) / 2 from z = 1/r0 mod p, then
    # sqrt(x) = x z: no inverse per step
    z = ring.from_int(pow(r0, -1, ring.p))
    half = pow(2, -1, ring.pN)
    for _ in range(ring.precision.bit_length() + 2):
        z = z * (3 - x * z * z) * half
    y = x * z
    if not (y * y == x):
        raise ArithError("sqrt iteration failed to converge")
    if y.coords[0] % ring.p > (ring.p - 1) // 2:
        y = -y
    return y


# ---------------------------------------------------------------------------
# embedding of cyclotomic numbers into p-adic rings
# ---------------------------------------------------------------------------

def padic_ring_for_conductor(p: int, m: int, precision: int,
                             min_unram_degree: int = 1) -> PadicRing:
    """Smallest supported ring in which Q(zeta_m) embeds at the prime p."""
    pk, mq = PadicRing.split_conductor(p, m)
    f = 1 if mq == 1 else multiplicative_order(p, mq)
    f = max(f, min_unram_degree)
    return PadicRing(p, precision, f, pk)


def embed_cyclo_padic(x: CycloNumber, ring: PadicRing) -> PadicNumber:
    """Fixed ring embedding Q(zeta_m) -> ring: the root sum of x's integer
    coordinates at the powers of zeta_m that ring.roots_of_unity places
    (prime-to-p roots on Teichmueller representatives, p-power roots on the
    Eisenstein generator), times 1/den.  The choice of prime above p is
    exactly the choice of this map, which is deterministic per ring.
    """
    exps = [i for i, c in enumerate(x.num) if c]
    total = ring.root_sum([ring.from_int(x.num[i]) for i in exps], x.m, exps)
    return total * Fraction(1, x.den)


# ---------------------------------------------------------------------------
# imaginary quadratic field elements
# ---------------------------------------------------------------------------

CLASS_NUMBER_ONE_DISCS = (3, 4, 7, 8, 11, 19, 43, 67, 163)


@dataclass(frozen=True)
class QuadFieldElem:
    """a + b*sqrt(-d) with exact rational a, b; d a class-number-one parameter."""

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.d not in CLASS_NUMBER_ONE_DISCS:
            raise ArithError(f"unsupported discriminant parameter {self.d}")
        object.__setattr__(self, "a", _exact(self.a))
        object.__setattr__(self, "b", _exact(self.b))

    @staticmethod
    def rational(d: int, x) -> "QuadFieldElem":
        return QuadFieldElem(d, x, 0)

    @staticmethod
    def sqrt_minus_d(d: int) -> "QuadFieldElem":
        return QuadFieldElem(d, Fraction(0), Fraction(1))

    def _check(self, other: "QuadFieldElem"):
        if self.d != other.d:
            raise ArithError("mixed quadratic fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadFieldElem.rational(self.d, other)
        self._check(other)
        return QuadFieldElem(self.d, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElem(self.d, -self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadFieldElem.rational(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return QuadFieldElem.rational(self.d, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return QuadFieldElem(self.d, self.a * q, self.b * q)
        self._check(other)
        return QuadFieldElem(
            self.d,
            self.a * other.a - self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadFieldElem":
        return QuadFieldElem(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "QuadFieldElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return QuadFieldElem(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def valuation_at_split_prime(self, p: int, precision: int = 12) -> Fraction:
        """v_p(a + b*delta) for the canonical prime above split p."""
        if self.is_zero():
            raise ArithError("zero has no finite valuation")
        den = lcm(self.a.denominator, self.b.denominator)
        t = _int_val(den, p, precision + 8)
        scaled = self * Fraction(p) ** t
        ring = PadicRing(p, precision + t + 2)
        delta = padic_sqrt(ring.from_int(-self.d))
        emb = ring.from_fraction(scaled.a) + ring.from_fraction(scaled.b) * delta
        v = emb.valuation()
        if v is None:
            raise ArithError("precision insufficient to resolve valuation")
        return v - t

    def __repr__(self):
        return f"Quad({self.a} + {self.b}*sqrt(-{self.d}))"
