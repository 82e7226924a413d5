"""Independent checks on library outputs.

Nothing here calls into ``iwasawalab``: exact outputs are compared with
floating-point recomputations made from the benchmark's own request data, with
plain-integer arithmetic modulo p^N, or with monomials the benchmark writes
down itself.  The library's own equality tests are not trusted here.
"""

from __future__ import annotations

import cmath
import math

# Relative tolerance of a floating-point cross-check.  A sum of at most a few
# hundred double-precision terms is off by a few hundred ulps of its scale;
# 2^-40 is about 4096 ulps of 1.0, so an exact result evaluated in floating
# point stays inside it, and a perturbation of any rational coordinate by more
# than about 1e-12 of the scale falls outside it.
TOL = 2.0 ** -40

_ROOTS: dict[int, list[complex]] = {}


def root(m: int, k: int) -> complex:
    """exp(2 pi i k / m), from a per-conductor table."""
    table = _ROOTS.get(m)
    if table is None:
        table = [cmath.exp(2j * math.pi * t / m) for t in range(m)]
        _ROOTS[m] = table
    return table[k % m]


def cyclo_complex(x) -> tuple[complex, float]:
    """(value at zeta_m = exp(2 pi i / m), sum of |coordinates|) of a CycloNumber."""
    total = 0j
    scale = 0.0
    for j, c in enumerate(x.coeffs):
        if c:
            f = float(c)
            total += f * root(x.m, j)
            scale += abs(f)
    return total, scale


def close(x, want: complex, scale: float = 0.0) -> bool:
    """Does the CycloNumber x (None meaning 0) evaluate to want?

    scale bounds the magnitude of the terms the caller summed to get want.
    """
    got, got_scale = cyclo_complex(x) if x is not None else (0j, 0.0)
    return abs(got - want) <= TOL * (got_scale + abs(want) + scale)


def coeff_bits(x) -> int:
    """Largest numerator or denominator bit length of a CycloNumber."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in x.coeffs), default=0)


def padic_is_int(x, n: int, modulus: int) -> bool:
    """Is the p-adic element x the integer n modulo `modulus` (all other
    coordinates zero)?"""
    return (x.coords[0] - n) % modulus == 0 and all(c % modulus == 0 for c in x.coords[1:])


def unit_residues(coeffs: dict, p: int = 5, torsion: int = 4, gen: int = 2) -> list[int]:
    """Residues mod p of the theta-component augmentations of an integer
    measure on Z/torsion x Z/p^k (keys (a, b)).

    gen is a primitive torsion-th root of unity mod p; the set of residues is
    the same for every choice, so it does not depend on how the library embeds
    the torsion characters.
    """
    per_a = [0] * torsion
    for (a, _), c in coeffs.items():
        per_a[a] += c
    return [sum(pow(gen, k * a, p) * s for a, s in enumerate(per_a)) % p
            for k in range(torsion)]


def convolve_ints(f: dict, g: dict, orders: tuple[int, int], modulus: int) -> dict:
    """Convolution of two integer measures on Z/orders[0] x Z/orders[1] mod `modulus`."""
    out: dict = {}
    n0, n1 = orders
    for (a0, a1), x in f.items():
        for (b0, b1), y in g.items():
            key = ((a0 + b0) % n0, (a1 + b1) % n1)
            out[key] = (out.get(key, 0) + x * y) % modulus
    return {k: v for k, v in out.items() if v}


def expected_monomial(kind: str, sign: int, k: int) -> dict[str, int]:
    """Period monomial an interpolation ratio must reduce to at a
    representation: (2pi)^(k-2) Om+ / Ominf^(k-1) for the +1 eigenspace,
    the same with Om- for the -1 eigenspace, and their product for an induced
    (two-dimensional) representation."""
    plus = {"2pi": k - 2, "Om+": 1, "Ominf": -(k - 1)}
    minus = {"2pi": k - 2, "Om-": 1, "Ominf": -(k - 1)}
    if kind == "induced":
        parts = (plus, minus)
    else:
        parts = (plus,) if sign == 1 else (minus,)
    out: dict[str, int] = {}
    for part in parts:
        for s, e in part.items():
            out[s] = out.get(s, 0) + e
    return {s: e for s, e in out.items() if e}


def is_expected_monomial(expr, kind: str, sign: int, k: int) -> bool:
    """Is the reduced SymExpr exactly the expected period monomial, with
    scalar 1 and no polynomial factors or leftover atoms?"""
    if expr.num or expr.den:
        return False
    scalar = expr.scalar.coeffs
    if scalar[0] != 1 or any(scalar[1:]):
        return False
    return dict(expr.mono) == expected_monomial(kind, sign, k)
