"""CycloNumber on integer coordinates: naive references and field laws.

A CycloNumber stores integer coordinates num over one positive denominator
den.  The product is compared with a Fraction schoolbook product reduced by
long division mod Phi_m; the laws are checked as properties at conductors
from 1 to 500; repr output is frozen on fixed values (report witnesses
contain it, so the verify checksum depends on it).
"""

import random
import time
from fractions import Fraction as F
from functools import reduce
from itertools import repeat
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawalab.arith import (CycloNumber, PadicRing, cyclotomic_poly, euler_phi,
                              padic_ring_for_conductor, zeta)
from iwasawalab.grpring import CYCLO, PadicCoeffs
from iwasawalab.symratio import SymCoeffs, SymExpr

CONDUCTORS = (1, 2, 4, 12, 100, 125, 500)


def naive_product(m, xs, ys):
    """Fraction schoolbook product of two coordinate vectors, reduced mod Phi_m
    by long division."""
    prod = [F(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                prod[i + j] += x * y
    modulus = cyclotomic_poly(m)
    d = len(modulus) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for i, mc in enumerate(modulus):
                prod[k - d + i] -= c * mc
    return prod[:d] + [F(0)] * (d - len(prod))


def random_coords(rng, phi, density, bits):
    def coord():
        if rng.random() >= density:
            return F(0)
        return F(rng.randint(-(1 << bits), 1 << bits), rng.choice([1, 1, 2, 3, 4, 9, 35]))
    return [coord() for _ in range(phi)]


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.m)
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("m", CONDUCTORS)
def test_product_matches_fraction_schoolbook(m):
    rng = random.Random(m)
    phi = euler_phi(m)
    # (density of x, density of y, coordinate bits): 80 bits cross a machine word
    for dx, dy, bits in [(1.0, 1.0, 6), (0.1, 1.0, 6), (0.3, 0.3, 80), (0.0, 1.0, 1)]:
        xs = random_coords(rng, phi, dx, bits)
        ys = random_coords(rng, phi, dy, bits)
        got = CycloNumber(m, xs) * CycloNumber(m, ys)
        assert got.m == m
        assert_canonical(got)
        assert list(got.coeffs) == naive_product(m, xs, ys)


def test_product_of_roots_wraps_past_the_conductor():
    # exponents i + j >= m reduce through zeta^k = zeta^(k mod m)
    for m in (5, 12, 125):
        for a in range(m):
            b = (m - 1) * (a + 3) % m
            assert zeta(m, a) * zeta(m, b) == zeta(m, a + b)


def test_root_sums_matches_sum_of_mul_root_terms():
    # one row of exponents per root_sum call, over CYCLO, PadicCoeffs on
    # Z_5[zeta_25], mixed(2, 5) and the conductor-100 ring, and SymCoeffs,
    # against the sum of mul_by_root terms; an empty support gives zero
    rng = random.Random(4)
    cyclo = ([CycloNumber(100, random_coords(rng, 40, 0.5, 8)) for _ in range(6)]
             + [CycloNumber.from_rational(F(rng.randint(-9, 9), 7)) for _ in range(3)]
             + [CycloNumber(20, random_coords(rng, 8, 1.0, 4)) for _ in range(3)]
             + [CycloNumber.from_rational(0, 25)])
    cases = [(CYCLO, cyclo, (25, 100))]
    for ring, orders in ((PadicRing(5, 6, 1, 25), (5, 25)), (PadicRing(5, 6, 2, 5), (15, 60)),
                         (padic_ring_for_conductor(5, 100, 8), (4, 100))):
        coeffs = [ring.from_coords([rng.randrange(ring.pN) if rng.random() < 0.6 else 0
                                    for _ in range(ring.dim)]) for _ in range(12)]
        cases.append((PadicCoeffs(ring), coeffs + [ring.zero()], orders))
    sym = SymCoeffs()
    cases.append((sym, [SymExpr.sym("L", rng.randint(-2, 2)) * sym.from_cyclo(c)
                        for c in cyclo if c.m in (1, 20)], (12, 20)))
    for ring, coeffs, orders in cases:
        for m in orders:
            for _ in range(3):
                exps = [rng.randrange(m) for _ in coeffs]
                got = ring.root_sum(coeffs, m, exps)
                assert got == reduce(add, map(ring.mul_by_root, coeffs, repeat(m), exps))
                if ring is CYCLO:
                    assert_canonical(got)
            assert ring.root_sum([], m, []) == ring.zero()


def test_repr_golden():
    # frozen from the Fraction-coordinate implementation
    assert repr(CycloNumber.from_rational(0, 5)) == "Cyclo(0)"
    assert repr(CycloNumber.from_rational(F(-3, 4))) == "Cyclo(-3/4)"
    assert repr(CycloNumber(12, [F(1, 2), F(-2, 3), 0, 5])) == "Cyclo(1/2 + -2/3*z12^1 + 5*z12^3)"
    assert repr(CycloNumber(5, [0, 1, 0, 0])) == "Cyclo(z5^1)"
    assert (repr(CycloNumber(5, [F(6, 4), F(-1, 6), 0, 1]) * zeta(5, 3))
            == "Cyclo(1/6 + 7/6*z5^1 + 1/6*z5^2 + 5/3*z5^3)")
    assert repr((zeta(4) + F(1, 3)).inverse()) == "Cyclo(3/10 + -9/10*z4^1)"
    assert repr(CycloNumber(7, [0, 0, 0, 0, 0, F(-7, 3)]) + F(1, 5)) == "Cyclo(1/5 + -7/3*z7^5)"


def test_zero_and_constructor_layout():
    zero = CycloNumber(12, [F(0), F(0, 5), 0, 0])
    assert zero.num == (0, 0, 0, 0) and zero.den == 1
    assert zero == CycloNumber.from_rational(0, 12) == 0
    x = CycloNumber(12, [F(1, 6), F(-1, 4), 0, 2])
    assert x.num == (2, -3, 0, 24) and x.den == 12
    assert (x - x).num == (0, 0, 0, 0) and (x - x).den == 1


# ---------------------------------------------------------------------------
# field laws as properties
# ---------------------------------------------------------------------------

_rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _cyclo(draw, m):
    """A value at conductor m with at most six nonzero coordinates."""
    phi = euler_phi(m)
    coords = [F(0)] * phi
    for _ in range(draw(st.integers(0, 6))):
        coords[draw(st.integers(0, phi - 1))] = draw(_rationals)
    return CycloNumber(m, coords)


@st.composite
def _cyclo_triple(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    return m, draw(_cyclo(m)), draw(_cyclo(m))


def _unit_mod(m, data):
    return data.draw(st.integers(1, max(1, m - 1)).filter(lambda a: gcd(a, m) == 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cyclo_triple())
def test_canonical_form_after_every_operation(args):
    m, x, y = args
    results = [x + y, x - y, -x, x * y, x * F(-4, 6), x.mul_root(m, 7), x.conjugate()]
    if not x.is_zero():
        inv = x.inverse()
        assert x * inv == 1
        results.append(inv)
    for r in results:
        assert_canonical(r)
        assert r.m == m


def test_inverse_of_sparse_value_at_conductor_500():
    # an extended Euclid over Q took over a minute here, its remainders growing;
    # the Galois norm takes a few hundredths of a second
    x = zeta(500, 3) * F(7, 3) - zeta(500, 150) * F(5, 2) + zeta(500, 190)
    start = time.perf_counter()
    inv = x.inverse()
    assert time.perf_counter() - start < 2.0
    assert_canonical(inv)
    assert x * inv == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(CONDUCTORS), _rationals)
def test_rational_values_hash_and_compare_as_fractions(m, q):
    x = CycloNumber.from_rational(q, m)
    assert x.is_rational() and x.rational_value() == q
    assert hash(x) == hash(q)
    assert x == q
    n = q.numerator
    xn = CycloNumber.from_rational(q * q.denominator, m)
    assert xn == n and hash(xn) == hash(n)
    if q:
        one = x * x.inverse()
        assert one == 1 and hash(one) == hash(1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cyclo_triple(), st.data())
def test_galois_composition(args, data):
    m, x, _ = args
    a, b = _unit_mod(m, data), _unit_mod(m, data)
    assert x.galois(a).galois(b) == x.galois(a * b % m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cyclo_triple(), st.sampled_from([1, 2, 3]))
def test_lift_is_a_ring_map(args, factor):
    m, x, y = args
    big = m * factor
    lift = CycloNumber.lift_to
    assert lift(x + y, big) == lift(x, big) + lift(y, big)
    assert lift(x * y, big) == lift(x, big) * lift(y, big)
    assert lift(CycloNumber.from_rational(1, m), big) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cyclo_triple())
def test_coeffs_round_trip(args):
    m, x, _ = args
    back = CycloNumber(m, x.coeffs)
    assert back.num == x.num and back.den == x.den
    assert all(isinstance(c, F) for c in x.coeffs)
