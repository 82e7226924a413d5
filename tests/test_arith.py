"""Exact arithmetic substrate tests.

Derived expected values below were computed by the independent oracles named
in the comments (brute force over residues, extended-gcd checks) and frozen.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwasawalab.arith import (
    ArithError,
    CLASS_NUMBER_ONE_DISCS,
    CycloNumber,
    PadicRing,
    QuadFieldElem,
    _accumulate_roots,
    _unpack,
    cyclotomic_poly,
    embed_cyclo_padic,
    euler_phi,
    legendre_symbol,
    padic_ring_for_conductor,
    padic_sqrt,
    zeta,
)
from iwasawalab.grpring import PadicCoeffs


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_order():
    assert zeta(5) * zeta(5, 4) == 1
    assert zeta(4) ** 2 == -1


def test_inverse_of_one_plus_zeta3():
    # oracle: extended gcd of (1 + x) with x^2 + x + 1 over Q gives -x,
    # and (1 + z3) * (-z3) = -z3 - z3^2 = 1.
    x = 1 + zeta(3)
    inv = x.inverse()
    assert inv == -zeta(3)
    assert x * inv == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.from_rational(0, 5).inverse()


def test_binary_floats_are_refused_and_exact_inputs_read_as_before():
    from iwasawalab.symratio import Relation, SymExpr

    ring = padic_ring_for_conductor(5, 1, 6)
    readers = [
        lambda x: CycloNumber.from_rational(x),
        lambda x: CycloNumber(5, [x, 0, 1, 0]),
        lambda x: SymExpr(Relation(), x),
        lambda x: SymExpr.poly({(): x, (("u", 1),): 1}),
        lambda x: ring.from_fraction(x),
        lambda x: QuadFieldElem.rational(7, x),
        lambda x: QuadFieldElem(7, 1, x),
    ]
    for read in readers:
        with pytest.raises(TypeError, match="binary float 0.1 "):
            read(0.1)
        assert read(F(1, 3)) == read("1/3") and read(F(-2)) == read(-2) == read("-2")
    assert CycloNumber.from_rational("1/3").rational_value() == F(1, 3)
    assert SymExpr(Relation(), "1/3").render() == "1/3"
    assert ring.from_fraction("1/3") * 3 == ring.from_int(1)


def test_conductor_overflow():
    with pytest.raises(ArithError):
        zeta(7) * zeta(2003)  # merged conductor beyond the configured bound


def test_galois_and_conjugation():
    x = zeta(5) + 2 * zeta(5, 2)
    assert x.galois(2) == zeta(5, 2) + 2 * zeta(5, 4)
    assert x.conjugate().conjugate() == x


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([3, 4, 5, 8, 12]),
    data=st.data(),
)
def test_cyclo_field_axioms(m, data):
    phi = euler_phi(m)
    small = st.integers(min_value=-5, max_value=5)
    x = CycloNumber(m, [F(data.draw(small)) for _ in range(phi)])
    y = CycloNumber(m, [F(data.draw(small)) for _ in range(phi)])
    z = CycloNumber(m, [F(data.draw(small)) for _ in range(phi)])
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == 1


def test_mul_root_agrees_with_full_product():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.choice([5, 8, 20])
        x = CycloNumber(m, [F(rng.randint(-3, 3)) for _ in range(euler_phi(m))])
        k = rng.randrange(m)
        assert x.mul_root(m, k) == x * zeta(m, k)


# ---------------------------------------------------------------------------
# p-adic numbers
# ---------------------------------------------------------------------------

def test_teichmuller_spec_values():
    # the ring's images of mu_4 in Z_5; oracle: brute force over residues
    # mod 25 with x^4 = 1
    assert PadicRing(5, 4).roots_of_unity(4)[2][0] == PadicRing(5, 4).one()
    assert sorted(x.coords[0] for x in PadicRing(5, 2).roots_of_unity(4)[2]) == [1, 7, 18, 24]


def test_teichmuller_multiplicative_every_precision():
    # the cached images of mu_4 against pow(a, p^(N-1), p^N), the
    # Teichmueller lift of a mod p
    for n in range(1, 9):
        ring = PadicRing(5, n)
        images = ring.roots_of_unity(4)[2]
        residues = [x.coords[0] % 5 for x in images]
        assert sorted(residues) == [1, 2, 3, 4]
        for x, a in zip(images, residues):
            assert x ** 4 == ring.one()
            assert x.coords[0] == pow(a, 5 ** (n - 1), 5 ** n)
        for a in range(4):
            for b in range(4):
                assert images[a] * images[b] == images[(a + b) % 4]


def test_padic_sqrt_spec_values():
    assert padic_sqrt(4, 5, 3).coords[0] == 2
    # oracle: brute force over residues mod 25; roots of -11 are 8 and 17,
    # the residue-2 one (17) is selected by the tie-break
    d = padic_sqrt(-11, 5, 2)
    assert d.coords[0] == 17
    assert (d * d).coords[0] == 14
    with pytest.raises(ArithError):
        padic_sqrt(2, 5, 2)
    with pytest.raises(ArithError):
        padic_sqrt(5, 5, 4)  # not a unit


def test_padic_valuation_product_rule():
    ring = PadicRing(5, 10)
    rng = random.Random(3)
    for _ in range(100):
        a = ring.from_int(rng.randrange(1, 5 ** 6))
        b = ring.from_int(rng.randrange(1, 5 ** 6))
        va, vb, vab = a.valuation(), b.valuation(), (a * b).valuation()
        if va is not None and vb is not None and va + vb < 10:
            assert vab == va + vb


def test_padic_unit_inversion_full_precision():
    ring = PadicRing(7, 9)
    x = ring.from_int(123456)
    assert x.is_unit()
    assert x * x.inverse() == ring.one()


PADIC_SHAPES = [
    (p, f, pk) for p in (5, 7, 11, 13) for f in (1, 2, 3, 4)
    for pk in ((1, 5, 25, 125) if p == 5 else (1, p))
]


@pytest.mark.parametrize("p, f, pk", PADIC_SHAPES)
def test_padic_units_invert_and_non_units_raise(p, f, pk):
    rng = random.Random(p * 1000 + f * 10 + pk)
    for N in (1, 4):
        ring = PadicRing(p, N, f, pk)
        if f > 1:
            # the Newton start is a power in PadicRing(p, 1, f), which must
            # reduce by the same modulus
            assert PadicRing(p, 1, f)._unram_mod == tuple(c % p for c in ring._unram_mod)
        for _ in range(2):
            x = ring.from_coords([rng.randrange(ring.pN) for _ in range(ring.dim)])
            if not any(x.residue()):
                x = x + 1
            # is_unit reads the residue; the valuation is its reference
            assert x.is_unit() and x.valuation() == 0
            assert x * x.inverse() == ring.one()
            for y in (x * ring.uniformizer(), ring.zero()):
                assert not y.is_unit() and y.valuation() != 0
                with pytest.raises(ArithError):
                    y.inverse()


def _accumulated_substitution(ring, x, a):
    """zeta -> zeta^a on each beta-block through the sparse zeta-power table."""
    e, pk = ring.e, ring.eisenstein_pk
    buf = [0] * ring.dim
    for base in range(0, ring.dim, e):
        _accumulate_roots(buf, pk, x.coords[base:base + e], a, 0, base)
    return ring.from_coords(buf)


@pytest.mark.parametrize("p, f, pk", PADIC_SHAPES)
def test_zeta_substitution_matches_the_sparse_table(p, f, pk):
    rng = random.Random(p * 1000 + f * 10 + pk + 1)
    ring = PadicRing(p, 3, f, pk)
    top = ring.from_coords([ring.pN - 1] * ring.dim)
    for a in (a for a in range(1, max(pk, 2)) if a % p):
        x = ring.from_coords([rng.randrange(ring.pN) for _ in range(ring.dim)])
        for y in (x, top):
            got = ring.zeta_substitution(y, a)
            want = y if pk == 1 else _accumulated_substitution(ring, y, a)
            assert got.coords == want.coords
    if pk > 1:
        with pytest.raises(ArithError):
            ring.zeta_substitution(top, p)


def _assert_reduced(x):
    assert isinstance(x.coords, tuple) and len(x.coords) == x.ring.dim
    assert all(0 <= c < x.ring.pN for c in x.coords)


@pytest.mark.parametrize("p, f, pk", PADIC_SHAPES)
def test_every_padic_operation_returns_reduced_coordinates(p, f, pk):
    rng = random.Random(p * 1000 + f * 10 + pk + 2)
    for N in (1, 4):
        ring = PadicRing(p, N, f, pk)
        big = 7 * ring.pN

        def element():
            return ring.from_coords([rng.randrange(-big, big) for _ in range(ring.dim)])

        x, y = element(), element()
        unit = x if x.is_unit() else x + 1
        made = [x, y, ring.zero(), ring.one(), ring.from_int(-big - 3),
                ring.from_fraction(F(-7, p + 1)), ring.uniformizer(),
                x + y, x - y, -x, x + 3, 3 - x, x * y, x * -5, x * F(2, 3), x ** 3,
                unit.inverse(), y / unit, x.reduce_precision(1), ring.frobenius(x)]
        if N > 1:
            made.append((x * p).divide_exact_p_power(1))
        if f > 1:
            made.append(ring.unram_gen())
        if pk > 1:
            made += [ring.zeta_gen(), ring.zeta_substitution(x, p + 1),
                     ring.root_sum([x], pk, [pk - 1]), ring.root_sum([x, y], pk, [1, 2])]
        for z in made:
            _assert_reduced(z)


def test_eisenstein_uniformizer_valuation():
    ring = padic_ring_for_conductor(5, 25, 6)
    z = ring.zeta_gen()
    assert (z - ring.one()).valuation() == F(1, 20)
    assert ring.from_int(5).valuation() == 1
    assert z ** 25 == ring.one()


def test_divide_exact_p_power_tracks_precision():
    ring = PadicRing(5, 6)
    x = ring.from_int(75)
    y = x.divide_exact_p_power(2)
    assert y.ring.precision == 4
    assert y.coords[0] == 3
    with pytest.raises(ArithError):
        ring.from_int(7).divide_exact_p_power(1)


def _schoolbook_product(ring, a, b):
    """Coordinates of a * b: the product on the beta^i zeta^j basis, reduced
    by long division by Phi_{p^k} in zeta and by the unramified modulus in beta."""
    e, f, pN = ring.e, ring.unram_degree, ring.pN
    prod = [[0] * (2 * e - 1) for _ in range(2 * f - 1)]
    for i1 in range(f):
        for j1 in range(e):
            for i2 in range(f):
                for j2 in range(e):
                    prod[i1 + i2][j1 + j2] += a[i1 * e + j1] * b[i2 * e + j2]
    phi = cyclotomic_poly(ring.eisenstein_pk)
    for row in prod:
        for d in range(2 * e - 2, e - 1, -1):
            c, row[d] = row[d], 0
            for t in range(e):
                row[d - e + t] -= c * phi[t]
    low = ring._unram_mod if f > 1 else ()
    for d in range(2 * f - 2, f - 1, -1):
        top, prod[d] = prod[d], [0] * (2 * e - 1)
        for t in range(f):
            prod[d - f + t] = [x - low[t] * y for x, y in zip(prod[d - f + t], top)]
    return tuple(prod[i][j] % pN for i in range(f) for j in range(e))


@pytest.mark.parametrize("p, N, f, pk", [
    (5, 6, 1, 25), (5, 5, 3, 25), (7, 4, 2, 49), (5, 4, 1, 125), (5, 6, 4, 1),
    (5, 40, 2, 5),  # slots wider than one 64-bit word
])
def test_padic_product_matches_schoolbook(p, N, f, pk):
    ring = PadicRing(p, N, f, pk)
    rng = random.Random(20)
    top = [ring.pN - 1] * ring.dim  # every slot at its carry bound
    cases = [(top, top)]
    for _ in range(4):
        cases.append(tuple([rng.randrange(ring.pN) if rng.random() < 0.6 else 0
                            for _ in range(ring.dim)] for _ in range(2)))
    scalar = [0] * ring.dim
    scalar[0] = rng.randrange(ring.pN)
    cases.append((cases[1][0], scalar))
    for a, b in cases:
        assert (ring.from_coords(a) * ring.from_coords(b)).coords == _schoolbook_product(ring, a, b)


@pytest.mark.parametrize("p, N, f, pk", [(5, 6, 2, 25), (5, 4, 1, 125), (7, 3, 3, 7)])
def test_mul_zeta_power_is_multiplication_by_zeta_power(p, N, f, pk):
    # x * zeta^s as the one-term root sum of the p-power order pk
    ring = PadicRing(p, N, f, pk)
    rng = random.Random(21)
    x = ring.from_coords([rng.randrange(ring.pN) for _ in range(ring.dim)])
    z = ring.zeta_gen()
    for s in range(pk):
        assert ring.root_sum([x], pk, [s]) == x * z ** s


def _naive_lower(ring, n, width):
    """Coordinates of a sum of rotated packed values, one coordinate at a
    time: every slot unpacked, then each block of Z[x]/(x^{p^k} - 1) folded
    mod Phi_{p^k} and reduced mod p^N by _fold_cyclic (for p^k = 1, the
    block's one slot reduced mod p^N)."""
    pk = ring.eisenstein_pk
    span = 2 * pk
    blocks = -(-n.bit_length() // (8 * width * span))
    vals = _unpack(n, span * blocks, width)
    out = []
    for base in range(0, len(vals), span):
        out += ring._fold_cyclic(vals[base:base + pk]) if pk > 1 else [vals[base] % ring.pN]
    return tuple(out) + (0,) * (ring.dim - len(out))


@pytest.mark.parametrize("N", [1, 6, 15, 40])  # N = 40: slots wider than 64 bits
@pytest.mark.parametrize("f", [1, 2, 4])
@pytest.mark.parametrize("pk", [1, 5, 25, 125])
def test_packed_lower_matches_the_per_coordinate_fold(pk, f, N):
    ring = PadicRing(5, N, f, pk)
    rng = random.Random(pk * 1000 + f * 100 + N)
    top = ring.from_coords([ring.pN - 1] * ring.dim)  # every slot at its bound
    for terms in (1, 6, max(pk, 2)):
        width = ring._rotation_width(terms)
        randoms = [ring.from_coords([rng.randrange(ring.pN) for _ in range(ring.dim)])
                   for _ in range(terms)]
        for values in ([top] * terms, randoms, randoms[:1], []):
            forms, sums, lower = ring._rotation_lift(values, terms)
            for _ in range(3):
                x = sum(sums(pk)([forms], [[rng.randrange(pk) for _ in forms]]))
                assert lower([x])[0].coords == _naive_lower(ring, x, width)


def test_mul_by_root_builds_the_lower_constants_once(monkeypatch):
    ring = PadicRing(5, 7, 2, 25)
    built = []

    class Counted(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(ring, "_lowers", Counted())
    coeffs = PadicCoeffs(ring)
    x = ring.from_coords(range(1, ring.dim + 1))
    z = ring.zeta_gen()
    for k in range(100):
        y = coeffs.mul_by_root(x, 25, k)
        if k % 25 < 3:
            assert y == x * z ** (k % 25)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# cyclotomic-to-p-adic embedding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dense_powers(ring, m):
    """zeta_m^i in ring for i < phi(m), multiplied up densely from one image
    of zeta_m: a power of the Teichmueller generator times a power of the
    Eisenstein generator.  Built without ring.roots_of_unity, which it checks."""
    mp, mq = 1, m
    while mq % ring.p == 0:
        mp, mq = mp * ring.p, mq // ring.p
    q = ring.p ** ring.unram_degree
    img = ring.one()
    if mq > 1:
        img = ring.teichmuller_generator() ** ((q - 1) // mq * pow(mp, -1, mq))
    if mp > 1:
        img = img * (ring.zeta_gen() ** (ring.eisenstein_pk // mp)) ** pow(mq, -1, mp)
    powers = [ring.one()]
    for _ in range(euler_phi(m) - 1):
        powers.append(powers[-1] * img)
    return tuple(powers)


def _dense_embed(x, ring):
    """embed_cyclo_padic(x, ring) as the dense sum of c_i * zeta_m^i."""
    total = ring.zero()
    for c, z in zip(x.coeffs, _dense_powers(ring, x.m)):
        if c:
            total = total + z * ring.from_fraction(c)
    return total


def test_embed_spec_values():
    assert embed_cyclo_padic(CycloNumber.from_rational(1), PadicRing(5, 4)) == PadicRing(5, 4).one()
    # z4 lands on the Teichmueller lift of the canonical sqrt(-1) mod 5
    assert embed_cyclo_padic(zeta(4), PadicRing(5, 2)).coords[0] == 7
    ring = padic_ring_for_conductor(5, 5, 4)
    img = embed_cyclo_padic(zeta(5), ring)
    assert (img - ring.one()).valuation() == F(1, 4)


EMBED_CONDUCTORS = (4, 5, 12, 15, 20, 25, 60, 100)


@pytest.mark.parametrize("m", EMBED_CONDUCTORS)
def test_embed_matches_dense_reference(m):
    # the ring of conductor m (15 and 60 give mixed(2, 5)) and values of
    # every listed conductor dividing m, with denominators prime to p
    rng = random.Random(m)
    ring = padic_ring_for_conductor(5, m, 8)
    for d in (d for d in (1, 3) + EMBED_CONDUCTORS if m % d == 0):
        for _ in range(5):
            x = CycloNumber(d, [F(rng.randint(-99, 99), rng.choice([1, 3, 7]))
                                if rng.random() < 0.7 else 0 for _ in range(euler_phi(d))])
            assert embed_cyclo_padic(x, ring) == _dense_embed(x, ring)


def test_embed_is_ring_map_200_random_pairs():
    rng = random.Random(11)
    ring = padic_ring_for_conductor(5, 20, 8)
    ring3 = padic_ring_for_conductor(5, 15, 8)
    for trial in range(200):
        m, target = (rng.choice([4, 5, 10, 20]), ring) if trial % 2 else (rng.choice([3, 15]), ring3)
        phi = euler_phi(m)
        x = CycloNumber(m, [F(rng.randint(-9, 9)) for _ in range(phi)])
        y = CycloNumber(m, [F(rng.randint(-9, 9)) for _ in range(phi)])
        assert embed_cyclo_padic(x * y, target) == embed_cyclo_padic(x, target) * embed_cyclo_padic(y, target)
        assert embed_cyclo_padic(x + y, target) == embed_cyclo_padic(x, target) + embed_cyclo_padic(y, target)


def test_embed_rejects_insufficient_ring():
    ring = PadicRing(5, 4)
    for m in (25, 3):  # no eisenstein part; mu_3 not in Z_5
        with pytest.raises(ArithError):
            embed_cyclo_padic(zeta(m), ring)
        with pytest.raises(ArithError):
            PadicCoeffs(ring).mul_by_root(ring.one(), m, 1)


def test_frobenius_is_ring_automorphism():
    ring = PadicRing(5, 6, unram_degree=2)
    b = ring.unram_gen()
    x = b * b + ring.from_int(3) * b + ring.from_int(1)
    y = b - ring.from_int(2)
    fx, fy = ring.frobenius(x), ring.frobenius(y)
    assert ring.frobenius(x * y) == fx * fy
    assert ring.frobenius(x + y) == fx + fy
    # order 2 on the degree-2 extension
    assert ring.frobenius(fx) == x


# ---------------------------------------------------------------------------
# quadratic field elements
# ---------------------------------------------------------------------------

def test_quad_conjugation_involutive_ring_map():
    x = QuadFieldElem(11, F(2), F(3, 5))
    y = QuadFieldElem(11, F(-1, 2), F(4))
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_quad_norm_multiplicative_200_pairs_per_disc():
    rng = random.Random(5)
    for d in CLASS_NUMBER_ONE_DISCS:
        for _ in range(200):
            x = QuadFieldElem(d, F(rng.randint(-9, 9), rng.randint(1, 5)),
                              F(rng.randint(-9, 9), rng.randint(1, 5)))
            y = QuadFieldElem(d, F(rng.randint(-9, 9), rng.randint(1, 5)),
                              F(rng.randint(-9, 9), rng.randint(1, 5)))
            assert (x * y).norm() == x.norm() * y.norm()


def test_quad_split_embedding_and_valuation():
    # p = 5 splits in Q(sqrt(-11)); norm valuation = sum over both primes
    x = QuadFieldElem(11, F(2), F(1))
    v = x.valuation_at_split_prime(5)
    vbar = x.conjugate().valuation_at_split_prime(5)
    assert x.norm() == 15  # 2^2 + 11, so v_5(norm) = 1
    assert v + vbar == 1


def test_quad_rejects_unknown_disc():
    with pytest.raises(ArithError):
        QuadFieldElem(5, F(1), F(0))


def test_legendre_symbol():
    assert legendre_symbol(-11, 5) == 1
    assert legendre_symbol(2, 5) == -1
    assert legendre_symbol(-3, 5) == -1
