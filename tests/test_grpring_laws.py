"""Algebraic laws of the measure operations, checked on seeded random measures
over the cyclotomic and p-adic coefficient rings, and the Fourier transform
kernel checked against the dense character sums it replaces.

Rings: CYCLO with cyclotomic coefficients of mixed conductors and
denominators, CYCLO with integer coefficients (rational-valued measures), and
PadicCoeffs(PadicRing(5, 6, f, pk)) for f in {1, 2, 3} and pk in {1, 5, 25}.
Groups: Z/n and Z/n x Z/m, among them Z/49, Z/125 and Z/4 x Z/125 (several
Cooley-Tukey stages on one axis), each taken over the rings that hold its
character values.  Laws:

* eval_char(convolve(a, b), chi) = eval_char(a, chi) * eval_char(b, chi);
* fourier_invert(eval_all_chars(a)) = a, at the precision that is left after
  dividing out v_5(|G|) digits over a p-adic ring;
* eval_char(twist(f, chi), psi) = eval_char(f, psi * chi^-1).

Dense references, one term per pair and never the transform: the forward sum
v(chi) = sum_g f(g) chi(g) and the inverse m(g) = |G|^-1 sum_chi v(chi)
chi(g^-1), compared with eval_all_chars, fourier_invert and the
idempotent_split / assemble_from_components pair.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from iwasawalab.arith import CycloNumber, PadicRing, euler_phi, zeta
from iwasawalab.chargroup import FinAbGroup, char_table
from iwasawalab.grpring import (
    CYCLO,
    Measure,
    PadicCoeffs,
    assemble_from_components,
    convolve,
    eval_all_chars,
    eval_char,
    fourier_invert,
    idempotent_split,
    random_measure,
    twist,
)
from iwasawalab.symratio import SymCoeffs, SymExpr
from test_arith import _dense_embed

P, N = 5, 6
GROUPS = [(4,), (8,), (3,), (25,), (2, 2), (2, 6), (4, 5), (5, 5), (2, 25),
          (49,), (125,), (4, 125)]


def _conductors(group):
    """Coefficient conductors from (3, 4, 5, 12, 25): those whose lcm with the
    group exponent e is at most 1000, less the last ones that do not divide e
    until the lcm of them all is at most 1000.  That keeps the conductor of
    the transforms on Z/49, Z/125 and Z/4 x Z/125 within 1000, and every
    other group's pool whole."""
    e = group.exponent()
    pool = [c for c in (3, 4, 5, 12, 25) if lcm(e, c) <= 1000]
    while lcm(e, *pool) > 1000:
        pool.remove(next(c for c in reversed(pool) if e % c))
    return pool


def _cyclo_measure(group, rng):
    points = rng.sample(group.elements(), rng.randint(1, min(group.order(), 8)))
    return Measure(group, CYCLO, {
        g: zeta(rng.choice(_conductors(group)), rng.randrange(100))
        * F(rng.randint(1, 9), rng.randint(1, 4)) + F(rng.randint(-3, 3), rng.randint(1, 3))
        for g in points})


def _integer_measure(group, rng):
    return random_measure(group, CYCLO, rng, density=0.5)


def _padic_maker(coeffs):
    ring = coeffs.ring

    def make(group, rng):
        points = rng.sample(group.elements(), rng.randint(1, min(group.order(), 8)))
        return Measure(group, coeffs, {g: ring.from_coords(
            [rng.randrange(ring.pN) for _ in range(ring.dim)]) for g in points})

    return make


KINDS = [("cyclo", CYCLO, _cyclo_measure), ("cyclo-integer", CYCLO, _integer_measure)] + [
    (f"padic-f{f}-pk{pk}", coeffs, _padic_maker(coeffs))
    for f in (1, 2, 3) for pk in (1, 5, 25)
    for coeffs in [PadicCoeffs(PadicRing(P, N, f, pk))]]


def _groups(ring):
    """The groups of GROUPS whose character values lie in the ring."""
    if ring is CYCLO:
        return [FinAbGroup(orders) for orders in GROUPS]
    r = ring.ring
    # mu_m embeds iff m divides pk * (p^f - 1)
    roots = r.eisenstein_pk * (r.p ** r.unram_degree - 1)
    return [FinAbGroup(orders) for orders in GROUPS
            if roots % FinAbGroup(orders).exponent() == 0]


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_eval_char_is_multiplicative_on_convolutions(name, ring, make):
    rng = random.Random(f"convolve-{name}")
    for group in _groups(ring):
        a, b = make(group, rng), make(group, rng)
        chi = rng.choice(char_table(group))
        assert eval_char(convolve(a, b), chi) == eval_char(a, chi) * eval_char(b, chi)


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_fourier_invert_undoes_eval_all_chars(name, ring, make):
    rng = random.Random(f"fourier-{name}")
    for group in _groups(ring):
        a = make(group, rng)
        back = fourier_invert(eval_all_chars(a), group, ring)
        assert back == a
        if ring is not CYCLO:
            order, v = group.order(), 0
            while order % P == 0:
                order, v = order // P, v + 1
            assert back.ring.ring.precision == N - v


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_twist_shifts_the_character(name, ring, make):
    rng = random.Random(f"twist-{name}")
    for group in _groups(ring):
        f = make(group, rng)
        table = char_table(group)
        for _ in range(2):
            chi, psi = rng.choice(table), rng.choice(table)
            assert eval_char(twist(f, chi), psi) == eval_char(f, psi * chi.inverse())


# ---------------------------------------------------------------------------
# the transform kernel against dense character sums
# ---------------------------------------------------------------------------

def _root(ring, m, k, cache):
    """zeta_m^k in the ring, cached per call: through the dense embedding
    (_dense_embed) over PadicCoeffs, through from_cyclo over the others."""
    key = (m, k % m)
    if key not in cache:
        cache[key] = (_dense_embed(zeta(m, k), ring.ring) if isinstance(ring, PadicCoeffs)
                      else ring.from_cyclo(zeta(m, k)))
    return cache[key]


def _dense_forward(ring, coeffs, chi, cache):
    """sum_g coeffs[g] chi(g), one product per term."""
    total = ring.zero()
    for g, c in coeffs.items():
        total = total + c * _root(ring, *chi.value_exponent(g), cache)
    return total


def _dense_inverse(ring, group, values, g, cache):
    """|G|^-1 sum_chi values[chi] chi(g^-1), dividing out the p-part of |G|
    exactly over a p-adic ring (as fourier_invert documents)."""
    total = ring.zero()
    for chi, v in values.items():
        total = total + v * _root(ring, *chi.value_exponent(group.neg(g)), cache)
    if ring is CYCLO:
        return total * F(1, group.order())
    order, k = group.order(), 0
    while order % P == 0:
        order, k = order // P, k + 1
    total = total * pow(order, -1, ring.ring.pN)
    return total.divide_exact_p_power(k) if k else total


def _positions(group, rng):
    """Every index for |G| <= 12, else 0 and 2 sampled ones."""
    n = group.order()
    return range(n) if n <= 12 else sorted({0, *rng.sample(range(n), 2)})


def _top_measure(group, ring):
    """Every coefficient equal, at the top of the packed slot width.

    Over CYCLO the value has every coordinate at +-c, c just above 2^23 / |G|,
    so the trivial character's value has every coordinate at +-|G| c: the
    packed slots, biased by |G| c, reach both ends of [0, 2 |G| c], and
    2 |G| c just passes 2^24.  Over a p-adic ring every coordinate is
    p^N - 1, so each output slot sums |G| (p^N - 1).
    """
    if ring is CYCLO:
        m = group.exponent()
        c = 2 ** 23 // group.order() + 1
        value = CycloNumber(m, [c * (-1) ** i for i in range(euler_phi(m))])
    else:
        r = ring.ring
        value = r.from_coords([r.pN - 1] * r.dim)
    return Measure(group, ring, {g: value for g in group.elements()})


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_eval_all_chars_matches_dense_sums(name, ring, make):
    rng = random.Random(f"dense-forward-{name}")
    for group in _groups(ring):
        cache = {}
        table = char_table(group)
        for f in (make(group, rng), _top_measure(group, ring)):
            got = eval_all_chars(f)
            assert list(got) == table
            for a in _positions(group, rng):
                assert got[table[a]] == _dense_forward(ring, f.coeffs, table[a], cache)


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_fourier_invert_matches_dense_sums(name, ring, make):
    rng = random.Random(f"dense-inverse-{name}")
    for group in _groups(ring):
        cache = {}
        table = char_table(group)
        elements = group.elements()
        if ring is CYCLO or group.order() % P:
            # any values, |G| being invertible: random ones, and the same
            # top-of-width value at every character
            pool = list(make(group, rng).coeffs.values())
            top = next(iter(_top_measure(group, ring).coeffs.values()))
            cases = [{chi: rng.choice(pool) * rng.randint(-3, 3) for chi in table},
                     dict.fromkeys(table, top)]
        else:
            # the dense forward sums of a measure, which invert to it
            a = make(group, rng)
            cases = [{chi: _dense_forward(ring, a.coeffs, chi, cache) for chi in table}]
            assert fourier_invert(cases[0], group, ring) == a
        for values in cases:
            got = fourier_invert(values, group, ring)
            for b in _positions(group, rng):
                want = _dense_inverse(ring, group, values, elements[b], cache)
                assert got.coeffs.get(elements[b], got.ring.zero()) == want


def _delta_axes(group, ring):
    """The axes a split may take as Delta: any for CYCLO, the prime-to-p ones
    over a p-adic ring (|Delta| must be a unit)."""
    if ring is CYCLO:
        return (0,)
    return tuple(i for i, n in enumerate(group.orders) if n % P)


def _dense_component(ring, group, delta, f, theta, x, cache):
    """sum over d of theta(d) f(d, x)."""
    total = ring.zero()
    for g, c in f.coeffs.items():
        if tuple(g[i] for i in range(group.rank) if i not in delta) == x:
            d = tuple(g[i] for i in delta)
            total = total + c * _root(ring, *theta.value_exponent(d), cache)
    return total


@pytest.mark.parametrize("name, ring, make", KINDS, ids=[k[0] for k in KINDS])
def test_split_and_assemble_match_dense_sums(name, ring, make):
    rng = random.Random(f"dense-split-{name}")
    for group in _groups(ring):
        delta = _delta_axes(group, ring)
        if not delta:
            continue
        cache = {}
        f = make(group, rng)
        comps = idempotent_split(f, delta)
        delta_group = FinAbGroup(tuple(group.orders[i] for i in delta))
        part = FinAbGroup(tuple(n for i, n in enumerate(group.orders) if i not in delta))
        for theta in char_table(delta_group):
            comp = comps[theta.exponents]
            for x in part.elements():
                want = _dense_component(ring, group, delta, f, theta, x, cache)
                assert comp.coeffs.get(x, ring.zero()) == want
        assert assemble_from_components(comps, group, delta) == f


def test_symbolic_delta_split_matches_dense_sums():
    ring = SymCoeffs()
    group = FinAbGroup((6, 5))
    rng = random.Random(60)
    f = Measure(group, ring, {
        g: SymExpr.sym("L", rng.randint(-2, 2)) * SymExpr(ring.rel, zeta(12, rng.randrange(12)))
        + SymExpr(ring.rel, F(rng.randint(-5, 5), rng.randint(1, 3)))
        for g in rng.sample(group.elements(), 9)})
    comps = idempotent_split(f, (0,))
    cache = {}
    for theta in char_table(FinAbGroup((6,))):
        for x in FinAbGroup((5,)).elements():
            want = _dense_component(ring, group, (0,), f, theta, x, cache)
            assert comps[theta.exponents].coeffs.get(x, ring.zero()) == want
    assert assemble_from_components(comps, group, (0,)) == f
