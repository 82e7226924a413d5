"""Algebraic laws of the measure operations, checked on seeded random measures
over the cyclotomic and p-adic coefficient rings.

Rings: CYCLO with cyclotomic coefficients of mixed conductors and
denominators, CYCLO with integer coefficients (rational-valued measures), and
PadicCoeffs(PadicRing(5, 6, f, pk)) for f in {1, 2, 3} and pk in {1, 5, 25}.
Groups: Z/n and Z/n x Z/m, each taken over the rings that hold its character
values.  Laws:

* eval_char(convolve(a, b), chi) = eval_char(a, chi) * eval_char(b, chi);
* fourier_invert(eval_all_chars(a)) = a, at the precision that is left after
  dividing out v_5(|G|) digits over a p-adic ring;
* eval_char(twist(f, chi), psi) = eval_char(f, psi * chi^-1).
"""

import random
from fractions import Fraction as F

import pytest

from iwasawalab.arith import PadicRing, zeta
from iwasawalab.chargroup import FinAbGroup, char_table
from iwasawalab.grpring import (
    CYCLO,
    Measure,
    PadicCoeffs,
    convolve,
    eval_all_chars,
    eval_char,
    fourier_invert,
    random_measure,
    twist,
)

P, N = 5, 6
GROUPS = [(4,), (8,), (3,), (25,), (2, 2), (2, 6), (4, 5), (5, 5), (2, 25)]


def _cyclo_measure(group, rng):
    points = rng.sample(group.elements(), rng.randint(1, min(group.order(), 8)))
    return Measure(group, CYCLO, {
        g: zeta(rng.choice((3, 4, 5, 12, 25)), rng.randrange(100))
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
