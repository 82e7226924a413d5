"""Measure machinery tests: convolution, evaluation, twists, splits, units."""

import random
from fractions import Fraction as F
from functools import reduce
from math import lcm
from operator import add

import pytest

import iwasawalab.grpring as grpring
from iwasawalab.arith import (
    CycloNumber,
    PadicNumber,
    PadicRing,
    _slot_width,
    _unpack,
    _zeta_table,
    euler_phi,
    padic_ring_for_conductor,
    padic_sqrt,
)
from iwasawalab.chargroup import (
    FinAbGroup,
    GroupAutomorphism,
    GroupChar,
    GroupHom,
    SemidirectGroup,
    char_table,
)
from iwasawalab.grpring import (
    PrecisionExhausted,
    UndecidableAtPrecision,
    CYCLO,
    Measure,
    MeasureError,
    PadicCoeffs,
    Tower,
    assemble_from_components,
    build_theta_component,
    convolve,
    eval_all_chars,
    eval_char,
    eval_rep,
    extend_trivially,
    fourier_invert,
    idempotent_split,
    is_unit,
    measure_from_text,
    measure_to_text,
    pushforward,
    random_measure,
    twist,
)
from iwasawalab.reps import ArtinRep, induce
from test_arith import _dense_embed


def _z3():
    return FinAbGroup((3,))


def test_convolution_unit_law_and_delta_product():
    g = FinAbGroup((6,))
    rng = random.Random(0)
    f = random_measure(g, CYCLO, rng)
    assert convolve(Measure.delta(g, CYCLO), f) == f
    da, db = Measure.delta(g, CYCLO, (2,)), Measure.delta(g, CYCLO, (3,))
    assert convolve(da, db) == Measure.delta(g, CYCLO, (5,))


def test_convolution_square_on_z3():
    g = _z3()
    one, two = CYCLO.from_int(1), CYCLO.from_int(2)
    f = Measure(g, CYCLO, {(0,): one, (1,): one})
    sq = convolve(f, f)
    assert sq == Measure(g, CYCLO, {(0,): one, (1,): two, (2,): one})


def test_convolution_associative_commutative():
    g = FinAbGroup((2, 5))
    rng = random.Random(1)
    for _ in range(20):
        a, b, c = (random_measure(g, CYCLO, rng) for _ in range(3))
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_eval_char_delta_and_augmentation():
    g = FinAbGroup((5,))
    chi = GroupChar(g, (2,))
    assert eval_char(Measure.delta(g, CYCLO), chi) == 1
    rng = random.Random(2)
    f = random_measure(g, CYCLO, rng)
    assert eval_char(f, GroupChar(g, (0,))) == f.augmentation()


def test_eval_char_multiplicative_on_convolutions():
    g = FinAbGroup((5, 5))
    rng = random.Random(3)
    table = char_table(g)
    for _ in range(100):
        f1 = random_measure(g, CYCLO, rng, density=0.2)
        f2 = random_measure(g, CYCLO, rng, density=0.2)
        chi = table[rng.randrange(len(table))]
        assert eval_char(convolve(f1, f2), chi) == eval_char(f1, chi) * eval_char(f2, chi)


def test_twist_spec_examples():
    g = FinAbGroup((5,))
    chi = GroupChar(g, (1,))
    rng = random.Random(4)
    f = random_measure(g, CYCLO, rng)
    assert twist(f, GroupChar(g, (0,))) == f
    d = Measure.delta(g, CYCLO, (2,))
    assert twist(d, chi) == d.scale(chi.value((3,)))  # chi(g^-1) delta_g


def test_twist_eval_contract_100_random():
    g = FinAbGroup((5, 5))
    table = char_table(g)
    rng = random.Random(5)
    for _ in range(100):
        f = random_measure(g, CYCLO, rng, density=0.15)
        chi = table[rng.randrange(len(table))]
        psi = table[rng.randrange(len(table))]
        assert eval_char(twist(f, chi), psi) == eval_char(f, psi * chi.inverse())


def test_eval_rep_delta_identity_and_group_elements():
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    rho = induce(sg, GroupChar(g, (1,)))
    assert eval_rep(Measure.delta(sg, CYCLO), rho) == 1
    for x in g.elements():
        val = eval_rep(Measure.delta(sg, CYCLO, (x, 0)), rho)
        chi, chic = rho.restriction()
        assert val == chi.value(x) * chic.value(x)


def test_eval_rep_block_diagonal_product():
    # a reducible induction evaluates to the product of its two linear pieces
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    triv = GroupChar(g, (0,))
    ind = induce(sg, triv)
    rng = random.Random(6)
    for _ in range(20):
        f = random_measure(sg, CYCLO, rng, density=0.4)
        plus = ArtinRep(sg, "linear", triv, 1)
        minus = ArtinRep(sg, "linear", triv, -1)
        assert eval_rep(f, ind) == eval_rep(f, plus) * eval_rep(f, minus)


def test_extended_measure_contract():
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    rng = random.Random(7)
    chi = GroupChar(g, (2,))
    rho = induce(sg, chi)
    for _ in range(100):
        f = random_measure(g, CYCLO, rng, density=0.5)
        ext = extend_trivially(f, sg)
        lhs = eval_rep(ext, rho)
        rhs = eval_char(f, chi) * eval_char(f, sg.conjugate_char(chi))
        assert lhs == rhs
    # one-dimensional case
    f = random_measure(g, CYCLO, rng)
    for sign in (1, -1):
        rho1 = ArtinRep(sg, "linear", GroupChar(g, (0,)), sign)
        assert eval_rep(extend_trivially(f, sg), rho1) == eval_char(f, GroupChar(g, (0,)))


def test_idempotent_split_spec_examples():
    g = FinAbGroup((2, 5))
    d = Measure.delta(g, CYCLO)
    comps = idempotent_split(d, (0,))
    for comp in comps.values():
        assert comp == Measure.delta(FinAbGroup((5,)), CYCLO)
    dsigma = Measure.delta(g, CYCLO, (1, 0))
    comps = idempotent_split(dsigma, (0,))
    assert comps[(0,)] == Measure.delta(FinAbGroup((5,)), CYCLO)
    assert comps[(1,)] == Measure.delta(FinAbGroup((5,)), CYCLO).scale(
        CYCLO.from_int(-1))


def test_split_assemble_roundtrip_100():
    g = FinAbGroup((2, 5))
    rng = random.Random(8)
    for _ in range(100):
        f = random_measure(g, CYCLO, rng, density=0.5)
        comps = idempotent_split(f, (0,))
        back = assemble_from_components(comps, g, (0,))
        assert back == f
    # assemble-then-split round trip
    g1 = FinAbGroup((5,))
    for _ in range(100):
        comps = {(0,): random_measure(g1, CYCLO, rng, density=0.5),
                 (1,): random_measure(g1, CYCLO, rng, density=0.5)}
        f = assemble_from_components(comps, g, (0,))
        again = idempotent_split(f, (0,))
        assert again == comps


def test_split_eval_contract():
    g = FinAbGroup((4, 25))
    rng = random.Random(9)
    f = random_measure(g, CYCLO, rng, density=0.2)
    comps = idempotent_split(f, (0,))
    g1 = FinAbGroup((25,))
    for theta in char_table(FinAbGroup((4,))):
        for chi1 in [GroupChar(g1, (k,)) for k in (0, 3, 10)]:
            full = GroupChar(g, (theta.exponents[0], chi1.exponents[0]))
            assert eval_char(f, full) == eval_char(comps[theta.exponents], chi1)


def _naive_eval_char(f, chi):
    """sum_g f(g) chi(g), one embedded root per term; over PadicCoeffs the
    root is embedded densely (_dense_embed), not by the ring's placement."""
    ring = f.ring
    embed = (lambda c: _dense_embed(c, ring.ring)) if isinstance(ring, PadicCoeffs) else ring.from_cyclo
    roots = {}
    total = ring.zero()
    for g, c in f.coeffs.items():
        key = chi.value_exponent(g)
        if key not in roots:
            roots[key] = embed(chi.value(g))
        total = total + c * roots[key]
    return total


@pytest.mark.parametrize("ring, orders, trials", [
    (CYCLO, (5, 5), 10),
    # every character value lies in mu_25: sparse zeta shifts
    (PadicCoeffs(PadicRing(5, 8, 1, 25)), (25,), 4),
    # fourth roots of unity are Teichmueller images
    (PadicCoeffs(padic_ring_for_conductor(5, 100, 8)), (4, 25), 1),
    # one axis whose roots are a Teichmueller image times a power of zeta_5
    (PadicCoeffs(PadicRing(5, 6, 2, 5)), (30,), 1),
], ids=["cyclo-z5xz5", "padic-shift-z25", "padic-teichmuller-z4xz25", "padic-mixed-z30"])
def test_fourier_completeness_roundtrip(ring, orders, trials):
    g = FinAbGroup(orders)
    rng = random.Random(10)
    for _ in range(trials):
        f = random_measure(g, ring, rng, density=0.3)
        values = eval_all_chars(f)
        for chi in list(values)[::7]:
            assert values[chi] == _naive_eval_char(f, chi)
        back = fourier_invert(values, g, ring)
        assert back == f


def test_fourier_invert_names_exhausted_precision():
    # dividing out |G| = 5 takes the one digit of precision the ring has
    g = FinAbGroup((5,))
    coeffs = PadicCoeffs(PadicRing(5, 1, 2, 5))
    values = {chi: coeffs.one() for chi in char_table(g)}
    with pytest.raises(PrecisionExhausted, match=r"loses v_5\(\|G\|\) = 1 digits.*precision 1"):
        fourier_invert(values, g, coeffs)
    # one more digit suffices: all-ones values invert to the delta at 0
    coeffs = PadicCoeffs(PadicRing(5, 2, 2, 5))
    back = fourier_invert({chi: coeffs.one() for chi in char_table(g)}, g, coeffs)
    assert back.ring.ring.precision == 1
    assert back == Measure.delta(g, back.ring)
    g = FinAbGroup((25,))
    coeffs = PadicCoeffs(PadicRing(5, 2, 1, 25))
    with pytest.raises(PrecisionExhausted, match="= 2 digits"):
        fourier_invert({chi: coeffs.one() for chi in char_table(g)}, g, coeffs)


def test_fourier_roundtrip_z125_unramified_degree_4():
    # the level-125 descent shape: precision 12 + 3, three powers of p divided out
    ring = PadicRing(5, 15, 4, 125)
    coeffs = PadicCoeffs(ring)
    g = FinAbGroup((125,))
    rng = random.Random(33)
    f = Measure(g, coeffs, {(rng.randrange(125),): ring.from_coords(
        [rng.randrange(ring.pN) for _ in range(ring.dim)]) for _ in range(6)})
    back = fourier_invert(eval_all_chars(f), g, coeffs)
    assert back.ring.ring.precision == 12
    assert back == f


def test_fourier_invert_divides_only_the_nonzero_sums(monkeypatch):
    # a 6-point level-125 measure: 119 of its 125 inverse sums are zero
    ring = PadicRing(5, 15, 4, 125)
    coeffs = PadicCoeffs(ring)
    g = FinAbGroup((125,))
    rng = random.Random(35)
    f = Measure(g, coeffs, {(x,): ring.from_int(1 + rng.randrange(625))
                            for x in rng.sample(range(125), 6)})
    values = eval_all_chars(f)
    calls = []
    divide = PadicNumber.divide_exact_p_power

    def counted(self, k):
        calls.append(k)
        return divide(self, k)

    monkeypatch.setattr(PadicNumber, "divide_exact_p_power", counted)
    back = fourier_invert(values, g, coeffs)
    assert calls == [3] * 6
    assert back.ring.ring.precision == 12 and back == f


@pytest.mark.parametrize("ring, orders", [
    (CYCLO, (4, 5)),
    (CYCLO, (5,)),  # integer coefficients: a rational-valued measure
    (PadicCoeffs(PadicRing(5, 8, 2, 25)), (25,)),
    (PadicCoeffs(padic_ring_for_conductor(5, 20, 6)), (4, 5)),
], ids=["cyclo", "rational", "padic-shift", "padic-teichmuller"])
def test_eval_all_chars_is_eval_char_per_character(ring, orders):
    g = FinAbGroup(orders)
    f = random_measure(g, ring, random.Random(32), density=0.5)
    values = eval_all_chars(f)
    assert list(values) == char_table(g)
    assert values == {chi: eval_char(f, chi) for chi in char_table(g)}


def test_eval_all_chars_makes_one_transform_call(monkeypatch):
    ring = PadicCoeffs(PadicRing(5, 6, 1, 25))
    f = random_measure(FinAbGroup((25,)), ring, random.Random(34))
    calls = []
    transform = grpring._transform

    def counted(*args):
        calls.append(args)
        return transform(*args)

    def one_character_kernel(*args):
        raise AssertionError("eval_all_chars called root_sum")

    monkeypatch.setattr(grpring, "_transform", counted)
    monkeypatch.setattr(PadicCoeffs, "root_sum", one_character_kernel)
    eval_all_chars(f)
    assert len(calls) == 1 and len(calls[0][1]) == 25


def _double_loop(f, g):
    """Reference convolution: one PadicNumber product per pair of points."""
    mul = f.group.add if isinstance(f.group, FinAbGroup) else f.group.mul
    out = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            h = mul(a, b)
            out[h] = out[h] + ca * cb if h in out else ca * cb
    return Measure(f.group, f.ring, out)


def _dense_padic_measure(group, coeffs, rng, points):
    """Random coordinates in [0, p^N) on `points` random elements."""
    ring = coeffs.ring
    elements = rng.sample(group.elements(), min(points, group.order()))
    return Measure(group, coeffs, {g: ring.from_coords(
        [rng.randrange(ring.pN) for _ in range(ring.dim)]) for g in elements})


@pytest.mark.parametrize("ring, orders, points", [
    (PadicRing(5, 6, 1, 25), (4, 25), 12),
    (PadicRing(5, 5, 2, 25), (25,), 10),
    (PadicRing(5, 4, 1, 125), (125,), 6),
    (PadicRing(7, 4, 2, 49), (3, 7), 6),
    (PadicRing(5, 6, 3, 5), (4, 5), 12),
    (PadicRing(5, 8, 3, 5), (5, 5), 12),
    (PadicRing(5, 40, 2, 5), (5,), 5),  # slots wider than one 64-bit word
    (PadicRing(5, 10), (4, 5), 20),
], ids=lambda x: x.descriptor if isinstance(x, PadicRing) else str(x))
def test_packed_convolve_matches_double_loop(ring, orders, points):
    coeffs = PadicCoeffs(ring)
    group = FinAbGroup(orders)
    rng = random.Random(30)
    f = _dense_padic_measure(group, coeffs, rng, points)
    g = _dense_padic_measure(group, coeffs, rng, points)
    zp = random_measure(group, coeffs, rng, density=0.5)  # Z_p-valued: a one-slot grid
    point = Measure.delta(group, coeffs, group.elements()[-1]).scale(ring.from_int(3))
    for a, b in [(f, g), (zp, f), (zp, zp), (point, g), (f, Measure.zero(group, coeffs))]:
        assert convolve(a, b) == _double_loop(a, b)


def test_packed_convolve_carry_boundary():
    # every coordinate p^N - 1 on full support: each slot reaches its bound
    ring = PadicRing(5, 6, 3, 5)
    coeffs = PadicCoeffs(ring)
    group = FinAbGroup((5, 5))
    top = ring.from_coords([ring.pN - 1] * ring.dim)
    f = Measure(group, coeffs, {g: top for g in group.elements()})
    assert convolve(f, f) == _double_loop(f, f)


def test_semidirect_convolve_takes_the_generic_loop(monkeypatch):
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    ring = PadicRing(5, 6, 1, 5)
    coeffs = PadicCoeffs(ring)
    rng = random.Random(31)

    def measure():
        return Measure(sg, coeffs, {((x,), eps): ring.from_coords(
            [rng.randrange(ring.pN) for _ in range(ring.dim)])
            for x in range(5) for eps in (0, 1) if rng.random() < 0.6})

    def packed(f, h):
        raise AssertionError("semidirect measures must take the generic loop")

    f, h = measure(), measure()
    monkeypatch.setattr(grpring, "_convolve_packed", packed)
    assert convolve(f, h) == _double_loop(f, h)
    assert convolve(h, f) == _double_loop(h, f)


def test_rational_eval_char_is_the_cyclotomic_sum():
    g = FinAbGroup((5, 5))
    f = random_measure(g, CYCLO, random.Random(12), density=0.5)
    assert all(c.is_rational() for c in f.coeffs.values())
    for chi in char_table(g):
        expected = sum((chi.value(x) * c for x, c in f.coeffs.items()), CYCLO.zero())
        assert eval_char(f, chi) == expected


def test_is_unit_examples():
    ring = PadicCoeffs(PadicRing(5, 8))
    g = FinAbGroup((5,))
    ok, inv = is_unit(Measure.delta(g, ring))
    assert ok and inv == Measure.delta(g, ring)
    ok, inv = is_unit(Measure.delta(g, ring).scale(ring.from_int(5)))
    assert not ok and inv is None


def test_is_unit_constructs_inverse_on_p_group():
    ring = PadicCoeffs(PadicRing(5, 8))
    g = FinAbGroup((5, 5))
    rng = random.Random(11)
    found = 0
    for _ in range(20):
        f = random_measure(g, ring, rng, density=0.3)
        aug = f.augmentation()
        if aug.valuation() != 0:
            continue
        ok, inv = is_unit(f)
        assert ok
        assert convolve(f, inv) == Measure.delta(g, ring)
        found += 1
    assert found >= 10


def test_is_unit_two_sided_idempotent_form():
    # a(1+c)/2 + b(1-c)/2 with unit a, b; on the order-2 quotient model
    ring = PadicCoeffs(PadicRing(5, 10))
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    a, b = ring.from_int(7), ring.from_int(11)
    half = ring.from_fraction(F(1, 2))
    e = (g.identity(), 0)
    c = (g.identity(), 1)
    f = Measure(sg, ring, {e: (a + b) * half, c: (a - b) * half})
    ok, inv = is_unit(f)
    assert ok
    expected = Measure(sg, ring, {e: (a.inverse() + b.inverse()) * half,
                                  c: (a.inverse() - b.inverse()) * half})
    assert inv == expected


def test_is_unit_mixed_group_with_torsion():
    ring = PadicCoeffs(PadicRing(5, 8))
    g = FinAbGroup((4, 5))
    rng = random.Random(12)
    f = random_measure(g, ring, rng, density=0.4)
    verdict, inv = is_unit(f)
    if verdict:
        assert convolve(f, inv) == Measure.delta(g, ring)
    # scale one component's augmentation down to valuation 1: clean non-unit
    comps = idempotent_split(f, (0,))
    theta0 = (1,)
    comp = comps[theta0]
    adjust = Measure.delta(FinAbGroup((5,)), ring).scale(
        comp.augmentation() - ring.from_int(5))
    comps[theta0] = comp - adjust
    f2 = assemble_from_components(comps, g, (0,))
    verdict2, _ = is_unit(f2)
    assert not verdict2
    # an exactly-zero augmentation cannot be distinguished from "smaller than
    # the precision cap": reported, not guessed
    comps[theta0] = comp - Measure.delta(FinAbGroup((5,)), ring).scale(comp.augmentation())
    f3 = assemble_from_components(comps, g, (0,))
    with pytest.raises(UndecidableAtPrecision):
        is_unit(f3)


def test_build_theta_component_one_point():
    # covering group C = Z/4 x Z/25 modeling the units mod 125
    C = FinAbGroup((4, 25))
    C.add_subgroup_label("sigma_home", [(1, 0), (0, 1)])
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    ring = CYCLO
    psi_theta = GroupChar(C, (1, 3))
    sigma = (2, 7)
    delta_v = ring.from_fraction(F(2, 3))
    omega = ring.from_fraction(F(5, 7))
    nu = Measure.delta(C, ring, (3, 11))
    mu = build_theta_component(nu, psi_theta, delta_v, sigma, omega, pr)
    shifted = C.add(C.neg(sigma), (3, 11))
    expected_coeff = (delta_v / omega) * psi_theta.value(C.neg(shifted))
    expected = Measure(G1, ring, {pr.apply(shifted): expected_coeff})
    assert mu == expected


def test_build_theta_component_evaluation_identity_and_linearity():
    C = FinAbGroup((4, 25))
    C.add_subgroup_label("sigma_home", [(1, 0), (0, 1)])
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    ring = CYCLO
    rng = random.Random(13)
    psi_theta = GroupChar(C, (2, 7))
    sigma = (1, 4)
    delta_v = ring.from_fraction(F(3, 2))
    omega = ring.from_fraction(F(7, 4))
    for _ in range(10):
        nu1 = random_measure(C, ring, rng, density=0.05)
        nu2 = random_measure(C, ring, rng, density=0.05)
        mu1 = build_theta_component(nu1, psi_theta, delta_v, sigma, omega, pr)
        mu2 = build_theta_component(nu2, psi_theta, delta_v, sigma, omega, pr)
        both = build_theta_component(nu1 + nu2, psi_theta, delta_v, sigma, omega, pr)
        assert both == mu1 + mu2
        chi1 = GroupChar(G1, (rng.randrange(25),))
        eta = psi_theta.inverse() * pr.pullback_char(chi1)
        lhs = eval_char(mu1, chi1)
        rhs = (delta_v / omega) * eta.value(C.neg(sigma)) * eval_char(nu1, eta)
        assert lhs == rhs


def test_build_theta_component_matches_pointwise_definition():
    # mu_theta(x) = Omega^-1 delta sum over h with pr(sigma^-1 h) = x of
    # psi_theta^-1(sigma^-1 h) nu(h), summed term by term
    C = FinAbGroup((4, 25))
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    rng = random.Random(17)
    psi_theta = GroupChar(C, (3, 11))
    sigma = (2, 9)
    delta_v = CYCLO.from_cyclo(GroupChar(C, (1, 0)).value((1, 0)) + F(1, 3))
    omega = CYCLO.from_fraction(F(5, 7))
    nu = random_measure(C, CYCLO, rng, density=0.4)
    expected: dict = {}
    for h, c in nu.coeffs.items():
        shifted = C.add(C.neg(sigma), h)
        term = c * delta_v / omega * psi_theta.value(C.neg(shifted))
        x = pr.apply(shifted)
        expected[x] = expected[x] + term if x in expected else term
    got = build_theta_component(nu, psi_theta, delta_v, sigma, omega, pr)
    assert got == Measure(G1, CYCLO, expected)


def test_build_theta_component_rejects_sigma_outside_label():
    C = FinAbGroup((4, 25))
    C.add_subgroup_label("sigma_home", [(0, 1)])
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    nu = Measure.delta(C, CYCLO)
    with pytest.raises(MeasureError):
        build_theta_component(nu, GroupChar(C, (0, 0)), CYCLO.one(), (1, 0),
                              CYCLO.one(), pr)


def test_tower_compatibility_and_commutation():
    big = FinAbGroup((25, 25))
    small = FinAbGroup((5, 5))
    hom = GroupHom.reduction(big, small)
    rng = random.Random(14)
    f = random_measure(big, CYCLO, rng, density=0.1)
    tower = Tower([big, small], [hom], [f, pushforward(f, hom)])
    tower.validate()
    g = random_measure(big, CYCLO, rng, density=0.1)
    assert pushforward(convolve(f, g), hom) == convolve(pushforward(f, hom),
                                                        pushforward(g, hom))
    chi_small = GroupChar(small, (1, 2))
    lifted = hom.pullback_char(chi_small)
    assert pushforward(twist(f, lifted), hom) == twist(pushforward(f, hom), chi_small)
    # pushforward commutes with the idempotent split on a torsion x p tower
    bigt = FinAbGroup((4, 25))
    smallt = FinAbGroup((4, 5))
    homt = GroupHom(bigt, smallt, ((1, 0), (0, 1)))
    ft = random_measure(bigt, CYCLO, rng, density=0.2)
    split_then_push = {k: pushforward(m, GroupHom(FinAbGroup((25,)), FinAbGroup((5,)), ((1,),)))
                       for k, m in idempotent_split(ft, (0,)).items()}
    push_then_split = idempotent_split(pushforward(ft, homt), (0,))
    assert split_then_push == push_then_split


def test_tower_detects_incompatible_measures():
    big = FinAbGroup((25,))
    small = FinAbGroup((5,))
    hom = GroupHom.reduction(big, small)
    f = Measure.delta(big, CYCLO, (3,))
    wrong = Measure.delta(small, CYCLO, (0,))
    with pytest.raises(MeasureError):
        Tower([big, small], [hom], [f, wrong]).validate()


def test_serialization_roundtrip_and_stability():
    g = FinAbGroup((4, 5))
    rng = random.Random(15)
    for ring in (CYCLO, PadicCoeffs(PadicRing(5, 6))):
        f = random_measure(g, ring, rng, density=0.5)
        text = measure_to_text(f)
        assert measure_to_text(measure_from_text(text)) == text
        assert measure_from_text(text) == f


def test_rational_text_reads_as_cyclotomic_and_writes_cyclotomic():
    # files tagged "ring = rational" hold bare rationals; they read into CYCLO
    text = ("measure/1\n"
            "group = 4 5\n"
            "ring = rational\n"
            "0 0 | 3/2\n"
            "1 4 | -2\n"
            "3 2 | 7/9\n")
    g = FinAbGroup((4, 5))
    f = measure_from_text(text)
    assert f.ring is CYCLO
    assert f == Measure(g, CYCLO, {(0, 0): CYCLO.from_fraction(F(3, 2)),
                                   (1, 4): CYCLO.from_int(-2),
                                   (3, 2): CYCLO.from_fraction(F(7, 9))})
    assert measure_to_text(f) == ("measure/1\n"
                                  "group = 4 5\n"
                                  "ring = cyclotomic\n"
                                  "0 0 | 1:3/2\n"
                                  "1 4 | 1:-2\n"
                                  "3 2 | 1:7/9\n")


def test_padic_extended_measure_contract_precision8():
    ring = PadicCoeffs(padic_ring_for_conductor(5, 5, 8))
    g = FinAbGroup((5,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    chi = GroupChar(g, (1,))
    rho = induce(sg, chi)
    rng = random.Random(16)
    for _ in range(25):
        f = random_measure(g, ring, rng, density=0.6)
        lhs = eval_rep(extend_trivially(f, sg), rho)
        rhs = eval_char(f, chi) * eval_char(f, sg.conjugate_char(chi))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the cyclotomic lift and its lower
# ---------------------------------------------------------------------------

def _naive_cyclo_lower(forms, counts, big_m, width, bias, den):
    """The column-wise lower of CYCLO.lift before the fold ran on whole
    integers: every slot [0, M) of every form unpacked at once, count * bias
    taken off each, then the column of X^k (k >= phi(M)) added onto the
    columns of zeta_M^k through the zeta-power table."""
    size = width * big_m
    mask = (1 << 8 * size) - 1
    joined = b"".join((x & mask).to_bytes(size, "little") for x in forms)
    vals = _unpack(int.from_bytes(joined, "little"), len(forms) * big_m, width)
    cols = [[v - count * bias for v, count in zip(vals[i::big_m], counts)]
            for i in range(big_m)]
    phi = euler_phi(big_m)
    out = cols[:phi]
    for col, row in zip(cols[phi:], _zeta_table(big_m)[phi:]):
        for j, z in row:
            out[j] = [a + z * b for a, b in zip(out[j], col)]
    return [CycloNumber._from_ints(big_m, num, den) for num in zip(*out)]


def _fold_norm(big_m):
    """max over columns j of 1 + sum |z| over the zeta-power rows k >= phi(M)
    with an entry z in column j."""
    phi = euler_phi(big_m)
    column = [1] * phi
    for row in _zeta_table(big_m)[phi:]:
        for j, z in row:
            column[j] += abs(z)
    return max(column)


def _lower_cases(big_m, rng):
    """(name, values, terms) for the lower at conductor big_m."""
    phi = euler_phi(big_m)
    norm = _fold_norm(big_m)
    terms = 6
    # the smallest bias whose width bound 2 * terms * bias * norm needs a
    # third byte: without the sign bit the slots would be two bytes wide
    bias = -(-(1 << 16) // (2 * terms * norm))
    at_bound = [CycloNumber._from_ints(big_m, [rng.choice((bias, -bias)) for _ in range(phi)])
                for _ in range(terms)]
    negative = [CycloNumber._from_ints(big_m, [-rng.randint(1, 9) for _ in range(phi)])
                for _ in range(terms)]
    conductors = [c for c in (1, 20, 100) if big_m % c == 0] + [big_m]
    mixed = [CycloNumber(c, [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                             for _ in range(euler_phi(c))])
             for c in conductors for _ in range(2)]
    return [("at-bound", at_bound, terms), ("all-negative", negative, terms),
            ("mixed", mixed, 2 * len(mixed))]


@pytest.mark.parametrize("big_m", [1, 2, 4, 12, 20, 25, 100, 105, 300, 1500])
def test_cyclo_lower_matches_the_column_wise_reduction(big_m):
    rng = random.Random(big_m)
    for name, values, terms in _lower_cases(big_m, rng):
        forms, sums, lower = CYCLO.lift(values, big_m, terms)
        den = lcm(*(x.den for x in values))
        bias = max(abs(c) * (den // x.den) for x in values for c in x.num)
        width = sums.slot // 8
        assert width == _slot_width(2 * terms * bias * _fold_norm(big_m)), name
        shifts = sums.shifts(big_m)
        outs, counts, expected = [], [], []
        for count in (1, 2, terms - 1, terms):
            for _ in range(2):
                picks = [(rng.randrange(len(values)), rng.randrange(big_m)) for _ in range(count)]
                outs.append(sum(forms[i] >> shifts[k] for i, k in picks))
                counts.append(count)
                expected.append(reduce(add, (values[i].mul_root(big_m, k) for i, k in picks)))
        # every slot of the sum at 0 or at 2 * terms * bias: terms copies of
        # one form at one rotation
        k = rng.randrange(big_m)
        outs.append(terms * (forms[0] >> shifts[k]))
        counts.append(terms)
        expected.append(values[0].mul_root(big_m, k) * terms)
        got = lower(outs, counts)
        naive = _naive_cyclo_lower(outs, counts, big_m, width, bias, den)
        assert [(x.m, x.num, x.den) for x in got] == [(x.m, x.num, x.den) for x in naive], name
        assert got == expected, name
        assert lower([]) == []


def _exponent(chi, g):
    """k with chi(g) = zeta_m^k, m the exponent of chi's group."""
    m = chi.group.exponent()
    return sum(e * (m // n) * x for e, n, x in zip(chi.exponents, chi.group.orders, g)) % m


def _sparse_cyclo_measure(group, rng, points):
    """points random elements with coefficients of conductors 1, 20 and 100
    over mixed denominators."""
    def coeff():
        c = rng.choice((1, 20, 100))
        return CycloNumber(c, [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                               for _ in range(euler_phi(c))])
    return Measure(group, CYCLO, {g: coeff() for g in rng.sample(group.elements(), points)})


@pytest.mark.parametrize("ring, orders", [
    (CYCLO, (4, 25)),
    (PadicCoeffs(PadicRing(5, 6, 2, 25)), (5, 25)),
], ids=["cyclo", "padic-p-group"])
def test_one_character_operations_match_mul_root_sums(ring, orders):
    # eval_char, twist and build_theta_component on a support strictly
    # inside G, against sums of mul_by_root terms
    C = FinAbGroup(orders)
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    rng = random.Random(43)
    m = C.exponent()
    if ring is CYCLO:
        nu = _sparse_cyclo_measure(C, rng, 37)
    else:
        nu = Measure(C, ring, {g: ring.ring.from_coords(
            [rng.randrange(ring.ring.pN) for _ in range(ring.ring.dim)])
            for g in rng.sample(C.elements(), 37)})
    assert 0 < len(nu.coeffs) < C.order()
    delta_v, omega = ring.from_int(3), ring.from_int(7)
    scale = delta_v * ring.inv(omega)
    for chi in rng.sample(char_table(C), 5):
        assert eval_char(nu, chi) == reduce(add, (ring.mul_by_root(c, m, _exponent(chi, g))
                                                  for g, c in nu.coeffs.items()))
        assert twist(nu, chi) == Measure(C, ring, {
            g: ring.mul_by_root(c, m, _exponent(chi, C.neg(g))) for g, c in nu.coeffs.items()})
        sigma = rng.choice(C.elements())
        expected: dict = {}
        for h, c in nu.coeffs.items():
            shifted = C.add(C.neg(sigma), h)
            term = ring.mul_by_root(c, m, _exponent(chi, C.neg(shifted))) * scale
            x = pr.apply(shifted)
            expected[x] = expected[x] + term if x in expected else term
        assert build_theta_component(nu, chi, delta_v, sigma, omega, pr) == \
            Measure(G1, ring, expected)
    empty = Measure.zero(C, ring)
    assert eval_char(empty, chi) == ring.zero()
    assert twist(empty, chi) == empty


def _count_lifts(monkeypatch):
    lifts = []
    lift = type(CYCLO).lift

    def counted(self, values, m, terms):
        lifts.append(len(values))
        return lift(self, values, m, terms)

    monkeypatch.setattr(type(CYCLO), "lift", counted)
    return lifts


def test_one_character_operations_lift_the_measure_once(monkeypatch):
    C = FinAbGroup((4, 25))
    G1 = FinAbGroup((25,))
    pr = GroupHom(C, G1, ((0, 1),))
    rng = random.Random(44)
    nu = _sparse_cyclo_measure(C, rng, 60)
    chars = char_table(C)
    lifts = _count_lifts(monkeypatch)
    for chi in chars[:20]:
        eval_char(nu, chi)
    for chi in chars[20:24]:
        build_theta_component(nu, chi, CYCLO.one(), (1, 3), CYCLO.from_int(2), pr)
    for chi in chars[24:29]:
        twist(nu, chi)
    assert lifts == [60]


def test_derived_measures_lift_their_own_coefficients(monkeypatch):
    C = FinAbGroup((4, 25))
    rng = random.Random(45)
    f = _sparse_cyclo_measure(C, rng, 30)
    chi = GroupChar(C, (1, 7))
    lifts = _count_lifts(monkeypatch)
    eval_char(f, chi)
    delta = Measure.delta(C, CYCLO, (2, 3))
    derived = [f + delta, f.scale(CYCLO.from_int(2)), -f]
    for g in derived:
        expected = reduce(add, (c.mul_root(100, _exponent(chi, x)) for x, c in g.coeffs.items()))
        assert eval_char(g, chi) == expected
    assert lifts == [30] + [len(g.coeffs) for g in derived]


def test_internal_constructors_keep_canonical_keys(monkeypatch):
    C = FinAbGroup((4, 25))
    f = Measure(C, CYCLO, {(5, -1): CYCLO.from_int(3), (0, 0): CYCLO.zero()})
    assert f.coeffs == {(1, 24): CYCLO.from_int(3)}
    rng = random.Random(46)
    nu = _sparse_cyclo_measure(C, rng, 40)
    ring = PadicCoeffs(PadicRing(5, 6, 1, 25))
    pg = FinAbGroup((5, 25))
    a = random_measure(pg, ring, rng, density=0.3)
    b = random_measure(pg, ring, rng, density=0.3)
    pr = GroupHom(C, FinAbGroup((25,)), ((0, 1),))
    chi = GroupChar(C, (3, 8))
    comps = idempotent_split(nu, (0,))
    results = [nu + f, -nu, nu.scale(CYCLO.from_int(3)), convolve(a, b),
               fourier_invert(eval_all_chars(nu), C, CYCLO),
               assemble_from_components(comps, C, (0,)),
               build_theta_component(nu, chi, CYCLO.one(), (1, 3), CYCLO.from_int(2), pr),
               twist(nu, chi)]
    for r in results:
        assert r.coeffs == Measure(r.group, r.ring, r.coeffs).coeffs
        assert all(r.group.normalize(g) == g for g in r.coeffs)
    calls = []
    normalize = FinAbGroup.normalize

    def counted(self, g):
        calls.append(g)
        return normalize(self, g)

    monkeypatch.setattr(FinAbGroup, "normalize", counted)
    again = [nu + f, -nu, nu.scale(CYCLO.from_int(3)), convolve(a, b), twist(nu, chi)]
    assert calls == []
    assert again == [results[0], results[1], results[2], results[3], results[7]]
