"""Symbolic engine and interpolation-ratio tests."""

import hashlib
import random
from fractions import Fraction as F

import pytest

import iwasawalab.symratio as symratio
from iwasawalab.arith import CycloNumber, padic_ring_for_conductor, zeta
from iwasawalab.chargroup import (
    FinAbGroup,
    GroupAutomorphism,
    GroupChar,
    SemidirectGroup,
)
from iwasawalab.cli import RunConfig, load_tower
from iwasawalab.grpring import Measure, PadicCoeffs, convolve, eval_rep, is_unit
from iwasawalab.reps import induce
from iwasawalab.symratio import (
    DivisionGuardExceeded,
    Relation,
    RatioContext,
    SymError,
    SymExpr,
    ThetaRecord,
    TwistUnitData,
    build_char_interpolation_rhs,
    build_period_correction,
    build_rep_interpolation_rhs,
    build_twist_unit,
    check_twist_reproduces_variant,
    expected_period_ratio,
    gamma_ratio,
    period_correction_inverse,
    reduce_ratio,
    reduce_rep_ratio,
    twist_unit_evaluation,
    twist_unit_expected,
)


def level1_ctx(k=2):
    g = FinAbGroup((5, 5))
    g.add_inertia_chain("p", [[(1, 0)]])
    g.add_inertia_chain("pbar", [[(0, 1)]])
    sg = SemidirectGroup(g, GroupAutomorphism.swap(g, 0, 1))
    return RatioContext(sg, k=k, trivial_nebentypus=(k == 2))


# ---------------------------------------------------------------------------
# engine basics
# ---------------------------------------------------------------------------

def test_relation_eliminates_w():
    r = Relation()  # k = 2: u w = p
    assert SymExpr.sym("w", 1, r) == SymExpr.sym("p", 1, r) / SymExpr.sym("u", 1, r)
    rk = Relation(4, False)
    w = SymExpr.sym("w", 1, rk)
    expected = SymExpr(rk, 1, {"p": 3, "eps_f": 1, "u": -1})
    assert w == expected


def test_i_unit_reduction():
    r = Relation()
    assert SymExpr.sym("i", 2, r) == -1
    assert SymExpr.sym("i", -1, r) == -SymExpr.sym("i", 1, r)
    assert SymExpr.sym("i", 7, r) == -SymExpr.sym("i", 1, r)


def test_i_from_one_term_factors_is_reduced():
    # an i that reaches the monomial part from a one-term factor, raw or the
    # quotient of an exact division, is reduced with the rest: i * i = -1
    r = Relation()
    one = CycloNumber.from_rational(1)
    raw = SymExpr(r, 1, {"i": 1}, [(((("i", 1),), one),)])
    assert raw.render() == "-1" and raw.mono == ()
    iu = SymExpr.poly({(("i", 1), ("u", 2)): 1, (("i", 1), ("u", 1)): 1}, r)
    quotient = SymExpr.sym("i", 1, r) * iu / SymExpr.poly({(("u", 1),): 1, (): 1}, r)
    assert quotient.render() == "-1 * u" and quotient.mono == (("u", 1),)


def test_normalization_idempotent_and_substitution_commutes():
    r = Relation()
    x = SymExpr.poly({(): 1, (("u", -1),): -1}, r) * SymExpr.sym("Om+", 2, r)
    y = SymExpr(r, x.scalar, x.mono, list(x.num), list(x.den))
    assert x == y  # renormalizing a canonical form is the identity
    ring = PadicCoeffs(padic_ring_for_conductor(5, 5, 8))
    env = {"u": ring.from_int(3), "Om+": ring.from_int(7)}
    n1, d1 = x.substitute_pair(env, ring)
    # substitution of the product equals the product of substitutions
    a = SymExpr.poly({(): 1, (("u", -1),): -1}, r)
    b = SymExpr.sym("Om+", 2, r)
    na, da = a.substitute_pair(env, ring)
    nb, db = b.substitute_pair(env, ring)
    assert n1 * da * db == na * nb * d1


def test_addition_and_cancellation():
    r = Relation()
    a, b = SymExpr.sym("a", 1, r), SymExpr.sym("b", 1, r)
    s = a + b
    assert (s / s).is_one()
    assert (a * a - b * b) / (a + b) == a - b
    assert (a - a).is_zero()


def test_zero_denominator_rejected():
    r = Relation()
    z = SymExpr(r, 0)
    with pytest.raises(SymError):
        SymExpr.sym("a", 1, r) / z


def test_gamma_ratio_values():
    assert gamma_ratio(2, 0).is_one()
    assert gamma_ratio(4, -1).is_one()
    assert gamma_ratio(3, 0) == SymExpr.sym("2pi", 1, Relation(3))
    # k=5, j=-1: Gamma(2)/Gamma(3) (2pi)^1 = (1/2) 2pi
    r5 = Relation(5)
    assert gamma_ratio(5, -1, r5) == SymExpr(r5, F(1, 2), {"2pi": 1})


def test_gamma_ratio_pole_rejected():
    with pytest.raises(SymError):
        gamma_ratio(2, -1)  # k - 1 + j = 0
    with pytest.raises(SymError):
        gamma_ratio(2, -5, Relation(2))


def test_gamma_grid_exactness():
    for k in range(2, 7):
        for j in range(-3, 1):
            if 0 < k - 1 + j:
                expr = gamma_ratio(k, j, Relation(k))
                # closed form re-derived independently
                from math import factorial
                want = SymExpr(Relation(k), F(factorial(-j), factorial(k - 2 + j)),
                               {"2pi": k - 2 + 2 * j})
                assert expr == want


# ---------------------------------------------------------------------------
# ratio chains
# ---------------------------------------------------------------------------

def test_elliptic_ratio_reduces_for_every_irrep():
    ctx = level1_ctx()
    for rho in ctx.reps:
        dual = rho.contragredient()
        num = SymExpr(ctx.rel, 1)
        for chix in dual.restriction():
            num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix), "elliptic-pbar")
        den = build_rep_interpolation_rhs(ctx, rho, "elliptic")
        result, trace = reduce_ratio(ctx, num, den, want_trace=True)
        assert result.is_monomial(), f"{rho}: residual {result.render()}"
        assert result == expected_period_ratio(ctx, rho)
        assert len(trace) > 0
        assert all({"rule", "atom", "before", "after"} <= set(t) for t in trace)


def test_elliptic_rhs_trivial_rep_shape():
    ctx = level1_ctx()
    triv = ctx.reps[0]
    assert triv.kind == "linear" and triv.sign == 1 and triv.chi.is_trivial()
    den = build_rep_interpolation_rhs(ctx, triv, "elliptic")
    result, _ = reduce_ratio(ctx, SymExpr(ctx.rel, 1), den)
    # 1 / RHS(trivial): the Euler factors (1-u^-1)/(1-w^-1) survive as
    # non-monomial content, and the period denominator Om+ flips up
    assert not result.is_monomial()
    assert ("Om+", 1) in result.mono


def test_typeA_minus_sign_gets_om_minus():
    ctx = level1_ctx()
    minus = next(r for r in ctx.reps if r.kind == "linear" and r.sign == -1
                 and r.chi.is_trivial())
    den = build_rep_interpolation_rhs(ctx, minus, "elliptic")
    # the period part of the target must be Om-^-1
    assert ("Om-", -1) in den.mono


def test_typeB_target_has_both_periods():
    ctx = level1_ctx()
    rho = next(r for r in ctx.reps if r.kind == "induced")
    den = build_rep_interpolation_rhs(ctx, rho, "elliptic")
    assert ("Om+", -1) in den.mono and ("Om-", -1) in den.mono


def test_weight2_j0_variant_degenerates_to_elliptic():
    # the weight-k direct template at (k, j) = (2, 0) is the elliptic-p one
    ctx = level1_ctx()
    for idx in (1, 7, 13):
        wk = build_char_interpolation_rhs(ctx, idx, "weightk-1", 0)
        chibar = ctx.inv_idx(idx)
        # elliptic-p evaluates at xi with L(psibar xi^-1): match arguments
        ell = build_char_interpolation_rhs(ctx, chibar, "elliptic-p")
        assert wk == ell


def test_weightk_chains_all_variants():
    rng = random.Random(0)
    for k in (3, 5):
        ctx = level1_ctx(k)
        samples = [ctx.reps[i] for i in (0, 3, 10, 15)]
        for j in (0, -1, -2):
            if not (0 < k - 1 + j):
                continue
            for variant in ("weightk-1", "weightk-2"):
                for rho in samples:
                    num = SymExpr(ctx.rel, 1)
                    for chix in rho.restriction():
                        num = num * build_char_interpolation_rhs(
                            ctx, ctx.idx_of(chix), variant, j)
                    den = build_rep_interpolation_rhs(ctx, rho, variant, j)
                    result, _ = reduce_ratio(ctx, num, den)
                    assert result.is_monomial(), (k, j, variant, rho, result.render())
                    assert result == expected_period_ratio(ctx, rho)


def test_out_of_range_weight_data_rejected():
    ctx = level1_ctx(3)
    with pytest.raises(SymError):
        build_char_interpolation_rhs(ctx, 1, "weightk-1", -5)
    with pytest.raises(SymError):
        build_char_interpolation_rhs(ctx, 1, "weightk-1", 1)


# ---------------------------------------------------------------------------
# period correction
# ---------------------------------------------------------------------------

def test_period_correction_unit_and_values():
    for k in (2, 4):
        ctx = level1_ctx(k) if k == 2 else level1_ctx(k)
        lom = build_period_correction(ctx)
        inv = period_correction_inverse(ctx)
        assert convolve(lom, inv) == Measure.delta(ctx.sg, lom.ring)
        ok, built = is_unit(lom)
        assert ok and convolve(lom, built) == Measure.delta(ctx.sg, lom.ring)
        for rho in ctx.reps:
            assert eval_rep(lom, rho) == expected_period_ratio(ctx, rho)


def test_period_correction_trivial_units_is_delta():
    # a = b = 1 forces L_Omega = delta_e (k = 2 with all periods equal)
    ctx = level1_ctx()
    lom = build_period_correction(ctx)
    ring = lom.ring
    env_sub = {"Om+": 1, "Om-": 1, "Ominf": 1}

    def subst(exprm):
        out = {}
        for g, c in exprm.coeffs.items():
            # crude but exact: replace period symbols by 1 via substitution
            pr = PadicCoeffs(padic_ring_for_conductor(5, 1, 6))
            n, d = c.substitute_pair({k: pr.from_int(1) for k in env_sub}, pr)
            out[g] = (n, d)
        return out

    vals = subst(lom)
    e = (ctx.sg.base.identity(), 0)
    c = (ctx.sg.base.identity(), 1)
    assert vals[e][0] == vals[e][1]  # coefficient 1 at identity
    assert c not in vals or vals[c][0].is_zero()


def test_ratio_times_period_correction_closes():
    # L'_E(rho-dual) * L_Omega(rho-dual) = L(rho-dual) for every irrep
    ctx = level1_ctx()
    lom = build_period_correction(ctx)
    for rho in ctx.reps:
        dual = rho.contragredient()
        num = SymExpr(ctx.rel, 1)
        for chix in dual.restriction():
            num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix), "elliptic-pbar")
        den = build_rep_interpolation_rhs(ctx, rho, "elliptic")
        ratio, _ = reduce_ratio(ctx, num, den)
        # ratio = L(dual)/RHS(dual) must equal L_Omega(dual); dual sign = sign
        assert ratio == eval_rep(lom, rho)


# ---------------------------------------------------------------------------
# twist unit
# ---------------------------------------------------------------------------

def _twist_data():
    gamma = FinAbGroup((25,))
    delta = FinAbGroup((2,))
    records = [ThetaRecord((0,), 33, (7,), "t0"), ThetaRecord((1,), 44, (3,), "t1")]
    return TwistUnitData(gamma, delta, records)


def test_twist_unit_is_unit_and_evaluates():
    ctx = level1_ctx(4)
    data = _twist_data()
    E = build_twist_unit(ctx, data)
    ok, _ = is_unit(E)
    assert ok
    rng = random.Random(1)
    for rec in data.records:
        for _ in range(5):
            chi_gamma = GroupChar(data.gamma_group, (rng.randrange(25),))
            j = -rng.randrange(3)
            lhs = twist_unit_evaluation(ctx, data, E, rec.theta_exponents, chi_gamma, j)
            rhs = twist_unit_expected(ctx, data, rec.theta_exponents, chi_gamma, j)
            assert lhs == rhs


def test_twist_unit_trivial_record():
    ctx = level1_ctx(4)
    gamma = FinAbGroup((25,))
    data = TwistUnitData(gamma, FinAbGroup(()), [ThetaRecord((), 1, (0,), "triv")])
    E = build_twist_unit(ctx, data)
    v = twist_unit_evaluation(ctx, data, E, (), GroupChar(gamma, (0,)), 0)
    assert v == SymExpr.sym("@epsQ(triv)", 1, ctx.rel)


def test_twist_reproduces_twisted_variant():
    ctx = level1_ctx(4)
    data = _twist_data()
    for idx in (6, 11, 23):
        for j in (0, -1, -2):
            if 0 < ctx.k - 1 + j:
                assert check_twist_reproduces_variant(
                    ctx, data, idx, (1,), GroupChar(data.gamma_group, (4,)), j)


def test_twist_unit_rejects_bad_norm():
    ctx = level1_ctx(4)
    gamma = FinAbGroup((25,))
    data = TwistUnitData(gamma, FinAbGroup(()), [ThetaRecord((), 0, (0,), "bad")])
    with pytest.raises(SymError):
        build_twist_unit(ctx, data)


# ---------------------------------------------------------------------------
# numeric re-run of a symbolic reduction
# ---------------------------------------------------------------------------

def test_substitution_agrees_with_symbolic_canonical_form():
    ctx = level1_ctx()
    rho = next(r for r in ctx.reps if r.kind == "induced")
    dual = rho.contragredient()
    num = SymExpr(ctx.rel, 1)
    for chix in dual.restriction():
        num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix), "elliptic-pbar")
    den = build_rep_interpolation_rhs(ctx, rho, "elliptic")
    result, _ = reduce_ratio(ctx, num, den)
    # expand the unreduced quotient too, then substitute random units into
    # every symbol of both and compare at precision 8
    raw, _ = reduce_ratio(ctx, num, den)  # same chains; canonical object
    ring = PadicCoeffs(padic_ring_for_conductor(5, 20, 8))
    rng = random.Random(2)
    symbols = set(s for s, _ in result.mono)
    for p in result.num + result.den:
        for m, _ in p:
            symbols.update(s for s, _ in m)
    env = {}
    for s in sorted(symbols):
        if s == "p":
            env[s] = ring.from_int(5)
        elif s == "i":
            env[s] = ring.from_cyclo(zeta(4))
        else:
            env[s] = ring.from_int(rng.choice([2, 3, 7, 11, 13]))
    n1, d1 = result.substitute_pair(env, ring)
    n2, d2 = expected_period_ratio(ctx, rho).substitute_pair(env, ring)
    assert n1 * d2 == n2 * d1


def _reference_key(r):
    if r.kind == "linear":
        return ("linear", r.chi.exponents, r.sign)
    return ("induced", frozenset((r.chi.exponents, r.chi_conj().exponents)))


def test_rep_index_finds_every_classified_rep_of_the_shipped_tower():
    spec = load_tower(RunConfig())
    for level in spec.levels[:2]:
        ctx = RatioContext(level.semidirect)
        ref = [_reference_key(r) for r in ctx.reps]
        for i, rho in enumerate(ctx.reps):
            assert ctx.rep_index(rho) == i
            if rho.kind == "induced":
                assert ctx.rep_index(induce(ctx.sg, rho.chi_conj())) == i
            dual = rho.contragredient()
            assert ctx.rep_index(dual) == ref.index(_reference_key(dual))
    with pytest.raises(SymError):
        ctx.rep_index(level1_ctx().reps[-1])


def test_exact_division_guard_raises_instead_of_not_divisible():
    # (x^5000 - 1) / (x - 1) is exact but needs 5000 long-division steps,
    # more than the guard allows: undecided, not "no quotient"
    one = CycloNumber.from_rational(1)
    x = (("x", 1),)
    num = (((("x", 5000),), one), ((), -one))
    with pytest.raises(DivisionGuardExceeded, match="undecided after 4096 steps"):
        symratio._poly_divide_exact(num, ((x, one), ((), -one)))
    # within the guard the same shape divides, and a non-divisor gives None
    small = (((("x", 50),), one), ((), -one))
    assert len(symratio._poly_divide_exact(small, ((x, one), ((), -one)))) == 50
    assert symratio._poly_divide_exact(small, ((x, one), ((), one + one))) is None


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_level1_reduction_renders_are_pinned():
    # sha256 over result.render() and every trace step's before/after for all
    # 20 irreducibles of the shipped tower's first level, on the elliptic
    # chain at k = 2 and both weight-k chains at every admissible j for
    # k in {3, 4}; recorded before the canonical-form fold was rewritten, so
    # any change to the canonical form of an intermediate expression shows
    level = load_tower(RunConfig()).levels[0]
    runs = [(2, "elliptic", 0)] + [(k, variant, j) for k in (3, 4)
                                   for j in range(0, 1 - k, -1)
                                   for variant in ("weightk-1", "weightk-2")]
    digest = hashlib.sha256()
    for k, variant, j in runs:
        ctx = RatioContext(level.semidirect, k=k, trivial_nebentypus=(k == 2))
        assert len(ctx.reps) == 20
        for rho in ctx.reps:
            source = rho.contragredient() if variant == "elliptic" else rho
            char_variant = "elliptic-pbar" if variant == "elliptic" else variant
            num = SymExpr(ctx.rel, 1)
            for chix in source.restriction():
                num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix),
                                                         char_variant, j)
            den = build_rep_interpolation_rhs(ctx, rho, variant, j)
            result, trace = reduce_ratio(ctx, num, den, want_trace=True)
            digest.update(result.render().encode() + b"\n")
            for step in trace:
                digest.update(step["before"].encode() + b"\n" + step["after"].encode() + b"\n")
    assert digest.hexdigest() == \
        "e89bbdeaf9ea2180dccb6251341793fa1e1405c9164d176e9a51684cf2fa68a0"


def test_level2_elliptic_reduction_renders_are_pinned():
    # the same digest over all 350 irreducibles of the shipped tower's second
    # level on the elliptic chain, recorded while every product still
    # refolded the factors of both operands
    ctx = RatioContext(load_tower(RunConfig()).levels[1].semidirect)
    assert len(ctx.reps) == 350
    digest = hashlib.sha256()
    for rho in ctx.reps:
        result, trace = reduce_rep_ratio(ctx, rho, "elliptic", want_trace=True)
        digest.update(result.render().encode() + b"\n")
        for step in trace:
            digest.update(step["before"].encode() + b"\n" + step["after"].encode() + b"\n")
    assert digest.hexdigest() == \
        "e96ec090f895d35918389ed86ddb34f4207eb093f4c3f99daf4a951685346e59"


def test_reduce_rep_ratio_is_the_explicit_chain():
    ctx = level1_ctx(4)
    for rho in ctx.reps[::3]:
        num = SymExpr(ctx.rel, 1)
        for chix in rho.restriction():
            num = num * build_char_interpolation_rhs(ctx, ctx.idx_of(chix), "weightk-2", -1)
        den = build_rep_interpolation_rhs(ctx, rho, "weightk-2", -1)
        want, want_trace = reduce_ratio(ctx, num, den, want_trace=True)
        got, got_trace = reduce_rep_ratio(ctx, rho, "weightk-2", -1, want_trace=True)
        assert _structure(got) == _structure(want) and got_trace == want_trace


def _structure(x: SymExpr):
    return (x.scalar, x.mono, x.num, x.den, x.render())


def _factor_pool(ctx, rng):
    """Cyclotomic scalars, period and relation symbols, atoms, and Euler
    factors at characters unramified at their place, each with its inverse."""
    rel = ctx.rel
    pool = [SymExpr(rel, zeta(5, 2) * F(3, 2)), SymExpr(rel, F(-7, 3)),
            SymExpr.sym("i", 1, rel), SymExpr.sym("Om+", 1, rel), SymExpr.sym("w", 1, rel)]
    for idx in rng.sample(range(len(ctx.chars)), 4):
        pool += [ctx.L_atom("psibar", idx, "1", imprimitive=False), ctx.eps_atom("p", idx)]
    for place, label in (("p", "p"), ("pb", "pbar")):
        unramified = [i for i in range(len(ctx.chars)) if ctx.f_place(i, label) == 0]
        for idx in rng.sample(unramified, 3):
            for arg, side in (({"u": -1}, ""), ({"w": 1, "p": -1}, ""),
                              ({"p": -1}, "psibar"), ({"p": -2}, "psi")):
                pool.append(ctx.euler_factor(place, idx, arg, psi_side=side))
    return pool + [x.inverse() for x in pool]


@pytest.mark.parametrize("seed", range(6))
def test_shuffled_products_have_one_canonical_form(seed):
    rng = random.Random(seed)
    ctx = level1_ctx(4 if seed % 2 else 2)
    pool = _factor_pool(ctx, rng)
    factors = [rng.choice(pool) for _ in range(10)]
    forms = []
    for _ in range(3):
        rng.shuffle(factors)
        prod = SymExpr(ctx.rel, 1)
        for x in factors:
            prod = prod * x
        forms.append(_structure(prod))
    assert forms[0] == forms[1] == forms[2]


@pytest.mark.parametrize("seed", range(4))
def test_power_is_the_repeated_product(seed):
    rng = random.Random(100 + seed)
    ctx = level1_ctx(4 if seed % 2 else 2)
    pool = _factor_pool(ctx, rng)
    top, bottom = rng.sample([f for f in pool if f.num and not f.den], 2)
    x = pool[0] * pool[2] * pool[5] * top / bottom
    assert x.num and x.den
    for n in range(-3, 4):
        base = x if n >= 0 else x.inverse()
        prod = SymExpr(ctx.rel, 1)
        for _ in range(abs(n)):
            prod = prod * base
        assert _structure(x ** n) == _structure(prod), n


def test_equality_coerces_scalars():
    r = Relation()
    assert not (SymExpr(r, 0) == zeta(5))
    assert SymExpr(r, 0) == 0 and SymExpr(r, 0) == CycloNumber.from_rational(0)
    assert SymExpr(r, zeta(5)) == zeta(5)
    assert SymExpr(r, F(3, 2)) == F(3, 2) and SymExpr(r, 2) != 3
    assert not (SymExpr.sym("u", 1, r) == 1)
    assert SymExpr(r, 1) != None and SymExpr(r, 1) != "1"  # noqa: E711


def _raw_factor_pool(rel):
    """Raw (scalar, mono, num, den) pieces: cyclotomic scalars, i- and
    w-bearing monomials, atoms, Euler-style factors, and the reducible
    family 1 - u^-2 = (1 - u^-1)(1 + u^-1)."""
    one = CycloNumber.from_rational(1)

    def poly(*terms):
        return tuple((tuple(sorted(m.items())), c if isinstance(c, CycloNumber)
                      else CycloNumber.from_rational(c)) for m, c in terms)

    monos = [{"i": 1}, {"i": 3, "u": 1}, {"w": 2}, {"w": -1, "Om+": 1},
             {"@L[psibar*c3;s=1]": 1}, {"p": -1, "2pi": 2}, {}]
    polys = [poly(({}, 1), ({"u": -2}, -1)), poly(({}, 1), ({"u": -1}, -1)),
             poly(({}, 1), ({"u": -1}, 1)), poly(({}, 1), ({"w": 1, "p": -1}, -1)),
             poly(({}, 1), ({"u": -1, "@fr[p](c4)": 1}, -1)),
             poly(({}, 2), ({"i": 1, "u": -1}, zeta(5, 1))),
             poly(({"u": 2}, 3), ({}, -3))]
    scalars = [one, CycloNumber.from_rational(F(-7, 3)), zeta(5, 2) * F(3, 2), zeta(4)]
    return scalars, monos, polys


def _random_operand(rel, rng):
    scalars, monos, polys = _raw_factor_pool(rel)
    mono: dict = {}
    for m in rng.sample(monos, rng.randrange(3)):
        for s, e in m.items():
            mono[s] = mono.get(s, 0) + e
    num = [rng.choice(polys) for _ in range(rng.randrange(4))]
    den = [rng.choice(polys) for _ in range(rng.randrange(4))]
    return SymExpr(rel, rng.choice(scalars), mono, num, den)


def _merged(*monos_with_powers):
    out: dict = {}
    for mono, n in monos_with_powers:
        for s, e in mono:
            out[s] = out.get(s, 0) + n * e
    return out


def _rendered_structure(x: SymExpr):
    return _structure(x), x.render()


@pytest.mark.parametrize("seed", range(8))
def test_products_equal_the_full_fold_of_the_concatenated_factors(seed):
    # the product path adds canonical factors without refolding them and
    # tries only cross pairs; the reference is the constructor's fold over
    # the concatenated factor lists
    rng = random.Random(700 + seed)
    rel = Relation(4, False) if seed % 2 else Relation()
    for _ in range(12):
        a, b = _random_operand(rel, rng), _random_operand(rel, rng)
        if a.is_zero() or b.is_zero():
            continue
        want = SymExpr(rel, a.scalar * b.scalar, _merged((a.mono, 1), (b.mono, 1)),
                       a.num + b.num, a.den + b.den)
        assert _rendered_structure(a * b) == _rendered_structure(want)
        want = SymExpr(rel, a.scalar * b.scalar.inverse(), _merged((a.mono, 1), (b.mono, -1)),
                       a.num + b.den, a.den + b.num)
        assert _rendered_structure(a / b) == _rendered_structure(want)
        want = SymExpr(rel, a.scalar.inverse(), _merged((a.mono, -1)), a.den, a.num)
        assert _rendered_structure(a.inverse()) == _rendered_structure(want)
        for n in range(-3, 4):
            s, num, den = (a.scalar, a.num, a.den) if n >= 0 else \
                (a.scalar.inverse(), a.den, a.num)
            want = SymExpr(rel, s ** abs(n), _merged((a.mono, n)), num * abs(n), den * abs(n))
            assert _rendered_structure(a ** n) == _rendered_structure(want), n


def test_products_divide_cross_pairs_both_ways():
    rel = Relation()
    scalars, _, polys = _raw_factor_pool(rel)
    square, minus, plus = polys[:3]  # 1 - u^-2, 1 - u^-1, 1 + u^-1
    a = SymExpr(rel, 1, {}, [square], [])
    b = SymExpr(rel, 1, {}, [], [minus])
    for prod in (a * b, b * a):
        assert _rendered_structure(prod) == _rendered_structure(SymExpr(rel, 1, {}, [plus]))
        assert prod.render() == "u^-1 * (u + 1)"
    c = SymExpr(rel, 1, {}, [minus, plus], [])
    for quot in (c / a, (a / c).inverse()):
        assert quot.is_one()
