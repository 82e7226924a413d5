"""The benchmark's four workloads.

A workload builds its contexts once (``__init__``, part of set-up), hands out
seeded rounds of requests (``round``), runs one request as a sequence of
library calls (``execute``), and checks the outputs against computations that
do not go through the code under test (``check``).  Every round of a workload
has the same make-up of request kinds; the seed chooses only the values.

Requests are plain data.  ``execute`` wraps each call into a library layer in
``tr.call(span_name, fn, ...)`` so the traced mode can attribute time to it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from iwasawalab.arith import CLASS_NUMBER_ONE_DISCS, padic_ring_for_conductor, primitive_root, zeta
from iwasawalab.chargroup import (FinAbGroup, GaloisAction, GroupChar, GroupHom, char_table,
                                  parse_tower_file)
from iwasawalab.descent import DModel, hom_description, integral_descent_check, invert_values
from iwasawalab.epsilon import (PSI_MINUS_X, PSI_X, epsilon_factor, gauss_sum, local_char_table,
                                verify_sigma_delta)
from iwasawalab.grpring import (CYCLO, Measure, PadicCoeffs, UndecidableAtPrecision,
                                assemble_from_components, build_theta_component, convolve,
                                eval_char, eval_rep, fourier_invert, is_unit)
from iwasawalab.reps import classify_irreps
from iwasawalab.symratio import (RatioContext, SymExpr, build_char_interpolation_rhs,
                                 build_period_correction, build_rep_interpolation_rhs,
                                 expected_period_ratio, reduce_ratio)

from lab_checks import (close, coeff_bits, convolve_ints, is_expected_monomial, padic_is_int,
                        root, unit_residues)


def _rng(seed: int, workload: str, label) -> random.Random:
    # string seeds hash through SHA-512: stable across processes and versions
    return random.Random(f"{seed}/{workload}/{label}")


def _product(*factors):
    out = factors[0]
    for x in factors[1:]:
        out = out * x
    return out


# ---------------------------------------------------------------------------
# interp-fourier: cyclotomic Fourier inversion and theta components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpRequest:
    kind = "prescription"  # one kind only (class attribute, not a field)
    d_k: int
    values: dict         # character exponents -> (root exponent, scale, extra root or None)
    psi: tuple
    omega: int
    roundtrip: tuple     # character exponents re-evaluated on the inverted measure
    float_points: tuple  # group elements whose coefficient is recomputed in floating point


class InterpFourier:
    """Synthetic interpolation requests on the covering group Z/4 x Z/25 (p = 5).

    One request is one trial of the finite-level construction pipeline:
    prescribe a value per character, Fourier-invert to a measure nu, build the
    four theta components, reassemble them, and compare the evaluation of the
    assembled measure with the right-hand side at 16 characters.  A round is
    one request: every request has the same make-up, a fifth of its
    prescriptions dense (a sum of two roots of unity), so rounds are short and
    a run has enough of them for its fastest eighth to be a steady figure.
    """

    name = "interp-fourier"
    DENSE = 20                # of the 100 prescriptions
    trace_rounds = 4
    DISCS = (4, 11, 19)       # all split at 5
    K1 = tuple(range(0, 25, 7))  # quotient characters sampled, as in the pipeline
    M = 100                   # exponent of the covering group

    def __init__(self, seed: int, tr):
        self.seed = seed
        self.problems: list[str] = []
        C = FinAbGroup((4, 25))
        C.add_subgroup_label("sigma_home", [(1, 0), (0, 1)])
        self.C = C
        self.G1 = FinAbGroup((25,))
        self.pr = GroupHom(C, self.G1, ((0, 1),))
        self.chars = char_table(C)
        self.thetas = char_table(FinAbGroup((4,)))
        self.keys = [(a, b) for a in range(4) for b in range(25)]
        self.sigma = {d: self._sigma(d) for d in self.DISCS}

    @staticmethod
    def _sigma(d: int) -> tuple[int, tuple[int, int]]:
        """(delta mod 125, sigma) for the canonical square root delta of -d.

        delta is the root whose residue mod 5 lies in {1, 2}; sigma writes it
        as (Teichmueller exponent, one-unit exponent) on Z/4 x Z/25.
        """
        q = 125
        dres = next(x for x in range(q) if (x * x + d) % q == 0 and 1 <= x % 5 <= 2)
        t_exp = next(t for t in range(4) if pow(2, t, 5) == dres % 5)
        teich = pow(2, 5 ** 11 * t_exp, q)
        one_unit = dres * pow(teich, -1, q) % q
        u_exp = next(x for x in range(25) if pow(6, x, q) == one_unit)
        return dres, (t_exp, u_exp)

    def _request(self, rng: random.Random) -> InterpRequest:
        dense = set(rng.sample(self.keys, self.DENSE))
        values = {}
        for key in self.keys:
            a, s = rng.randrange(self.M), rng.randint(1, 4)
            values[key] = (a, s, rng.randrange(self.M) if key in dense else None)
        return InterpRequest(
            d_k=rng.choice(self.DISCS), values=values,
            psi=(rng.randrange(4), rng.randrange(25)), omega=rng.choice((2, 3, 7)),
            roundtrip=tuple(rng.sample(self.keys, 4)),
            float_points=tuple(rng.sample(self.keys, 2)))

    def round(self, r: int) -> list[InterpRequest]:
        return [self._request(_rng(self.seed, self.name, r))]

    def warmup(self) -> list[InterpRequest]:
        return [self._request(_rng(self.seed, self.name, "warmup"))]

    def execute(self, q: InterpRequest, tr) -> dict:
        C, pr = self.C, self.pr
        values = {}
        for chi in self.chars:
            a, s, b = q.values[chi.exponents]
            v = zeta(self.M, a) * s
            if b is not None:
                v = v + zeta(self.M, b)
            values[chi] = v
        tr.add("grpring.fourier_terms", C.order() * len(self.chars))
        nu = tr.call("grpring.fourier_invert", fourier_invert, values, C, CYCLO)
        dres, sigma = self.sigma[q.d_k]
        psi = GroupChar(C, q.psi)
        omega = CYCLO.from_fraction(Fraction(q.omega))
        delta_value = CYCLO.from_fraction(Fraction(dres))
        psi_thetas = {}
        components = {}
        for theta in self.thetas:
            psi_theta = psi * GroupChar(C, (theta.exponents[0], 0))
            psi_thetas[theta.exponents[0]] = psi_theta
            components[theta.exponents] = tr.call(
                "grpring.build_theta_component", build_theta_component,
                nu, psi_theta, delta_value, sigma, omega, pr)
        assembled = tr.call("grpring.assemble_from_components", assemble_from_components,
                            components, C, (0,))
        inv_omega = CYCLO.inv(omega)
        pairs = []
        for t, psi_theta in psi_thetas.items():
            for k1 in self.K1:
                lhs = tr.call("grpring.eval_char", eval_char, assembled, GroupChar(C, (t, k1)))
                eta = psi_theta.inverse() * pr.pullback_char(GroupChar(self.G1, (k1,)))
                at_eta = tr.call("grpring.eval_char", eval_char, nu, eta)
                rhs = tr.call("arith.cyclo_mul", _product,
                              inv_omega, delta_value, eta.value(C.neg(sigma)), at_eta)
                holds = tr.call("arith.cyclo_eq", operator.eq, lhs, rhs)
                pairs.append((t, k1, lhs, rhs, holds))
        roundtrip = []
        for key in q.roundtrip:
            chi = GroupChar(C, key)
            got = tr.call("grpring.eval_char", eval_char, nu, chi)
            roundtrip.append((key, got, tr.call("arith.cyclo_eq", operator.eq, got, values[chi])))
        return {"nu": nu, "pairs": pairs, "roundtrip": roundtrip}

    def _prescribed(self, q: InterpRequest, key) -> tuple[complex, float]:
        """(value prescribed at a character, sum of the magnitudes of its terms)."""
        a, s, b = q.values[key]
        if b is None:
            return s * root(self.M, a), s
        return s * root(self.M, a) + root(self.M, b), s + 1

    def _char_value(self, key, g) -> complex:
        """chi_key(g) on Z/4 x Z/25, as a power of exp(2 pi i / 100)."""
        return root(self.M, key[0] * g[0] * 25 + key[1] * g[1] * 4)

    def check(self, q: InterpRequest, out: dict, tr) -> list[str]:
        problems = []
        dres, sigma = self.sigma[q.d_k]
        neg_sigma = (-sigma[0], -sigma[1])
        s0, t0 = q.psi
        for t, k1, lhs, rhs, holds in out["pairs"]:
            if not holds:
                problems.append(f"theta identity rejected at theta={t}, k1={k1}")
            # eta = psi_theta^-1 . (chi1 o pr), and eval(nu, eta) is the value prescribed at eta
            eta = ((-s0 - t) % 4, (k1 - t0) % 25)
            value, scale = self._prescribed(q, eta)
            want = dres / q.omega * self._char_value(eta, neg_sigma) * value
            for side, x in (("lhs", lhs), ("rhs", rhs)):
                if not close(x, want, dres / q.omega * scale):
                    problems.append(f"{side} at theta={t}, k1={k1} differs from the "
                                    f"floating-point right-hand side")
        for key, got, holds in out["roundtrip"]:
            if not holds or not close(got, *self._prescribed(q, key)):
                problems.append(f"Fourier round trip broken at character {key}")
        for g in q.float_points:
            neg_g = (-g[0], -g[1])
            terms = [self._prescribed(q, key) for key in self.keys]
            want = sum(v * self._char_value(key, neg_g)
                       for key, (v, _) in zip(self.keys, terms)) / len(self.keys)
            scale = sum(s for _, s in terms) / len(self.keys)
            if not close(out["nu"].coeffs.get(g), want, scale):
                problems.append(f"Fourier inverse coefficient at {g} differs from the "
                                f"floating-point character sum")
        if tr.enabled:
            bits = [coeff_bits(c) for c in out["nu"].coeffs.values()]
            bits += [coeff_bits(x) for _, _, lhs, rhs, _ in out["pairs"] for x in (lhs, rhs)]
            tr.note_max("arith.coeff_bits_max", max(bits))
        return problems


# ---------------------------------------------------------------------------
# padic-descent: p-adic Fourier path and unit inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentRequest:
    kind: str        # "vector" | "unit" | "nonunit" | "undecidable"
    expo: int = 0    # vector: level 5^expo
    f: int = 0       # vector: unramified degree
    points: dict = None   # vector: element -> integer coefficient; unit kinds: (a, b) -> integer
    non_o: tuple = ()     # vector: (Z_p coordinate, unramified coordinate) of the injected unit


class PadicDescent:
    """Integral-descent vectors at levels 5, 25, 125 and unit inversions on Z/4 x Z/25.

    A descent request runs hom_description -> check_equivariance ->
    invert_values -> integral_descent_check, then checks that an injected unit
    with an unramified direction makes the descent lemma vacuous.  A unit
    request asks is_unit for a verdict; the three verdicts (unit, non-unit,
    undecidable at the working precision) each have one request per round.
    """

    name = "padic-descent"
    P = 5
    PRECISION = 12
    UNIT_PRECISION = 6
    # (kind, level exponent, unramified degree).  The 12 level-25 vectors share
    # one degree, so the median request (11th of 21) sits inside that block: 4
    # level-5 vectors and 2 cheap verdicts are faster, 2 level-125 vectors and
    # the unit inversion slower.
    ROUND = ([("vector", 1, f) for f in (2, 3, 4, 4)]
             + [("vector", 2, 3)] * 12
             + [("vector", 3, f) for f in (2, 4)]
             + [("unit", 0, 0), ("nonunit", 0, 0), ("undecidable", 0, 0)])
    trace_rounds = 3

    def __init__(self, seed: int, tr):
        self.seed = seed
        self.problems: list[str] = []
        p = self.P
        self.levels = {}
        for _, expo, f in self.ROUND:
            if expo and (expo, f) not in self.levels:
                n = p ** expo
                self.levels[(expo, f)] = (
                    DModel(p, expo, precision=self.PRECISION + expo, unram_degree=f),
                    DModel(p, expo, precision=self.PRECISION, unram_degree=f),
                    FinAbGroup((n,)),
                    GaloisAction(((primitive_root(n),),)))
        self.C = FinAbGroup((4, 25))
        self.unit_coeffs = PadicCoeffs(padic_ring_for_conductor(p, 100, self.UNIT_PRECISION))
        self.keys = [(a, b) for a in range(4) for b in range(25)]

    def _request(self, rng: random.Random, kind: str, expo: int, f: int) -> DescentRequest:
        p = self.P
        if kind == "vector":
            n = p ** expo
            points = {rng.randrange(n): 1 + rng.randrange(p ** 4) for _ in range(6)}
            return DescentRequest(kind, expo, f, points,
                                  (1 + rng.randrange(p - 1), 1 + rng.randrange(p - 1)))
        # Integer measures on Z/4 x Z/25 whose nontrivial theta components are
        # units, so is_unit's verdict rests on the trivial component (the
        # augmentation) alone: a unit, a nonzero multiple of p, or zero.
        while True:
            coeffs = {}
            for key in self.keys:
                c = rng.randint(-9, 9) if rng.random() < 0.7 else 0
                if c:
                    coeffs[key] = c
            residues = unit_residues(coeffs)
            total = sum(coeffs.values())
            if not all(residues[1:]) or (kind == "unit" and not residues[0]) or \
                    (kind == "undecidable" and total % 4):
                continue
            if kind == "unit":
                return DescentRequest(kind, points=coeffs)
            # adding d at (a, 0) for every a moves the trivial component by 4d
            # and leaves the others unchanged
            # target = p * t with t = total mod 4, so 4 divides target - total
            t = total % 4 or 4
            target = 0 if kind == "undecidable" else p * rng.choice((t, t - 4 if t < 4 else -4))
            d = (target - total) // 4
            for a in range(4):
                c = coeffs.get((a, 0), 0) + d
                if c:
                    coeffs[(a, 0)] = c
                else:
                    coeffs.pop((a, 0), None)
            return DescentRequest(kind, points=coeffs)

    def round(self, r: int) -> list[DescentRequest]:
        rng = _rng(self.seed, self.name, r)
        kinds = list(self.ROUND)
        rng.shuffle(kinds)
        return [self._request(rng, *kind) for kind in kinds]

    def warmup(self) -> list[DescentRequest]:
        rng = _rng(self.seed, self.name, "warmup")
        return [self._request(rng, *kind) for kind in dict.fromkeys(self.ROUND)]

    def execute(self, q: DescentRequest, tr) -> dict:
        if q.kind == "vector":
            return self._execute_vector(q, tr)
        ring = self.unit_coeffs
        f = Measure(self.C, ring, {g: ring.from_int(c) for g, c in q.points.items()})
        try:
            ok, inverse = tr.call("grpring.is_unit", is_unit, f)
        except UndecidableAtPrecision:
            tr.add("grpring.is_unit.undecidable", 1)
            return {"verdict": "undecidable"}
        if not ok:
            # the trivial-character value (the augmentation), for the check
            trivial = GroupChar(self.C, (0, 0))
            return {"verdict": "nonunit",
                    "augmentation": tr.call("grpring.eval_char", eval_char, f, trivial)}
        product = tr.call("grpring.convolve", convolve, f, inverse)
        return {"verdict": "unit", "inverse": inverse, "product": product}

    def _execute_vector(self, q: DescentRequest, tr) -> dict:
        gen, chk, G, action = self.levels[(q.expo, q.f)]
        coeffs = gen.coeffs
        f0 = Measure(G, coeffs, {(g,): coeffs.from_int(c) for g, c in q.points.items()})
        vv = tr.call("descent.hom_description", hom_description, f0)
        equivariant = tr.call("descent.check_equivariance", vv.check_equivariance, gen, action)
        n = G.order()
        tr.add("grpring.padic_fourier_terms", n * n * gen.ring.dim)
        back = tr.call("descent.invert_values", invert_values, vv, coeffs)
        verdict = tr.call("descent.integral_descent_check", integral_descent_check, back, chk)
        ring = chk.ring
        coords = [0] * ring.dim
        coords[0], coords[ring.e] = q.non_o
        injected = Measure(G, chk.coeffs, {G.identity(): ring.from_coords(coords)})
        injected_verdict = tr.call("descent.integral_descent_check", integral_descent_check,
                                   injected, chk)
        return {"values": vv.values, "equivariant": equivariant, "back": back,
                "verdict": verdict, "injected": injected_verdict}

    def check(self, q: DescentRequest, out: dict, tr) -> list[str]:
        if q.kind == "vector":
            return self._check_vector(q, out)
        problems = []
        if out["verdict"] != q.kind:
            return [f"is_unit verdict {out['verdict']!r}, expected {q.kind!r}"]
        total = sum(q.points.values())
        modulus = self.P ** self.UNIT_PRECISION
        if q.kind == "unit":
            inverse = {g: c.coords[0] for g, c in out["inverse"].coeffs.items()}
            if not all(padic_is_int(c, inverse[g], modulus)
                       for g, c in out["inverse"].coeffs.items()):
                problems.append("inverse has coordinates outside Z_p")
            if convolve_ints(q.points, inverse, (4, 25), modulus) != {(0, 0): 1}:
                problems.append("f * inverse is not delta (integer convolution)")
            product = out["product"].coeffs
            if set(product) != {(0, 0)} or not padic_is_int(product[(0, 0)], 1, modulus):
                problems.append("convolve(f, inverse) is not delta")
        elif q.kind == "nonunit":
            # the library's trivial-character value is the integer augmentation,
            # and that has positive, finite valuation: a nonzero multiple of p
            # below the working precision
            if not padic_is_int(out["augmentation"], total, modulus):
                problems.append("trivial-character value differs from the integer augmentation")
            elif total % modulus == 0 or total % self.P:
                problems.append(f"non-unit verdict not confirmed: augmentation {total}")
        elif total != 0:
            problems.append(f"undecidable verdict on augmentation {total}")
        return problems

    def _check_vector(self, q: DescentRequest, out: dict) -> list[str]:
        problems = []
        gen = self.levels[(q.expo, q.f)][0]
        ring = gen.ring
        if not out["equivariant"]:
            problems.append("evaluation vector is not Galois-equivariant")
        for chi, v in out["values"].items():
            if any(c % ring.pN for c in v.coords[ring.e:]):
                problems.append(f"value at {chi.exponents} has unramified coordinates")
                break
        trivial = next(v for chi, v in out["values"].items() if not any(chi.exponents))
        if not padic_is_int(trivial, sum(q.points.values()), self.P ** (self.PRECISION + q.expo)):
            problems.append("trivial-character value differs from the integer augmentation")
        back = out["back"]
        modulus = self.P ** self.PRECISION
        if set(back.coeffs) != {(g,) for g in q.points}:
            problems.append("inverted measure has the wrong support")
        elif not all(padic_is_int(c, q.points[g], modulus) for (g,), c in back.coeffs.items()):
            problems.append("invert_values(hom_description(f)) differs from f mod p^N")
        verdict = out["verdict"]
        if not (verdict.hypothesis_holds and verdict.conclusion_holds) or verdict.vacuous:
            problems.append("descent lemma not confirmed on an O-valued measure")
        injected = out["injected"]
        if injected.hypothesis_holds or not injected.vacuous or not injected.bad_values:
            problems.append("injected non-O unit not flagged as vacuous")
        return problems


# ---------------------------------------------------------------------------
# tower-ratio: symbolic interpolation-ratio reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRequest:
    kind: str      # "level1" | "level2" | "weightk"
    k: int
    j: int
    variant: str   # "elliptic" | "weightk-1" | "weightk-2"
    rep: int
    partner: int   # representation whose denominator the negative control uses


class TowerRatio:
    """Interpolation-ratio reduction for the irreducibles of the shipped tower.

    Rounds walk strata of the representation lists: round r reduces the level-2
    representations with index = r mod 10 (35 of 350) and the level-1 ones with
    the same residue (2 of 20), plus two weight-k requests on level 1.  Ten
    rounds cover every representation once, and every seed walks the strata in
    the same order; the seed picks the order within a round, the negative-control
    partners and the weight-k requests.
    Each request also pairs its numerator with another representation's
    denominator; that negative control must be rejected.
    """

    name = "tower-ratio"
    STRATA = 10
    WEIGHTK_PER_ROUND = 2
    trace_rounds = 4

    def __init__(self, seed: int, tr):
        self.seed = seed
        self.problems: list[str] = []
        text = resources.files("iwasawalab.data").joinpath("tower_p5_level1.cfg").read_text()
        spec = parse_tower_file(text)
        self.contexts = {}
        for key, level, split in (("level1", spec.levels[0], (10, 10)),
                                  ("level2", spec.levels[1], (50, 300))):
            sg = level.semidirect
            irreps = tr.call("reps.classify_irreps", classify_irreps, sg)
            order = 2
            for n in level.group.orders:
                order *= n
            linear = sum(1 for r in irreps if r.kind == "linear")
            if sum(r.dimension ** 2 for r in irreps) != order or \
                    (linear, len(irreps) - linear) != split:
                self.problems.append(f"{key}: irreducibles do not add up to the group order")
            self.contexts[key] = self._context(tr, sg, 2)
        level1 = spec.levels[0].semidirect
        self.weightk = {k: self._context(tr, level1, k) for k in range(3, 7)}
        self.combos = [(k, j, variant) for k in range(3, 7) for j in range(-3, 1)
                       if 0 < k - 1 + j for variant in ("weightk-1", "weightk-2")]
        self.partners = {}
        for key, (ctx, _) in self.contexts.items():
            restr = [frozenset(c.exponents for c in r.restriction()) for r in ctx.reps]
            self.partners[key] = [[j for j in range(len(restr)) if restr[j] != restr[i]]
                                  for i in range(len(restr))]

    @staticmethod
    def _context(tr, sg, k):
        ctx = tr.call("symratio.RatioContext", RatioContext, sg, k=k, trivial_nebentypus=(k == 2))
        return ctx, tr.call("symratio.build_period_correction", build_period_correction, ctx)

    def _elliptic(self, rng, key, i) -> RatioRequest:
        return RatioRequest(key, 2, 0, "elliptic", i, rng.choice(self.partners[key][i]))

    def _weightk(self, rng) -> RatioRequest:
        k, j, variant = rng.choice(self.combos)
        i = rng.randrange(len(self.partners["level1"]))
        return RatioRequest("weightk", k, j, variant, i, rng.choice(self.partners["level1"][i]))

    def round(self, r: int) -> list[RatioRequest]:
        rng = _rng(self.seed, self.name, r)
        s = r % self.STRATA
        out = []
        for key in ("level2", "level1"):
            n = len(self.partners[key])
            out += [self._elliptic(rng, key, i) for i in range(s, n, self.STRATA)]
        out += [self._weightk(rng) for _ in range(self.WEIGHTK_PER_ROUND)]
        rng.shuffle(out)
        return out

    def warmup(self) -> list[RatioRequest]:
        rng = _rng(self.seed, self.name, "warmup")
        return [self._elliptic(rng, "level2", 0), self._elliptic(rng, "level1", 0),
                self._weightk(rng)]

    def execute(self, q: RatioRequest, tr) -> dict:
        ctx, lom = self.weightk[q.k] if q.kind == "weightk" else self.contexts[q.kind]
        rho = ctx.reps[q.rep]
        if q.variant == "elliptic":
            source = tr.call("reps.contragredient", rho.contragredient)
            char_variant = "elliptic-pbar"
        else:
            source, char_variant = rho, q.variant
        num = SymExpr(ctx.rel, 1)
        for chix in source.restriction():
            num = num * tr.call("symratio.build_char_interpolation_rhs",
                                build_char_interpolation_rhs, ctx, ctx.idx_of(chix),
                                char_variant, q.j)
        den = tr.call("symratio.build_rep_interpolation_rhs", build_rep_interpolation_rhs,
                      ctx, rho, q.variant, q.j)
        result, steps = tr.call("symratio.reduce_ratio", reduce_ratio, ctx, num, den, q.j, True)
        tr.add("symratio.rewrite_steps", len(steps))
        expected = tr.call("symratio.expected_period_ratio", expected_period_ratio, ctx, rho)
        at_rho = tr.call("grpring.eval_rep", eval_rep, lom, rho)
        accepted = result.is_monomial() and result == expected and result == at_rho
        swapped = tr.call("symratio.build_rep_interpolation_rhs", build_rep_interpolation_rhs,
                          ctx, ctx.reps[q.partner], q.variant, q.j)
        control, _ = tr.call("symratio.reduce_ratio", reduce_ratio, ctx, num, swapped, q.j)
        control_accepted = control.is_monomial() and control == expected and control == at_rho
        return {"rho": rho, "result": result, "accepted": accepted,
                "control": control, "control_accepted": control_accepted}

    def check(self, q: RatioRequest, out: dict, tr) -> list[str]:
        problems = []
        rho = out["rho"]
        if not out["accepted"]:
            problems.append(f"{q.kind} rep {q.rep}: ratio not reduced to the period monomial")
        if not is_expected_monomial(out["result"], rho.kind, rho.sign, q.k):
            problems.append(f"{q.kind} rep {q.rep}: reduced ratio {out['result'].render()} "
                            f"is not the expected period monomial")
        if out["control_accepted"] or is_expected_monomial(out["control"], rho.kind, rho.sign, q.k):
            problems.append(f"{q.kind} rep {q.rep}: ratio over the denominator of rep "
                            f"{q.partner} was accepted")
        return problems


# ---------------------------------------------------------------------------
# local-epsilon: Gauss sums and local constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonRequest:
    p: int
    n: int
    index: int   # into the exact-conductor characters of (Z/p^n)^x
    d_k: int     # split discriminant parameter for the sigma-delta lemma

    @property
    def kind(self) -> str:
        return f"{self.p}^{self.n}"


class LocalEpsilon:
    """Epsilon-factor duality, |G(chi)|^2 and the sigma-delta lemma for one
    local character per request.  (11, 2) is left out: its conductor 13310
    exceeds MAX_CONDUCTOR."""

    name = "local-epsilon"
    CASES = ((5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1))
    # the median request is a (5, 2) one: 10 of 17, with 2 cheaper kinds and 5 of
    # similar or higher cost, so the median sits inside the (5, 2) block
    ROUND = ((5, 3),) + ((7, 2),) * 2 + ((5, 2),) * 10 + ((5, 1), (7, 1), (11, 1), (13, 1))
    trace_rounds = 8

    def __init__(self, seed: int, tr):
        self.seed = seed
        self.problems: list[str] = []
        self.exact = {}
        for p, n in self.CASES:
            table = tr.call("epsilon.local_char_table", local_char_table, p, n)
            q = p ** n
            phi = q - q // p
            lower = q // p - q // p // p if n > 1 else 1
            exact = [c for c in table if c.n == n]
            if len(table) != phi or len(exact) != phi - lower:
                self.problems.append(f"local_char_table({p}, {n}) has the wrong size")
            self.exact[(p, n)] = exact
        self.discs = {p: [d for d in CLASS_NUMBER_ONE_DISCS
                          if d % p and pow(-d % p, (p - 1) // 2, p) == 1]
                      for p, _ in self.CASES}

    def _request(self, rng, p, n) -> EpsilonRequest:
        return EpsilonRequest(p, n, rng.randrange(len(self.exact[(p, n)])),
                              rng.choice(self.discs[p]))

    def round(self, r: int) -> list[EpsilonRequest]:
        rng = _rng(self.seed, self.name, r)
        kinds = list(self.ROUND)
        rng.shuffle(kinds)
        return [self._request(rng, p, n) for p, n in kinds]

    def warmup(self) -> list[EpsilonRequest]:
        rng = _rng(self.seed, self.name, "warmup")
        return [self._request(rng, p, n) for p, n in self.CASES]

    def execute(self, q: EpsilonRequest, tr) -> dict:
        chi = self.exact[(q.p, q.n)][q.index]
        pn = q.p ** q.n
        tr.add("epsilon.char_terms", 6 * (pn - pn // q.p))
        g = tr.call("epsilon.gauss_sum", gauss_sum, chi)
        chibar = chi.bar()
        gbar = tr.call("epsilon.gauss_sum", gauss_sum, chibar)
        e_bar = tr.call("epsilon.epsilon_factor", epsilon_factor, chibar, PSI_X)
        e_chi = tr.call("epsilon.epsilon_factor", epsilon_factor, chi, PSI_MINUS_X)
        duality = tr.call("arith.cyclo_mul", operator.mul, e_bar, e_chi)
        duality_holds = tr.call("arith.cyclo_eq", operator.eq, duality, pn)
        norm = tr.call("arith.cyclo_mul", operator.mul, g, gbar)
        target = tr.call("arith.cyclo_mul", operator.mul, chi.at_minus_one(), pn)
        norm_holds = tr.call("arith.cyclo_eq", operator.eq, norm, target)
        report = tr.call("epsilon.verify_sigma_delta", verify_sigma_delta, chi, q.d_k)
        return {"chi": chi, "g": g, "gbar": gbar, "e_bar": e_bar, "e_chi": e_chi,
                "duality_holds": duality_holds, "norm_holds": norm_holds, "report": report}

    def check(self, q: EpsilonRequest, out: dict, tr) -> list[str]:
        problems = []
        p, pn = q.p, q.p ** q.n
        tag = f"chi {p}:{q.n}:{out['chi'].exponent}"
        if not out["duality_holds"]:
            problems.append(f"{tag}: e(chibar, psi(x)) e(chi, psi(-x)) != p^n")
        if not out["norm_holds"]:
            problems.append(f"{tag}: G(chi) G(chibar) != chi(-1) p^n")
        units = [a for a in range(1, pn) if a % p]
        chi_at = {}
        for a in units:
            m, k = out["chi"].value_exponent(a)
            chi_at[a] = root(m, k)
        gauss = sum(chi_at[a] * root(pn, -a) for a in units)
        gauss_bar = sum(chi_at[a].conjugate() * root(pn, -a) for a in units)
        e_bar = sum(chi_at[a].conjugate() * root(pn, a) for a in units)
        for label, x, want in (("G(chi)", out["g"], gauss), ("G(chibar)", out["gbar"], gauss_bar),
                               ("e(chibar, psi(x))", out["e_bar"], e_bar),
                               ("e(chi, psi(-x))", out["e_chi"], gauss)):
            if not close(x, want, len(units)):
                problems.append(f"{tag}: {label} differs from the floating-point character sum")
        report = out["report"]
        delta = report.delta_residue
        if (delta * delta + q.d_k) % pn or not 1 <= delta % p <= (p - 1) // 2:
            problems.append(f"{tag}: {delta} is not the canonical square root of -{q.d_k}")
        shifted = chi_at.get(delta % pn, 0j) * sum(chi_at[a] * root(pn, -delta * a) for a in units)
        if not report.holds or not close(report.lhs, gauss, len(units)) or \
                not close(report.rhs, shifted, len(units)):
            problems.append(f"{tag}: sigma-delta lemma not confirmed for d_K = {q.d_k}")
        if tr.enabled:
            tr.note_max("arith.coeff_bits_max",
                        max(coeff_bits(out[key]) for key in ("g", "gbar", "e_bar", "e_chi")))
        return problems


WORKLOADS = {cls.name: cls for cls in (InterpFourier, PadicDescent, TowerRatio, LocalEpsilon)}
