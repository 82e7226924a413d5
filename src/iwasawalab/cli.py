"""Batch verification front-end.

Subcommands: verify (identity suites), gauss-sum, ratio, lattice, measure,
descent, reps.  Reports are deterministic JSON: the checksummed body contains
the resolved configuration and every check verdict (with witnesses for
failures and rewrite traces when requested); wall-clock timings live in a
sidecar section outside the body, so identical inputs produce byte-identical
bodies.  The process exits nonzero iff at least one check fails or errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import factorial

from .arith import (CLASS_NUMBER_ONE_DISCS, legendre_symbol, padic_ring_for_conductor,
                    primitive_root)
from .chargroup import (
    FinAbGroup,
    GaloisAction,
    GroupAutomorphism,
    GroupChar,
    GroupHom,
    SemidirectGroup,
    TowerSpec,
    char_table,
    galois_orbits,
    parse_tower_file,
)
from .cmlattice import scan_discriminant, smallest_split_prime
from .descent import (
    DModel,
    ev_kernel_check,
    ev_of,
    det_gamma,
    hom_description,
    integral_descent_check,
    invert_values,
    twist_invariant_family_from_unit,
    unit_descent_search,
)
from .epsilon import (
    PSI_MINUS_X,
    PSI_X,
    LocalChar,
    epsilon_factor,
    gauss_sum,
    local_char_table,
    verify_sigma_delta,
)
from .grpring import (
    CYCLO,
    Measure,
    PadicCoeffs,
    convolve,
    eval_char,
    eval_rep,
    extend_trivially,
    idempotent_split,
    assemble_from_components,
    is_unit,
    measure_from_text,
    measure_to_text,
    pushforward,
    random_measure,
    synthetic_interpolation_check,
)
from .reps import (classify_irreps, induce, inner_product_fast,
                   inner_product_with_char_fast)
from .symratio import (
    RatioContext,
    Relation,
    SymExpr,
    build_period_correction,
    expected_period_ratio,
    gamma_ratio,
    period_correction_inverse,
    reduce_rep_ratio,
)

SCHEMA = "iwasawalab-report/1"
ALL_SUITES = ("epsilon", "gauss-sigma", "ratio", "weightk", "measure",
              "katz", "lattice", "descent", "reps")


@dataclass
class RunConfig:
    p: int = 5
    precision: int = 12
    tower: str | None = None
    suites: tuple = ALL_SUITES
    additive: str = PSI_MINUS_X
    lattice_mode: str = "maximal"
    out: str | None = None
    trace: bool = False
    seed: int = 2024

    def resolved(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "tower": self.tower or "(built-in level-1 example)",
            "suites": list(self.suites),
            "additive": self.additive,
            # the inverse-Frobenius (geometric) identification is the one
            # convention the suites use
            "frobenius": "geometric",
            "lattice_mode": self.lattice_mode,
            "trace": self.trace,
            "seed": self.seed,
        }


def load_tower(config: RunConfig) -> TowerSpec:
    if config.tower:
        with open(config.tower, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("iwasawalab.data").joinpath(
            "tower_p5_level1.cfg").read_text()
    return parse_tower_file(text)


def _check(name: str, ok: bool, witness=None, **extra) -> dict:
    out = {"name": name, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        out["witness"] = witness
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_epsilon(config: RunConfig) -> list[dict]:
    checks = []
    primary = config.additive
    partner = PSI_X if primary == PSI_MINUS_X else PSI_MINUS_X
    total = 0
    for p in (5, 7):
        ok = True
        witness = None
        for chi in local_char_table(p, 2):
            lhs = epsilon_factor(chi.bar(), partner) * epsilon_factor(chi, primary)
            total += 1
            if lhs != p ** chi.n:
                ok = False
                witness = {"p": p, "chi": f"{p}:{chi.n}:{chi.exponent}", "lhs": repr(lhs)}
                break
        checks.append(_check(f"epsilon-duality-p{p}", ok, witness))
    checks.append(_check("epsilon-duality-count-62", total == 62,
                         {"count": total}))
    for p in (5, 7):
        ok = all(gauss_sum(c) * gauss_sum(c.bar()) == c.at_minus_one() * p ** c.n
                 for c in local_char_table(p, 2) if c.n >= 1)
        checks.append(_check(f"gauss-absolute-value-p{p}", ok))
    flip_ok = all(
        epsilon_factor(c, PSI_X) == c.at_minus_one() * epsilon_factor(c, PSI_MINUS_X)
        for c in local_char_table(5, 2) if c.n)
    checks.append(_check("additive-convention-flip", flip_ok))
    return checks


def suite_gauss_sigma(config: RunConfig) -> list[dict]:
    checks = []
    transformed = config.additive == PSI_X
    for p in (5, 7):
        for d in CLASS_NUMBER_ONE_DISCS:
            if d % p == 0 or legendre_symbol(-d, p) != 1:
                continue
            ok = True
            witness = None
            for chi in local_char_table(p, 2):
                if chi.n < 1:
                    continue
                rep = verify_sigma_delta(chi, d, precision=config.precision)
                if transformed:
                    # flipped additive direction trades e(chi) for chi(-1)e(chi)
                    lhs = gauss_sum(chi)
                    rhs = (chi.value(rep.delta_residue) * chi.at_minus_one()
                           * epsilon_factor(chi, PSI_X, "dx1", shift=rep.delta_residue))
                    holds = lhs == rhs
                else:
                    holds = rep.holds
                if not holds:
                    ok = False
                    witness = rep.as_dict()
                    break
            checks.append(_check(
                f"gauss-sigma-d{d}-p{p}" + ("-transformed" if transformed else ""),
                ok, witness, frobenius_sensitive=True))
    return checks


def _ratio_context(spec: TowerSpec, k: int = 2) -> RatioContext:
    level = spec.levels[0]
    return RatioContext(level.semidirect, k=k, trivial_nebentypus=(k == 2))


def suite_ratio(config: RunConfig, spec: TowerSpec) -> list[dict]:
    checks = []
    ctx = _ratio_context(spec)
    lom = build_period_correction(ctx)
    lominv = period_correction_inverse(ctx)
    ok_inv = convolve(lom, lominv) == Measure.delta(ctx.sg, lom.ring)
    checks.append(_check("period-correction-inverse", ok_inv))
    for i, rho in enumerate(ctx.reps):
        result, trace = reduce_rep_ratio(ctx, rho, "elliptic", want_trace=config.trace)
        expected = expected_period_ratio(ctx, rho)
        ok = result.is_monomial() and result == expected
        closes = result == eval_rep(lom, rho)
        entry = _check(f"ratio-rep{i}-{rho.kind}", ok and closes,
                       {"residual": result.render(), "expected": expected.render()})
        if config.trace:
            entry["trace"] = trace
        checks.append(entry)
    return checks


def suite_weightk(config: RunConfig, spec: TowerSpec) -> list[dict]:
    checks = []
    grid_ok = True
    for k in range(2, 7):
        for j in range(-3, 1):
            if 0 < k - 1 + j:
                expr = gamma_ratio(k, j, Relation(k, False))
                want = SymExpr(Relation(k, False),
                               Fraction(factorial(-j), factorial(k - 2 + j)),
                               {"2pi": k - 2 + 2 * j})
                if expr != want:
                    grid_ok = False
    checks.append(_check("gamma-grid-exact", grid_ok))
    for k in (3, 4, 6):
        ctx = _ratio_context(spec, k=k)
        reps_sample = [r for r in ctx.reps if r.kind == "linear"][:2] + \
                      [r for r in ctx.reps if r.kind == "induced"][:2]
        for j in range(-3, 1):
            if not (0 < k - 1 + j):
                continue
            for variant in ("weightk-1", "weightk-2"):
                ok = True
                witness = None
                for rho in reps_sample:
                    result, _ = reduce_rep_ratio(ctx, rho, variant, j)
                    if not (result.is_monomial()
                            and result == expected_period_ratio(ctx, rho)):
                        ok = False
                        witness = {"k": k, "j": j, "rep": repr(rho),
                                   "residual": result.render()}
                        break
                checks.append(_check(f"weightk-{variant}-k{k}-j{j}", ok, witness))
    return checks


def suite_measure(config: RunConfig) -> list[dict]:
    checks = []
    rng = random.Random(config.seed)
    p = config.p
    # extended-measure contract on Z/p x| <c> over both coefficient rings
    g = FinAbGroup((p,))
    sg = SemidirectGroup(g, GroupAutomorphism.inversion(g))
    chi = GroupChar(g, (1,))
    rho = induce(sg, chi)
    for ring_name, ring in (("cyclotomic", CYCLO),
                            ("padic", PadicCoeffs(padic_ring_for_conductor(p, p, 8)))):
        ok = True
        for _ in range(100):
            f = random_measure(g, ring, rng, density=0.6)
            lhs = eval_rep(extend_trivially(f, sg), rho)
            rhs = eval_char(f, chi) * eval_char(f, sg.conjugate_char(chi))
            if lhs != rhs:
                ok = False
                break
        checks.append(_check(f"extended-measure-{ring_name}", ok))
    # idempotent split/assemble on Delta x G1 with |Delta| dividing p-1
    big = FinAbGroup((4, p * p))
    part = FinAbGroup((p * p,))
    ok_split = True
    for _ in range(100):
        f = random_measure(big, CYCLO, rng, density=0.25)
        comps = idempotent_split(f, (0,))
        if assemble_from_components(comps, big, (0,)) != f:
            ok_split = False
            break
        comps2 = {t.exponents: random_measure(part, CYCLO, rng, density=0.3)
                  for t in char_table(FinAbGroup((4,)))}
        f2 = assemble_from_components(comps2, big, (0,))
        if idempotent_split(f2, (0,)) != comps2:
            ok_split = False
            break
    checks.append(_check("idempotent-roundtrip", ok_split))
    # tower pushforward commutes with the split
    small = FinAbGroup((4, p))
    homt = GroupHom(big, small, ((1, 0), (0, 1)))
    ft = random_measure(big, CYCLO, rng, density=0.2)
    inner_hom = GroupHom(part, FinAbGroup((p,)), ((1,),))
    lhs = {k: pushforward(m, inner_hom) for k, m in idempotent_split(ft, (0,)).items()}
    rhs = idempotent_split(pushforward(ft, homt), (0,))
    checks.append(_check("pushforward-commutes-with-split", lhs == rhs))
    # period-correction unit over p-adic coefficients: 50 random unit pairs
    ring10 = PadicCoeffs(padic_ring_for_conductor(p, p, 10))
    gg = FinAbGroup((p,))
    sg2 = SemidirectGroup(gg, GroupAutomorphism.inversion(gg))
    irreps = classify_irreps(sg2)
    ok_lom = True
    witness = None
    half = ring10.from_fraction(Fraction(1, 2))
    e0, c0 = (gg.identity(), 0), (gg.identity(), 1)
    for _ in range(50):
        a = ring10.from_int(1 + rng.randrange(p - 1) + p * rng.randrange(p ** 6))
        b = ring10.from_int(1 + rng.randrange(p - 1) + p * rng.randrange(p ** 6))
        lom = Measure(sg2, ring10, {e0: (a + b) * half, c0: (a - b) * half})
        oku, inv = is_unit(lom)
        if not oku or convolve(lom, inv) != Measure.delta(sg2, ring10):
            ok_lom = False
            witness = "unit inversion failed"
            break
        for rho2 in irreps:
            want = a * b if rho2.kind == "induced" else (a if rho2.sign == 1 else b)
            if eval_rep(lom, rho2) != want:
                ok_lom = False
                witness = f"evaluation table mismatch at {rho2!r}"
                break
        if not ok_lom:
            break
    checks.append(_check("period-correction-padic-50-pairs", ok_lom, witness))
    return checks


def suite_katz(config: RunConfig) -> list[dict]:
    rng = random.Random(config.seed)
    d_k = next(d for d in (11, 4, 19) if legendre_symbol(-d, config.p) == 1)
    result = synthetic_interpolation_check(config.p, d_k, 20, rng,
                                           precision=config.precision)
    ok = not result.failures
    return [_check("synthetic-interpolation-20-prescriptions", ok,
                   {"failures": result.failures[:3]},
                   checks=result.checks, d_K=result.d_k,
                   delta_residue=result.delta_residue)]


def suite_lattice(config: RunConfig) -> list[dict]:
    checks = []
    for d in CLASS_NUMBER_ONE_DISCS:
        p = smallest_split_prime(d)
        report = scan_discriminant(d, p, config.lattice_mode)
        if report.empty_scan:
            ok = d % 4 == 3 and config.lattice_mode == "maximal"
            checks.append(_check(f"lattice-d{d}-empty-scan-documented", ok,
                                 report.as_dict(), p=p, empty_scan=True))
        else:
            checks.append(_check(f"lattice-d{d}", report.all_stable_pass,
                                 report.as_dict(), p=p,
                                 stable=len(report.stable_entries)))
    return checks


def suite_descent(config: RunConfig) -> list[dict]:
    checks = []
    rng = random.Random(config.seed)
    p = config.p
    plan = [(1, 60, 4), (2, 30, 4), (3, 10, 2)]  # (exponent, vectors, unram degree)
    for expo, count, f_deg in plan:
        n = p ** expo
        gen_model = DModel(p, expo, precision=config.precision + expo,
                           unram_degree=f_deg)
        check_model = DModel(p, expo, precision=config.precision,
                             unram_degree=f_deg)
        G = FinAbGroup((n,))
        action = GaloisAction(((primitive_root(n),),))
        ok = True
        witness = None
        for _ in range(count):
            f0 = Measure(G, gen_model.coeffs,
                         {(rng.randrange(n),): gen_model.coeffs.from_int(
                             1 + rng.randrange(p ** 4)) for _ in range(6)})
            vv = hom_description(f0)
            if not vv.check_equivariance(gen_model, action):
                ok = False
                witness = "hom image not equivariant"
                break
            if not all(gen_model.in_L_part(v) for v in vv.values.values()):
                ok = False
                witness = "hom image not L-valued"
                break
            back = invert_values(vv, gen_model.coeffs)
            verdict = integral_descent_check(
                back, DModel(p, expo, precision=back.ring.ring.precision,
                             unram_degree=f_deg))
            if not (verdict.hypothesis_holds and verdict.conclusion_holds):
                ok = False
                witness = {"bad_values": len(verdict.bad_values),
                           "bad_coefficients": len(verdict.bad_coefficients)}
                break
        checks.append(_check(f"descent-fix-level-{n}", ok, witness))
        # injected violation must be detected through the hypothesis
        beta = check_model.random_non_O_unit(rng)
        bad = Measure.delta(G, check_model.coeffs).scale(beta)
        verdict = integral_descent_check(bad, check_model)
        checks.append(_check(f"descent-violation-detected-level-{n}",
                             (not verdict.hypothesis_holds) and verdict.vacuous
                             and bool(verdict.bad_values)))
    # det/ev sanity on the level-1 tower shape
    g = FinAbGroup((p, p))
    sg = SemidirectGroup(g, GroupAutomorphism.swap(g, 0, 1))
    gamma_hom = GroupHom(g, FinAbGroup((p,)), ((1, 1),))
    fam = twist_invariant_family_from_unit(sg, gamma_hom, Measure.delta(sg, CYCLO))
    rep = ev_kernel_check(sg, gamma_hom, fam, CYCLO)
    checks.append(_check("ev-kernel-trivial-family", rep.twist_invariant
                         and rep.all_ev_trivial and rep.kernel_trivial))
    irreps = classify_irreps(sg)
    sq_ok = True
    for _ in range(10):
        f = random_measure(sg, CYCLO, rng, density=0.15)
        for rho in irreps[::6]:
            if ev_of(det_gamma(f, rho, gamma_hom)) != eval_rep(f, rho):
                sq_ok = False
    checks.append(_check("det-ev-commuting-square", sq_ok))
    # experimental unit-descent sampling (outcome recorded, never asserted)
    model = DModel(p, 1, precision=10, unram_degree=2)
    gg = FinAbGroup((p,))
    sg2 = SemidirectGroup(gg, GroupAutomorphism.inversion(gg))
    u0 = Measure.delta(sg2, model.coeffs, ((2 % p,), 0)).scale(model.coeffs.from_int(3))
    out = unit_descent_search(u0, model, sg2)
    checks.append(_check("unit-descent-search-experimental", out.invariant,
                         None, found=out.found, searched=out.searched,
                         note=out.note))
    return checks


def suite_reps(config: RunConfig, spec: TowerSpec) -> list[dict]:
    checks = []
    towers = []
    p = config.p
    for level in spec.levels:
        if level.semidirect.order() <= 500:
            towers.append((f"tower-level-{level.group.orders}", level.semidirect))
    g1 = FinAbGroup((p,))
    towers.append((f"Z/{p}-inversion", SemidirectGroup(g1, GroupAutomorphism.inversion(g1))))
    g2 = FinAbGroup((p * p,))
    towers.append((f"Z/{p * p}-inversion", SemidirectGroup(g2, GroupAutomorphism.inversion(g2))))
    g3 = FinAbGroup((4, p * p))
    towers.append((f"Z/4xZ/{p * p}-inversion",
                   SemidirectGroup(g3, GroupAutomorphism.inversion(g3))))
    for name, sg in towers:
        irreps = classify_irreps(sg)
        ok_sum = sum(r.dimension ** 2 for r in irreps) == sg.order()
        ok_frob = True
        table = char_table(sg.base)
        inductions = [induce(sg, chi) for chi in table]
        for rho in irreps:
            for chi, ind in zip(table, inductions):
                if inner_product_with_char_fast(rho, chi) != inner_product_fast(rho, ind):
                    ok_frob = False
                    break
            if not ok_frob:
                break
        ok_dual = all(r.same_character(r.contragredient().contragredient())
                      for r in irreps)
        checks.append(_check(f"reps-{name}", ok_sum and ok_frob and ok_dual,
                             {"sum_dim_sq": sum(r.dimension ** 2 for r in irreps),
                              "order": sg.order()}))
    # Galois-orbit agreement for p-power-conductor characters (tower actions)
    level = spec.levels[0]
    grp = level.group
    if "H" in grp.galois_actions and "GL" in grp.galois_actions:
        table = char_table(grp)
        oh = {frozenset(o) for o in galois_orbits(table, grp.galois_actions["H"])}
        ogl = {frozenset(o) for o in galois_orbits(table, grp.galois_actions["GL"])}
        checks.append(_check("galois-orbits-H-equals-GL", oh == ogl))
    return checks


SUITE_RUNNERS = {
    "epsilon": lambda cfg, spec: suite_epsilon(cfg),
    "gauss-sigma": lambda cfg, spec: suite_gauss_sigma(cfg),
    "ratio": suite_ratio,
    "weightk": suite_weightk,
    "measure": lambda cfg, spec: suite_measure(cfg),
    "katz": lambda cfg, spec: suite_katz(cfg),
    "lattice": lambda cfg, spec: suite_lattice(cfg),
    "descent": lambda cfg, spec: suite_descent(cfg),
    "reps": suite_reps,
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def run_suites(config: RunConfig) -> tuple[dict, dict]:
    """(body, sidecar): body is the deterministic checksummed part."""
    spec = load_tower(config)
    suites = []
    timings = {}
    for name in config.suites:
        if name not in SUITE_RUNNERS:
            raise SystemExit(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
        t0 = time.perf_counter()
        try:
            checks = SUITE_RUNNERS[name](config, spec)
        except Exception as exc:  # surfaced as an errored suite, not a crash
            checks = [{"name": f"{name}-execution", "status": "error",
                       "witness": f"{type(exc).__name__}: {exc}"}]
        timings[name] = round(time.perf_counter() - t0, 3)
        suites.append({"name": name, "checks": checks})
    failures = sum(1 for s in suites for c in s["checks"] if c["status"] == "fail")
    errors = sum(1 for s in suites for c in s["checks"] if c["status"] == "error")
    body = {
        "schema": SCHEMA,
        "config": config.resolved(),
        "suites": suites,
        "summary": {
            "checks": sum(len(s["checks"]) for s in suites),
            "failures": failures,
            "errors": errors,
        },
    }
    sidecar = {"timing_seconds": timings,
               "body_sha256": body_checksum(body)}
    return body, sidecar


def canonical_body_bytes(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def body_checksum(body: dict) -> str:
    return hashlib.sha256(canonical_body_bytes(body)).hexdigest()


def emit_report(body: dict, sidecar: dict, out_path: str | None) -> str:
    text = json.dumps({"body": body, "sidecar": sidecar}, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# argument parsing and subcommands
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--precision", type=int, default=12)
    sp.add_argument("--tower", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--additive", choices=[PSI_MINUS_X, PSI_X], default=PSI_MINUS_X)
    sp.add_argument("--mode", choices=["maximal", "sqrt-order"], default="maximal")


def _config_from(args, suites) -> RunConfig:
    return RunConfig(p=args.p, precision=args.precision, tower=args.tower,
                     suites=tuple(suites), additive=args.additive, lattice_mode=args.mode,
                     out=args.out, trace=args.trace, seed=args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iwasawalab",
        description="exact-arithmetic identity verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run identity suites and emit a report")
    _add_common(sp)
    sp.add_argument("--suite", action="append", default=None,
                    help="suite name (repeatable); default: all")

    sp = sub.add_parser("gauss-sum", help="Gauss sum and sigma-shift identity")
    _add_common(sp)
    sp.add_argument("--chi", required=True, metavar="p:n:k",
                    help="character descriptor (prime:conductor-exponent:exponent)")
    sp.add_argument("--d", type=int, default=None,
                    help="discriminant parameter for the sigma-shift identity")

    sp = sub.add_parser("ratio", help="interpolation-ratio reduction")
    _add_common(sp)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--rep", type=int, default=None,
                    help="representation index (default: all)")
    sp.add_argument("--variant", default=None,
                    choices=["elliptic", "weightk-1", "weightk-2"])

    sp = sub.add_parser("lattice", help="period-lattice scan")
    _add_common(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--scan", action="store_true")

    sp = sub.add_parser("measure", help="measure suite / serialization check")
    _add_common(sp)
    sp.add_argument("--check-file", default=None,
                    help="round-trip a serialized measure file")

    sp = sub.add_parser("descent", help="descent checks")
    _add_common(sp)
    sp.add_argument("--case", choices=["fix", "ev", "det", "taylor", "all"],
                    default="all")

    sp = sub.add_parser("reps", help="representation suite")
    _add_common(sp)

    args = parser.parse_args(argv)

    if args.command == "verify":
        suites = tuple(args.suite) if args.suite else ALL_SUITES
        config = _config_from(args, suites)
        body, sidecar = run_suites(config)
        text = emit_report(body, sidecar, config.out)
        if not config.out:
            print(text)
        for s in body["suites"]:
            bad = [c for c in s["checks"] if c["status"] != "pass"]
            tag = "ok" if not bad else "FAIL"
            print(f"[{tag}] suite {s['name']}: "
                  f"{len(s['checks']) - len(bad)}/{len(s['checks'])} checks pass",
                  file=sys.stderr)
        return 0 if (body["summary"]["failures"] == 0
                     and body["summary"]["errors"] == 0) else 1

    if args.command == "gauss-sum":
        p, n, k = (int(t) for t in args.chi.split(":"))
        chi = LocalChar(p, n, k)
        print("G(chi) =", gauss_sum(chi))
        print("e(chi, psi(-x), dx1) =", epsilon_factor(chi, PSI_MINUS_X))
        if args.d is not None:
            rep = verify_sigma_delta(chi, args.d, precision=args.precision)
            print(json.dumps(rep.as_dict(), sort_keys=True, indent=2))
            return 0 if rep.holds else 1
        return 0

    if args.command == "ratio":
        config = _config_from(args, ("ratio",))
        spec = load_tower(config)
        k = args.k
        variant = args.variant or ("elliptic" if k == 2 else "weightk-1")
        ctx = _ratio_context(spec, k=k)
        indices = [args.rep] if args.rep is not None else range(len(ctx.reps))
        all_ok = True
        for i in indices:
            rho = ctx.reps[i]
            result, trace = reduce_rep_ratio(ctx, rho, variant, args.j, want_trace=args.trace)
            expected = expected_period_ratio(ctx, rho)
            ok = result.is_monomial() and result == expected
            all_ok = all_ok and ok
            out = {"rep": i, "kind": rho.kind, "reduced": result.render(),
                   "expected": expected.render(), "ok": ok}
            if args.trace:
                out["trace"] = trace
            print(json.dumps(out, sort_keys=True, indent=2))
        return 0 if all_ok else 1

    if args.command == "lattice":
        p = args.p if legendre_symbol(-args.d, args.p) == 1 and args.d % args.p else \
            smallest_split_prime(args.d)
        report = scan_discriminant(args.d, p, args.mode)
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
        ok = report.all_stable_pass if not report.empty_scan else (args.d % 4 == 3)
        return 0 if ok else 1

    if args.command == "measure":
        if args.check_file:
            with open(args.check_file, "r", encoding="utf-8") as fh:
                text = fh.read()
            m = measure_from_text(text)
            round_tripped = measure_to_text(m)
            ok = round_tripped == text
            print(json.dumps({"round_trip_stable": ok,
                              "support": len(m.coeffs)}, sort_keys=True))
            return 0 if ok else 1
        config = _config_from(args, ("measure",))
        body, sidecar = run_suites(config)
        print(emit_report(body, sidecar, config.out))
        return 0 if body["summary"]["failures"] + body["summary"]["errors"] == 0 else 1

    if args.command == "descent":
        config = _config_from(args, ("descent",))
        body, sidecar = run_suites(config)
        if args.case != "all":
            keyword = {"fix": "descent-fix", "ev": "ev-kernel",
                       "det": "det-ev", "taylor": "unit-descent"}[args.case]
            for s in body["suites"]:
                s["checks"] = [c for c in s["checks"] if keyword in c["name"]]
        print(emit_report(body, sidecar, config.out))
        bad = sum(1 for s in body["suites"] for c in s["checks"]
                  if c["status"] != "pass")
        return 0 if bad == 0 else 1

    if args.command == "reps":
        config = _config_from(args, ("reps",))
        body, sidecar = run_suites(config)
        print(emit_report(body, sidecar, config.out))
        return 0 if body["summary"]["failures"] + body["summary"]["errors"] == 0 else 1

    raise SystemExit(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
