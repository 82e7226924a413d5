"""Tests of the benchmark itself.

Every check must pass on the library's real output and fail on a deliberately
corrupted one: a perturbed CycloNumber, a flipped p-adic coordinate, or a
reduction over a swapped denominator.  Run with

    PYTHONPATH=src python -m pytest labbench
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from iwasawalab.arith import CycloNumber  # noqa: E402
from iwasawalab.grpring import Measure  # noqa: E402

import run as bench  # noqa: E402
from lab_trace import NullTracer, Tracer, summarize  # noqa: E402
from lab_workloads import (WORKLOADS, DescentRequest, EpsilonRequest,  # noqa: E402
                           RatioRequest)

TR = NullTracer()


def perturbed(x: CycloNumber) -> CycloNumber:
    return CycloNumber(x.m, [c + Fraction(1, 7) if j == 0 else c for j, c in enumerate(x.coeffs)])


def flipped(x, index: int = 0):
    return x.ring.from_coords([c + 1 if i == index else c for i, c in enumerate(x.coords)])


def run_one(wl, q):
    out = wl.execute(q, TR)
    assert wl.check(q, out, TR) == []
    return out


_BUILT = {}


def workload(name):
    if name not in _BUILT:
        _BUILT[name] = WORKLOADS[name](7, TR)
        assert _BUILT[name].problems == []
    return _BUILT[name]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == bench.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "requests_per_s", "latency_p50_ms", "peak_rss_mb"}


def test_interp_fourier_checks_reject_perturbed_values():
    wl = workload("interp-fourier")
    q = wl.round(0)[0]
    out = run_one(wl, q)
    t, k1, lhs, rhs, holds = out["pairs"][5]
    bad_pairs = list(out["pairs"])
    bad_pairs[5] = (t, k1, perturbed(lhs), rhs, holds)
    assert wl.check(q, {**out, "pairs": bad_pairs}, TR)
    key, got, ok = out["roundtrip"][0]
    bad_roundtrip = [(key, perturbed(got), ok)] + out["roundtrip"][1:]
    assert wl.check(q, {**out, "roundtrip": bad_roundtrip}, TR)
    g = q.float_points[0]
    nu = out["nu"]
    coeffs = dict(nu.coeffs)
    coeffs[g] = perturbed(coeffs[g]) if g in coeffs else CycloNumber.from_rational(Fraction(1, 7))
    assert wl.check(q, {**out, "nu": Measure(nu.group, nu.ring, coeffs)}, TR)


def test_local_epsilon_checks_reject_perturbed_sums():
    wl = workload("local-epsilon")
    q = EpsilonRequest(5, 2, 3, 11)
    out = run_one(wl, q)
    for key in ("g", "gbar", "e_bar", "e_chi"):
        assert wl.check(q, {**out, key: perturbed(out[key])}, TR), key
    report = out["report"]
    assert wl.check(q, {**out, "report": dataclasses.replace(report, rhs=perturbed(report.rhs))},
                    TR)
    other_root = (report.delta_residue + 1) % 25
    assert wl.check(q, {**out, "report": dataclasses.replace(report,
                                                              delta_residue=other_root)}, TR)
    assert wl.check(q, {**out, "duality_holds": False}, TR)


def test_padic_descent_checks_reject_flipped_coordinates():
    wl = workload("padic-descent")
    q = DescentRequest("vector", 2, 3, {3: 17, 11: 240, 19: 5}, (2, 3))
    out = run_one(wl, q)
    back = out["back"]
    g = next(iter(back.coeffs))
    for index in (0, 1):
        coeffs = {h: flipped(c, index) if h == g else c for h, c in back.coeffs.items()}
        assert wl.check(q, {**out, "back": Measure(back.group, back.ring, coeffs)}, TR)
    values = dict(out["values"])
    chi = next(c for c in values if not any(c.exponents))
    values[chi] = flipped(values[chi])
    assert wl.check(q, {**out, "values": values}, TR)
    e = wl.levels[(2, 3)][0].ring.e
    values = dict(out["values"])
    values[chi] = flipped(values[chi], e)  # an unramified direction
    assert wl.check(q, {**out, "values": values}, TR)
    assert wl.check(q, {**out, "injected": out["verdict"]}, TR)


def test_padic_unit_checks_reject_a_flipped_inverse():
    wl = workload("padic-descent")
    rng = random.Random(5)
    q = wl._request(rng, "unit", 0, 0)
    out = run_one(wl, q)
    inverse = out["inverse"]
    g = next(iter(inverse.coeffs))
    coeffs = {h: flipped(c) if h == g else c for h, c in inverse.coeffs.items()}
    assert wl.check(q, {**out, "inverse": Measure(inverse.group, inverse.ring, coeffs)}, TR)
    for kind in ("nonunit", "undecidable"):
        qk = wl._request(rng, kind, 0, 0)
        run_one(wl, qk)
        assert wl.check(qk, {"verdict": "unit" if kind == "nonunit" else "nonunit"}, TR)
    qn = wl._request(rng, "nonunit", 0, 0)
    aug = run_one(wl, qn)["augmentation"]
    for index in (0, 1):
        assert wl.check(qn, {"verdict": "nonunit", "augmentation": flipped(aug, index)}, TR)
    assert wl.check(qn, {"verdict": "nonunit", "augmentation": aug.ring.zero()}, TR)


def test_tower_ratio_checks_reject_a_swapped_denominator():
    wl = workload("tower-ratio")
    for q in (RatioRequest("level1", 2, 0, "elliptic", 4, 15),
              RatioRequest("weightk", 4, -1, "weightk-2", 12, 0)):
        out = run_one(wl, q)
        swapped = {**out, "result": out["control"], "accepted": True}
        assert wl.check(q, swapped, TR)
        assert wl.check(q, {**out, "control_accepted": True}, TR)


def test_traced_request_records_layer_spans():
    wl = workload("tower-ratio")
    tr = Tracer()
    q = RatioRequest("level1", 2, 0, "elliptic", 12, 3)
    out = tr.call("bench.request", wl.execute, q, tr)
    assert wl.check(q, out, tr) == []
    stats = summarize(tr.spans)
    assert stats["bench.request"]["calls"] == 1
    assert stats["symratio.reduce_ratio"]["calls"] == 2
    layer_time = sum(s["total_s"] for name, s in stats.items() if name != "bench.request")
    request = stats["bench.request"]
    assert request["self_s"] == pytest.approx(request["total_s"] - layer_time)
    assert tr.counts["symratio.rewrite_steps"] > 0


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 1), ("b", 1.0, 4.0, 0, 1), ("c", 2.0, 3.0, 1, 1),
             ("b", 5.0, 6.0, 0, 1)]
    stats = summarize(spans)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["b"]["calls"] == 2
    assert stats["c"]["self_s"] == pytest.approx(1.0)


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "labbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "labbench/run.py", "--workload", "tower-ratio",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_request_that_raises_makes_the_run_incorrect():
    class Failing:
        problems = []

        def round(self, r):
            return [RatioRequest("level1", 1, 0, "elliptic", 0, 0)] * 2

        def execute(self, q, tr):
            raise ZeroDivisionError("injected")

    wl = Failing()
    phase = bench.run_phase(wl, TR, rounds=3)
    assert (phase.attempted, phase.failed) == (6, 6)
    assert bench.faults(wl, phase)
    metrics = bench.end_to_end(phase, 1.0)
    assert metrics["requests_per_s"]["value"] == 0
    assert metrics["latency_p50_ms"]["value"] is None
