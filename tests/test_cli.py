"""CLI contract tests: exit status, determinism, report schema, parsing."""

import json
import subprocess
import sys

import pytest

from iwasawalab.cli import (
    RunConfig,
    body_checksum,
    canonical_body_bytes,
    emit_report,
    load_tower,
    main,
    run_suites,
)

FAST_SUITES = ("epsilon", "ratio", "lattice", "reps")

# The suites that run cyclotomic arithmetic, and the body checksum of their
# report under the default config, recorded with the earlier Fraction-based
# CycloNumber.  Every exact verdict and every repr in a witness feeds it.
CYCLO_SUITES = ("epsilon", "gauss-sigma", "ratio", "measure", "katz")
CYCLO_SUITES_SHA256 = "3d47642b3f645323eadd8a1b494a611f99d1abae0246dc55c005956e873d22ff"

# The descent suite inverts p-adic units in unramified extensions (f > 1);
# its body checksum under the default config, recorded with the earlier
# extended-Euclid residue-field inverse.
DESCENT_SUITE_SHA256 = "31a15cf8c66b48bc7a5a42f5d761150b70abacb424e88da4f43cbcee69be1dde"

# The reps and weightk suites classify irreducibles (character conjugation,
# conductor exponents) and reduce weight-k interpolation ratios; their body
# checksum under the default config, recorded before the symbolic products
# stopped refolding canonical factors.
REPS_WEIGHTK_SUITES_SHA256 = "b7161e947d763409ffdac0b918695e9dd5dc895698a2587d281a72a0086f11c7"


def test_empty_suite_list_exits_zero():
    config = RunConfig(suites=())
    body, sidecar = run_suites(config)
    assert body["summary"]["checks"] == 0
    assert body["summary"]["failures"] == 0
    assert sidecar["body_sha256"] == body_checksum(body)


def test_default_fast_suites_pass():
    config = RunConfig(suites=FAST_SUITES)
    body, _ = run_suites(config)
    assert body["summary"]["failures"] == 0
    assert body["summary"]["errors"] == 0
    assert {s["name"] for s in body["suites"]} == set(FAST_SUITES)


def test_cyclotomic_suites_body_checksum_is_pinned():
    body, sidecar = run_suites(RunConfig(suites=CYCLO_SUITES))
    assert body["summary"] == {"checks": 38, "failures": 0, "errors": 0}
    assert sidecar["body_sha256"] == CYCLO_SUITES_SHA256


def test_descent_suite_body_checksum_is_pinned():
    body, sidecar = run_suites(RunConfig(suites=("descent",)))
    assert body["summary"] == {"checks": 9, "failures": 0, "errors": 0}
    assert sidecar["body_sha256"] == DESCENT_SUITE_SHA256


def test_reps_and_weightk_suites_body_checksum_is_pinned():
    body, sidecar = run_suites(RunConfig(suites=("reps", "weightk")))
    assert body["summary"] == {"checks": 24, "failures": 0, "errors": 0}
    assert sidecar["body_sha256"] == REPS_WEIGHTK_SUITES_SHA256


def test_report_body_is_byte_stable():
    config = RunConfig(suites=("epsilon", "lattice"))
    body1, side1 = run_suites(config)
    body2, side2 = run_suites(config)
    assert canonical_body_bytes(body1) == canonical_body_bytes(body2)
    assert side1["body_sha256"] == side2["body_sha256"]
    # timings live in the sidecar, never in the checksummed body
    assert "timing_seconds" not in body1
    assert "timing_seconds" in side1


def test_report_embeds_resolved_config():
    config = RunConfig(suites=("lattice",), lattice_mode="sqrt-order", seed=7)
    body, _ = run_suites(config)
    assert body["config"]["lattice_mode"] == "sqrt-order"
    assert body["config"]["seed"] == 7
    assert body["config"]["frobenius"] == "geometric"
    assert body["schema"] == "iwasawalab-report/1"


def test_frobenius_is_not_an_option():
    # the suites use the geometric identification only, which the report
    # states as a fixed convention; no option claims another
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobenius", "arithmetic", "--suite", "lattice"])
    assert exc.value.code == 2


def test_ratio_suite_trace_included_when_requested():
    config = RunConfig(suites=("ratio",), trace=True)
    body, _ = run_suites(config)
    ratio_checks = body["suites"][0]["checks"]
    traced = [c for c in ratio_checks if "trace" in c]
    assert traced
    step = traced[0]["trace"][0]
    assert {"rule", "atom", "before", "after"} <= set(step)


def test_failing_check_reports_witness_and_nonzero_exit():
    # sqrt-order mode produces recorded generator failures for d in {4, 8},
    # which the lattice suite surfaces as failing checks with witnesses
    config = RunConfig(suites=("lattice",), lattice_mode="sqrt-order")
    body, _ = run_suites(config)
    checks = body["suites"][0]["checks"]
    failing = [c for c in checks if c["status"] == "fail"]
    assert failing
    assert all("witness" in c for c in failing)


def test_gauss_sigma_flipped_convention_transformed_checks():
    config = RunConfig(suites=("gauss-sigma",), additive="psi(x)")
    body, _ = run_suites(config)
    checks = body["suites"][0]["checks"]
    assert all(c["status"] == "pass" for c in checks)
    assert all(c["name"].endswith("-transformed") for c in checks)
    assert all(c.get("frobenius_sensitive") for c in checks)


def test_cli_process_interface():
    out = subprocess.run(
        [sys.executable, "-m", "iwasawalab.cli", "verify",
         "--suite", "lattice", "--suite", "ratio"],
        capture_output=True, text=True)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["body"]["summary"]["failures"] == 0
    out2 = subprocess.run(
        [sys.executable, "-m", "iwasawalab.cli", "gauss-sum",
         "--chi", "5:1:2", "--d", "3"],
        capture_output=True, text=True)
    assert out2.returncode != 0  # inert prime: suite errors loudly


def test_load_tower_default_and_explicit(tmp_path):
    default_spec = load_tower(RunConfig())
    assert default_spec.p == 5
    bad = tmp_path / "broken.cfg"
    bad.write_text("p = 5\n[level 1]\norders = 5\nbogus = 1\n")
    with pytest.raises(Exception) as err:
        load_tower(RunConfig(tower=str(bad)))
    assert "line 4" in str(err.value)


def test_measure_check_file_roundtrip(tmp_path):
    from iwasawalab.chargroup import FinAbGroup
    from iwasawalab.grpring import CYCLO, measure_to_text, random_measure
    import random

    m = random_measure(FinAbGroup((4, 5)), CYCLO, random.Random(0))
    path = tmp_path / "m.txt"
    path.write_text(measure_to_text(m))
    out = subprocess.run(
        [sys.executable, "-m", "iwasawalab.cli", "measure",
         "--check-file", str(path)],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["round_trip_stable"] is True
