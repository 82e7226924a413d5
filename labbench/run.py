"""Benchmark of the iwasawalab verification library.

Run from the repository root:

    python3 labbench/run.py --workload tower-ratio --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next request is
sent only after the previous one has been verified.  With --trace 0 the run
measures the end-to-end metrics for --seconds seconds of whole request rounds,
pausing twice to time a cold set-up in a fresh process (--setup-only);
with --trace 1 it runs a fixed number of rounds with every library call
recorded as a span, replays the same rounds untraced, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started (start time from /proc, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5), counted after the command name
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


# set-up time counts from process start, so take both clocks before any import
_AGE_AT_START = _process_age_s()
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

from lab_trace import NullTracer, Tracer, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACE_DIR = os.path.join(HERE, "traces")
SETUP_PROBES = 2  # cold set-ups in fresh processes, besides the run's own

# Per-layer metrics.  Span names are "<module>.<function>" for the library
# call the benchmark wraps; "bench.request" wraps a whole request.
TIMED_SPANS = (
    "grpring.fourier_invert", "grpring.build_theta_component",
    "grpring.assemble_from_components", "grpring.eval_char", "arith.cyclo_mul",
    "arith.cyclo_eq",
    "descent.hom_description", "descent.check_equivariance", "descent.invert_values",
    "descent.integral_descent_check", "grpring.is_unit", "grpring.convolve",
    "symratio.build_char_interpolation_rhs", "symratio.build_rep_interpolation_rhs",
    "symratio.reduce_ratio", "symratio.expected_period_ratio", "grpring.eval_rep",
    "reps.contragredient",
    "epsilon.gauss_sum", "epsilon.epsilon_factor", "epsilon.verify_sigma_delta",
)
SETUP_SPANS = ("reps.classify_irreps", "symratio.RatioContext",
               "symratio.build_period_correction", "epsilon.local_char_table")
CALL_COUNTS = ("grpring.fourier_invert", "grpring.eval_char")
COUNTS = (("grpring.fourier_terms", "count"), ("arith.coeff_bits_max", "bits"),
          ("grpring.padic_fourier_terms", "count"), ("grpring.is_unit.undecidable", "count"),
          ("symratio.rewrite_steps", "count"), ("epsilon.char_terms", "count"))


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return ([f"{s}.s" for s in TIMED_SPANS] + [f"{s}.calls" for s in CALL_COUNTS]
            + [name for name, _ in COUNTS] + [f"{s}.s" for s in SETUP_SPANS]
            + ["bench.glue.s", "bench.trace_overhead_s"])


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    rounds: list = field(default_factory=list)  # (verified requests/s, request latencies) per round
    problems: list = field(default_factory=list)  # wrong outputs
    errors: list = field(default_factory=list)    # requests that raised


def run_request(wl, q, tracer, label: str, phase: Phase) -> float | None:
    """Send one request and verify it; its latency, or None if it failed."""
    phase.attempted += 1
    tracer.request_id = label
    start = perf_counter()
    try:
        out = tracer.call("bench.request", wl.execute, q, tracer)
    except Exception as exc:  # a failed request is counted, the run goes on
        phase.failed += 1
        phase.errors.append(f"request {label} ({q.kind}): {type(exc).__name__}: {exc}")
        if len(phase.errors) == 1:
            traceback.print_exc(file=sys.stderr)
        return None
    latency = perf_counter() - start
    found = wl.check(q, out, tracer)
    if found:
        phase.failed += 1
        phase.problems += [f"request {label} ({q.kind}): {msg}" for msg in found]
        return None
    return latency


def run_phase(wl, tracer, seconds: float | None = None, rounds: int | None = None,
              phase: Phase | None = None) -> Phase:
    """Whole rounds, either for `seconds` more or `rounds` of them; a given
    `phase` is continued from its next round."""
    phase = phase or Phase()
    start = perf_counter()
    first = len(phase.rounds)
    while (len(phase.rounds) - first < rounds) if rounds is not None else \
            (perf_counter() - start < seconds):
        round_start = perf_counter()
        r = len(phase.rounds)
        latencies = [run_request(wl, q, tracer, f"{r}.{i}", phase)
                     for i, q in enumerate(wl.round(r))]
        latencies = [t for t in latencies if t is not None]
        phase.rounds.append((len(latencies) / (perf_counter() - round_start), latencies))
    phase.elapsed_s += perf_counter() - start
    return phase


def cold_setup(args) -> tuple[float | None, list[str]]:
    """(set-up time, faults) of the same workload and seed in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    except subprocess.TimeoutExpired:  # the child has been killed and waited for
        return None, ["set-up probe took over 120 s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    return result["setup_s"], result["faults"]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    # The host slows every process on it to about half speed for stretches of
    # seconds to minutes; a round can be slowed by that, never sped up.  So
    # both timings are medians over the fastest eighth of the rounds, which
    # have the same make-up as the others: a slow stretch moves them only when
    # it covers nearly all of the run.
    ranked = sorted(phase.rounds, key=lambda r: r[0], reverse=True)
    fastest = ranked[:math.ceil(len(ranked) / 8)]
    latencies = [t for _, lat in fastest for t in lat]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "requests_per_s": {"value": statistics.median(rate for rate, _ in fastest), "unit": "1/s"},
        # null only when no request of the run was verified
        "latency_p50_ms": {"value": 1000 * statistics.median(latencies) if latencies else None,
                           "unit": "ms"},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(tracer, timed_from: int, traced: Phase, untraced: Phase) -> dict:
    timed = summarize(tracer.spans, timed_from)
    setup = summarize(tracer.spans, 0, timed_from)
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for name in TIMED_SPANS:
        out[f"{name}.s"] = {"value": timed.get(name, empty)["self_s"], "unit": "s"}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = {"value": timed.get(name, empty)["calls"], "unit": "count"}
    for name, unit in COUNTS:
        out[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    for name in SETUP_SPANS:
        out[f"{name}.s"] = {"value": setup.get(name, empty)["self_s"], "unit": "s"}
    out["bench.glue.s"] = {"value": timed.get("bench.request", empty)["self_s"], "unit": "s"}
    out["bench.trace_overhead_s"] = {"value": traced.elapsed_s - untraced.elapsed_s, "unit": "s"}
    return out


def faults(wl, *phases: Phase) -> list[str]:
    """Everything that makes a run incorrect: a fault while building the
    workload, a wrong output, or a request that raised."""
    return wl.problems + [m for ph in phases for m in ph.problems + ph.errors]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, answer the warm-up, print the set-up time")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "iwasawalab")):
        print(f"labbench: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lab_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tracer = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, tracer)
    warm = Phase()
    for i, q in enumerate(wl.warmup()):
        run_request(wl, q, tracer, f"warmup.{i}", warm)
    setup_s = _AGE_AT_START + perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "faults": faults(wl, warm)}))
        return 0

    if args.trace:
        # the untraced pass goes first, so it does not pay for the spans the
        # traced pass keeps alive (a larger heap for the garbage collector)
        untraced = run_phase(wl, NullTracer(), rounds=wl.trace_rounds)
        timed_from = len(tracer.spans)
        tracer.reset_counts()
        traced = run_phase(wl, tracer, rounds=wl.trace_rounds)
        metrics = per_layer(tracer, timed_from, traced, untraced)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl"))
        phases = (traced, untraced)
    else:
        # One cold set-up is a single draw from a host whose speed halves for
        # stretches of 10-30 s.  So besides its own, the run times SETUP_PROBES
        # more cold set-ups in fresh processes, one after each equal share of
        # its --seconds, and reports the fastest.
        phase = Phase()
        setups = [setup_s]
        deadline = perf_counter() + args.seconds
        for i in range(SETUP_PROBES):
            run_phase(wl, tracer, seconds=(deadline - perf_counter()) / (SETUP_PROBES - i),
                      phase=phase)
            probe_s, probe_faults = cold_setup(args)
            warm.problems += probe_faults
            if probe_s is not None:
                setups.append(probe_s)
        metrics = end_to_end(phase, min(setups))
        phases = (phase,)

    wrong = faults(wl, warm, *phases)
    for msg in wrong[:20]:
        print(f"labbench: {msg}", file=sys.stderr)
    print(f"labbench: {args.workload} seed {args.seed}: "
          + "; ".join(f"{len(ph.rounds)} rounds, {ph.attempted} requests in {ph.elapsed_s:.2f} s"
                      for ph in phases), file=sys.stderr)
    print(json.dumps({"correct": not wrong,
                      "attempted": sum(ph.attempted for ph in phases),
                      "failed": sum(ph.failed for ph in phases),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
