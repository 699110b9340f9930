"""Benchmark of the pseudoherm command line and library, one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 10 --trace 0

One client runs the workload's seeded request list in a closed loop: one
request at a time, in-process through `pseudoherm.cli.run(argv)` (or a direct
library call), timed from the call to the last byte of output. Whole passes
over the list repeat until `--seconds` have passed and at least 100 requests
have been timed. Every request's output is checked against an independent
reference after its clock stops (see checks.py); later passes must reproduce
the first pass's bytes. `attempted` and `failed` count distinct requests of
the list, so they depend on the seed only, not on how many passes fit.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py); the tracing
overhead is the difference between the two kinds of pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record of the run (environment,
per-request outcome, latency and stdout sha256) goes to
.perfbench/<workload>-seed<seed>-trace<t>.json under the repository root.
"""

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_SAMPLES = 100
INCORRECT = ("wrong", "nondeterministic")  # statuses that make a run incorrect

# The machine the benchmark was tuned on (2 vCPU x86-64, Python 3.11, cores
# shared with other tenants) drifts in effective speed by +-20% over tens of
# seconds. Every time is therefore scaled to a reference speed: a fixed
# calibration loop runs before and after each request, and the request's time
# is multiplied by CALIBRATION_S over the mean of those two loop times. Each
# workload uses the loop that resembles its work: dict and complex arithmetic
# like the symbol kernels, or the banded solve and vector arithmetic of a
# Crank-Nicolson step. CALIBRATION_S is the median loop time on that machine,
# so reported times read as milliseconds there. Raw times stay in the run
# record.
CALIBRATION_S = 0.0004
_CAL_KEYS = [(i % 7, i % 5) for i in range(64)]


def calibrate_python():
    """Seconds for one pass of the fixed dict-and-complex loop."""
    t0 = time.perf_counter()
    out = {}
    w = 0.5 - 0.25j
    for _ in range(12):
        for k in _CAL_KEYS:
            for c in (1.0 + 2j, 0.5 - 1j, 3.0 + 0j):
                out[k] = out.get(k, 0j) + w * c * c
    return time.perf_counter() - t0


class BandedCalibration:
    """Seconds for four fixed tridiagonal solves on 1400 points with their right-hand sides."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self.solve = solve_banded
        self.ab = np.zeros((3, 1400), dtype=complex)
        self.ab[1] = 2.0 + 0.1j
        self.ab[0, 1:] = -1.0
        self.ab[2, :-1] = -1.0
        self.vec = np.ones(1400, dtype=complex)
        self.diag = np.linspace(0.0, 1.0, 1400)

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(4):
            rhs = (1.0 - 0.01j * self.diag) * self.vec
            rhs[:-1] -= 0.01 * self.vec[1:]
            self.solve((1, 1), self.ab, rhs)
        return time.perf_counter() - t0


def calibration_for(workload):
    return BandedCalibration() if workload == "propagation" else calibrate_python


def load_program():
    """Import the program from this checkout's src/, or exit without a result."""
    if not (SRC / "pseudoherm" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'pseudoherm'}")
    sys.path.insert(0, str(SRC))
    import pseudoherm
    from pseudoherm import cli, dynamics, models

    if Path(pseudoherm.__file__).resolve().parent != (SRC / "pseudoherm").resolve():
        sys.exit(f"perfbench: imported pseudoherm from {pseudoherm.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, dynamics=dynamics, models=models)


def measure_setup(warm_path, repeats):
    """Median seconds from a fresh interpreter's start to the end of its warm-up pass.

    The probe prints its own clock when the warm-up ends; perf_counter is the
    system-wide monotonic clock, so the two readings compare. Returns the
    median at reference speed and the raw samples.
    """
    times, scaled = [], []
    for _ in range(repeats):
        before = calibrate_python()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), str(warm_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = out.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        seconds = float(fields[1]) - t0
        times.append(seconds)
        scaled.append(seconds * 2.0 * CALIBRATION_S / (before + calibrate_python()))
    return statistics.median(scaled), times


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS", "PSEUDOHERM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": ("no bandwidth figure is claimed: solver vectors (<= 4003 complex values) fit in L2; "
                 "the banded eigensolver's dense points x points workspace shows in peak_rss_mb"),
    }


class Run:
    """The timed passes of one run and the outcome of every request."""

    def __init__(self, requests, lib, calibrate):
        self.requests = requests
        self.lib = lib
        self.calibrate = calibrate
        self.records = [
            {"rid": r.rid, "class": r.cls, "expect": r.expect, "request": r.describe(),
             "latency_ms": [], "raw_ms": []}
            for r in requests
        ]
        self.passes = []  # (traced, seconds of program time at reference speed, output bytes)
        self.scale = []  # reference-speed factor of every timed request, in order

    def one_pass(self, tracer=None):
        import workloads
        from checks import check

        gc.collect()
        busy, out_bytes, first = 0.0, 0, not self.passes
        before = self.calibrate()
        for req, rec in zip(self.requests, self.records):
            if tracer is not None:
                tracer.current_request = len(self.scale)
            seconds, code, data, err = workloads.execute(req, self.lib)
            after = self.calibrate()
            scale = 2.0 * CALIBRATION_S / (before + after)
            before = after
            self.scale.append(scale)
            busy += seconds * scale
            out_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            rec["latency_ms"].append(seconds * scale * 1e3)
            rec["raw_ms"].append(seconds * 1e3)
            if first:
                status, detail = check(req, code, data)
                rec.update(exit=code, sha256=digest, status=status, detail=detail,
                           stderr=err.strip()[-300:])
            elif (digest, code) != (rec["sha256"], rec["exit"]):
                rec["status"], rec["detail"] = "nondeterministic", f"pass {len(self.passes)} differs"
        self.passes.append((tracer is not None, busy, out_bytes))

    @property
    def attempted(self):
        """Distinct requests of the list; the same for every run of a seed, however many passes."""
        return len(self.records)

    @property
    def failed(self):
        """Distinct requests whose status is not ok, counting a pass that changed its output."""
        return sum(rec["status"] != "ok" for rec in self.records)

    def latencies(self):
        """Every latency of the untraced passes."""
        kinds = [traced for traced, _, _ in self.passes]
        return [ms for rec in self.records for ms, traced in zip(rec["latency_ms"], kinds) if not traced]

    def correct(self):
        return not any(rec["status"] in INCORRECT for rec in self.records)


def percentile(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(run, setup_s):
    lat = run.latencies()
    # each request's cost is its median over the passes
    typical_s = sum(statistics.median(rec["latency_ms"]) for rec in run.records) / 1e3
    return {
        "throughput_rps": (len(run.requests) / typical_s, "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat, 0.9), "ms"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(run, tracer):
    """Per-layer metrics, per traced pass."""
    traced = [p for p in run.passes if p[0]]
    untraced = [p for p in run.passes if not p[0]]
    k = len(traced)
    fn = tracer.summary(run.scale, outer=("models.spiked_matrix_element", "dynamics.crank_nicolson_propagate"))
    counts = tracer.counts
    layers = {}
    for key, s in fn.items():
        layer = key.split(".")[0]
        agg = layers.setdefault(layer, {"self_ns": 0, "errors": 0})
        agg["self_ns"] += s["self_ns"]
        agg["errors"] += s["errors"]

    def ms(ns):
        return ns / 1e6 / k

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("cli", "weyl", "metric", "stokes", "models", "dynamics"):
        m[f"{layer}.self_ms"] = (ms(layers[layer]["self_ns"]), "ms")
        m[f"{layer}.errors"] = (layers[layer]["errors"] / k, "count")
    m["cli.out_bytes"] = (statistics.mean(b for _, _, b in traced), "B")
    star = fn["weyl.star"]
    m["weyl.star.calls"] = (star["calls"] / k, "count")
    m["weyl.star.in_terms"] = (counts["weyl.star.in_terms"] / k, "count")
    m["weyl.star.ns_per_term"] = (ratio(star["self_ns"], counts["weyl.star.in_terms"]), "ns/term")
    m["metric.conjugate_by_exp.order_sum"] = (counts["metric.conjugate_by_exp.order_sum"] / k, "count")
    m["metric.metric_residual.calls"] = (fn["metric.metric_residual"]["calls"] / k, "count")
    sme = fn["models.spiked_matrix_element"]
    m["models.spiked_matrix_element.calls"] = (sme["calls"] / k, "count")
    m["models.spiked_matrix_element.ms_per_call"] = (ratio(sme["outer_ns"] / 1e6, sme["calls"]), "ms/call")
    m["models.hermitian_spectrum.self_ms"] = (ms(fn["models.hermitian_spectrum"]["self_ns"]), "ms")
    m["models.hermitian_spectrum.points"] = (counts["models.hermitian_spectrum.points"] / k, "count")
    m["models.refined_eigenvalues.self_ms"] = (ms(fn["models.refined_eigenvalues"]["self_ns"]), "ms")
    sweep = fn["dynamics.transition_sweep"]
    m["dynamics.transition_sweep.points"] = (counts["dynamics.transition_sweep.points"] / k, "count")
    m["dynamics.transition_sweep.ns_per_point"] = (
        ratio(sweep["self_ns"], counts["dynamics.transition_sweep.points"]), "ns/point")
    cn = fn["dynamics.crank_nicolson_propagate"]
    m["dynamics.crank_nicolson_propagate.steps"] = (counts["dynamics.crank_nicolson_propagate.steps"] / k, "count")
    m["dynamics.crank_nicolson_propagate.ns_per_step_point"] = (
        ratio(cn["outer_ns"], counts["dynamics.crank_nicolson_propagate.step_points"]), "ns/step-point")
    for name in ("field_integrals", "gordon_volkov_propagate"):
        m[f"dynamics.{name}.calls"] = (fn[f"dynamics.{name}"]["calls"] / k, "count")
        m[f"dynamics.{name}.self_ms"] = (ms(fn[f"dynamics.{name}"]["self_ns"]), "ms")
    m["dynamics.first_order_strong_field.self_ms"] = (ms(fn["dynamics.first_order_strong_field"]["self_ns"]), "ms")
    traced_ms = statistics.mean(busy for _, busy, _ in traced) * 1e3
    untraced_ms = statistics.mean(busy for _, busy, _ in untraced) * 1e3
    accounted = sum(agg["self_ns"] for agg in layers.values()) / 1e6 / k
    m["trace.request_ms"] = (traced_ms, "ms")
    m["trace.untraced_request_ms"] = (untraced_ms, "ms")
    m["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    m["trace.unaccounted_ms"] = (traced_ms - accounted, "ms")
    m["trace.spans"] = (len(tracer.start) / k, "count")
    return m


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    requests = workloads.build(args.workload, args.seed, workdir / "inputs")
    warm = workloads.warmup(args.workload, workdir)

    setup_s, setup_samples = None, []
    if not args.trace:
        warm_path = workdir / "warmup.pickle"
        warm_path.write_bytes(pickle.dumps(warm))
        setup_s, setup_samples = measure_setup(warm_path, SETUP_REPEATS)
    for req in warm:
        workloads.execute(req, lib)

    run = Run(requests, lib, calibration_for(args.workload))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    while True:
        if tracer is None or len(run.passes) % 2 == 0:
            run.one_pass()
        else:
            tracer.install()
            try:
                run.one_pass(tracer)
            finally:
                tracer.remove()
        enough = time.perf_counter() - start >= args.seconds
        if tracer is None:
            enough = enough and len(run.latencies()) >= MIN_SAMPLES
        else:
            enough = enough and len(run.passes) % 2 == 0
        if enough:
            break

    if tracer is None:
        metrics = end_to_end(run, setup_s)
    else:
        metrics = per_layer(run, tracer)
        tracer.save(OUT / f"{tag}-spans.npz")
    failing = [
        {k: rec[k] for k in ("rid", "request", "status", "detail", "exit", "stderr")}
        for rec in run.records if rec["status"] != "ok"
    ]
    record = {
        "environment": environment(args),
        "requests_per_pass": len(requests),
        "passes": [{"traced": t, "program_s": busy, "out_bytes": b} for t, busy, b in run.passes],
        "samples": len(run.latencies()),
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failing_requests": failing,
        "requests": run.records,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"{tag}: {len(requests)} requests per pass, {len(run.passes)} passes, "
          f"{record['samples']} samples, {run.failed}/{run.attempted} failed")
    for rec in failing:
        print(f"  failed {rec['rid']} [{rec['status']}] {rec['detail']}: {rec['request'][:120]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    # Single-threaded run: pin the BLAS pools before numpy is first imported
    # (main imports it), and leave the program's own thread knob unset.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PSEUDOHERM_THREADS", None)
    main()
