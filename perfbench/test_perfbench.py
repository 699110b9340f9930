"""Smoke test of the benchmark at tiny sizes.

Runs the smallest request of each class once untraced and twice traced, and
checks that every metric BENCHMARK.json names is emitted with its unit and
that the layers' self times account for the traced request time. Then
feeds the checks a corrupted output and an unexpected exit code, and checks
that both count as failed requests, so the checks can fail.
"""

import io
import json
import pickle
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pseudoherm import cli, dynamics, models  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LIB = SimpleNamespace(cli=cli, dynamics=dynamics, models=models)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    requests = workloads.warmup(workload, tmp_path)
    bench = run.Run(requests, LIB, run.calibration_for(workload))
    bench.one_pass()
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        try:
            bench.one_pass(tracer)
        finally:
            tracer.remove()
    assert not hasattr(cli.run, "__wrapped__")
    assert bench.correct() and bench.failed == 0, [r for r in bench.records if r["status"] != "ok"]

    warm_path = tmp_path / "warm.pickle"
    warm_path.write_bytes(pickle.dumps(requests[:1]))
    setup_s, _ = run.measure_setup(warm_path, 1)
    emitted = {name: unit for name, (value, unit) in run.end_to_end(bench, setup_s).items()}
    assert emitted == _units("end_to_end")
    layers = run.per_layer(bench, tracer)
    assert {name: unit for name, (value, unit) in layers.items()} == _units("per_layer")
    # the layers' self times account for the traced request time
    assert abs(layers["trace.unaccounted_ms"][0]) < 0.05 * layers["trace.request_ms"][0]


def _corrupting_cli(mutate):
    """A cli stand-in that runs the real command and then rewrites its outcome."""

    def fake_run(argv):
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        try:
            code = cli.run(argv)
        finally:
            sys.stdout = saved
        text, code = mutate(buf.getvalue(), code)
        sys.stdout.write(text)
        return code

    return SimpleNamespace(run=fake_run)


def _corrupt_value(text, code):
    """Double the real part of the last symbol row, plus one."""
    lines = text.splitlines()
    dx, dp, re, im = lines[-1].split(",")
    lines[-1] = ",".join((dx, dp, repr(2.0 * float(re) + 1.0), im))
    return "\n".join(lines) + "\n", code


@pytest.mark.parametrize(
    "mutate, status",
    [(_corrupt_value, "wrong"), (lambda text, code: (text, 1), "exit")],
)
def test_corrupted_output_and_bad_exit_are_failures(tmp_path, mutate, status):
    requests = [r for r in workloads.warmup("symbolic", tmp_path) if r.cls in ("star", "swanson")]
    lib = SimpleNamespace(cli=_corrupting_cli(mutate), dynamics=dynamics, models=models)
    bench = run.Run(requests, lib, run.calibrate_python)
    bench.one_pass()
    bench.one_pass()
    assert [r["status"] for r in bench.records] == [status] * len(requests)
    # counted per distinct request, not per pass, so the count does not depend on speed
    assert bench.attempted == bench.failed == len(requests)
    ok_frac, _ = run.end_to_end(bench, 1.0)["ok_frac"]
    assert ok_frac == 0.0
    assert bench.correct() is (status != "wrong")


def test_out_of_domain_request_must_be_rejected():
    req = workloads.Request("ood", "out-of-domain", workloads.REJECT,
                            argv=["swanson", "--n", "2", "--m", "2", "--alpha", "nan", "--g", "0.5"])
    assert checks.check(req, 0, b"# command=swanson\n")[0] == "not_rejected"
    assert checks.check(req, 1, b"")[0] == "ok"
    assert checks.check(req, None, b"")[0] == "raised"
