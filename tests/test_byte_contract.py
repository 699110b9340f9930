"""The byte contract: a fixed corpus of requests prints the bytes that
tests/byte_contract.json records.

The corpus is the requests and strong-field calls of test_reach, then the
requests of perfbench/workloads.build(workload, 1, ".") for every
workload, all run in one fresh interpreter through workloads.execute, as
the benchmark runs them.  The interpreter works in a temporary directory
that holds every input file, and each request names its files by paths
relative to it, so that what the symbol subcommands echo does not depend
on where the directory is.

For each request the manifest holds its exit code and the SHA-256 of its
stdout and its stderr; for a strong-field call, the SHA-256 of the state's
bytes in place of stdout.  It also holds bench.machine() of the machine
that wrote it.  The last printed digits may move between numpy SIMD
targets and BLAS kernels, so on a machine whose record differs the test
skips and names the fields that differ.

A change that moves bytes on purpose rebuilds the manifest with

    python tests/test_byte_contract.py

and lists the moved requests in CHANGES.md.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "byte_contract.json"
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from test_reach import INPUT_FILES, REQUESTS, STRONG_FIELD_PULSES  # noqa: E402

SEED = 1

_RUN = """
import hashlib, json, sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import workloads
from pseudoherm import cli, dynamics, models

job = json.loads(sys.argv[1])
for path, text in job["files"].items():
    Path(path).write_text(text)
grid = dict(x_min=-20.0, x_max=20.0, points=256)
x = models.GridSpec(**grid).coordinates()
psi0, potential = np.exp(-0.5 * x * x) + 0j, 0.01 * x * x
requests = [("reach-%02d" % i, workloads.Request("", "", "", argv=argv))
            for i, argv in enumerate(job["requests"])]
requests += [("reach-strong-field-%d" % i, workloads.Request("", "", "", call=dict(
                 grid, t=1.0, n_quad=16, pulse=pulse, psi0=psi0, potential=potential)))
             for i, pulse in enumerate(job["pulses"])]
for workload in workloads.WORKLOADS:
    requests += [(workload + "/" + req.rid, req) for req in workloads.build(workload, job["seed"], ".")]
lib = SimpleNamespace(cli=cli, dynamics=dynamics, models=models)
sha = lambda data: hashlib.sha256(data).hexdigest()
out = {}
for rid, req in requests:
    _, code, output, error = workloads.execute(req, lib)
    out[rid] = {"code": code, "stdout" if req.argv is not None else "state": sha(output),
                "stderr": sha(error.encode()), "request": req.describe()}
json.dump(out, sys.stdout)
"""


def run_corpus(workdir):
    """{request id: {code, stdout or state, stderr, request}} of the corpus,
    run in a fresh interpreter from workdir."""
    paths = {name: f"{name}.txt" for name in INPUT_FILES}
    paths["out"] = "out.csv"
    job = {
        "files": {paths[name]: text for name, text in INPUT_FILES.items()},
        "requests": [[arg.format(**paths) for arg in argv] for argv, _ in REQUESTS],
        "pulses": STRONG_FIELD_PULSES,
        "seed": SEED,
    }
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-c", _RUN, json.dumps(job)], cwd=workdir, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def write_manifest(workdir):
    results = run_corpus(workdir)
    requests = {rid: {k: v for k, v in entry.items() if k != "request"} for rid, entry in results.items()}
    MANIFEST.write_text(json.dumps({"machine": bench.machine(), "requests": requests}, indent=0) + "\n")


def test_every_request_prints_the_recorded_bytes(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    machine = bench.machine()
    differ = sorted(k for k in manifest["machine"].keys() | machine.keys()
                    if manifest["machine"].get(k) != machine.get(k))
    if differ:
        pytest.skip(f"the manifest was written on another machine: {', '.join(differ)} differ")
    results = run_corpus(tmp_path)
    assert results.keys() == manifest["requests"].keys()
    moved = [
        f"{rid} ({entry['request']}): "
        + ", ".join(k for k, v in manifest["requests"][rid].items() if entry[k] != v)
        for rid, entry in results.items()
        if any(entry[k] != v for k, v in manifest["requests"][rid].items())
    ]
    assert not moved, f"{len(moved)} requests moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        write_manifest(work)
    print(f"wrote {MANIFEST}")
