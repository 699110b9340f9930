"""bench.py, run in its tiny mode: the record it writes has every figure,
each finite, with its quartiles around its median.  No wall time is asserted."""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ["wedges", "contour", "star", "kappa", "bch", "metric-verify", "metric-solve",
               "swanson", "spiked", "x4", "spectrum", "transition", "propagate",
               "propagate --snapshots 20000", "verify-all"]
KERNELS = {
    "transition_sweep_200x3": "ns/point", "transition_sweep_20000x8": "ns/point",
    "float_cells_3": "ns/value", "float_cells_800": "ns/value", "float_cells_9555": "ns/value",
    "csv_blocks_200x3": "ns/row", "star_deg2": "us/product", "star_deg10": "us/product",
    "table_91": "ns/row", "table_231": "ns/row", "table_325": "ns/row",
}


def test_tiny_bench_record_has_every_figure_finite(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "bench.py"), "--out", str(out), "--tiny"],
                   check=True, cwd=tmp_path)
    record = json.loads(out.read_text())
    assert set(record) == {"commit", "machine", "subcommands", "kernels"}
    assert set(record["commit"]) == {"sha", "dirty"}
    machine = record["machine"]
    assert machine["cpu_count"] >= 1 and machine["numpy"] and machine["simd_baseline"] is not None
    assert "OPENBLAS_NUM_THREADS" in machine["thread_variables"]
    assert list(record["subcommands"]) == SUBCOMMANDS
    assert list(record["kernels"]) == list(KERNELS)
    for name, figure in [*record["subcommands"].items(), *record["kernels"].items()]:
        assert figure["unit"] == KERNELS.get(name, "s")
        assert figure["repeats"] == 3
        values = [figure["q1"], figure["median"], figure["q3"]]
        assert all(math.isfinite(v) and v > 0 for v in values), name
        assert values == sorted(values), name
    assert record["subcommands"]["transition"]["argv"] == ["transition"]
