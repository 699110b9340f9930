"""Set-up probe: a fresh interpreter imports the program and runs the warm-up pass.

run.py starts this script and counts the time from the start to the clock
reading on its "ready" line as one set-up sample. The argument is a pickle of
the warm-up requests that run.py wrote for this run.
"""

import pickle
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from pseudoherm import cli, dynamics, models  # noqa: E402

lib = SimpleNamespace(cli=cli, dynamics=dynamics, models=models)
for req in pickle.loads(Path(sys.argv[1]).read_bytes()):
    workloads.execute(req, lib)
print("ready", repr(time.perf_counter()), flush=True)
