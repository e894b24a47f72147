"""What the benchmark in perfbench/ expects of the package.

perfbench/tracer.py wraps each function in its ``TRACED`` table at every
binding the package's callers use, and perfbench/checks.py expects the
``validate`` lines that perfbench/workloads.py lists.  A cleanup that
renames, inlines or stops calling a traced function, or that adds or
drops an acceptance check, would break traced benchmark runs; these tests
fail first.  They only read perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import deadtime_channel
from deadtime_channel import validation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Small commands that between them reach every traced function.
COMMANDS = [
    ["mi-sweep", "--mu-grid", "lin:0,1,3"],
    ["duty-imax", "--a-grid", "lin:1,2,2"],
    ["gap", "--scenario", "large-A", "--a-grid", "lin:100,120,3"],
    ["capacity", "--a-grid", "lin:1,2,2"],
    ["simulate", "--symbols", "1000"],
]

# Run in a fresh interpreter: the tracer rebinds the package's functions.
_TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from deadtime_channel import cli

tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
traced = [f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names]
print(json.dumps({"codes": codes, "calls": tracer.summary()["calls"], "traced": traced}))
"""


def test_traced_commands_reach_every_traced_function():
    src = Path(deadtime_channel.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(PERFBENCH), json.dumps(COMMANDS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(COMMANDS)
    missed = [name for name in report["traced"] if report["calls"].get(name, 0) < 1]
    assert missed == []


def test_validation_checks_match_the_benchmark():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert validation.EXPECTED_FAILURES == workloads.EXPECTED_FAILING_CHECKS
    assert len(validation.ALL_CHECKS) == len(workloads.VALIDATION_CHECKS)
