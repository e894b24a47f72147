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
codes, outputs = [], []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.main(argv))
    outputs.append(out.getvalue())
traced = [f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names]
summary = tracer.summary()
print(json.dumps({"codes": codes, "outputs": outputs, "calls": summary["calls"],
                  "counts": summary["counts"], "traced": traced}))
"""


def _traced_run(commands):
    """The report of one traced interpreter that runs ``commands``."""
    src = Path(deadtime_channel.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(PERFBENCH), json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def test_traced_commands_reach_every_traced_function():
    report = _traced_run(COMMANDS)
    assert report["codes"] == [0] * len(COMMANDS)
    missed = [name for name in report["traced"] if report["calls"].get(name, 0) < 1]
    assert missed == []


# Outside the expansion's region at background 5: every duty-imax row and
# the interior mi-sweep row print NaN approximation cells.
REFUSED_COMMANDS = [
    ["duty-imax", "--background", "5", "--a-grid", "lin:1,2,2"],
    ["mi-sweep", "--background", "5", "--mu-grid", "lin:0,1,3"],
]


def test_traced_runs_count_every_approximation_refusal():
    report = _traced_run(REFUSED_COMMANDS)
    assert report["codes"] == [0] * len(REFUSED_COMMANDS)
    nan_cells = 0
    for output in report["outputs"]:
        header, *rows = [line.split(",") for line in output.splitlines()]
        columns = [header.index(c) for c in ("mu_approx", "approx") if c in header]
        nan_cells += sum(row[i] == "nan" for row in rows for i in columns)
    assert nan_cells == 3
    assert report["counts"]["approximation.refusals"] == nan_cells


def test_validation_checks_match_the_benchmark():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert validation.EXPECTED_FAILURES == workloads.EXPECTED_FAILING_CHECKS
    assert len(validation.ALL_CHECKS) == len(workloads.VALIDATION_CHECKS)
