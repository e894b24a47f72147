"""Benchmark of the deadtime-channel CLI: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload presets|sweeps|large-L|monte-carlo \\
        --seed N --seconds S --trace 0|1

One client (this process) drives the public CLI in a closed loop: one
command at a time, each started after the previous one ends, with numpy's
thread pools capped at min(2, nproc) threads.  The program is the source
tree under src/, run with the interpreter running this script.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up is
SETUP_IMPORTS fresh interpreters importing deadtime_channel.cli (after one
warm-up import); then whole passes over the workload repeat until one more
would end after S seconds.  --trace 1 splits the import time into numpy,
scipy and the package, runs untraced passes and then one traced pass, and
reports the per-layer metrics from the traced pass's spans, plus the
tracing overhead (traced minus untraced pass time).

The machine's speed drifts, so every time is scaled to a reference speed
by calibration.py, from calibrations taken just before and just after
it in the interpreter that runs the command or import.  The full report
holds the calibrations.

Every command's output is checked (see checks.py).  The last line of
stdout is one JSON object with correct, attempted, failed and metrics; a
readable report with sample counts and percentiles goes to stderr, and the
full report, samples and spans to perfbench/out/WORKLOAD/.
"""

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads
from calibration import calibrations, scale, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = min(2, os.cpu_count() or 1)
SETUP_IMPORTS = 7
SPLIT_IMPORTS = 5
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed



def calibrated(code):
    """Python source that runs ``code`` with the machine's speed calibrated
    just before and after it in the same interpreter.  The calibrations
    are printed as the last line of stdout."""
    return (
        f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
        "from calibration import calibrations\ntaken = calibrations()\n"
        f"try:\n    {code}\nfinally:\n    print('\\n' + repr(taken + calibrations()))\n"
    )


def printed_calibrations(stdout):
    """The calibrations a ``calibrated`` interpreter printed, or None."""
    last = stdout.strip().rsplit("\n", 1)[-1]
    return ast.literal_eval(last) if last.startswith("[") else None


# One command as the deadtime-channel command runs it.
CLI = calibrated("from deadtime_channel.cli import main; code = main()") + "sys.exit(code)\n"
IMPORT_TIME = calibrated(
    "import time; t = time.perf_counter(); import deadtime_channel.cli; "
    "print(repr(time.perf_counter() - t))"
)
USES_SCIPY = "import sys, deadtime_channel.cli; print(int('scipy' in sys.modules))"
IMPORT_SPLIT = (
    "import time; c = time.perf_counter; t0 = c(); import numpy; t1 = c(); "
    "{scipy}t2 = c(); import deadtime_channel.cli; t3 = c(); "
    "print(repr(t1 - t0), repr(t2 - t1), repr(t3 - t2))"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Runner:
    """Starts one interpreter at a time under the run's deadline."""

    def __init__(self, deadline, out_dir):
        self.deadline = deadline
        self.log_path = out_dir / "stderr.log"
        self.stdout_path = out_dir / "stdout.txt"
        path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.env.update({var: str(THREADS) for var in THREAD_VARS})

    def run(self, args):
        """Run python3 ARGS; returns (returncode, seconds, peak RSS KiB, stdout)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        # stdout goes to a file, not a pipe, so that no amount of output
        # can block the child while this process waits for it.
        with open(self.log_path, "ab") as log, open(self.stdout_path, "w+b") as stdout:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=stdout, stderr=log, env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            stdout.seek(0)
            output = stdout.read().decode(errors="replace")
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"python3 {' '.join(args[:3])} ran past the run deadline")
        return proc.returncode, seconds, usage.ru_maxrss, output


def fresh_imports(runner, code, count):
    """Timings printed by the ``calibrated`` ``code`` in ``count`` fresh
    interpreters, one list per interpreter, at the reference speed."""
    samples = []
    for _ in range(count):
        returncode, _, _, out = runner.run(["-c", code])
        if returncode != 0:
            raise RuntimeError(f"import failed with exit code {returncode}")
        factor = speed(printed_calibrations(out))
        samples.append([float(x) * factor for x in out.split("\n", 1)[0].split()])
    return samples


def import_split(runner):
    """(numpy, scipy, package) import seconds, per fresh interpreter.

    scipy.special is imported on its own only when the package imports
    it; otherwise its share is the time between two clock reads.
    """
    returncode, _, _, out = runner.run(["-c", USES_SCIPY])
    if returncode != 0:
        raise RuntimeError(f"import failed with exit code {returncode}")
    scipy = "import scipy.special; " if out.strip() == "1" else ""
    return fresh_imports(runner, calibrated(IMPORT_SPLIT.format(scipy=scipy)), SPLIT_IMPORTS)


def presets_pass(runner, cmds, out_dir, tag, traced):
    """One interpreter per command, as the deadtime-channel command runs.

    Each command's time excludes the calibrations its interpreter takes.
    """
    record = {
        "returncodes": [], "seconds": [], "outputs": [], "rss_kib": [], "summaries": [],
        "calibration_s": [],
    }
    for i, cmd in enumerate(cmds):
        name = f"{tag}-c{i}"
        if traced:
            spec = write_spec(out_dir, name, [cmd.argv], 0.0, untraced=False, traced=True)
            args = [str(HERE / "worker.py"), str(spec)]
            out = out_dir / f"{name}-traced-c0.out"
        else:
            out = out_dir / f"{name}.out"
            args = ["-c", CLI, *cmd.argv, "--out", str(out)]
        returncode, seconds, rss, stdout = runner.run(args)
        if traced:
            worker = json.loads((out_dir / f"{name}.json").read_text())["traced"]
            record["summaries"].append(worker)
            returncode, around = worker["returncodes"][0], worker["calibration_s"][0]
        else:  # an interpreter that died before printing is calibrated here
            around = printed_calibrations(stdout) or calibrations()
        record["returncodes"].append(returncode)
        record["seconds"].append(seconds - sum(around))
        record["outputs"].append(str(out))
        record["rss_kib"].append(rss)
        record["calibration_s"].append(around)
    return record


def write_spec(out_dir, name, argvs, seconds, untraced, traced):
    spec = {
        "name": name, "commands": [list(a) for a in argvs], "out_dir": str(out_dir),
        "src": str(SRC), "seconds": seconds, "untraced": untraced, "traced": traced,
    }
    path = out_dir / f"{name}-spec.json"
    path.write_text(json.dumps(spec))
    return path


def measure(runner, workload, cmds, out_dir, seconds, trace):
    """Untraced passes for ``seconds``, then one traced pass if ``trace``.

    Returns (untraced pass records, traced pass record or None, worker
    peak RSS KiB or None).
    """
    if workload in workloads.IN_PROCESS:
        spec = write_spec(out_dir, "w", [c.argv for c in cmds], seconds, True, bool(trace))
        returncode, _, rss, _ = runner.run([str(HERE / "worker.py"), str(spec)])
        if returncode != 0:
            raise RuntimeError(f"worker failed with exit code {returncode}")
        report = json.loads((out_dir / "w.json").read_text())
        traced = report.get("traced")
        if traced is not None:
            traced = {**traced, "summaries": [traced]}
        return report["passes"], traced, rss

    passes = []
    start = time.perf_counter()
    room = 2.2 if trace else 1.0  # the traced pass needs about 1.2 passes
    while True:
        passes.append(presets_pass(runner, cmds, out_dir, f"p{len(passes)}", False))
        if time.perf_counter() - start + room * sum(passes[-1]["seconds"]) > seconds:
            break
    traced = presets_pass(runner, cmds, out_dir, "traced", True) if trace else None
    return passes, traced, None


def check_outputs(cmds, records):
    """Apply the output checks to every pass; returns the tally and rows per pass.

    An output identical to one already checked counts that check's result
    again without repeating it.
    """
    tally = checks.Tally()
    seen = {}
    rows = []
    for record in records:
        n = 0
        for cmd, returncode, out in zip(cmds, record["returncodes"], record["outputs"]):
            path = Path(out)
            data = path.read_bytes() if path.is_file() else None
            key = (cmd.label, returncode, data)
            if key not in seen:
                reference = cmd.reference and (HERE / "reference" / cmd.reference).read_bytes()
                seen[key] = checks.check_command(cmd, returncode, data, reference or None)
                tally.merge(seen[key][0])
            else:
                tally.merge(seen[key][0], notes=False)
            n += seen[key][1]
            if data is not None:
                path.unlink()
        rows.append(n)
    return tally, rows


def highest_percentile(samples):
    """(p, value) for the highest whole percentile with >= 10 samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    ordered = sorted(samples)
    rank = max(1, -(-p * n // 100))  # nearest-rank, ceil(p n / 100)
    return p, ordered[rank - 1]


def merge_summaries(summaries, factor):
    """Sum tracer summaries; times are multiplied by ``factor``."""
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    for summary in summaries:
        for key, table in merged.items():
            unit = factor if key.endswith("_s") else 1
            for name, value in summary[key].items():
                table[name] = table.get(name, 0) + value * unit
    return merged


def per_layer_metrics(summary, split, tally, overhead):
    calls, total, self_s, counts = (
        summary[k] for k in ("calls", "total_s", "self_s", "counts")
    )
    metrics = {
        "import.numpy_s": statistics.median(s[0] for s in split),
        "import.scipy_s": statistics.median(s[1] for s in split),
        "import.deadtime_channel_s": statistics.median(s[2] for s in split),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "experiments.format_csv_s": total.get("experiments.format_csv", 0.0),
        "experiments.rows": counts.get("experiments.rows", 0),
        "optimize.maximize_scalar.calls": calls.get("optimize.maximize_scalar", 0),
        "optimize.maximize_scalar.evals": counts.get("optimize.maximize_scalar.evals", 0),
        "optimize.maximize_scalar.self_s": self_s.get("optimize.maximize_scalar", 0.0),
        "optimize.maximize_scalar.objective_s": total.get("optimize.objective", 0.0),
        "approximation.calls": calls.get("approximation.mi_approx_low_background", 0),
        "approximation.refusals": counts.get("approximation.refusals", 0),
        "approximation_s": total.get("approximation.mi_approx_low_background", 0.0),
        "capacity.wyner_poisson_capacity_s": total.get("capacity.wyner_poisson_capacity", 0.0),
        "mutual_info.pmf_bins": counts.get("mutual_info.pmf_bins", 0),
        "mutual_info.mi_discrete_poisson_s": total.get("mutual_info.mi_discrete_poisson", 0.0),
        "mutual_info.sandwich_slack_min": tally.slack_min if tally.slack_min is not None else 0.0,
        "monte_carlo.joint_counts_s": total.get("monte_carlo.joint_counts", 0.0),
        "monte_carlo.symbols": counts.get("monte_carlo.symbols", 0),
        "monte_carlo.uniforms_drawn": counts.get("monte_carlo.uniforms_drawn", 0),
        "monte_carlo.bootstrap_mi_sigma_s": total.get("monte_carlo.bootstrap_mi_sigma", 0.0),
        "validation.failed": counts.get("validation.failed", 0),
        "trace.overhead_s": overhead,
        "error_rate": tally.failures / tally.attempted,
    }
    for fn in ("mi_sweep_rows", "duty_imax_rows", "gap_rows", "capacity_rows", "simulate_rows"):
        metrics[f"experiments.{fn}.self_s"] = self_s.get(f"experiments.{fn}", 0.0)
    for name in (
        "rate_bounds.bound_gap",
        "rate_bounds.optimal_prior_upper",
        "divergences.beta_triple",
        "capacity.capacity_sampled",
        "mutual_info.mi_binomial_mixture",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}_s"] = total.get(name, 0.0)
    for check in workloads.VALIDATION_CHECKS:
        metrics[f"validation.{check}_s"] = total.get(f"validation.{check}", 0.0)
    return metrics


def environment():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "thread_cap": THREADS,
        "platform": platform.platform(),
        "client": "closed loop, one client, one command at a time",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "deadtime_channel" / "cli.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'deadtime_channel' / 'cli.py'} is missing")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(deadline, out_dir)
    cmds = workloads.commands(args.workload, args.seed)

    if args.trace:
        split = import_split(runner)
        setup = []
    else:
        fresh_imports(runner, IMPORT_TIME, 1)  # warm-up: bytecode and file caches
        setup = [s[0] for s in fresh_imports(runner, IMPORT_TIME, SETUP_IMPORTS)]
    passes, traced, worker_rss = measure(
        runner, args.workload, cmds, out_dir, args.seconds, args.trace
    )
    records = passes + ([traced] if traced else [])
    tally, rows = check_outputs(cmds, records)

    walls = [sum(scale(p["seconds"], p["calibration_s"])) for p in passes]
    symbols = sum(c.symbols for c in cmds)
    samples = {
        "setup_s": setup,
        "wall_s": walls,
        "points_per_s": [r / w for r, w in zip(rows, walls)],
        "symbols_per_s": [symbols / w for w in walls],
        "peak_rss_mib": (
            [worker_rss / 1024] if worker_rss is not None
            else [max(p["rss_kib"]) / 1024 for p in passes]
        ),
        "command_s": [s for p in passes for s in p["seconds"]],
        "calibration_s": [c for p in passes for around in p["calibration_s"] for c in around],
    }
    if args.trace:
        metrics = per_layer_metrics(
            merge_summaries(traced["summaries"], speed(sum(traced["calibration_s"], []))),
            split,
            tally,
            sum(scale(traced["seconds"], traced["calibration_s"])) - statistics.median(walls),
        )
    else:
        metrics = {name: statistics.median(samples[name]) for name in units}
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    env = environment()
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {env}"]
    if args.trace:
        lines += [f"  {name:<46} {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    else:
        for name, values in sorted(samples.items()):
            tail = highest_percentile(values)
            tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile has 10 samples above it"
            lines.append(
                f"  {name:<14} median {statistics.median(values):.6g} "
                f"{units.get(name, 's')}  n={len(values)}  {tail_text}"
            )
    lines.append(
        f"  checks: {tally.failures} failed of {tally.attempted} attempted, error_rate "
        f"{tally.failures / tally.attempted:.4g} ratio, by kind {tally.failed}; "
        f"sandwich slack min {tally.slack_min}; preset outputs byte-identical to "
        f"reference {tally.identical_outputs}/{tally.reference_outputs}"
    )
    lines.extend(f"    {note}" for note in tally.notes[:10])
    print("\n".join(lines), file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "samples": samples, "metrics": metrics,
        "checks": {"attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes},
        "commands": [c.label for c in cmds],
    }
    (out_dir / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
