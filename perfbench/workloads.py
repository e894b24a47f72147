"""The four benchmark workloads: which CLI commands each one runs.

Every workload drives the same public CLI, but each puts most of its time
on a different layer:

presets      every named preset once, each in its own interpreter, so
             import and set-up dominate (the headline use: reproduce every
             published curve plus the acceptance verdict)
sweeps       one interpreter at L = 30 running scaled-up grids, so the
             optimizer and the scalar kernels dominate
large-L      exact mutual information at L = 1e5 and 1e4, so full-support
             summation dominates
monte-carlo  the simulator at 5e6 symbols (L = 30) and 5e5 symbols
             (L = 300), so the per-window uniform draws dominate

sweeps and large-L also run one small simulation so that every end-to-end
metric, symbols_per_s included, is defined on every workload.  The
workload seed sets --seed for every simulate command; nothing else is
random.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("presets", "sweeps", "large-L", "monte-carlo")

# Workloads whose commands run back to back in one interpreter.  presets
# instead starts one interpreter per command, as a user typing them would.
IN_PROCESS = {"sweeps", "large-L", "monte-carlo"}

# The acceptance checks ``validate`` prints, in order; only the last one is
# expected to fail (see the validation module docstring).
VALIDATION_CHECKS = (
    "sandwich-1000-tuples",
    "half-alpha-optimal",
    "large-L-gap-rate",
    "zero-background-gap-rate",
    "low-A-quadratic-gap",
    "gap-offset-rates",
    "capacity-closed-vs-bruteforce",
    "duty-cycle-limits",
    "capacity-limits",
    "continuous-poisson-convergence",
    "low-A-capacity-coefficients",
    "saturation-coefficient",
    "capacity-monotonicity",
    "monte-carlo-validation",
    "approx-beats-bounds",
)
EXPECTED_FAILING_CHECKS = {"approx-beats-bounds"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    label: str
    argv: Tuple[str, ...]
    rows: int  # CSV data rows (validate: check lines)
    trials: int = 0  # samples per symbol L, where the command has one
    symbols: int = 0  # simulated symbols
    scenario: Optional[str] = None  # gap scenario
    reference: Optional[str] = None  # file under perfbench/reference

    @property
    def subcommand(self):
        return self.argv[0]


def _preset(subcommand, name, rows, **kw):
    return Command(
        f"{subcommand} {name}",
        (subcommand, "--preset", name),
        rows,
        reference=f"{subcommand}_{name}.csv",
        **kw,
    )


def _gap(scenario, flag, grid, rows):
    return Command(
        f"gap {scenario} {grid}",
        ("gap", "--scenario", scenario, flag, grid),
        rows,
        scenario=scenario,
    )


def _simulate(seed, symbols, *flags, trials=30):
    argv = ("simulate", "--symbols", str(symbols), "--seed", str(seed)) + flags
    return Command(" ".join(argv), argv, 1, trials=trials, symbols=symbols)


def commands(workload, seed):
    """The commands of one pass of ``workload``, in run order."""
    seed = seed % 2**64
    if workload == "presets":
        return [
            _preset("mi-sweep", "published", 41, trials=30),
            _preset("duty-imax", "samples20", 40, trials=20),
            _preset("duty-imax", "samples30", 40, trials=30),
            _preset("gap", "large-L", 15, scenario="large-L"),
            _preset("gap", "large-A", 9, scenario="large-A"),
            _preset("gap", "low-lambda", 9, scenario="low-lambda"),
            _preset("gap", "zero-lambda", 11, scenario="zero-lambda"),
            _preset("gap", "low-A", 9, scenario="low-A"),
            _preset("capacity", "zero-background", 60),
            _preset("capacity", "small-background", 60),
            _preset("capacity", "dead-time-sweep", 25),
            Command(
                "simulate published",
                ("simulate", "--preset", "published", "--seed", str(seed)),
                1,
                trials=30,
                symbols=10**6,
                reference="simulate_published.csv",
            ),
            Command("validate", ("validate",), len(VALIDATION_CHECKS)),
        ]
    if workload == "sweeps":
        return [
            Command("duty-imax 200", ("duty-imax", "--a-grid", "log:0.5,200,200"), 200, trials=30),
            Command("mi-sweep 401", ("mi-sweep", "--mu-grid", "lin:0,1,401"), 401, trials=30),
            _gap("large-L", "--l-grid", "lin:50,400,351", 351),
            _gap("large-A", "--a-grid", "lin:100,180,201", 201),
            _gap("low-lambda", "--lambda-grid", "log:5.8e-6,5.8e-4,201", 201),
            _gap("zero-lambda", "--a-grid", "lin:30,80,201", 201),
            _gap("low-A", "--a-grid", "log:1e-4,1e-2,201", 201),
            Command("capacity A 10000", ("capacity", "--a-grid", "log:0.01,2000,10000"), 10000),
            Command(
                "capacity tau 10000",
                ("capacity", "--preset", "dead-time-sweep", "--tau-grid", "log:1e-4,1e-1,10000"),
                10000,
            ),
            _simulate(seed, 200_000),
        ]
    if workload == "large-L":
        return [
            Command(
                "mi-sweep L=1e5",
                ("mi-sweep", "--samples", "100000", "--mu-grid", "lin:0,1,101"),
                101,
                trials=100_000,
            ),
            Command(
                "duty-imax L=1e4",
                ("duty-imax", "--samples", "10000", "--a-grid", "log:0.5,200,10"),
                10,
                trials=10_000,
            ),
            _simulate(seed, 200_000),
        ]
    if workload == "monte-carlo":
        return [
            _simulate(seed, 5_000_000),
            _simulate(seed, 500_000, "--samples", "300", "--dead-time", "0.002", trials=300),
        ]
    raise ValueError(f"unknown workload {workload!r}")
