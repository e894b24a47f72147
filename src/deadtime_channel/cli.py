"""Sweep CLI: emits CSV for every headline experiment, plus a validator.

Subcommands
-----------
mi-sweep    rate, bounds, approximation, and the perfect-counting benchmark
            over a duty-cycle grid
duty-imax   optimal duty cycles and maximal rates versus peak rate
gap         bound-gap convergence for one of five asymptotic scenarios
capacity    capacity sweep versus peak rate (or dead time) with the
            continuous-channel reference and both asymptotic laws
simulate    Monte Carlo validation of the channel model (z-scores)
validate    run the acceptance suite; one pass/fail line per check, listing
            its measurements as <label> <value> <op> <limit>

Units use the normalized convention: the symbol duration is 1, rates are
photons per symbol, and the dead time is a fraction of the symbol.  In
simulate the samples tile one symbol (sampling interval 1/samples).
--sampling-interval belongs to capacity and defaults to the dead time.

Grids are written lin:START,STOP,COUNT or log:START,STOP,COUNT with finite
endpoints.  The flags given go to experiments.run, which resolves them:
flags override the --preset, which overrides the subcommand's default
preset (for gap, the preset of the chosen scenario).

Exit codes: 0 success, 1 validation failure, 2 usage or parameter error
(including Poisson benchmark means above 100000, oversized grids or
Monte Carlo chunks, and an --out path that cannot be written, which is
refused before any work), 3
numerical failure: a gap point or a capacity point (A * tau underflowing)
that double precision cannot resolve, or any other exception.  Every
error prints one line on stderr.
"""

import argparse
import sys

from . import experiments, validation
from .experiments import PRESETS
from .errors import EstimationError, NumericalFailure, ParameterError


# dest -> (flag, converter, help); shared across subcommands
_OPTIONS = {
    "peak_rate": ("--peak-rate", float, "peak photon rate A"),
    "background": ("--background", float, "background photon rate"),
    "dead_time": ("--dead-time", float, "detector dead time"),
    "sampling_interval": ("--sampling-interval", float, "receiver sample spacing"),
    "samples": ("--samples", int, "samples per symbol L"),
    "mu_grid": ("--mu-grid", str, "duty-cycle grid (lin:a,b,n | log:a,b,n)"),
    "a_grid": ("--a-grid", str, "peak-rate grid"),
    "l_grid": ("--l-grid", str, "samples-per-symbol grid (gap large-L)"),
    "lambda_grid": ("--lambda-grid", str, "background grid (gap low-lambda)"),
    "tau_grid": ("--tau-grid", str, "dead-time grid (capacity sweep)"),
    "scenario": ("--scenario", str, "gap scenario: " + "|".join(experiments.GAP_SCENARIOS)),
    "seed": ("--seed", int, "simulation seed (64-bit unsigned)"),
    "symbols": ("--symbols", int, "number of simulated symbols"),
    "mu": ("--mu", float, "duty cycle for the simulation"),
    "preset": ("--preset", str, "named parameter preset"),
    "out": ("--out", str, "output path (default: stdout)"),
}

_COMMAND_OPTIONS = {
    "mi-sweep": [
        "peak_rate", "background", "dead_time", "samples", "mu_grid",
        "preset", "out",
    ],
    "duty-imax": [
        "background", "dead_time", "samples", "a_grid", "preset", "out",
    ],
    "gap": [
        "scenario", "peak_rate", "background", "dead_time", "samples",
        "a_grid", "l_grid", "lambda_grid", "preset", "out",
    ],
    "capacity": [
        "peak_rate", "background", "dead_time", "sampling_interval",
        "a_grid", "tau_grid", "preset", "out",
    ],
    "simulate": [
        "peak_rate", "background", "dead_time", "samples", "symbols", "seed",
        "mu", "preset", "out",
    ],
    "validate": ["out"],
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deadtime-channel",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, dests in _COMMAND_OPTIONS.items():
        presets = sorted(PRESETS.get(command, {}))
        epilog = f"presets: {', '.join(presets)}" if presets else None
        sub = subs.add_parser(command, epilog=epilog)
        for dest in dests:
            flag, conv, help_text = _OPTIONS[dest]
            sub.add_argument(flag, dest=dest, type=conv, default=None, help=help_text)
    return parser


def _write_out(out_path, mode, text=""):
    try:
        with open(out_path, mode, encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out_path}: {exc.strerror}") from exc


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_out(out_path, "w", text)


def main(argv=None):
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    settings = {dest: value for dest, value in args.items() if value is not None}
    out = settings.pop("out", None)
    try:
        if out is not None:
            # refuse an unwritable path before the work; append mode leaves
            # an existing file as it is if the command then fails
            _write_out(out, "a")
        if command == "validate":
            results = validation.run_all()
            passed = sum(r.passed for r in results)
            lines = [r.line() for r in results]
            lines.append(f"{passed}/{len(results)} checks passed")
            _emit("\n".join(lines) + "\n", out)
            return 0 if passed == len(results) else 1
        header, rows = experiments.run(command, settings)
        _emit(experiments.format_csv(header, rows), out)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, EstimationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
