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
            its measurements as <label> <value> <op> <limit>, or with
            --format json one object: the package version, the count of
            checks passed, and per check its name, verdict, runtime_s and
            rows of {label, value, op, limit}

Units use the normalized convention: the symbol duration is 1, rates are
photons per symbol, and the dead time is a fraction of the symbol.  In
simulate the samples tile one symbol (sampling interval 1/samples).
--sampling-interval belongs to capacity and defaults to the dead time.

Grids are written lin:START,STOP,COUNT or log:START,STOP,COUNT with finite
endpoints.  A subcommand's flags are the keys of its presets
(experiments.PRESETS), and a run reads exactly one preset: the --preset
given, or else the one the flags pick (gap: the --scenario's; capacity
with --tau-grid: dead-time-sweep), otherwise the subcommand's first preset.
experiments.run refuses a flag that this preset lacks, which the sweep
would not read, and a gap --scenario other than the preset's; the other
flags override the preset's values.

Exit codes: 0 success, 1 validation failure, 2 usage or parameter error
(including a flag the preset does not hold, Poisson benchmark means above
100000, oversized grids or Monte Carlo chunks, grids whose values overflow
to a non-finite value, and an --out path that cannot be written, which is
refused before any work), 3 numerical failure: a gap point (a gap below
the normal range included) or a capacity point (A * tau underflowing)
that double precision cannot resolve, or any other exception.  Every
error prints one line on stderr.
"""

import argparse
import functools
import sys

from . import __version__, experiments, validation
from .experiments import PRESETS
from .errors import NumericalFailure, ParameterError


# dest -> (converter, help), in --help order; the flag is experiments.flag(dest)
_OPTIONS = {
    "scenario": (str, "gap scenario: " + "|".join(PRESETS["gap"])),
    "peak_rate": (float, "peak photon rate A"),
    "background": (float, "background photon rate"),
    "dead_time": (float, "detector dead time"),
    "sampling_interval": (float, "receiver sample spacing"),
    "samples": (int, "samples per symbol L"),
    "mu_grid": (str, "duty-cycle grid (lin:a,b,n | log:a,b,n)"),
    "a_grid": (str, "peak-rate grid"),
    "l_grid": (str, "samples-per-symbol grid (gap large-L)"),
    "lambda_grid": (str, "background grid (gap low-lambda)"),
    "tau_grid": (str, "dead-time grid (capacity sweep)"),
    "symbols": (int, "number of simulated symbols"),
    "seed": (int, "simulation seed (64-bit unsigned)"),
    "mu": (float, "duty cycle for the simulation"),
    "preset": (str, "named parameter preset"),
    "format": (str, "validate output: text (default) | json"),
    "out": (str, "output path (default: stdout)"),
}


_FORMATS = ("text", "json")


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deadtime-channel",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, table in [*PRESETS.items(), ("validate", {})]:
        keys = {key for preset in table.values() for key in preset}
        dests = [dest for dest in _OPTIONS if dest in keys]
        dests += ["preset", "out"] if table else ["format", "out"]
        epilog = f"presets: {', '.join(sorted(table))}" if table else None
        sub = subs.add_parser(command, epilog=epilog)
        for dest in dests:
            conv, help_text = _OPTIONS[dest]
            choices = _FORMATS if dest == "format" else None
            sub.add_argument(
                experiments.flag(dest), dest=dest, type=conv, default=None,
                choices=choices, help=help_text,
            )
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


def _validate_report(runs, passed):
    """The version, the count passed, and each check's verdict, runtime and
    rows, as ``validate --format json`` prints them; NaN prints as NaN."""
    return {
        "version": __version__,
        "passed": passed,
        "checks": [
            {
                "name": result.name,
                "passed": result.passed,
                "runtime_s": seconds,
                "rows": [
                    {"label": label, "value": float(value), "op": op, "limit": float(limit)}
                    for label, value, op, limit in result.rows
                ],
            }
            for result, seconds in runs
        ],
    }


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
            runs = validation.run_all()
            passed = sum(result.passed for result, _ in runs)
            if settings.get("format") == "json":
                import json  # here, so that no other command pays its import

                text = json.dumps(_validate_report(runs, passed), indent=2) + "\n"
            else:
                lines = [result.line() for result, _ in runs]
                lines.append(f"{passed}/{len(runs)} checks passed")
                text = "\n".join(lines) + "\n"
            _emit(text, out)
            return 0 if passed == len(runs) else 1
        header, rows = experiments.run(command, settings)
        _emit(experiments.format_csv(header, rows), out)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
