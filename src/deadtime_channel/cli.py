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
validate    run the acceptance suite; one pass/fail line per check

Units use the normalized convention: the symbol duration is 1, rates are
photons per symbol, and the dead time is a fraction of the symbol.  When
--sampling-interval is omitted it defaults to 1/samples for the rate
sweeps (so the samples exactly tile one symbol) and to the dead time for
the capacity sweep.

Grids are written lin:START,STOP,COUNT or log:START,STOP,COUNT.  A config
file holds one flag=value per line (flag names without the leading
dashes); command-line flags override the file, which overrides the
subcommand preset.  Unknown config keys are errors.

Exit codes: 0 success, 1 validation failure, 2 usage or parameter error,
3 numerical failure.
"""

import argparse
import sys

from . import experiments, validation
from .experiments import PRESETS, parse_grid
from .errors import EstimationError, NumericalFailure, ParameterError


class UsageError(Exception):
    pass


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
    "config": ("--config", str, "flat flag=value config file"),
}

_COMMAND_OPTIONS = {
    "mi-sweep": [
        "peak_rate", "background", "dead_time", "samples", "mu_grid",
        "preset", "out", "config",
    ],
    "duty-imax": [
        "peak_rate", "background", "dead_time", "samples", "a_grid",
        "preset", "out", "config",
    ],
    "gap": [
        "scenario", "peak_rate", "background", "dead_time", "samples",
        "a_grid", "l_grid", "lambda_grid", "preset", "out", "config",
    ],
    "capacity": [
        "peak_rate", "background", "dead_time", "sampling_interval",
        "a_grid", "tau_grid", "preset", "out", "config",
    ],
    "simulate": [
        "peak_rate", "background", "dead_time", "sampling_interval",
        "samples", "symbols", "seed", "mu", "preset", "out", "config",
    ],
    "validate": ["out", "config"],
}

_DEFAULTS = {
    "mi-sweep": PRESETS["mi-sweep"]["published"],
    "duty-imax": PRESETS["duty-imax"]["samples30"],
    "capacity": PRESETS["capacity"]["small-background"],
    "simulate": PRESETS["simulate"]["published"],
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


def _read_config(path, allowed):
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected flag=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in allowed or dest in ("config", "out"):
            raise UsageError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        _, conv, _ = _OPTIONS[dest]
        try:
            values[dest] = conv(value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key.strip()!r}") from exc
    return values


def _resolve(args, command):
    """Merge CLI > config > preset > builtin defaults into one dict."""
    dests = _COMMAND_OPTIONS[command]
    merged = dict(_DEFAULTS.get(command, {}))
    preset_name = args.preset if hasattr(args, "preset") else None
    if preset_name is not None:
        table = PRESETS.get(command, {})
        if preset_name not in table:
            raise UsageError(
                f"unknown preset {preset_name!r} for {command}; "
                f"choose from {sorted(table)}"
            )
        merged.update(table[preset_name])
    if getattr(args, "config", None) is not None:
        merged.update(_read_config(args.config, set(dests)))
    for dest in dests:
        value = getattr(args, dest, None)
        if value is not None:
            merged[dest] = value
    return merged


def _require(merged, command, *dests):
    for dest in dests:
        if merged.get(dest) is None:
            flag = _OPTIONS[dest][0]
            raise UsageError(f"{command} requires {flag}")
    return [merged[d] for d in dests]


def _run_command(command, merged):
    if command == "mi-sweep":
        peak, bg, tau, trials, mu_grid = _require(
            merged, command, "peak_rate", "background", "dead_time", "samples",
            "mu_grid",
        )
        return experiments.mi_sweep_rows(peak, bg, tau, trials, parse_grid(mu_grid))
    if command == "duty-imax":
        _, bg, tau, trials, a_grid = _require(
            merged, command, "peak_rate", "background", "dead_time", "samples",
            "a_grid",
        )
        return experiments.duty_imax_rows(parse_grid(a_grid), bg, tau, trials)
    if command == "gap":
        (scenario,) = _require(merged, command, "scenario")
        if scenario not in experiments.GAP_SCENARIOS:
            raise UsageError(
                f"unknown scenario {scenario!r}; choose from "
                f"{'|'.join(experiments.GAP_SCENARIOS)}"
            )
        return experiments.gap_sweep(merged)
    if command == "capacity":
        bg, tau = _require(merged, command, "background", "dead_time")
        tau_values = (
            parse_grid(merged["tau_grid"]) if merged.get("tau_grid") else None
        )
        if tau_values is not None:
            peaks = [_require(merged, command, "peak_rate")[0]]
        else:
            peaks = parse_grid(_require(merged, command, "a_grid")[0])
        return experiments.capacity_rows(
            peaks, tau_values, bg, tau, merged.get("sampling_interval")
        )
    if command == "simulate":
        peak, bg, tau, trials, symbols, seed, mu = _require(
            merged, command, "peak_rate", "background", "dead_time", "samples",
            "symbols", "seed", "mu",
        )
        t_s = merged.get("sampling_interval")
        if t_s is None:
            t_s = 1.0 / trials
        return experiments.simulate_rows(
            peak, bg, tau, t_s, trials, symbols, seed, mu
        )
    raise UsageError(f"unknown command {command!r}")


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        merged = _resolve(args, command)
        if command == "validate":
            results = validation.run_all()
            lines = []
            for res in results:
                mark = "PASS" if res.passed else "FAIL"
                lines.append(f"[{mark}] {res.name}: {res.measured}")
            failed = [r for r in results if not r.passed]
            lines.append(
                f"{len(results) - len(failed)}/{len(results)} checks passed"
            )
            _emit("\n".join(lines) + "\n", merged.get("out"))
            return 1 if failed else 0
        header, rows = _run_command(command, merged)
        _emit(experiments.format_csv(header, rows), merged.get("out"))
        return 0
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, EstimationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
