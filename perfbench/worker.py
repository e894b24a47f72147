"""Run CLI commands back to back in this interpreter and time each one.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``name``, ``commands`` (argv lists), ``out_dir``, ``src``,
``seconds``, ``untraced`` and ``traced``.  With ``untraced`` set, whole
passes over the commands repeat until one more pass would end after
``seconds``; there is always at least one.  With ``traced`` set, one more
pass follows with the tracer installed, and its summary and spans are
written to ``out_dir``.  Each command writes its output to ``out_dir`` via
--out.  The timings and output paths go to ``out_dir/NAME.json``.
"""

import json
import os
import sys
import time
import traceback

from calibration import calibrations  # perfbench/ is sys.path[0]


def run_pass(main, commands, out_dir, tag):
    """Run every command once, as the CLI would; returns the pass record.

    The machine's speed is calibrated before the first command and after
    each one, outside their timings.
    """
    record = {"returncodes": [], "seconds": [], "outputs": [], "calibration_s": []}
    before = calibrations()
    for i, argv in enumerate(commands):
        out = os.path.join(out_dir, f"{tag}-c{i}.out")
        t0 = time.perf_counter()
        try:
            code = main(list(argv) + ["--out", out])
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception:  # an uncaught error ends the CLI with exit code 1
            traceback.print_exc()
            code = 1
        record["seconds"].append(time.perf_counter() - t0)
        record["returncodes"].append(code)
        record["outputs"].append(out)
        after = calibrations()
        record["calibration_s"].append(before + after)
        before = after
    return record


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    out_dir = spec["out_dir"]
    t0 = time.perf_counter()
    from deadtime_channel import cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.exit(f"deadtime_channel imported from {cli.__file__}, not {spec['src']}")

    name = spec["name"]
    report = {"import_s": import_s, "passes": []}
    if spec["untraced"]:
        deadline = time.perf_counter() + spec["seconds"]
        while True:
            record = run_pass(cli.main, spec["commands"], out_dir, f"{name}-p{len(report['passes'])}")
            report["passes"].append(record)
            # Leave room for the traced pass, which runs slower.
            needed = sum(record["seconds"]) * (2.5 if spec["traced"] else 1.0)
            if time.perf_counter() + needed > deadline:
                break
    if spec["traced"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        record = run_pass(cli.main, spec["commands"], out_dir, f"{name}-traced")
        report["traced"] = {**record, **tracer.summary()}
        tracer.write_spans(os.path.join(out_dir, f"{name}-spans.csv"))
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
