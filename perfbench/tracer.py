"""Spans around the package's public functions, installed from outside it.

The tracer replaces each function in ``TRACED`` at every binding its
callers use: the defining module's attribute (``optimize.maximize_scalar``)
and each ``from .x import f`` copy (``experiments.bound_gap``).  A call
becomes a span (name, start, end, parent); a span's self time is its
duration minus the time covered by its child spans.  Spans stay in memory
until ``write_spans``.

Objective evaluations inside ``maximize_scalar`` are counted exactly and
timed, so the optimizer's self time excludes them, but they are not
spans: a sweeps pass makes close to two million.
"""

import itertools
import sys
import time
from array import array
from collections import Counter

PACKAGE = "deadtime_channel"

TRACED = {
    "cli": ("main",),
    "experiments": (
        "mi_sweep_rows",
        "duty_imax_rows",
        "gap_rows",
        "capacity_rows",
        "simulate_rows",
        "format_csv",
    ),
    "optimize": ("maximize_scalar",),
    "rate_bounds": ("bound_gap", "optimal_prior_upper"),
    "divergences": ("beta_triple",),
    "approximation": ("mi_approx_low_background",),
    "capacity": ("capacity_sampled", "wyner_poisson_capacity"),
    "mutual_info": ("mi_binomial_mixture", "mi_discrete_poisson"),
    "monte_carlo": ("joint_counts", "bootstrap_mi_sigma"),
}
OBJECTIVE = "optimize.objective"


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.names = []
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = Counter()  # exact counts
        self.objective_s = 0.0
        self.labels = {}  # span name -> reporting name, set after a call returns
        self._id = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._ids = itertools.count()
        self._stack = []  # open spans: [span id, seconds in child spans]

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, next_id = self._stack, time.perf_counter, self._ids.__next__
        ids, names, parents = self._id.append, self._name.append, self._parent.append
        starts, ends = self._start.append, self._end.append

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                ids(frame[0])
                names(nid)
                parents(parent)
                starts(start)
                ends(end)

        return traced

    def count_evals(self, f):
        """``f`` counted and timed as objective evaluations, without spans."""
        clock, counts = time.perf_counter, self.counts

        def objective(*args):
            start = clock()
            try:
                return f(*args)
            finally:
                self.objective_s += clock() - start
                counts["optimize.maximize_scalar.evals"] += 1

        return objective

    def write_spans(self, path):
        """Write every span as CSV: id, parent, name, start_s, end_s."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for i, nid, parent, start, end in zip(
                self._id, self._name, self._parent, self._start, self._end
            ):
                out.write(f"{i},{parent},{self.names[nid]},{start - origin:.9f},{end - origin:.9f}\n")

    def summary(self):
        """Per span name: calls, total and self seconds; and the counts."""
        table = {"calls": {}, "total_s": {}, "self_s": {}}
        for name, (calls, total, own) in self.stats.items():
            name = self.labels.get(name, name)
            table["calls"][name] = calls
            table["total_s"][name] = total
            table["self_s"][name] = own
        # maximize_scalar calls nothing traced outside its objective.
        maximize = "optimize.maximize_scalar"
        if maximize in self.stats:
            table["self_s"][maximize] = self.stats[maximize][1] - self.objective_s
        table["total_s"][OBJECTIVE] = self.objective_s
        table["counts"] = dict(self.counts)
        table["spans"] = len(self._id)
        return table


def _layer_wrapper(tracer, module, fn_name, fn):
    """The traced replacement for one public function, with its counters."""
    name = f"{module}.{fn_name}"
    traced = tracer.wrap(name, fn)
    counts = tracer.counts

    if name == "optimize.maximize_scalar":

        def maximize_scalar(f, *args, **kwargs):
            return traced(tracer.count_evals(f), *args, **kwargs)

        return maximize_scalar
    if name == "approximation.mi_approx_low_background":
        refusal = sys.modules[f"{PACKAGE}.errors"].ParameterError

        def mi_approx_low_background(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except refusal:
                counts["approximation.refusals"] += 1
                raise

        return mi_approx_low_background
    if name == "mutual_info.mi_binomial_mixture":

        def mi_binomial_mixture(mu, probs, trials):
            counts["mutual_info.pmf_bins"] += 2 * (trials + 1)
            return traced(mu, probs, trials)

        return mi_binomial_mixture
    if name == "monte_carlo.joint_counts":

        def joint_counts(config, *args, **kwargs):
            counts["monte_carlo.symbols"] += config.symbols
            counts["monte_carlo.uniforms_drawn"] += config.symbols * (
                config.params.samples_per_symbol + 1
            )
            return traced(config, *args, **kwargs)

        return joint_counts
    if module == "experiments" and fn_name.endswith("_rows"):

        def rows(*args, **kwargs):
            result = traced(*args, **kwargs)
            counts["experiments.rows"] += len(result[1])
            return result

        return rows
    return traced


def _check_wrapper(tracer, check):
    name = f"validation.{check.__name__}"
    traced = tracer.wrap(name, check)

    def run_check():
        result = traced()
        tracer.labels[name] = f"validation.{result.name}"
        tracer.counts["validation.failed"] += not result.passed
        return result

    return run_check


def install(tracer):
    """Trace every function in TRACED at each binding in the loaded package."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
    ]
    for module, fn_names in TRACED.items():
        home = sys.modules[f"{PACKAGE}.{module}"]
        for fn_name in fn_names:
            original = getattr(home, fn_name)
            wrapped = _layer_wrapper(tracer, module, fn_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
    validation = sys.modules[f"{PACKAGE}.validation"]
    validation.ALL_CHECKS[:] = [_check_wrapper(tracer, c) for c in validation.ALL_CHECKS]
