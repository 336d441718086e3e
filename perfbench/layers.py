"""Which dafm functions the traced run wraps, and the per-layer metrics.

A layer is a module of ``dafm``.  Each probe names the bindings a call goes
through at that layer's boundary: the name the *caller* looks up, since a
``from .solvers import _loading_sweep`` in ``estimator`` is what
``estimator._alternate`` actually calls.  Public functions are wrapped on
the ``dafm`` package, because that is where the benchmark calls them.
"""

from __future__ import annotations

from tracing import Probe


def _gap_misses(tracer, args, result):
    tracer.count("solvers.gap_misses", int(result[1]))


def _polish(tracer, args, result):
    # _qreg_polish returns its input array unchanged unless the vertex
    # candidate lowered the objective.
    if result[0] is not args[3]:
        tracer.count("solvers.polish.accepted")
    tracer.note["polish_beta"] = result[0]


def _subproblem(tracer, args, result):
    # _qreg_solve returns the polished iterate unless the previous iterate
    # was better (or the interior point went non-finite and polish never ran).
    if result[0] is not tracer.note.pop("polish_beta", None):
        tracer.count("solvers.prev_floor")


def _outer(tracer, args, result):
    tracer.count("estimator.outer_iters", len(result[2]))


def _warm_window(tracer, args, result):
    tracer.count("estimator.outer_iters", len(result[2]))
    tracer.count("forecast.window_outer_iters", len(result[2]))


def _cold_window(tracer, args, result):
    tracer.count("forecast.window_outer_iters", len(result[2]))


def _window(tracer, args, result):
    tracer.capture("forecast.window_fit", (args[0], result))


def _smooth_fit(tracer, args, result):
    tracer.count("smooth.outer_iters", len(result.objective_trace))


PROBES = (
    Probe("solvers.loading_sweep", (("dafm.estimator", "_loading_sweep"),), _gap_misses),
    Probe("solvers.factor_sweep", (("dafm.estimator", "_factor_sweep"),), _gap_misses),
    Probe("solvers.subproblem", (("dafm.solvers", "_qreg_solve"),), _subproblem),
    Probe("solvers.ipm", (("dafm.solvers", "_qreg_ipm"),)),
    Probe("solvers.polish", (("dafm.solvers", "_qreg_polish"),), _polish),
    Probe("estimator.alternate", (("dafm.estimator", "_alternate"),), _outer),
    Probe("estimator.init", (("dafm.estimator", "_initial_factors"),)),
    Probe("estimator.normalize", (("dafm.estimator", "normalize_fit"), ("dafm.smooth", "normalize_fit"))),
    Probe("losses.objective", (("dafm.estimator", "_composite_objective_core"),)),
    Probe("smooth.fit", (("dafm", "fit_smoothed_dafm"),), _smooth_fit),
    Probe("smooth.loading_sweep", (("dafm.smooth", "_smooth_loading_sweep"),)),
    Probe("smooth.factor_sweep", (("dafm.smooth", "_smooth_factor_sweep"),)),
    Probe("smooth.newton", (("dafm.smooth", "_smooth_newton"),)),
    Probe("smooth.objective", (("dafm.smooth", "_smoothed_objective_core"),)),
    Probe("smooth.factor_ci", (("dafm", "factor_ci"),)),
    Probe("smooth.loading_ci", (("dafm", "loading_ci"),)),
    Probe("forecast.window_fit", (("dafm.forecast", "_window_factors"),), _window),
    Probe("forecast.cold_fit", (("dafm.forecast", "_fit_raw"),), _cold_window),
    Probe("forecast.warm_fit", (("dafm.forecast", "_alternate"),), _warm_window),
    Probe("forecast.lag_select", (("dafm.forecast", "select_lags_bic"),)),
    Probe("forecast.ols", (("dafm.forecast", "fit_factor_ar"),)),
    Probe("simgen.generate", (("dafm", "gen_location_scale_shift"), ("dafm", "gen_location_shift"))),
)


class _View:
    """Per-round figures from the tracer (simgen per traced set-up)."""

    def __init__(self, tracer, rounds, setups):
        self.stats = tracer.stats()
        self.counters = tracer.counters
        self.rounds = rounds
        self.setups = setups

    def _st(self, span):
        return self.stats.get(span)

    def s(self, span, per=None):
        st = self._st(span)
        return (st.total_s if st else 0.0) / (per or self.rounds)

    def calls(self, span):
        st = self._st(span)
        return (st.calls if st else 0) / self.rounds

    def us(self, span):
        st = self._st(span)
        return 1e6 * st.total_s / st.calls if st and st.calls else 0.0

    def counter(self, key):
        return self.counters.get(key, 0) / self.rounds

    def ratio(self, key, span):
        st = self._st(span)
        return self.counters.get(key, 0) / st.calls if st and st.calls else 0.0


# Whether a metric needs only its spans' times (SPANS) or also the counters
# their hooks feed (HOOKED), which a broken hook leaves out.
SPANS, HOOKED = False, True

# (metric, unit, spans it needs, SPANS or HOOKED, value from a _View).
# Times are inclusive span time per round; the trace file also holds self
# times.
METRICS = (
    ("solvers.loading_sweep.s", "s", ("solvers.loading_sweep",), SPANS, lambda v: v.s("solvers.loading_sweep")),
    ("solvers.loading_sweep.calls", "count", ("solvers.loading_sweep",), SPANS, lambda v: v.calls("solvers.loading_sweep")),
    ("solvers.factor_sweep.s", "s", ("solvers.factor_sweep",), SPANS, lambda v: v.s("solvers.factor_sweep")),
    ("solvers.factor_sweep.calls", "count", ("solvers.factor_sweep",), SPANS, lambda v: v.calls("solvers.factor_sweep")),
    ("solvers.subproblems", "count", ("solvers.subproblem",), SPANS, lambda v: v.calls("solvers.subproblem")),
    ("solvers.subproblem.us", "us", ("solvers.subproblem",), SPANS, lambda v: v.us("solvers.subproblem")),
    ("solvers.ipm.s", "s", ("solvers.ipm",), SPANS, lambda v: v.s("solvers.ipm")),
    ("solvers.polish.s", "s", ("solvers.polish",), SPANS, lambda v: v.s("solvers.polish")),
    ("solvers.polish.accept_ratio", "ratio", ("solvers.polish",), HOOKED,
     lambda v: v.ratio("solvers.polish.accepted", "solvers.polish")),
    ("solvers.prev_floor_ratio", "ratio", ("solvers.subproblem", "solvers.polish"), HOOKED,
     lambda v: v.ratio("solvers.prev_floor", "solvers.subproblem")),
    ("solvers.gap_misses", "count", ("solvers.loading_sweep", "solvers.factor_sweep"), HOOKED,
     lambda v: v.counter("solvers.gap_misses")),
    ("estimator.outer_iters", "count", ("estimator.alternate", "forecast.warm_fit"), HOOKED,
     lambda v: v.counter("estimator.outer_iters")),
    ("estimator.init.s", "s", ("estimator.init",), SPANS, lambda v: v.s("estimator.init")),
    ("estimator.normalize.s", "s", ("estimator.normalize",), SPANS, lambda v: v.s("estimator.normalize")),
    ("losses.objective.s", "s", ("losses.objective",), SPANS, lambda v: v.s("losses.objective")),
    ("losses.objective.calls", "count", ("losses.objective",), SPANS, lambda v: v.calls("losses.objective")),
    ("smooth.loading_sweep.s", "s", ("smooth.loading_sweep",), SPANS, lambda v: v.s("smooth.loading_sweep")),
    ("smooth.factor_sweep.s", "s", ("smooth.factor_sweep",), SPANS, lambda v: v.s("smooth.factor_sweep")),
    ("smooth.newton.calls", "count", ("smooth.newton",), SPANS, lambda v: v.calls("smooth.newton")),
    ("smooth.newton.us", "us", ("smooth.newton",), SPANS, lambda v: v.us("smooth.newton")),
    ("smooth.outer_iters", "count", ("smooth.fit",), HOOKED, lambda v: v.counter("smooth.outer_iters")),
    ("smooth.objective.s", "s", ("smooth.objective",), SPANS, lambda v: v.s("smooth.objective")),
    ("smooth.factor_ci.s", "s", ("smooth.factor_ci",), SPANS, lambda v: v.s("smooth.factor_ci")),
    ("smooth.loading_ci.s", "s", ("smooth.loading_ci",), SPANS, lambda v: v.s("smooth.loading_ci")),
    ("smooth.ci.calls", "count", ("smooth.factor_ci", "smooth.loading_ci"), SPANS,
     lambda v: v.calls("smooth.factor_ci") + v.calls("smooth.loading_ci")),
    ("forecast.windows", "count", ("forecast.window_fit",), SPANS, lambda v: v.calls("forecast.window_fit")),
    ("forecast.window_fit.s", "s", ("forecast.window_fit",), SPANS, lambda v: v.s("forecast.window_fit")),
    ("forecast.cold_fits", "count", ("forecast.cold_fit",), SPANS, lambda v: v.calls("forecast.cold_fit")),
    ("forecast.warm_fits", "count", ("forecast.warm_fit",), SPANS, lambda v: v.calls("forecast.warm_fit")),
    ("forecast.window_outer_iters", "count", ("forecast.cold_fit", "forecast.warm_fit"), HOOKED,
     lambda v: v.counter("forecast.window_outer_iters")),
    ("forecast.lag_select.s", "s", ("forecast.lag_select",), SPANS, lambda v: v.s("forecast.lag_select")),
    ("forecast.ols.s", "s", ("forecast.ols",), SPANS, lambda v: v.s("forecast.ols")),
    ("simgen.generate.s", "s", ("simgen.generate",), SPANS, lambda v: v.s("simgen.generate", per=v.setups)),
)


def layer_metrics(tracer, rounds, setups):
    """Every per-layer metric whose spans were all wrapped (and, for a
    HOOKED metric, whose hooks never broke), as {name: (value, unit)}."""
    view = _View(tracer, rounds, setups)
    return {
        name: (fn(view), unit)
        for name, unit, needs, hooked, fn in METRICS
        if all(span in tracer.present for span in needs)
        and not (hooked and any(span in tracer.broken for span in needs))
    }
