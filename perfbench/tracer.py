"""Span tracing for the countproc benchmark, installed from outside the package.

``traced(tracer)`` replaces the public functions and methods of every
countproc module with wrappers that record a span per call and restores the
originals on exit; nothing in ``src/`` is edited.  Functions are patched at
the binding the caller uses: ``cli`` imports ``simulate_path`` by name, so
both ``processes.simulate_path`` and ``cli.simulate_path`` are wrapped.
Calls that a module makes to its own public functions go through the module
globals, so they are traced too.

Every wrapped callable belongs to one layer (its *bucket*).  A call opens a
span only when it crosses into a different bucket; a call nested directly in
a span of its own bucket (``EquilibriumOf.tail`` -> ``Gamma.truncated_mean``,
``variance_drift_ratios`` -> ``estimate_variance_drift``) is counted but
folded into the enclosing span.  Law evaluations made inside ``draw`` or
``inverse_cdf`` belong to the sampler and are neither spanned nor counted as
law calls.  Because spans nest strictly, the self times of the spans under a
``cli.run`` span add up to that span's duration.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

import numpy as np

LAW_METHODS = ("tail", "truncated_mean", "equilibrium_cdf", "excess_second_moment")
LAW = "lifetimes.law"
DRAW = "lifetimes.draw"
INVERSE_CDF = "lifetimes.inverse_cdf"
PATH_STATISTICS = "asymptotics.path_statistics"
SAMPLERS = (DRAW, INVERSE_CDF)

# module -> {public function: bucket}
FUNCTIONS = {
    "processes": {"simulate_path": "processes.simulate_path"},
    "asymptotics": {
        "path_statistics": PATH_STATISTICS,
        **dict.fromkeys(
            (
                "estimate_blackwell",
                "estimate_rate",
                "estimate_rm_cross",
                "estimate_variance_drift",
                "residual_limit_ks",
                "diffusion_scaling",
                "variance_drift_ratios",
                "truncated_rate_indicator_mean",
                "wald_ratio",
            ),
            "asymptotics.estimator",
        ),
    },
    "decomposition": {
        **dict.fromkeys(
            (
                "decomposition_residual",
                "martingale",
                "wald_residual",
                "optional_quadratic_variation",
                "predictable_quadratic_variation",
                "decompose_functional",
            ),
            "decomposition.identity",
        ),
        "truncated_decomposition_residual": "decomposition.truncated",
        "truncated_rate": "decomposition.truncated",
        "build_reports": "decomposition.report",
        "reports_to_csv": "decomposition.report",
    },
    "renewal_solver": {
        "solve_renewal_equation": "renewal_solver.solve",
        **dict.fromkeys(
            (
                "residual_mean_generator",
                "residual_second_generator",
                "integrated_second_generator",
                "sgibnev_asymptote",
            ),
            "renewal_solver.target",
        ),
    },
    "cli": {
        "validate_config": "cli.validate",
        "run": "cli.run",
        "simulate_path": "processes.simulate_path",
    },
}

# The buckets whose self times partition a cli.run span.
RUN_BUCKETS = (
    "cli.run",
    DRAW,
    INVERSE_CDF,
    LAW,
    "processes.simulate_path",
    PATH_STATISTICS,
    "asymptotics.estimator",
    "decomposition.identity",
    "decomposition.truncated",
    "decomposition.report",
    "renewal_solver.solve",
    "renewal_solver.target",
)


class Tracer:
    """Spans and counters kept in memory; ``spans[i]`` is
    ``(id, parent id or None, name, bucket, start, end)``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.counters: Counter = Counter()

    def wrap(self, fn, name: str, bucket: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            top = stack[-1][1] if stack else None
            if bucket == LAW and top in SAMPLERS:
                return fn(*args, **kwargs)
            tracer.counters[bucket + ".calls"] += 1
            if top == bucket:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((sid, bucket))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else None
                tracer.spans[sid] = (sid, parent, name, bucket, start, end)

        return wrapper

    def in_bucket(self, bucket: str) -> bool:
        return any(b == bucket for _, b in self.stack)


def _count_draw(tracer, args, result):
    n = int(np.size(result))
    tracer.counters["lifetimes.draw.values"] += n
    if tracer.in_bucket(PATH_STATISTICS):
        tracer.counters["asymptotics.values_drawn"] += n


def _count_path_statistics(tracer, args, result):
    # events consumed per path: the count at the largest query time plus
    # the one overshoot event that closes the residual
    ts = np.asarray(args[1], dtype=float)
    col = int(np.argmax(ts))
    tracer.counters["asymptotics.events_consumed"] += int(result["count"][:, col].sum()) + len(
        result["count"]
    )


def _count_events(tracer, args, result):
    tracer.counters["processes.events"] += int(result.events.size)


def _count_grid(tracer, args, result):
    tracer.counters["renewal_solver.grid_points"] += len(result)


HOOKS = {
    "processes.simulate_path": _count_events,
    PATH_STATISTICS: _count_path_statistics,
    "renewal_solver.solve": _count_grid,
}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    import countproc.asymptotics
    import countproc.cli
    import countproc.decomposition
    import countproc.lifetimes as lifetimes
    import countproc.processes
    import countproc.renewal_solver

    modules = {
        "processes": countproc.processes,
        "asymptotics": countproc.asymptotics,
        "decomposition": countproc.decomposition,
        "renewal_solver": countproc.renewal_solver,
        "cli": countproc.cli,
    }
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, name, bucket, hook=None):
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, bucket, hook))

    for mod_name, functions in FUNCTIONS.items():
        mod = modules[mod_name]
        for attr, bucket in functions.items():
            owner_name = "processes" if bucket == "processes.simulate_path" else mod_name
            patch(mod, attr, f"{owner_name}.{attr}", bucket, HOOKS.get(bucket))

    oracle = countproc.decomposition.ConditionalMeanOracle
    patch(oracle, "interval_means", "decomposition.ConditionalMeanOracle.interval_means",
          "decomposition.truncated")

    # overridden methods on every lifetime class, the base class included
    for cls in vars(lifetimes).values():
        if not (isinstance(cls, type) and issubclass(cls, lifetimes.LifetimeDistribution)):
            continue
        for attr in ("draw", "inverse_cdf", *LAW_METHODS):
            if attr not in cls.__dict__:
                continue
            bucket = DRAW if attr == "draw" else INVERSE_CDF if attr == "inverse_cdf" else LAW
            hook = _count_draw if attr == "draw" else None
            patch(cls, attr, f"lifetimes.{cls.__name__}.{attr}", bucket, hook)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(spans: list) -> dict:
    """Per-root breakdown: root id -> {name, duration, self and inclusive
    time per bucket, span count}.  Spans must be complete (no open span).
    Inclusive time sums the spans of a bucket; no span of a bucket lies
    inside another span of the same bucket in countproc's call graph, so
    nothing is counted twice."""
    child_time = [0.0] * len(spans)
    root_of = [0] * len(spans)
    for sid, parent, _name, _bucket, start, end in spans:
        if parent is None:
            root_of[sid] = sid
        else:
            child_time[parent] += end - start
            root_of[sid] = root_of[parent]
    out: dict[int, dict] = {}
    for sid, parent, name, bucket, start, end in spans:
        root = out.setdefault(
            root_of[sid],
            {"name": None, "duration": 0.0, "self": Counter(), "inclusive": Counter(), "spans": 0},
        )
        if parent is None:
            root["name"] = name
            root["duration"] = end - start
        root["self"][bucket] += (end - start) - child_time[sid]
        root["inclusive"][bucket] += end - start
        root["spans"] += 1
    return out
