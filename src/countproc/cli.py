"""Reproducible experiment runner.

``countproc run config.json`` parses a single JSON experiment description,
dispatches to the simulation/estimation modules, writes CSV (and NDJSON
for raw paths) artifacts, prints one PASS/FAIL line per check, and exits 0
only when every check passes.  ``countproc validate config.json`` reports
schema problems with field paths and has no side effects.

  experiment     knobs         spec kinds                      checks
  simulate       horizon       any                             simulate
  decompose      horizon reps  any                             decompose-identity, -truncated (v)
  blackwell      t h reps      any                             blackwell, window-given-age
  modulated      t h reps      modulated                       modulated
  palm           t h reps      stationary_ma                   palm
  rate           t reps        any                             rate
  residual-law   t reps        plain, delayed; non-arithmetic  residual-law
  variance       t reps        plain; finite E[T^2]            variance-drift, or -order-bound; residual-given-age
  rm-cross       t reps        plain; finite E[T^3]            rm-cross, residual-given-age
  diffusion      n t reps      plain; 0 < var T < inf          diffusion-variance, -mean, wald-second
  renewal-solve  horizon step  plain                           renewal-solve
  sgibnev        t step        plain; non-arithmetic           sgibnev

Monte Carlo checks pass at z <= 4 against their target.  ``blackwell`` on a
plain or delayed spec checks the window against its finite-t value,
rate (h + E[R(t+h)] - E[R(t)]) by Wald's identity from one renewal solve
read at t and t + h (``renewal_solver.solution_at``), also after a delay,
and prints the solver's error and the limit rate*h; the other kinds, and
``modulated`` and ``palm``, keep the limit rate*h.  When the lifetime law
has no atom and the process is not lattice, the window is the mean of its
conditional mean given the age, g(age), and a second row and check,
``window-given-age``, is the plain mean of the window minus g(age), 0 by
the tower property, which sees the sampler where the conditioned window
cannot; the window's check also prints g's numerical error, below which
its z-check never divides.  The Blackwell
windows (blackwell, modulated, palm), variance-drift and rm-cross need a
non-lattice law: on a lattice process (every lifetime law arithmetic, on a
common span) their estimate is flagged, and the check reports it with the
flag and passes.  ``rate`` is never flagged, since N(t)/t -> 1/E[T] holds
for every law.  ``wald-second`` z-checks the mean of (M^2 - rate^2 var T N)/n,
0 by Wald's second identity, and runs only when E[T^4] is finite.
``variance`` and ``rm-cross`` average conditional means given the age, which
see the sampler only through the count and the age, so each simulated t also
writes a ``residual-given-age`` row after the estimates: the plain mean of
R(t) - E[R(t) | age], 0 by the tower property, z-checked for every law.  A
z-check never divides by less than the rounding error of the computed mean,
so a near-exact estimate passes on its rounding.  A delay
written as "equilibrium" and the explicit
{"kind": "equilibrium", "base": <lifetime>} law are one spec, and the spec
hash is that of the parsed spec, so every spelling of a spec has one hash.

Identical config and seed produce byte-identical artifacts; every CSV row
carries the spec hash, seed, replication count and thread count needed to
re-run it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, get_args

import numpy as np

from . import asymptotics, decomposition, renewal_solver
from .asymptotics import _MIN_DRIFT_REPS, _MIN_WINDOW_REPS, Estimate
from .decomposition import _csv_line
from .lifetimes import Deterministic, Exponential
from .processes import (
    Delayed,
    EventCapExceeded,
    Modulated,
    Plain,
    ProcessSpec,
    StationaryMA,
    _lookup,
    child_rng,
    paths_per_chunk,
    simulate_path,
    simulate_paths,
    spec_from_json,
    write_events_ndjson,
)

__all__ = ["ExperimentConfig", "main", "run", "validate_config"]

_TOP_FIELDS = {"experiment", "spec", "t", "h", "v", "n", "reps", "step", "horizon", "seed", "out", "threads"}

_POSITIVE_KNOBS = ("t", "h", "v", "n", "reps", "step", "horizon")

# rows per decompose query, so its temporaries do not grow with the chunk: exact's four decompose
# runs took 0.13 s at 8 rows, 0.07-0.10 s at 32-256 and 0.11 s at all 500 rows, with peak RSS
# 62.5 MB at 64 rows and 68.7 MB at 500 (2-vCPU Xeon VM, medians of 7 passes)
_QUERY_ROWS = 64

# largest step-halving change a renewal-solve run passes with, relative to max |Z|: Gamma,
# Uniform, Pareto and Mixture configs change by 1.2e-3 to 3.8e-3 relative
_SOLVE_REL_ERROR = 5e-3

_COLUMNS = ("experiment", "spec_hash", "t", "h", "v", "n", "reps", "threads",
            "estimate", "se", "target", "z", "seed", "flags")


@dataclass
class ExperimentConfig:
    experiment: str
    spec: ProcessSpec
    seed: int
    out: Path
    threads: int
    knobs: dict[str, float]

    @property
    def spec_hash(self) -> str:
        canon = json.dumps(self.spec.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def validate_config(obj: Mapping) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse and validate a config mapping; returns (config, error list)."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return None, ["config must be a JSON object"]
    unknown = set(obj) - _TOP_FIELDS
    for f in sorted(unknown):
        errors.append(f"{f}: unknown field")
    kind = obj.get("experiment")
    if kind not in _EXPERIMENTS:
        errors.append(f"experiment: must be one of {sorted(_EXPERIMENTS)}, got {kind!r}")
        return None, errors
    if "spec" not in obj:
        errors.append("spec: missing")
        return None, errors
    try:
        spec = spec_from_json(obj["spec"])
    except (ValueError, TypeError, KeyError) as exc:
        errors.append(f"spec: {exc}")
        return None, errors

    knobs: dict[str, float] = {}
    for name in _POSITIVE_KNOBS:
        if name in obj:
            val = obj[name]
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                errors.append(f"{name}: must be a number, got {val!r}")
                continue
            if not (val > 0 and math.isfinite(val)):
                errors.append(f"{name}: must be a positive finite number, got {val}")
                continue
            if name in ("reps", "n") and not float(val).is_integer():
                errors.append(f"{name}: must be a whole number, got {val}")
                continue
            knobs[name] = float(val)
    exp = _EXPERIMENTS[kind]
    for name in sorted(exp.knobs - set(obj)):
        errors.append(f"{name}: required for experiment {kind!r}")
    span = "horizon" if "horizon" in exp.knobs else "t"  # the interval a step grid covers
    gridded = "step" in exp.knobs and {"step", span} <= knobs.keys()
    cells = gridded and renewal_solver._whole_cells(knobs[span], knobs["step"])
    if gridded and not cells:
        errors.append(f"step: must split {span} = {knobs[span]:g} into whole cells, got {knobs['step']:g}")
    elif cells > renewal_solver._MAX_CELLS:  # the grid bound fitted_step also keeps
        errors.append(f"step: splits {span} = {knobs[span]:g} into {cells} cells, "
                      f"more than {renewal_solver._MAX_CELLS}")
    if gridded and isinstance(spec, Plain):
        try:
            renewal_solver._check_atoms(spec.lifetime, knobs["step"])
        except ValueError as exc:
            errors.append(f"step: {exc}")
    if kind in ("rate", "blackwell") and exp.knobs & {"t", "h"} <= knobs.keys() \
            and isinstance(spec, (Plain, Delayed)):
        try:  # the step of the target read at t and, for a window, at t + h
            _solver_step(spec, *(knobs[k] for k in ("t", "h") if k in exp.knobs))
        except ValueError as exc:
            errors.append(f"spec: {exc}")
    if knobs.get("reps", exp.min_reps) < exp.min_reps:
        errors.append(f"reps: experiment {kind!r} needs at least {exp.min_reps}, got {obj['reps']}")
    if not isinstance(spec, exp.specs):
        kinds = " or ".join(cls.kind for cls in exp.specs)
        errors.append(f"spec: experiment {kind!r} needs a {kinds} spec")
    elif exp.moment and math.isinf(spec.lifetime.moment(exp.moment)):
        errors.append(f"spec: experiment {kind!r} needs a finite E[T^{exp.moment}]")
    elif kind in ("residual-law", "sgibnev") and spec.lifetime.is_arithmetic()[0]:
        errors.append(f"spec: experiment {kind!r} needs a non-arithmetic lifetime law")
    elif kind == "diffusion" and not spec.lifetime.variance > 0:  # the variance check divides by it
        errors.append("spec: experiment 'diffusion' needs a positive var T")
    elif exp.rate:
        try:
            asymptotics.spec_rate(spec)
        except ValueError as exc:  # a reducible modulated chain has no one rate
            errors.append(f"spec: {exc}")

    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 1 << 64:
        errors.append(f"seed: must be an unsigned 64-bit integer, got {seed!r}")
        seed = 0
    threads = obj.get("threads", 1)
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        errors.append(f"threads: must be a positive integer, got {threads!r}")
        threads = 1
    out = obj.get("out", os.environ.get("COUNTPROC_OUT", "."))
    if not isinstance(out, str):
        errors.append(f"out: must be a string path, got {out!r}")
        out = "."

    if errors:
        return None, errors
    return ExperimentConfig(kind, spec, seed, Path(out), threads, knobs), []


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------


def _row(cfg: ExperimentConfig, est: Estimate, target: float | None, **knobs) -> tuple:
    """One CSV row in ``_COLUMNS`` order; ``knobs`` fill t, h, v, n and reps.  A row whose
    check is a bound on the estimate, not a z-check, passes z=None: its z cell is empty."""
    cells = dict(experiment=cfg.experiment, spec_hash=cfg.spec_hash, threads=cfg.threads,
                 estimate=est.value, se=est.se, target=target, seed=cfg.seed,
                 z=None if target is None else est.z_against(target), flags=";".join(est.flags))
    cells.update(knobs)
    return tuple(cells.get(name) for name in _COLUMNS)


def _write_rows(path: Path, rows: list[tuple]) -> None:
    with open(path, "w") as fp:
        fp.write(_csv_line(_COLUMNS))
        fp.writelines(map(_csv_line, rows))


def _est_check(name: str, est: Estimate, target: float) -> Check:
    """z <= 4 against ``target``.  A flagged estimate is reported without
    failing: a lattice process legitimately misses a non-lattice limit."""
    if est.flags:
        return Check(name, True, f"estimate={est.value:.6g} [{est.flags[0]}]")
    z = est.z_against(target)
    return Check(name, bool(z <= 4.0),
                 f"estimate={est.value:.6g} target={target:.6g} z={z:.2f} (se={est.se:.3g})")


def _run_simulate(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    horizon = cfg.knobs["horizon"]
    path = simulate_path(cfg.spec, horizon, child_rng(cfg.seed, 0))
    out_file = cfg.out / "path.ndjson"
    with open(out_file, "w") as fp:
        write_events_ndjson(path, fp)
    ok = bool(np.all(np.diff(path.events) > 0) and path.events[-1] > horizon)
    rows = [_row(cfg, Estimate(float(path.events.size), 0.0), None, reps=1)]
    return rows, [Check("simulate", ok, f"{path.events.size} events -> {out_file}")]


def _run_decompose(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    horizon = cfg.knobs["horizon"]
    n_paths = int(cfg.knobs["reps"])
    v = cfg.knobs.get("v")
    rate = asymptotics.spec_rate(cfg.spec)
    sigma2 = cfg.spec.lifetime.variance if isinstance(cfg.spec, (Plain, Delayed)) else None
    ts = np.linspace(horizon / 100, horizon, 100)

    worst = worst_trunc = 0.0
    oracle = decomposition.ConditionalMeanOracle(cfg.spec)
    reports = None
    rows = paths_per_chunk(cfg.spec, horizon)
    for chunk, first in enumerate(range(0, n_paths, rows)):
        paths = simulate_paths(cfg.spec, horizon, min(rows, n_paths - first), child_rng(cfg.seed, chunk))
        if reports is None:
            reports = decomposition.build_reports(paths[0], rate, 1.0 / rate, sigma2, ts)
        for lo in range(0, paths.events.shape[0], _QUERY_ROWS):
            block = paths[lo : lo + _QUERY_ROWS]
            _, n, _ = _lookup(block, ts)  # one lookup serves both identities and the tolerance
            tol = decomposition.tolerance_for(n)
            worst = max(worst, float(np.max(np.abs(decomposition._identity(block, rate, ts, n)) / tol)))
            if v is not None:
                lam = decomposition._truncated_rates(block, oracle, v)
                tres = decomposition._truncated(block, lam, v, ts, n)
                worst_trunc = max(worst_trunc, float(np.max(np.abs(tres) / tol)))
    with open(cfg.out / "decomposition.csv", "w") as fp:
        decomposition.reports_to_csv(reports, fp)
    checks = [Check("decompose-identity", worst <= 1.0,
                    f"max |residual|/tolerance = {worst:.3g} over {n_paths} paths")]
    rows = [_row(cfg, Estimate(worst, 0.0), 0.0, reps=n_paths, z=None)]
    if v is not None:
        checks.append(Check("decompose-truncated", worst_trunc <= 1.0,
                            f"max |residual|/tolerance = {worst_trunc:.3g} at v={v}"))
        rows.append(_row(cfg, Estimate(worst_trunc, 0.0), 0.0, v=v, reps=n_paths, z=None))
    return rows, checks


def _run_window(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    """Blackwell's window E[N(t+h) - N(t)], for every spec kind, against ``_window_target``.

    A window conditioned on the age writes a second row, ``window-given-age``:
    the plain mean of the window minus its conditional mean, z-checked against 0."""
    t, h, reps = cfg.knobs["t"], cfg.knobs["h"], int(cfg.knobs["reps"])
    est = asymptotics.estimate_blackwell(cfg.spec, t, h, reps, cfg.seed, cfg.threads)
    target, error = _window_target(cfg.spec, t, h)
    rows = [_row(cfg, est, target, t=t, h=h, reps=reps)]
    checks = [_est_check(cfg.experiment, est, target)]
    if error is not None:  # a finite-t target: print the limit beside it
        checks[0].detail += f" solver error {error:.2g} limit {asymptotics.spec_rate(cfg.spec) * h:.6g}"
    if isinstance(est, asymptotics.ConditionedEstimate):
        checks[0].detail += f" g error {est.quadrature:.2g}"
        rows.append(_row(cfg, est.sampler_check, 0.0, t=t, h=h, reps=reps))
        checks.append(_est_check("window-given-age", est.sampler_check, 0.0))
    return rows, checks


def _solver_step(spec: Plain | Delayed, t: float, *widths: float) -> float:
    """``fitted_step`` for a target read at t and at the ends of the windows of ``widths``
    after it, over the lifetime law and a delay law: on [0, t + sum(widths)], and when a
    law has atoms the grid also fits each width, so that t is a grid point whenever t
    and the widths have a common span."""
    laws = [spec.lifetime, spec.delay] if isinstance(spec, Delayed) else [spec.lifetime]
    fits = [Deterministic(w) for w in widths] if any(d.atoms() for d in laws) else []
    return renewal_solver.fitted_step(t + sum(widths), laws + fits)


def _window_target(spec: ProcessSpec, t: float, h: float) -> tuple[float, float | None]:
    """(target, solver error) for the mean window count E[N(t + h) - N(t)].

    Renewal specs: rate * (h + E[R(t + h)] - E[R(t)]) by Wald's identity (a
    delay's E[D] cancels), the change read from one solve on [0, t + h] at
    ``_solver_step(spec, t, h)`` (``renewal_solver.residual_mean_change``); the
    error is rate times its extrapolation error plus the rounding floor of h, the
    unit in which the sum h + change rounds.  The equilibrium delay keeps the exact
    rate * h, and the other kinds their limit rate * h.
    """
    rate = asymptotics.spec_rate(spec)
    if not isinstance(spec, (Plain, Delayed)) or isinstance(spec, Delayed) and spec.stationary:
        return rate * h, None
    delay = spec.delay if isinstance(spec, Delayed) else None
    change, error = renewal_solver.residual_mean_change(spec.lifetime, t, h, _solver_step(spec, t, h), delay)
    return rate * (h + change), rate * (error + renewal_solver._ROUNDING * h)


def _rate_target(spec: ProcessSpec, t: float) -> tuple[float, float | None]:
    """(target, solver error) for the mean of N(t)/t.

    Renewal specs: E[N(t)] = rate * (t + E[R(t)] - E[D]) by Wald's identity,
    with D = 0 and the origin event for plain specs.  E[R(t)] comes from
    ``renewal_solver.residual_mean_at`` at h = ``_solver_step(spec, t)``;
    the error is its extrapolation error * rate / t.  The equilibrium delay, however
    it is written, keeps the exact ``rate``; the other kinds keep rate + 1/t.
    """
    rate = asymptotics.spec_rate(spec)
    if not isinstance(spec, (Plain, Delayed)):
        return rate + 1.0 / t, None
    if isinstance(spec, Delayed) and spec.stationary:
        return rate, None
    delay = spec.delay if isinstance(spec, Delayed) else None
    r, error = renewal_solver.residual_mean_at(spec.lifetime, t, _solver_step(spec, t), delay)
    mean_delay = 0.0 if delay is None else delay.moment(1)
    return rate * (1.0 + (r - mean_delay) / t), error * rate / t


def _run_rate(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    t, reps = cfg.knobs["t"], int(cfg.knobs["reps"])
    est = asymptotics.estimate_rate(cfg.spec, t, reps, cfg.seed, cfg.threads)
    target, error = _rate_target(cfg.spec, t)
    rows = [_row(cfg, est, target, t=t, reps=reps)]
    check = _est_check("rate", est, target)
    if error is not None:
        check.detail += f" solver error {error:.2g}"
    return rows, [check]


def _run_residual_law(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    t, reps = cfg.knobs["t"], int(cfg.knobs["reps"])
    ks = asymptotics.residual_limit_ks(cfg.spec, t, reps, cfg.seed, cfg.threads)
    rows = [_row(cfg, Estimate(ks.statistic, 0.0), None, t=t, reps=reps)]
    return rows, [Check("residual-law", ks.passed, f"KS={ks.statistic:.4f} threshold={ks.threshold:.4f}")]


def _residual_given_age(cfg: ExperimentConfig, ests: list[tuple[float, asymptotics.ConditionedEstimate]],
                        reps: int) -> tuple[list[tuple], list[Check]]:
    """One row and one z-check per simulated t: the plain mean of R(t) - E[R(t) | age],
    0 by the tower property, which sees the sampler where the conditioned estimate cannot."""
    rows = [_row(cfg, est.sampler_check, 0.0, t=t, reps=reps) for t, est in ests]
    return rows, [_est_check("residual-given-age", est.sampler_check, 0.0) for _, est in ests]


def _run_variance(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    t, reps = cfg.knobs["t"], int(cfg.knobs["reps"])
    lifetime = cfg.spec.lifetime
    if math.isinf(lifetime.moment(3)):
        ladder = [t / 4, t / 2, t]
        out = asymptotics.variance_drift_ratios(cfg.spec, ladder, reps, cfg.seed, cfg.threads)
        rows = [_row(cfg, est, None, t=tt, reps=reps) for tt, est, _ in out]
        ratios = [ratio for _, _, ratio in out]
        spread = max(ratios) / max(min(ratios), 1e-300)
        checks = [
            Check(
                "variance-order-bound",
                spread <= 3.0,
                f"normalized drift ratios {['%.3g' % r for r in ratios]} spread={spread:.2f}",
            )
        ]
        ests = [(tt, est) for tt, est, _ in out]
    else:
        est = asymptotics.estimate_variance_drift(cfg.spec, t, reps, cfg.seed, cfg.threads)
        target = asymptotics.smith_constant(lifetime)
        rows = [_row(cfg, est, target, t=t, reps=reps)]
        checks = [_est_check("variance-drift", est, target)]
        ests = [(t, est)]
    more_rows, more_checks = _residual_given_age(cfg, ests, reps)
    return rows + more_rows, checks + more_checks


def _run_rm_cross(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    t, reps = cfg.knobs["t"], int(cfg.knobs["reps"])
    est = asymptotics.estimate_rm_cross(cfg.spec, t, reps, cfg.seed, cfg.threads)
    target = asymptotics.rm_cross_limit(cfg.spec.lifetime)
    rows, checks = _residual_given_age(cfg, [(t, est)], reps)
    return [_row(cfg, est, target, t=t, reps=reps)] + rows, [_est_check("rm-cross", est, target)] + checks


def _run_renewal_solve(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    horizon, step = cfg.knobs["horizon"], cfg.knobs["step"]
    dist = cfg.spec.lifetime

    values, error = renewal_solver.renewal_function(dist, horizon, step)
    with open(cfg.out / "renewal_solution.csv", "w") as fp:
        fp.write("t,value\n")
        times = step * np.arange(values.size)
        fp.writelines(f"{t:.17g},{v:.17g}\n" for t, v in zip(times.tolist(), values.tolist()))
    if isinstance(dist, Exponential):
        exact = 1.0 + dist.rate * step * np.arange(values.size)
        err = float(np.max(np.abs(values - exact)))
        tol = 5.0 * step
        check = Check("renewal-solve", err <= tol, f"sup error {err:.3g} vs closed form (tol {tol:.3g})")
        rows = [_row(cfg, Estimate(err, 0.0), 0.0, reps=1, t=horizon, z=None)]
    else:
        bound = _SOLVE_REL_ERROR * float(np.max(np.abs(values)))
        check = Check("renewal-solve", error <= bound, f"grid halving changes solution by {error:.3g} "
                      f"(bound {_SOLVE_REL_ERROR:g} max|Z| = {bound:.3g})")
        rows = [_row(cfg, Estimate(error, 0.0), None, reps=1, t=horizon)]
    return rows, [check]


def _run_sgibnev(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    t, step = cfg.knobs["t"], cfg.knobs["step"]
    dist = cfg.spec.lifetime
    r, error = renewal_solver.residual_mean_at(dist, t, step)
    ratio = r / renewal_solver.sgibnev_asymptote(dist, t)
    rows = [_row(cfg, Estimate(ratio, 0.0), 1.0, t=t, reps=1, z=None)]
    detail = f"E[R({t:g})]/asymptote = {ratio:.4f} step-halving change {error:.2g}"
    return rows, [Check("sgibnev", 0.9 <= ratio <= 1.1, detail)]


def _run_diffusion(cfg: ExperimentConfig) -> tuple[list[tuple], list[Check]]:
    n, t, reps = int(cfg.knobs["n"]), cfg.knobs["t"], int(cfg.knobs["reps"])
    res = asymptotics.diffusion_scaling(cfg.spec, n, t, reps, cfg.seed, cfg.threads)
    rows = [
        _row(cfg, res.variance, res.variance_target, n=n, t=t, reps=reps),
        _row(cfg, res.scaled_residual_mean, None, n=n, t=t, reps=reps),  # positive, only bounded
        _row(cfg, res.wald_second_mean, res.wald_second_target, n=n, t=t, reps=reps),
    ]
    rel = abs(res.variance.value - res.variance_target) / res.variance_target
    checks = [
        Check(
            "diffusion-variance",
            rel <= 0.10,
            f"variance={res.variance.value:.4f} target={res.variance_target:.4f} rel={rel:.3f}",
        ),
        _est_check("diffusion-mean", res.scaled_noise_mean, 0.0),
    ]
    if res.wald_second_target is not None:  # the sampler's variance, which the controlled row cannot see
        checks.append(_est_check("wald-second", res.wald_second_mean, res.wald_second_target))
    return rows, checks


@dataclass(frozen=True)
class _Experiment:
    knobs: set[str]  # required; ``v`` is optional for decompose
    runner: Callable[[ExperimentConfig], tuple[list[tuple], list[Check]]]
    specs: tuple[type, ...] = get_args(ProcessSpec)
    moment: int = 0  # k such that E[T^k] must be finite, 0 for none
    min_reps: int = 1
    rate: bool = True  # whether the runner needs the spec's long-run rate


_EXPERIMENTS: dict[str, _Experiment] = {
    "simulate": _Experiment({"horizon"}, _run_simulate, rate=False),
    "decompose": _Experiment({"horizon", "reps"}, _run_decompose),
    "blackwell": _Experiment({"t", "h", "reps"}, _run_window, min_reps=_MIN_WINDOW_REPS),
    "modulated": _Experiment({"t", "h", "reps"}, _run_window, (Modulated,), min_reps=_MIN_WINDOW_REPS),
    "palm": _Experiment({"t", "h", "reps"}, _run_window, (StationaryMA,), min_reps=_MIN_WINDOW_REPS),
    "rate": _Experiment({"t", "reps"}, _run_rate),
    "residual-law": _Experiment({"t", "reps"}, _run_residual_law, (Plain, Delayed)),
    "variance": _Experiment({"t", "reps"}, _run_variance, (Plain,), moment=2,
                            min_reps=_MIN_DRIFT_REPS),
    "rm-cross": _Experiment({"t", "reps"}, _run_rm_cross, (Plain,), moment=3),
    "diffusion": _Experiment({"n", "t", "reps"}, _run_diffusion, (Plain,), moment=2,
                             min_reps=_MIN_DRIFT_REPS),
    "renewal-solve": _Experiment({"horizon", "step"}, _run_renewal_solve, (Plain,)),
    "sgibnev": _Experiment({"t", "step"}, _run_sgibnev, (Plain,)),
}


def run(cfg: ExperimentConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    try:
        rows, checks = _EXPERIMENTS[cfg.experiment].runner(cfg)
    except EventCapExceeded as exc:
        print(f"FAIL {cfg.experiment}: {exc}")
        return 3
    _write_rows(cfg.out / f"{cfg.experiment}.csv", rows)
    ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        ok = ok and check.passed
        print(f"{status} {check.name}: {check.detail}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="countproc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--threads", type=int, default=None)

    p_val = sub.add_parser("validate", help="check a JSON config without running it")
    p_val.add_argument("config", type=Path)

    args = parser.parse_args(argv)
    try:
        with open(args.config) as fp:
            obj = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(obj, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    if args.command == "run":
        for knob in ("seed", "reps", "out", "threads"):
            val = getattr(args, knob)
            if val is not None:
                obj[knob] = val
    cfg, errors = validate_config(obj)
    if errors:
        for e in errors:
            print(f"invalid: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        resolved = dict(obj)
        resolved.setdefault("seed", cfg.seed)
        resolved.setdefault("threads", cfg.threads)
        resolved.setdefault("out", str(cfg.out))
        print("ok")
        print(json.dumps(resolved, sort_keys=True, indent=2))
        return 0
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
