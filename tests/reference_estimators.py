"""The estimators as two-pass formulas over the full arrays of
``path_statistics``: the reference the streamed estimators of
``countproc.asymptotics`` are checked against.

Each joins every path's summaries, then takes means, sample standard
deviations and the control-variate slope over the whole arrays, as the
estimators did before they reduced each chunk as it was folded.  The window
table of a non-Erlang law is the package's own (``_window_table``): it is
built before any path, so it is not a reduction.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from countproc import asymptotics, renewal_solver
from countproc.asymptotics import (
    _EPS,
    _ROUNDING_ULPS,
    ConditionedEstimate,
    DiffusionScalingResult,
    Estimate,
    _arithmetic_flags,
    _count_floor,
    path_statistics,
    spec_rate,
)
from countproc.processes import Delayed, Plain


def assert_close(got, want):
    """Value, se and quadrature within 1e-12 relative (1e-15 absolute about 0),
    and the same flags and floor; the same of the sampler check."""
    assert type(got) is type(want)
    for name in ("value", "se", "quadrature"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-15), name
    assert got.flags == want.flags and got.floor == want.floor
    if isinstance(want, ConditionedEstimate):
        assert_close(got.sampler_check, want.sampler_check)


def mean_estimate(x, flags=(), size=None):
    """Mean of ``x`` with the sample-standard-deviation bar; ``size`` (mean |x|
    by default) sets the rounding bound."""
    n = x.size
    se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    size = float(np.mean(np.abs(x))) if size is None else size
    return Estimate(value=float(np.mean(x)), se=se, flags=flags, rounding=_ROUNDING_ULPS * _EPS * size)


def controlled_mean(y, m, flags=()):
    """Mean of ``y`` with ``m``, of mean 0, as a control variate: the slope on
    the centred arrays, the bar std(y - beta m, ddof=2) / sqrt(n)."""
    n = y.size
    if n < 3:
        return mean_estimate(y, flags)
    beta = 0.0
    if m.max() != m.min():
        mc = m - np.mean(m)
        beta = float(np.dot(y - np.mean(y), mc)) / float(np.dot(mc, mc))
    adjusted = y - beta * m
    se = float(np.std(adjusted, ddof=2) / math.sqrt(n))
    size = float(np.mean(np.abs(y))) + abs(beta) * float(np.mean(np.abs(m)))
    return Estimate(value=float(np.mean(adjusted)), se=se, flags=flags, rounding=_ROUNDING_ULPS * _EPS * size)


def _noise(stats, rate, t):
    return stats["count"][:, 0] - rate * (t + stats["residual"][:, 0] - stats.get("delay", 0.0))


def rate(spec, t, reps, seed):
    stats = path_statistics(spec, [t], reps, seed)
    y = stats["count"][:, 0] / t
    if isinstance(spec, (Plain, Delayed)):
        est = controlled_mean(y, _noise(stats, spec.lifetime.renewal_rate, t) / t)
    else:
        est = mean_estimate(y)
    return replace(est, floor=_count_floor(spec, 1.0 / t, reps))


def blackwell(spec, t, h, reps, seed):
    stats = path_statistics(spec, [t, t + h], reps, seed)
    window = stats["count"][:, 1] - stats["count"][:, 0]
    flags, floor = _arithmetic_flags(spec), _count_floor(spec, 1.0, reps)
    if flags or not isinstance(spec, (Plain, Delayed)) or spec.lifetime.atoms():
        return replace(mean_estimate(window, flags), floor=floor)
    law = spec.lifetime
    phases = renewal_solver.erlang_phases(law)
    age = stats["age"][:, 0]
    aged = ~np.isnan(age)
    g, error = np.zeros(reps), np.zeros(reps)
    if phases is None:
        step = renewal_solver.fitted_step(h, [law])
        u, u_error = renewal_solver.renewal_function(law, h, step)
        times = step * np.arange(u.size)
        g[aged], error[aged] = asymptotics._window_table(law, h, t, times, u)(age[aged])
        renewal = partial(np.interp, xp=times, fp=u)
        quadrature = u_error + float(np.mean(error))
    else:
        g[aged] = renewal_solver.erlang_window_given_age(phases, h, age[aged])
        renewal = partial(renewal_solver.erlang_mean_count, phases)
    if not aged.all():
        rest = t + h - stats["delay"][~aged]
        g[np.flatnonzero(~aged)[rest >= 0]] = renewal(rest[rest >= 0])
    if phases is not None:
        quadrature = renewal_solver._ROUNDING * float(np.mean(g))
    est = replace(mean_estimate(g), quadrature=quadrature, floor=floor)
    check = mean_estimate(window - g, size=float(np.mean(window)) + float(np.mean(g)))
    return ConditionedEstimate(**vars(est), sampler_check=replace(check, quadrature=quadrature, floor=floor))


def _given_age(spec, t, reps, seed):
    law = spec.lifetime
    rate = law.renewal_rate
    stats = path_statistics(spec, [t], reps, seed)
    age, r = stats["age"][:, 0], stats["residual"][:, 0]
    r1, r2 = law.residual_moments(age)
    check = mean_estimate(r - r1, size=t + float(np.mean(r)) + float(np.mean(r1)))
    n = stats["count"][:, 0] - rate * t
    return r1, r2, n - rate * r1, n * r1 - rate * r2, check


def variance_drift(spec, t, reps, seed):
    law = spec.lifetime
    rate, sigma2 = law.renewal_rate, law.variance
    r1, r2, m, y, check = _given_age(spec, t, reps, seed)
    r1_bar = float(np.mean(r1))
    psi = rate**2 * r2 + (rate**3 * sigma2 - 2.0 * rate**2 * r1_bar) * r1 + 2.0 * rate * y
    est = controlled_mean(psi, m, _arithmetic_flags(spec))
    return ConditionedEstimate(**vars(replace(est, value=est.value + (rate * r1_bar) ** 2)),
                               sampler_check=check)


def rm_cross(spec, t, reps, seed):
    _, _, m, y, check = _given_age(spec, t, reps, seed)
    return ConditionedEstimate(**vars(controlled_mean(y, m, _arithmetic_flags(spec))), sampler_check=check)


def diffusion(spec, n, t, reps, seed):
    law = spec.lifetime
    rate, sigma2 = law.renewal_rate, law.variance
    horizon = n * t
    finite_m4 = not math.isinf(law.excess_moment(4, 0.0))
    stats = path_statistics(spec, [horizon], reps, seed)
    count = stats["count"][:, 0]
    scaled = (count - rate * horizon) / math.sqrt(n)
    scaled_resid = rate * stats["residual"][:, 0] / math.sqrt(n)
    m = _noise(stats, rate, horizon)
    wald_second = (m * m - rate**2 * sigma2 * count) / n
    psi = (scaled - np.mean(scaled)) ** 2 * (reps / (reps - 1))
    return DiffusionScalingResult(
        variance=controlled_mean(psi, wald_second) if finite_m4 else mean_estimate(psi),
        variance_target=rate**3 * sigma2 * t,
        scaled_count_mean=mean_estimate(scaled),
        scaled_residual_mean=mean_estimate(scaled_resid),
        residual_mean_bound=rate**2 * law.moment(2) / math.sqrt(n),
        scaled_noise_mean=mean_estimate(scaled - scaled_resid),
        wald_second_mean=mean_estimate(wald_second),
        wald_second_target=0.0 if finite_m4 else None,
    )


def truncated_rate_indicator(spec, v, t, reps, seed):
    stats = path_statistics(spec, [t], reps, seed)
    return mean_estimate((stats["residual"][:, 0] <= v).astype(float) * (1.0 / spec.lifetime.truncated_mean(v)))


def wald_ratio(spec, t, reps, seed):
    stats = path_statistics(spec, [t], reps, seed)
    s = t + stats["residual"][:, 0] - stats.get("delay", 0.0)
    w = (1.0 / spec_rate(spec)) * stats["count"][:, 0]
    ratio = float(np.mean(s) / np.mean(w))
    return replace(mean_estimate((s - ratio * w) / np.mean(w)), value=ratio)
