"""Pathwise noise/drift decompositions of counting processes.

Every operation here is an exact algebraic identity on every sample
path: the count splits into a drift proportional to elapsed-plus-residual
time and a piecewise-constant noise term that jumps only at events, and
the same split holds with the rate replaced by the reciprocal conditional
truncated mean of the next inter-arrival.  The residual returned by the
``*_residual`` functions is therefore zero up to floating-point rounding;
``tolerance_for(n)`` gives the bound 1e-9 * (1 + n) used throughout.

Every term is a function of the first N(t) gaps, found by one lookup of
N(t) per row and call: R(t) = S_{N(t)} - t, the noise and the quadratic
variations are prefix sums over those gaps, and the truncated split reads
interval N(t) - 1 (N(t) on a delayed path, whose interval 0 is the delay).

All functions accept a scalar query time or a 1-d array of query times
and are pure; they never mutate the path.  A block of paths is answered
row by row, each row with the bits its own 1-d path gives.  The general
functional split takes evaluators whose methods accept arrays of times
and event indices, and runs as one array pass over the events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import IO, Sequence

import numpy as np

from .lifetimes import LifetimeDistribution, _scalarize
from .processes import (
    Delayed, Modulated, Plain, SamplePath, StationaryMA, _answer, _lookup, _take, count, residual
)

__all__ = [
    "ConditionalMeanOracle",
    "DecompositionReport",
    "build_reports",
    "centered_residual_functional",
    "counting_functional",
    "decompose_functional",
    "decomposition_residual",
    "martingale",
    "optional_quadratic_variation",
    "predictable_quadratic_variation",
    "quadratic_error_bound",
    "reports_to_csv",
    "squared_noise_functional",
    "tolerance_for",
    "truncated_decomposition_residual",
    "truncated_rate",
    "wald_residual",
]


def tolerance_for(n) -> float | np.ndarray:
    """Permitted rounding in pathwise identities after n observed events."""
    return 1e-9 * (1.0 + np.asarray(n, dtype=float))


def _prefix(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sum of the first n entries of each row of x, for each n of that row."""
    return _take(np.cumsum(np.pad(np.atleast_2d(x), ((0, 0), (1, 0))), axis=1), n)


def _noise(path: SamplePath, rate: float, n, power: int = 1):
    """Sum of (1 - rate * T_k)**power over the first n = N(t) gaps: the
    noise M(t), or with power 2 its optional quadratic variation."""
    if not rate > 0:
        raise ValueError("rate must be positive")
    return _prefix((1.0 - rate * path.interarrivals) ** power, n)


def _elapsed(path: SamplePath, t, n):
    """t + R(t) - D at n = N(t), in that order so that it rounds as t + residual(t)."""
    return t + (_take(path.events, n) - t) - (np.atleast_2d(path.events)[:, :1] if path.delayed else 0.0)


def _identity(path: SamplePath, rate: float, t, n):
    return n - rate * _elapsed(path, t, n) - _noise(path, rate, n)


def _wald(path: SamplePath, mean_lifetime: float, t, n):
    m = _noise(path, 1.0 / mean_lifetime, n)
    return _elapsed(path, t, n) - mean_lifetime * n + mean_lifetime * m


def martingale(path: SamplePath, rate: float, t):
    """Noise term at time t: sum of (1 - rate * T_n) over the first N(t) gaps.

    The sum includes the inter-arrival straddling t, since that term is
    revealed at the preceding event.  Piecewise constant, jumping only at
    events; for a plain renewal path with rate = 1/E[T] it has mean zero.
    """
    _, n, shape = _lookup(path, t)
    return _answer(_noise(path, rate, n), shape)


def decomposition_residual(path: SamplePath, rate: float, t):
    """N(t) - rate*(t + R(t)) - M(t), with the delay subtracted on delayed paths.

    Zero in exact arithmetic for every path and every positive rate; the
    returned value is pure rounding noise, bounded by ``tolerance_for(N(t))``.
    """
    ts, n, shape = _lookup(path, t)
    return _answer(_identity(path, rate, ts, n), shape)


def wald_residual(path: SamplePath, mean_lifetime: float, t):
    """S_{N(t)} - E[T] N(t) + E[T] M(t): pathwise zero, mean-zero over paths.

    ``S_{N(t)}`` is the running sum of genuine inter-arrivals, which equals
    t + R(t) minus the delay on delayed paths; subtracting the delay keeps
    the identity exact in both conventions.
    """
    ts, n, shape = _lookup(path, t)
    return _answer(_wald(path, mean_lifetime, ts, n), shape)


def optional_quadratic_variation(path: SamplePath, rate: float, t):
    """Sum of squared noise jumps: sum over the first N(t) gaps of (1 - rate*T_n)^2."""
    _, n, shape = _lookup(path, t)
    return _answer(_noise(path, rate, n, 2), shape)


def predictable_quadratic_variation(path: SamplePath, rate: float, sigma2: float, t):
    """rate^2 * sigma2 * N(t); requires a finite lifetime variance."""
    if math.isinf(sigma2):
        raise ValueError("predictable quadratic variation needs a finite lifetime variance")
    _, n, shape = _lookup(path, t)
    return _answer(rate**2 * sigma2 * n.astype(float), shape)


def quadratic_error_bound(dist: LifetimeDistribution, t) -> float:
    """Upper bound sigma^2 (rate*t + rate^2 E[T^2]) for (E T)^2 E[M^2(t)]."""
    m2 = dist.moment(2)
    if math.isinf(m2):
        raise ValueError("the quadratic error bound needs a finite second moment")
    rate = dist.renewal_rate
    sigma2 = dist.variance
    t_arr = np.asarray(t, dtype=float)
    out = sigma2 * (rate * t_arr + rate**2 * m2)
    return _scalarize(out, t_arr.ndim == 0)


# ---------------------------------------------------------------------------
# Truncated decomposition
# ---------------------------------------------------------------------------


class ConditionalMeanOracle:
    """E[min(v, next gap) | information at the start of each interval].

    A path partitions [0, last event) into left-closed intervals; the
    oracle assigns to each interval the conditional truncated mean of its
    length given what was observable just before it began:

    * plain/delayed: the truncated mean of the (delay or lifetime) law;
    * modulated: the truncated mean of the lifetime law of the state
      entered at the interval's opening event;
    * stationary moving average of order m: the closed form
      min(v, s/m) + truncated_mean(base, m*v - s)/m, where s is the sum of
      the m-1 base draws already revealed.
    """

    def __init__(self, spec):
        self.spec = spec

    def interval_means(self, path: SamplePath, v: float) -> np.ndarray:
        if not v > 0:
            raise ValueError("truncation level v must be positive")
        spec = self.spec
        shape = path.events.shape[:-1] + (path.events.shape[-1] - 1 + path.delayed,)
        if isinstance(spec, (Plain, Delayed)):
            out = np.full(shape, spec.lifetime.truncated_mean(v))
            if isinstance(spec, Delayed):
                out[..., 0] = spec.delay.truncated_mean(v)
            return out
        if isinstance(spec, Modulated):
            table = np.array([spec.lifetimes[s].truncated_mean(v) for s in spec.states])
            # interval j opens at event j; marks[j], the state entered there, governs it
            return table[path.marks[..., : shape[-1]]]
        if isinstance(spec, StationaryMA):
            m = spec.order
            s = np.asarray(path.marks[..., : shape[-1]], dtype=float)
            known = np.minimum(v, s / m)
            rest = spec.base.truncated_mean(np.maximum(m * v - s, 0.0)) / m
            return known + np.where(m * v - s > 0, rest, 0.0)
        raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _truncated_rates(path: SamplePath, oracle: ConditionalMeanOracle, v: float) -> np.ndarray:
    """lam per interval: the reciprocal of the oracle's conditional truncated means."""
    means = oracle.interval_means(path, v)
    if np.any(means <= 0):
        raise ValueError("conditional mean oracle returned a nonpositive value")
    return 1.0 / means


def truncated_rate(path: SamplePath, oracle: ConditionalMeanOracle, v: float, t):
    """Reciprocal conditional truncated mean governing the interval holding t.

    Piecewise constant between events and bounded below by 1/v.  With
    v = inf on a plain path this is the constant renewal rate.
    """
    _, n, shape = _lookup(path, t)
    return _answer(_take(_truncated_rates(path, oracle, v), n - 1 + path.delayed), shape)


def _truncated(path: SamplePath, lam: np.ndarray, v: float, t, n):
    """The truncated split's residual at n = N(t), given lam per interval."""
    gaps = path.interarrivals
    capped = np.minimum(np.concatenate([path.events[..., :1], gaps], axis=-1) if path.delayed else gaps, v)
    drift_per_interval = lam * capped
    j = n - 1 + path.delayed  # the interval holding t
    lam_j = _take(lam, j)
    r_capped = np.minimum(_take(path.events, n) - t, v)
    # integral over [0, t]: full intervals 0..j-1 plus the partial piece of j
    integral = _prefix(drift_per_interval, j) + lam_j * (_take(capped, j) - r_capped)
    # gaps live in intervals 1.. on a delayed path; interval 0 is the delay
    noise = _prefix(1.0 - drift_per_interval[..., int(path.delayed):], n)
    correction = np.atleast_2d(drift_per_interval)[:, :1] if path.delayed else 0.0
    return n - integral - lam_j * r_capped - noise + correction


def truncated_decomposition_residual(path: SamplePath, oracle: ConditionalMeanOracle, v: float, t):
    """Residual of the truncated split of N(t); zero up to rounding.

    The split is N(t) = I(t) + lam(t) * min(R(t), v) + Mv(t) (+ a delay
    correction), where I integrates lam(s) over the sub-level set
    {R(s) <= v} and Mv sums 1 - lam * min(gap, v) over observed gaps.  On
    each interval the residual time decays linearly, so the indicator holds
    exactly on the final min(gap, v) stretch and I is a finite sum.
    """
    ts, n, shape = _lookup(path, t)
    return _answer(_truncated(path, _truncated_rates(path, oracle, v), v, ts, n), shape)


# ---------------------------------------------------------------------------
# General functional decomposition
# ---------------------------------------------------------------------------


def decompose_functional(path: SamplePath, evaluator, t: float):
    """Split Y(t) into drift integral, predictable jump part and noise part.

    ``evaluator`` supplies ``initial(path)`` = Y just before time zero,
    ``value(path, times)``, the right derivative ``derivative(path, times)``
    (assumed piecewise constant between events), ``jump(path, ks)`` at
    event indices ks, and ``conditional_mean(path, ks)``, the expected
    post-event value given the strict pre-event past.  Each takes an array
    of times or indices and answers for all of them at once, so the split
    is one array pass over the events.  Returns ``(drift_integral,
    predictable, noise)`` and checks both the declared jumps (within 1e-12
    per event) and that the three terms plus the initial value rebuild Y(t)
    within ``tolerance_for(N(t))``.
    """
    t = float(t)
    n = count(path, t)
    ks = np.arange(n)
    edges = np.concatenate([[0.0], path.events[:n], [t]])
    # the right derivative is piecewise constant between events: the
    # midpoint value times the width integrates each piece exactly
    segments = evaluator.derivative(path, 0.5 * (edges[:-1] + edges[1:])) * np.diff(edges)
    y0 = float(evaluator.initial(path))
    value_at = evaluator.value(path, edges[1:-1])
    left = np.concatenate([[y0], value_at])[:-1] + segments[:-1]  # Y(t_k-)
    declared = np.broadcast_to(evaluator.jump(path, ks), ks.shape)
    bad = np.flatnonzero(np.abs(value_at - left - declared) > 1e-12 * (1.0 + np.abs(value_at)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"declared jump at event {k} ({declared[k]}) disagrees with "
            f"Y(t_k) - Y(t_k-) = {value_at[k] - left[k]}"
        )
    cm = evaluator.conditional_mean(path, ks)
    drift_integral = float(np.sum(segments))
    predictable = float(np.sum(cm - left))
    noise = float(np.sum(value_at - cm))

    rebuilt = y0 + drift_integral + predictable + noise
    target = float(evaluator.value(path, t))
    if abs(rebuilt - target) > tolerance_for(n) * (1.0 + abs(target)):
        raise ValueError(
            f"decomposition failed to rebuild Y(t): {rebuilt} vs {target}"
        )
    return drift_integral, predictable, noise


class counting_functional:
    """Y = N: pure predictable jumps, no noise (the degenerate choice)."""

    def initial(self, path):
        return 0.0

    def value(self, path, t):
        return count(path, t)

    def derivative(self, path, t):
        return 0.0

    def jump(self, path, k):
        return 1.0

    def conditional_mean(self, path, k):
        # the count is predictable: the post-event value N(t_k) = k + 1 is
        # known just before the event fires
        return k + 1.0


class centered_residual_functional:
    """Y = N - rate*R: linear drift, vanishing predictable part, noise = martingale.

    The predictable part vanishes exactly when rate is the reciprocal mean
    of the gap revealed at each event.
    """

    def __init__(self, rate: float):
        self.rate = rate

    def initial(self, path):
        return -self.rate * path.delay if path.delayed else 0.0

    def value(self, path, t):
        return count(path, t) - self.rate * residual(path, t)

    def derivative(self, path, t):
        return self.rate

    def jump(self, path, k):
        return 1.0 - self.rate * (path.events[k + 1] - path.events[k])

    def conditional_mean(self, path, k):
        # E[Y(t_k) | past] = N(t_k-) + 1 - rate*E[T] = k with rate = 1/E[T],
        # which is exactly the left limit (R(t_k-) = 0)
        return np.asarray(k, dtype=float)


class squared_noise_functional:
    """Y = M^2 on a renewal path; predictable part grows by rate^2*sigma2 per event."""

    def __init__(self, rate: float, sigma2: float):
        self.rate = rate
        self.sigma2 = sigma2

    def initial(self, path):
        return 0.0

    def value(self, path, t):
        return martingale(path, self.rate, t) ** 2

    def derivative(self, path, t):
        return 0.0

    def _before_after(self, path, k):
        terms = 1.0 - self.rate * path.interarrivals
        after = np.cumsum(terms)[k]  # the gap revealed at event k included
        return after - terms[k], after

    def jump(self, path, k):
        before, after = self._before_after(path, k)
        return after**2 - before**2

    def conditional_mean(self, path, k):
        before, _ = self._before_after(path, k)
        return before**2 + self.rate**2 * self.sigma2


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Every decomposition object evaluated at one query time."""

    t: float
    count: int
    residual: float
    martingale: float
    drift: float
    identity_residual: float
    optional_qv: float
    predictable_qv: float | None
    wald_residual: float


def build_reports(
    path: SamplePath,
    rate: float,
    mean_lifetime: float,
    sigma2: float | None,
    ts: Sequence[float],
) -> list[DecompositionReport]:
    """One report per query time of a single path, every term taken from
    one lookup of N(t)."""
    ts, n, _ = _lookup(path, ts)
    pqv = [None] * ts.size
    if sigma2 is not None and not math.isinf(sigma2):
        pqv = rate**2 * sigma2 * n.astype(float)
    columns = (  # in the field order of DecompositionReport
        ts, n, _take(path.events, n) - ts, _noise(path, rate, n), rate * _elapsed(path, ts, n),
        _identity(path, rate, ts, n), _noise(path, rate, n, 2), pqv, _wald(path, mean_lifetime, ts, n),
    )
    return [DecompositionReport(*row) for row in zip(*(np.ravel(c).tolist() for c in columns))]


def _csv_line(cells) -> str:
    """One CSV line: None is empty, a float is written as ``.17g`` and an
    int or str as it is."""
    return ",".join("" if x is None else format(x, ".17g") if isinstance(x, float) else str(x)
                    for x in cells) + "\n"


def reports_to_csv(reports: Sequence[DecompositionReport], fp: IO[str]) -> None:
    names = [f.name for f in fields(DecompositionReport)]
    fp.write(_csv_line(names))
    fp.writelines(_csv_line(getattr(rep, name) for name in names) for rep in reports)
