"""Monte Carlo estimators and closed-form targets for counting-process limits.

Replications are simulated in chunks of rows, one path per row, streamed
through the column-block sampler of :mod:`countproc.processes`: each block
is folded into the running counts and residuals at the query times and
discarded.  Chunk sizes and block widths depend only on the spec and
horizon, chunk i draws from ``child_rng(seed, i)``, and chunks are reduced
in index order, so every estimate is bit-reproducible from the root seed
and independent of the number of worker threads.

Closed-form constants (the long-run rate of a modulated process, the
variance-drift constant for laws with three finite moments, the
residual/noise cross-term limit) live here next to their estimators.

Error bars.  A mean over paths carries the sample standard deviation over
sqrt(reps).  On renewal specs the noise M(t) = N(t) - rate (t + R(t) - D)
has mean 0 at every t (Wald's identity), so ``estimate_rate`` (plain and
delayed specs), ``estimate_rm_cross`` and ``estimate_variance_drift`` use
it as a control variate: the slope is fitted once on all paths, joined in
chunk order, and the bar is the standard deviation of the controlled terms
with two degrees of freedom spent (``_controlled_mean``).  The variance
drift applies this to each path's delta-method influence.  The diffusion
variance is the mean of the per-path terms (X - mean X)^2 n/(n - 1).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .lifetimes import LifetimeDistribution, _lattice_span
from .processes import (
    _CHUNK_ROWS,
    Delayed,
    Modulated,
    Plain,
    ProcessSpec,
    StationaryMA,
    _column_blocks,
    _lifetime_laws,
    child_rng,
)

__all__ = [
    "DiffusionScalingResult",
    "Estimate",
    "KSResult",
    "diffusion_scaling",
    "estimate_blackwell",
    "estimate_rate",
    "estimate_rm_cross",
    "estimate_variance_drift",
    "modulated_rate",
    "modulated_time_law",
    "path_statistics",
    "residual_limit_ks",
    "rm_cross_limit",
    "smith_constant",
    "spec_rate",
    "truncated_rate_indicator_mean",
    "variance_drift_ratios",
    "wald_ratio",
]

_Z95 = 1.959963984540054
_MIN_WINDOW_REPS = 1000  # replications a Blackwell window estimate needs
_MIN_DRIFT_REPS = 200  # replications a variance-drift or diffusion-variance estimate needs


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its 95% normal-approximation interval;
    ``flags`` name a hypothesis of its limit that the law violates."""

    value: float
    se: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.se >= 0:
            raise ValueError("standard error must be nonnegative")
        if math.isnan(self.value):
            raise ValueError("point estimate must not be NaN")

    @property
    def lo(self) -> float:
        return self.value - _Z95 * self.se

    @property
    def hi(self) -> float:
        return self.value + _Z95 * self.se

    def z_against(self, target: float) -> float:
        if self.se == 0:
            return 0.0 if self.value == target else math.inf
        return abs(self.value - target) / self.se


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.threshold


@dataclass(frozen=True)
class DiffusionScalingResult:
    variance: Estimate
    variance_target: float
    scaled_count_mean: Estimate
    scaled_residual_mean: Estimate
    residual_mean_bound: float
    scaled_noise_mean: Estimate


# ---------------------------------------------------------------------------
# Closed-form targets
# ---------------------------------------------------------------------------


def spec_rate(spec: ProcessSpec) -> float:
    """Long-run event rate of the process described by ``spec``."""
    if isinstance(spec, (Plain, Delayed)):
        return spec.lifetime.renewal_rate
    if isinstance(spec, Modulated):
        return modulated_rate(spec)
    if isinstance(spec, StationaryMA):
        return spec.base.renewal_rate
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def smith_constant(dist: LifetimeDistribution) -> float:
    """Limit of var N(t) - rate^3 * var T * t when E[T^3] is finite."""
    m1, m2, m3 = dist.moment(1), dist.moment(2), dist.moment(3)
    if math.isinf(m3):
        raise ValueError("the variance-drift constant needs a finite third moment")
    lam = 1.0 / m1
    return -(2.0 / 3.0) * lam**3 * m3 + 1.25 * lam**4 * m2**2 - 0.5 * lam**2 * m2


def rm_cross_limit(dist: LifetimeDistribution) -> float:
    """Limit of E[R(t) M(t)]: (rate*E T^2 - rate^2*E T^3)/2 + rate^3*var T*E T^2/2."""
    m1, m2, m3 = dist.moment(1), dist.moment(2), dist.moment(3)
    if math.isinf(m3):
        raise ValueError("the residual/noise cross limit needs a finite third moment")
    lam = 1.0 / m1
    sigma2 = m2 - m1 * m1
    return 0.5 * (lam * m2 - lam**2 * m3) + 0.5 * lam**3 * sigma2 * m2


def modulated_rate(spec: Modulated) -> float:
    """Long-run event rate: reciprocal mean cycle under the embedded stationary law.

    Equivalently the average of the per-state reciprocal mean holding times
    under the time-stationary (length-biased) state law.
    """
    pi = _embedded_stationary_law(spec)
    means = np.array([spec.lifetimes[s].moment(1) for s in spec.states])
    return float(1.0 / np.dot(pi, means))


def modulated_time_law(spec: Modulated) -> np.ndarray:
    """Time-stationary state law: embedded law length-biased by mean holding times."""
    pi = _embedded_stationary_law(spec)
    means = np.array([spec.lifetimes[s].moment(1) for s in spec.states])
    weighted = pi * means
    return weighted / weighted.sum()


def _embedded_stationary_law(spec: Modulated) -> np.ndarray:
    kernel = spec.kernel_matrix()
    n = kernel.shape[0]
    # irreducible when every state reaches every other: the transitive
    # closure of the transition graph, by squaring, is all True
    reach = (kernel > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    if not reach.all():
        raise ValueError("modulated kernel must be irreducible")
    a = kernel.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _arithmetic_flags(spec: ProcessSpec) -> tuple[str, ...]:
    """Flag a lattice process: every law arithmetic, with a common span."""
    if _lattice_span(_lifetime_laws(spec)) is not None:
        return ("arithmetic lifetime law: the non-lattice hypothesis is violated",)
    return ()


# ---------------------------------------------------------------------------
# Vectorized batch simulation
# ---------------------------------------------------------------------------


def _simulate_chunk(
    spec: ProcessSpec, ts: np.ndarray, rows: int, seed: int, chunk_index: int
) -> dict[str, np.ndarray]:
    """Fold one chunk of paths, streamed in column blocks, into per-path summaries.

    Per query time t a path's count is the number of its gaps that start at
    or before t and its residual is the first event time after t minus t.
    """
    blocks = _column_blocks(spec, float(np.max(ts)), rows, child_rng(seed, chunk_index))
    start = next(blocks)
    result = {"count": np.zeros((rows, ts.size)), "residual": start[:, None] - ts}
    if isinstance(spec, Delayed):
        result["delay"] = start
    for active, last, times, _ in blocks:
        width = times.shape[1]
        for i, t in enumerate(ts):
            before = np.count_nonzero(times <= t, axis=1)
            open_ = last <= t
            result["count"][active, i] += np.minimum(before + open_, width)
            hit = np.flatnonzero(open_ & (before < width))
            result["residual"][active[hit], i] = times[hit, before[hit]] - t
    return result


def path_statistics(
    spec: ProcessSpec, ts: Sequence[float], reps: int, seed: int, threads: int = 1
) -> dict[str, np.ndarray]:
    """Counts and residuals per path.

    Returns arrays of shape (reps, len(ts)) keyed ``count``/``residual``,
    plus ``delay`` for delayed specs.  Bit-reproducible from (spec, ts,
    reps, seed) for any thread count.
    """
    ts = np.asarray(ts, dtype=float)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if np.any(ts < 0):
        raise ValueError("query times must be nonnegative")
    jobs = [(spec, ts, min(_CHUNK_ROWS, reps - start), seed, i)
            for i, start in enumerate(range(0, reps, _CHUNK_ROWS))]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_simulate_chunk, *zip(*jobs)))
    else:
        chunks = [_simulate_chunk(*job) for job in jobs]
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


# ---------------------------------------------------------------------------
# Estimator helpers
# ---------------------------------------------------------------------------


def _mean_estimate(x: np.ndarray, flags: tuple[str, ...] = ()) -> Estimate:
    n = x.size
    se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(value=float(np.mean(x)), se=se, flags=flags)


def _controlled_mean(y: np.ndarray, m: np.ndarray, flags: tuple[str, ...] = ()) -> Estimate:
    """Mean of ``y`` with ``m``, whose mean is known to be 0, as a control variate.

    The value is mean(y) - beta * mean(m) with the least-squares slope
    beta = sum (y - mean y)(m - mean m) / sum (m - mean m)^2, 0 when ``m``
    has no spread; the error bar is std(y - beta m, ddof=2) / sqrt(n).
    Fewer than three paths leave no degree of freedom for beta: plain mean.
    """
    n = y.size
    if n < 3:
        return _mean_estimate(y, flags)
    mc = m - np.mean(m)
    ss = float(np.dot(mc, mc))
    beta = float(np.dot(y - np.mean(y), mc)) / ss if ss > 0 else 0.0
    adjusted = y - beta * m
    se = float(np.std(adjusted, ddof=2) / math.sqrt(n))
    return Estimate(value=float(np.mean(adjusted)), se=se, flags=flags)


def _elapsed_at(stats: dict[str, np.ndarray], t: float, col: int) -> np.ndarray:
    """t + R(t) - D per path: the sum of the gaps observed by t, delay excluded."""
    return t + stats["residual"][:, col] - stats.get("delay", 0.0)


def _noise_at(stats: dict[str, np.ndarray], rate: float, t: float, col: int) -> np.ndarray:
    """Noise value per path from the pathwise identity (no extra sampling)."""
    return stats["count"][:, col] - rate * _elapsed_at(stats, t, col)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_blackwell(
    spec: ProcessSpec, t: float, h: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Mean number of events in (t, t+h]; tends to rate*h off the lattice case."""
    if not (t > 0 and h > 0):
        raise ValueError("t and h must be positive")
    if reps < _MIN_WINDOW_REPS:
        raise ValueError(f"blackwell estimation needs at least {_MIN_WINDOW_REPS} replications")
    stats = path_statistics(spec, [t, t + h], reps, seed, threads=threads)
    inc = stats["count"][:, 1] - stats["count"][:, 0]
    return _mean_estimate(inc, _arithmetic_flags(spec))


def estimate_rate(
    spec: ProcessSpec, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Mean of N(t)/t; tends to the long-run rate for every law, lattice or not.

    For plain and delayed specs the noise M(t)/t is the control variate
    (``_controlled_mean``): E[M(t)] = 0 at every t by Wald's identity, and
    N(t) - M(t) = rate (t + R(t) - D) leaves only the spread of R(t) - D in
    the error bar.  Modulated and MA specs have E[M(t)] != 0 at finite t and keep
    the plain mean with its sample-standard-deviation error bar.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    y = stats["count"][:, 0] / t
    if not isinstance(spec, (Plain, Delayed)):
        return _mean_estimate(y)
    return _controlled_mean(y, _noise_at(stats, spec.lifetime.renewal_rate, t, 0) / t)


def residual_limit_ks(
    spec: ProcessSpec, t: float, reps: int, seed: int = 0, threads: int = 1
) -> KSResult:
    """KS distance between the residual law at time t and the stationary-excess law."""
    flags = _arithmetic_flags(spec)
    if flags:
        raise ValueError("the residual-law limit needs a non-arithmetic lifetime law")
    if not isinstance(spec, (Plain, Delayed)):
        raise ValueError("the stationary-excess target is defined for renewal specs only")
    dist = spec.lifetime
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    r = np.sort(stats["residual"][:, 0])
    cdf = dist.equilibrium_cdf(r)
    n = r.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    stat = float(max(upper, lower))
    return KSResult(statistic=stat, threshold=1.95 / math.sqrt(n) + 0.01)


def estimate_variance_drift(
    spec: Plain, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Monte Carlo estimate of var N(t) - rate^3 * var T * t for a plain renewal spec.

    Uses the exact finite-t split
        var N(t) - rate^3 var T t
            = rate^2 var R(t) + 2 rate E[R M](t) + rate^3 var T E[R(t)],
    which follows from the pathwise decomposition and the second-moment
    identity for the noise term; estimating the right-hand side needs only
    the O(1)-sized path summaries, cutting the error bar several-fold
    against var-of-counts sampling.  The plug-in value of the right-hand
    side is corrected by the control variate M(t) (E[M(t)] = 0), fitted on
    the delta-method influence of each path,
        psi = rate^2 (R^2 - 2 mean(R) R) + 2 rate R M + rate^3 var T R,
    and the error bar is that of ``_controlled_mean`` on psi.
    """
    if not isinstance(spec, Plain):
        raise TypeError("variance drift is defined for plain renewal specs")
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"variance drift estimation needs at least {_MIN_DRIFT_REPS} replications")
    sigma2 = spec.lifetime.variance
    if math.isinf(sigma2):
        raise ValueError("variance drift needs a finite second moment")
    rate = spec.lifetime.renewal_rate
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    r = stats["residual"][:, 0]
    m = _noise_at(stats, rate, t, 0)
    r_bar = float(np.mean(r))
    psi = rate**2 * r * (r - 2.0 * r_bar) + 2.0 * rate * r * m + rate**3 * sigma2 * r
    # mean(psi) is the plug-in drift, var R taken with ddof 0, less rate^2 mean(R)^2
    est = _controlled_mean(psi, m, _arithmetic_flags(spec))
    return replace(est, value=est.value + (rate * r_bar) ** 2)


def variance_drift_ratios(
    spec: Plain, ts: Sequence[float], reps: int, seed: int = 0, threads: int = 1
) -> list[tuple[float, Estimate, float]]:
    """(t, drift estimate, |drift| / (t * sqrt(quadratic excess at t))) per t.

    The normalized ratio should stay bounded across a t-ladder when the
    lifetime law has a finite second but infinite third moment.
    """
    from .renewal_solver import residual_second_generator

    out = []
    for i, t in enumerate(ts):
        est = estimate_variance_drift(spec, float(t), reps, seed + i, threads=threads)
        scale = float(t) * math.sqrt(float(residual_second_generator(spec.lifetime, float(t))))
        out.append((float(t), est, abs(est.value) / scale))
    return out


def estimate_rm_cross(
    spec: Plain, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Mean of R(t) * M(t) for a plain renewal spec, with M(t) (E[M(t)] = 0)
    as its control variate and the error bar of ``_controlled_mean``."""
    if not isinstance(spec, Plain):
        raise TypeError("the residual/noise cross moment is defined for plain renewal specs")
    rate = spec.lifetime.renewal_rate
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    r = stats["residual"][:, 0]
    m = _noise_at(stats, rate, t, 0)
    return _controlled_mean(r * m, m, _arithmetic_flags(spec))


def diffusion_scaling(
    spec: Plain,
    n: int,
    t: float,
    reps: int,
    seed: int = 0,
    threads: int = 1,
) -> DiffusionScalingResult:
    """Variance and mean of the diffusion-scaled count (N(nt) - rate*nt)/sqrt(n).

    Also reports the mean of rate*R(nt)/sqrt(n), which matches the scaled
    count's mean exactly (first-moment identity) and is bounded by
    rate^2 E[T^2] / sqrt(n); both vanish as n grows so the scaled count
    converges to its noise part alone.  That noise part, M(nt)/sqrt(n) =
    (N(nt) - rate*nt - rate*R(nt))/sqrt(n), has mean 0 at every n by Wald's
    identity, so its paired mean checks the simulation at finite n.
    """
    if not isinstance(spec, Plain):
        raise TypeError("diffusion scaling is defined for plain renewal specs")
    sigma2 = spec.lifetime.variance
    m2 = spec.lifetime.moment(2)
    if math.isinf(sigma2):
        raise ValueError("diffusion scaling needs a finite second moment")
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"diffusion scaling needs at least {_MIN_DRIFT_REPS} replications")
    rate = spec.lifetime.renewal_rate
    horizon = n * t
    stats = path_statistics(spec, [horizon], reps, seed, threads=threads)
    scaled = (stats["count"][:, 0] - rate * horizon) / math.sqrt(n)
    scaled_resid = rate * stats["residual"][:, 0] / math.sqrt(n)

    return DiffusionScalingResult(
        variance=_mean_estimate((scaled - np.mean(scaled)) ** 2 * (reps / (reps - 1))),
        variance_target=rate**3 * sigma2 * t,
        scaled_count_mean=_mean_estimate(scaled),
        scaled_residual_mean=_mean_estimate(scaled_resid),
        residual_mean_bound=rate**2 * m2 / math.sqrt(n),
        scaled_noise_mean=_mean_estimate(scaled - scaled_resid),
    )


def truncated_rate_indicator_mean(
    spec: Plain, v: float, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """E[truncated rate at t * 1(R(t) <= v)] for a plain renewal spec.

    The truncated rate of a plain renewal process is the constant
    1/E[min(v, T)], so this reduces to a scaled coverage probability; the
    estimate tends to the long-run rate as t grows, for every v > 0.
    """
    if not isinstance(spec, Plain):
        raise TypeError("implemented for plain renewal specs (the truncated rate is constant)")
    if not v > 0:
        raise ValueError("v must be positive")
    lam_v = 1.0 / spec.lifetime.truncated_mean(v)
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    ind = (stats["residual"][:, 0] <= v).astype(float)
    return _mean_estimate(ind * lam_v)


def wald_ratio(
    spec: ProcessSpec, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """E[sum of observed gaps] / (E[T] * E[N(t)]) with a paired delta-method error bar.

    Exactly 1 in expectation for renewal specs, lattice or not; asymptotically
    1 for the modulated and stationary-sequence kinds.
    """
    mean_gap = 1.0 / spec_rate(spec)
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    s = _elapsed_at(stats, t, 0)
    w = mean_gap * stats["count"][:, 0]
    ratio = float(np.mean(s) / np.mean(w))
    return replace(_mean_estimate((s - ratio * w) / np.mean(w)), value=ratio)
