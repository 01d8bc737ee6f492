"""Monte Carlo estimators and closed-form targets for counting-process limits.

Replications are simulated in chunks of paths, streamed through the
column-block sampler of :mod:`countproc.processes`: each block, time-major
with one row per event index and one column per path, is folded along its
event axis into the running counts and residuals at the query times and
discarded.  An Erlang path's events (see :mod:`countproc.processes`) are
read off its Poisson clock top-down, drawing the clock's rows of points
only down to the path's first event at or before its stop, the lowest
query time at or after its start (a lower one precedes its delay): when
that is the horizon, only its top event, the first m rows.  Either way
each path's summaries are those of the path
:func:`countproc.processes.simulate_paths` keeps from the same stream.
When the horizon is the only query time the fold reads each path's count
and top event straight off one take (``_fold_clock``).
Chunk sizes and block widths depend only on the spec and horizon,
chunk i draws from ``child_rng(seed, i)``, and chunks are reduced in index
order, so every estimate is bit-reproducible from the root seed and
independent of the number of worker threads.

Closed-form constants (the long-run rate of a modulated process, the
variance-drift constant for laws with three finite moments, the
residual/noise cross-term limit) live here next to their estimators.

Error bars.  A mean over paths carries the sample standard deviation over
sqrt(reps).  On renewal specs the noise M(t) = N(t) - rate (t + R(t) - D)
has mean 0 at every t (Wald's identity), so ``estimate_rate`` (plain and
delayed specs) uses it as a control variate: the slope is fitted once on
all paths, joined in chunk order, and the bar is the standard deviation of
the controlled terms with two degrees of freedom spent (``_controlled_mean``).
``estimate_rm_cross`` and ``estimate_variance_drift`` first condition on the
past F_t (conditional Monte Carlo): given F_t the residual R(t) depends only
on the age a = t - S_{N(t)-1}, with E[R^k | F_t] = e_k(a) / tail(a)
(``residual_moments``), so each path contributes E[R M | F_t] and the
delta-method influence of the drift with R, R^2 and R M replaced by their
conditional means, and E[M | F_t] = N - rate (t + E[R | a]), of mean 0, is
the control.  That keeps every mean and removes the residual's own spread.
``estimate_blackwell`` (plain and delayed specs, lifetime law without
atoms, not lattice) conditions the window the same way: given F_t it
counts E[U(h - R); R <= h | a], U the renewal function on [0, h].  On an
Erlang law that is a closed form over the Poisson clock's points
(``renewal_solver.erlang_window_given_age``), with no solve and no table;
on other laws it is read from one table of the age and carries the
table's numerical error as ``quadrature``.  A conditioned estimate sees the sampler only
through N and a (on an Exponential law it is exact for any sampler), so
it carries the plain mean of R - E[R | a], or of the window minus its
conditional mean, 0 by the tower property, as ``sampler_check``, the
check that still sees the sampler.  The diffusion variance is the mean of
the per-path terms (X - mean X)^2 n/(n - 1), with the control C = (M^2 -
rate^2 var T N)/n from Wald's second identity, E[M(t)^2] = rate^2 var T
E[N(t)] at every t; var C is finite only when E[T^4] is, so without a
finite fourth moment it keeps the plain bar.  A z-check divides by the
largest of the bar, ``rounding``, the floating-point error of the
computed mean, which scales with the size of the terms and not with their
spread, and ``quadrature``: a near-exact estimate is then read against its
rounding or its numerical error, not against a bar of 1e-17 or 0.  A mean of
counts (``rate``, the windows) also never divides by less than its count
floor, d sqrt(3) / n (``Estimate.floor``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import renewal_solver
from .lifetimes import LifetimeDistribution, _lattice_span
from .processes import (
    _BLOCK_COLS,
    _CHUNK_ROWS,
    Delayed,
    Modulated,
    Plain,
    ProcessSpec,
    StationaryMA,
    _ClockRows,
    _column_blocks,
    _lifetime_laws,
    child_rng,
)

__all__ = [
    "ConditionedEstimate",
    "DiffusionScalingResult",
    "Estimate",
    "KSResult",
    "diffusion_scaling",
    "estimate_blackwell",
    "estimate_rate",
    "estimate_rm_cross",
    "estimate_variance_drift",
    "modulated_rate",
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
# cells of [0, h] and ages in the table of a window's conditional mean g(age): on Gamma(2,2)
# at t = 50, h = 1, 25 000 reps the table takes 6 ms (11 ms at 1000 ages) and its error
# bound is 4.7e-5 (3.9e-5), 1.5e-4 at 50 cells, against an se of 6.8e-4 (2-vCPU Xeon VM)
_WINDOW_CELLS = 100
_WINDOW_AGES = 500
_MIN_DRIFT_REPS = 200  # replications a variance-drift or diffusion-variance estimate needs
# Rounding bound of a computed mean, in units of roundoff of the size of its
# terms: the pairwise sum contributes about log2(reps) roundings and each term
# a few more from intermediates larger than itself (N and rate t before
# N - rate t).  The near-exact estimates of the tests sit 1-8 units off.
_ROUNDING_ULPS = 1024
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its 95% normal-approximation interval;
    ``flags`` name a hypothesis of its limit that the law violates.

    ``rounding`` bounds the floating-point error of ``value`` and
    ``quadrature`` the error of the numerical integrals behind it (0 for a
    plain mean).  ``floor`` is the least bar of a mean of counts on a
    lattice of step d over n paths, d sqrt(3) / n (``_count_floor``): the se
    that one value off the others at the rule-of-three bound 3/n would give,
    below which n equal counts have no power.  ``z_against`` divides by the
    largest of them and ``se``.  All three are derived and left out of
    equality, which compares the estimate itself.
    """

    value: float
    se: float
    flags: tuple[str, ...] = ()
    rounding: float = field(default=0.0, compare=False)
    quadrature: float = field(default=0.0, compare=False)
    floor: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not self.se >= 0:
            raise ValueError("standard error must be nonnegative")
        if not (self.rounding >= 0 and self.quadrature >= 0 and self.floor >= 0):
            raise ValueError("rounding, quadrature and floor bounds must be nonnegative")
        if math.isnan(self.value):
            raise ValueError("point estimate must not be NaN")

    @property
    def lo(self) -> float:
        return self.value - _Z95 * self.se

    @property
    def hi(self) -> float:
        return self.value + _Z95 * self.se

    def z_against(self, target: float) -> float:
        bar = max(self.se, self.rounding, self.quadrature, self.floor)
        if bar == 0:
            return 0.0 if self.value == target else math.inf
        return abs(self.value - target) / bar


@dataclass(frozen=True)
class ConditionedEstimate(Estimate):
    """An estimate averaged from conditional means given F_t, with
    ``sampler_check``, the plain mean of X - E[X | age] on the same paths for
    the X whose conditional mean was averaged (the residual R(t), or the
    window count): 0 by the tower property, and the check that sees the
    sampler."""

    sampler_check: Estimate = field(kw_only=True)


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
    wald_second_mean: Estimate
    wald_second_target: float | None  # None when E[T^4] is infinite


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
    """Fold one chunk of paths, streamed in time-major column blocks, into
    per-path summaries.

    Per query time t a path's count is the number of its gaps that start at
    or before t, its residual is the first event time after t minus t, and
    its age is t minus the last event at or before t (NaN on a delayed row
    whose delay exceeds t); both events are read from the block that holds
    the gap across t.  A clock (``processes._Clock``) is folded by
    :func:`_fold_clock`.
    """
    blocks = _column_blocks(spec, float(np.max(ts)), rows, child_rng(seed, chunk_index))
    start, clock = next(blocks), next(blocks)
    result = {"count": np.zeros((rows, ts.size)), "residual": start[:, None] - ts,
              "age": np.full((rows, ts.size), np.nan)}
    if isinstance(spec, Delayed):
        result["delay"] = start
    for active, last, times, _ in blocks:
        width = times.shape[0]
        for i, t in enumerate(ts):
            before = np.count_nonzero(times <= t, axis=0)
            open_ = last <= t
            result["count"][active, i] += np.minimum(before + open_, width)
            hit = np.flatnonzero(open_ & (before < width))
            at = before[hit]
            result["residual"][active[hit], i] = times[at, hit] - t
            result["age"][active[hit], i] = t - np.where(at > 0, times[at - 1, hit], last[hit])
        del times  # free the block before the next is drawn: two at once can cost fresh pages
    if clock is not None:
        _fold_clock(clock, ts, result)
    return result


def _fold_clock(clock, ts: np.ndarray, result: dict[str, np.ndarray]) -> None:
    """Fold the events of a clock (``processes._Clock``) into ``result`` at
    each t at or after a path's ``start``: its count at t is the q events
    less those after t, plus the event at ``start``; its residual is the
    first event after t (``over`` if none) minus t, and its age t minus the
    last event at or before t (``start`` if none).

    When the horizon is the only query time no event is after it: each path
    reads 1 + q, ``over`` - t and its top event, the (j + 1)-th largest
    point, from one take of m rows, with the bits of :func:`_events_around`.
    """
    paths = clock.active
    if paths.size == result["count"].shape[0]:  # every row: write through a view, not a gather and scatter
        paths = slice(None)
    if ts.size == 1 and ts[0] == clock.horizon:
        rows, n, t = _ClockRows(clock), clock.active.size, clock.horizon
        top = rows.points(rows.take(clock.m).take(clock.phase * n + np.arange(n)))
        result["count"][paths, 0] += 1 + clock.events
        result["residual"][paths, 0] = clock.over - t
        result["age"][paths, 0] = t - np.where(clock.events > 0, top, clock.start)
        return
    after, first, last = _events_around(clock, ts)
    t = ts[:, None]  # time-major: one row per query time
    count = 1 + clock.events - after
    residual, age = first - t, t - np.where(last > -np.inf, last, clock.start)
    on = clock.start <= t
    if not on.all():  # a t before a path's delay: it keeps count 0, its residual to the delay, age NaN
        count = np.where(on, count, 0)
        residual = np.where(on, residual, result["residual"][paths].T)
        age = np.where(on, age, result["age"][paths].T)
    result["count"][paths] += count.T
    result["residual"][paths] = residual.T
    result["age"][paths] = age.T


def _events_around(clock, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(after, first, last), one row per t: each path's number of events
    after t, the lowest of them (``over`` if none) and its highest event at
    or before t (-inf if none; +inf at a t before the path's ``start``, its
    delay, which the clock does not answer).

    A path takes rows of points only until it has an event at or before
    each t at or after its ``start``, or none left; the state of the paths
    still taking is kept compact, one column each.  A take's events, every
    m-th of its points, come top-down, so the ``up`` of them above t are
    its first, and the next one is the highest at or before t.
    """
    m, n = clock.m, clock.active.size
    inside = ts[:, None] < clock.start
    after = np.zeros((ts.size, n), dtype=np.intp)
    first = np.repeat(clock.over[None], ts.size, axis=0)
    last = np.where(inside, np.inf, -np.inf)
    # the first take holds the top event and the points a path has on average above
    # its lowest t at or after its start, and one standard deviation more; every take
    # draws its rows' uniforms for all the paths, so the few left after it take 2m
    # rows, then 4m, 8m, ...
    stop = np.where(inside, np.inf, ts[:, None]).min(axis=0)  # at most the horizon
    above = clock.rate * float(np.mean(clock.horizon - stop))
    rows, size, later, cols = _ClockRows(clock), m + math.ceil(above + math.sqrt(above)), 2 * m, None
    # cols None: every path, and the state is the full arrays
    state, depth, phase = (after, first, last), clock.depth, clock.phase
    while True:
        top = rows.drawn
        logs = rows.take(min(size, _BLOCK_COLS, max(int(depth.max()) - top, 1)), cols)
        (drawn, k), lead = logs.shape, phase - top % m  # the take's events: rows lead, lead + m, ...
        np.add(lead, m, out=lead, where=lead < 0)  # (P - top) mod m, with no integer division
        col = np.arange(k)
        if m > 1:  # the rows past them repeat the last row, no higher than the events
            logs = logs.take(np.minimum(lead + m * np.arange(-(-drawn // m))[:, None], drawn - 1) * k + col)
        events = rows.points(logs, cols)
        # up to depth: past it a row holds no event, or is padding below the lowest one
        held = np.maximum(np.minimum(depth - top, drawn) - lead + m - 1, 0) // m
        for (a, f, b), t in zip(zip(*state), ts):
            if t == clock.horizon:  # no point is above it: the highest at or before it is the top event
                np.maximum(b, np.where(held > 0, events[0], -np.inf), out=b)
                continue
            up = np.minimum(np.count_nonzero(events > t, axis=0), held)
            a += up
            at = np.maximum(up - 1, 0) * k + col
            np.minimum(f, np.where(up > 0, events.take(at), np.inf), out=f)
            at = np.minimum(up, events.shape[0] - 1) * k + col
            np.maximum(b, np.where(up < held, events.take(at), -np.inf), out=b)
        keep = (state[2] == -np.inf).any(axis=0) & (depth > rows.drawn)
        if cols is not None:  # the resolved paths' state goes back to the full arrays
            done = cols[~keep]
            for full, part in zip((after, first, last), state):
                full[:, done] = part[:, ~keep]
        if not keep.any():
            return after, first, last
        cols = np.flatnonzero(keep) if cols is None else cols[keep]
        state, depth, phase = tuple(v[:, keep] for v in state), depth[keep], phase[keep]
        size, later = later, 2 * later


def path_statistics(
    spec: ProcessSpec, ts: Sequence[float], reps: int, seed: int, threads: int = 1
) -> dict[str, np.ndarray]:
    """Counts, residuals and ages per path.

    Returns arrays of shape (reps, len(ts)) keyed ``count``/``residual``/``age``,
    plus ``delay`` for delayed specs.  Bit-reproducible from (spec, ts,
    reps, seed) for any thread count.
    """
    ts = np.asarray(ts, dtype=float)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not np.all(ts >= 0):  # NaN fails this too
        raise ValueError(f"query times must be nonnegative numbers, got {ts.tolist()}")
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


def _mean_estimate(x: np.ndarray, flags: tuple[str, ...] = (), size: float | None = None) -> Estimate:
    """Mean of ``x`` with the sample-standard-deviation bar; ``size``, the mean
    magnitude of the values each term is formed from (mean |x| by default),
    sets the rounding bound."""
    n = x.size
    se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    size = float(np.mean(np.abs(x))) if size is None else size
    return Estimate(value=float(np.mean(x)), se=se, flags=flags, rounding=_ROUNDING_ULPS * _EPS * size)


def _count_floor(spec: ProcessSpec, step: float, n: int) -> float:
    """The least bar of a mean of n counts on a lattice of ``step`` (Hanley &
    Lippman-Hand 1983, the rule of three): ``Estimate.floor``.  0 on a renewal
    spec whose every law is one point mass: its counts are not random, and
    their bar stays their rounding."""
    if isinstance(spec, (Plain, Delayed)):
        laws = [spec.lifetime] + ([spec.delay] if isinstance(spec, Delayed) else [])
        if all([mass for _, mass in law.atoms()] == [1.0] for law in laws):
            return 0.0
    return step * math.sqrt(3.0) / n


def _controlled_mean(y: np.ndarray, m: np.ndarray, flags: tuple[str, ...] = ()) -> Estimate:
    """Mean of ``y`` with ``m``, whose mean is known to be 0, as a control variate.

    The value is mean(y) - beta * mean(m) with the least-squares slope
    beta = sum (y - mean y)(m - mean m) / sum (m - mean m)^2, 0 when ``m``
    has no spread; the error bar is std(y - beta m, ddof=2) / sqrt(n), and
    the rounding bound is set by mean |y| + |beta| mean |m|.  Fewer than
    three paths leave no degree of freedom for beta: plain mean.
    """
    n = y.size
    if n < 3:
        return _mean_estimate(y, flags)
    beta = 0.0
    if m.max() != m.min():  # centring on a rounded mean leaves a constant m some spread
        mc = m - np.mean(m)
        beta = float(np.dot(y - np.mean(y), mc)) / float(np.dot(mc, mc))
    adjusted = y - beta * m
    se = float(np.std(adjusted, ddof=2) / math.sqrt(n))
    size = float(np.mean(np.abs(y))) + abs(beta) * float(np.mean(np.abs(m)))
    return Estimate(value=float(np.mean(adjusted)), se=se, flags=flags,
                    rounding=_ROUNDING_ULPS * _EPS * size)


def _elapsed_at(stats: dict[str, np.ndarray], t: float, col: int) -> np.ndarray:
    """t + R(t) - D per path: the sum of the gaps observed by t, delay excluded."""
    return t + stats["residual"][:, col] - stats.get("delay", 0.0)


def _noise_at(stats: dict[str, np.ndarray], rate: float, t: float, col: int) -> np.ndarray:
    """Noise value per path from the pathwise identity (no extra sampling)."""
    return stats["count"][:, col] - rate * _elapsed_at(stats, t, col)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _window_given_age(law: LifetimeDistribution, h: float, age: np.ndarray, u_times: np.ndarray,
                      u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, error) at each age: g(a) = E[U(h - R); R <= h | age a], read from one table.

    U, the renewal function on [0, h] with the event at 0 counted, is read
    at the midpoints of ``_WINDOW_CELLS`` cells of [0, h], each weighted by
    the cell's probability given the age, [tail(a + r_(j-1)) - tail(a + r_j)]
    / tail(a).  The table's ages, ``_WINDOW_AGES`` + 1 of them, are even in
    log(1 + a / E[T]) from 0 to the oldest age, so the table does not grow
    with it, and stop where the tail is 0; g is linear between them.  The
    table's error is twice the change from half as many cells (the midpoint
    rule's error is a third of that change where the integrand is smooth,
    and up to all of it where the gap ends inside a cell) plus the distance
    of each value from the line through its neighbours, the error of a
    table of half as many ages.
    """
    scale = law.moment(1)
    span = math.log1p(max(float(np.max(age, initial=0.0)), scale) / scale)
    ages = scale * np.expm1(np.linspace(0.0, span, _WINDOW_AGES + 1))
    r = np.linspace(0.0, h, _WINDOW_CELLS + 1)
    tails = law.tail(ages[:, None] + r)
    n = int(np.count_nonzero(tails[:, 0] > 0))  # a prefix: the tail does not increase
    ages, tails = ages[:n], tails[:n]
    cells = (tails[:, :-1] - tails[:, 1:]) / tails[:, :1]
    g = cells @ np.interp(h - (r[:-1] + r[1:]) / 2, u_times, u)
    coarse = (cells[:, ::2] + cells[:, 1::2]) @ np.interp(h - (r[:-2:2] + r[2::2]) / 2, u_times, u)
    lam = (ages[1:-1] - ages[:-2]) / (ages[2:] - ages[:-2])
    bend = np.abs(g[1:-1] - g[:-2] - lam * (g[2:] - g[:-2]))
    error = 2.0 * np.abs(g - coarse) + np.pad(bend, 1, mode="edge")
    # an age's place in the table is arithmetic; np.interp would search the table for
    # each unsorted age, about 2 ms per 25 000 ages
    place = np.clip(np.log1p(age / scale) * (_WINDOW_AGES / span), 0.0, n - 1)
    i = np.minimum(place.astype(int), n - 2)
    w = place - i
    return g[i] + w * (g[i + 1] - g[i]), error[i] + w * (error[i + 1] - error[i])


def estimate_blackwell(
    spec: ProcessSpec, t: float, h: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Mean number of events in (t, t+h]; tends to rate*h off the lattice case.

    On a plain or delayed spec whose lifetime law has no atom the window is
    conditioned on F_t (a ``ConditionedEstimate``): given the age a, the
    next event comes after R, distributed as T - a given T > a, and the
    count from it on has mean U(h - R), so E[N(t+h) - N(t) | F_t] = g(a) =
    E[U(h - R); R <= h | age a].  The estimate is the mean of g(age).  A
    delayed row whose delay D exceeds t has no age; its window is
    1{D <= t + h} U(t + h - D), known given D.  On an Erlang law
    (``renewal_solver.erlang_phases``) g and U are closed forms over the
    clock's points (``erlang_window_given_age``, ``erlang_mean_count``) and
    ``quadrature`` is their rounding, ``_ROUNDING`` times the mean of g: no
    solve and no table.  On other laws g is read from one table
    (``_window_given_age``) with U from ``renewal_function`` on [0, h], and
    ``quadrature`` is U's ``extrapolate`` error plus the mean over paths of
    the table's error.  ``sampler_check`` is the plain mean of the window
    minus g.  Other kinds, lattice processes and laws with atoms, whose
    atoms the cells and the age table would misplace, keep the plain mean.
    Every window estimate and its check carry the count floor of step 1.
    """
    if not (t > 0 and h > 0):
        raise ValueError("t and h must be positive")
    if reps < _MIN_WINDOW_REPS:
        raise ValueError(f"blackwell estimation needs at least {_MIN_WINDOW_REPS} replications")
    stats = path_statistics(spec, [t, t + h], reps, seed, threads=threads)
    window = stats["count"][:, 1] - stats["count"][:, 0]
    flags, floor = _arithmetic_flags(spec), _count_floor(spec, 1.0, reps)
    if flags or not isinstance(spec, (Plain, Delayed)) or spec.lifetime.atoms():
        return replace(_mean_estimate(window, flags), floor=floor)
    law = spec.lifetime
    phases = renewal_solver.erlang_phases(law)
    age = stats["age"][:, 0]
    aged = ~np.isnan(age)
    g, error = np.zeros(reps), np.zeros(reps)
    if phases is None:
        u_step = renewal_solver.fitted_step(h, [law])
        u, u_error = renewal_solver.renewal_function(law, h, u_step)
        u_times = u_step * np.arange(u.size)
        g[aged], error[aged] = _window_given_age(law, h, age[aged], u_times, u)
        renewal = partial(np.interp, xp=u_times, fp=u)
    else:
        g[aged] = renewal_solver.erlang_window_given_age(phases, h, age[aged])
        renewal = partial(renewal_solver.erlang_mean_count, phases)
    if not aged.all():  # U(t + h - D) where D <= t + h, else 0
        rest = t + h - stats["delay"][~aged]
        g[np.flatnonzero(~aged)[rest >= 0]] = renewal(rest[rest >= 0])
    if phases is None:
        quadrature = u_error + float(np.mean(error))
    else:
        quadrature = renewal_solver._ROUNDING * float(np.mean(g))
    est = replace(_mean_estimate(g), quadrature=quadrature, floor=floor)
    check = _mean_estimate(window - g, size=float(np.mean(window)) + float(np.mean(g)))
    return ConditionedEstimate(**vars(est), sampler_check=replace(check, quadrature=quadrature, floor=floor))


def estimate_rate(
    spec: ProcessSpec, t: float, reps: int, seed: int = 0, threads: int = 1
) -> Estimate:
    """Mean of N(t)/t; tends to the long-run rate for every law, lattice or not.

    For plain and delayed specs the noise M(t)/t is the control variate
    (``_controlled_mean``): E[M(t)] = 0 at every t by Wald's identity, and
    N(t) - M(t) = rate (t + R(t) - D) leaves only the spread of R(t) - D in
    the error bar.  Modulated and MA specs have E[M(t)] != 0 at finite t and keep
    the plain mean with its sample-standard-deviation error bar.  Either carries
    the count floor of step 1/t.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    y = stats["count"][:, 0] / t
    if not isinstance(spec, (Plain, Delayed)):
        est = _mean_estimate(y)
    else:
        est = _controlled_mean(y, _noise_at(stats, spec.lifetime.renewal_rate, t, 0) / t)
    return replace(est, floor=_count_floor(spec, 1.0 / t, reps))


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


def _given_age(spec: Plain, t: float, reps: int, seed: int, threads: int):
    """Per-path conditional means given F_t, from one simulation to t.

    Returns (r1, r2, m, y, check): r_k = E[R(t)^k | age], evaluated in
    ``_CHUNK_ROWS`` slices so that the law's temporaries stay small;
    m = E[M(t) | F_t] = N - rate (t + r1), of mean 0; y = E[R(t) M(t) | F_t]
    = r1 (N - rate t) - rate r2; and check, the plain mean of R(t) - r1.
    """
    law = spec.lifetime
    if math.isinf(law.moment(2)):
        raise ValueError("conditioning on the age needs a finite second moment")
    rate = law.renewal_rate
    stats = path_statistics(spec, [t], reps, seed, threads=threads)
    age, r = stats["age"][:, 0], stats["residual"][:, 0]
    r1, r2 = np.empty_like(age), np.empty_like(age)
    for lo in range(0, age.size, _CHUNK_ROWS):
        part = slice(lo, lo + _CHUNK_ROWS)
        r1[part], r2[part] = law.residual_moments(age[part])
    # R = S_N - t and the age t - S_{N-1} are differences of event times near
    # t: the rounding of R - r1 scales with t, not with R - r1
    check = _mean_estimate(r - r1, size=t + float(np.mean(r)) + float(np.mean(r1)))
    n = stats["count"][:, 0] - rate * t
    m = n - rate * r1
    y = np.multiply(n, r1, out=n)  # in place: n is not needed again
    y -= rate * r2
    return r1, r2, m, y, check


def estimate_variance_drift(
    spec: Plain, t: float, reps: int, seed: int = 0, threads: int = 1
) -> ConditionedEstimate:
    """Monte Carlo estimate of var N(t) - rate^3 * var T * t for a plain renewal spec.

    Uses the exact finite-t split
        var N(t) - rate^3 var T t
            = rate^2 var R(t) + 2 rate E[R M](t) + rate^3 var T E[R(t)],
    which follows from the pathwise decomposition and the second-moment
    identity for the noise term; estimating the right-hand side needs only
    the O(1)-sized path summaries.  Each residual term is replaced by its
    conditional mean given F_t (r1, r2 = E[R, R^2 | age] and y = E[R M | F_t],
    see ``estimate_rm_cross``), which keeps the right-hand side and removes
    the residual's own noise: the delta-method influence of each path is
        psi = rate^2 (r2 - 2 mean(r1) r1) + 2 rate y + rate^3 var T r1,
    and the value is the mean of psi with m = E[M | F_t] as its control
    (``_controlled_mean``) plus (rate mean(r1))^2.  ``sampler_check``, the
    plain mean of R - r1, checks the sampler.
    """
    if not isinstance(spec, Plain):
        raise TypeError("variance drift is defined for plain renewal specs")
    if reps < _MIN_DRIFT_REPS:
        raise ValueError(f"variance drift estimation needs at least {_MIN_DRIFT_REPS} replications")
    sigma2 = spec.lifetime.variance
    if math.isinf(sigma2):
        raise ValueError("variance drift needs a finite second moment")
    rate = spec.lifetime.renewal_rate
    r1, psi, m, y, check = _given_age(spec, t, reps, seed, threads)
    r1_bar = float(np.mean(r1))
    # psi = rate^2 r2 + rate (rate^2 var T - 2 rate mean(r1)) r1 + 2 rate y, built in
    # place in r2's array; its mean is the plug-in drift less (rate mean(r1))^2
    psi *= rate**2
    psi += (rate**3 * sigma2 - 2.0 * rate**2 * r1_bar) * r1
    psi += 2.0 * rate * y
    est = _controlled_mean(psi, m, _arithmetic_flags(spec))
    return ConditionedEstimate(**vars(replace(est, value=est.value + (rate * r1_bar) ** 2)),
                               sampler_check=check)


def variance_drift_ratios(
    spec: Plain, ts: Sequence[float], reps: int, seed: int = 0, threads: int = 1
) -> list[tuple[float, ConditionedEstimate, float]]:
    """(t, drift estimate, |drift| / (t * sqrt(quadratic excess at t))) per t,
    the estimate at the i-th t drawn with seed + i.

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
) -> ConditionedEstimate:
    """Mean of R(t) * M(t) for a plain renewal spec, conditioned on the age.

    Given F_t only R(t) is unknown, so E[R M | F_t] = r1 (N - rate t) -
    rate r2 with r_k = E[R^k | age]: its mean is E[R M], with m = E[M | F_t]
    = N - rate (t + r1), of mean 0, as the control and the error bar of
    ``_controlled_mean``.  On an Exponential law y - m/rate is constant and
    the estimate exact; ``sampler_check``, the plain mean of R - E[R | age],
    checks the sampler.  Needs a
    finite E[T^2], without which E[R^2 | age] is infinite.
    """
    if not isinstance(spec, Plain):
        raise TypeError("the residual/noise cross moment is defined for plain renewal specs")
    _, _, m, y, check = _given_age(spec, t, reps, seed, threads)
    return ConditionedEstimate(**vars(_controlled_mean(y, m, _arithmetic_flags(spec))),
                               sampler_check=check)


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

    The variance is the sample variance of the scaled count, the mean of
    psi = (X - mean X)^2 reps/(reps - 1).  Wald's second identity,
    E[M(nt)^2] = rate^2 var T E[N(nt)], makes C = (M(nt)^2 - rate^2 var T
    N(nt))/n a mean-0 control for psi (``_controlled_mean``), which removes
    the noise's share of the spread.  psi and C move together when the
    sampler's variance is wrong, so the controlled variance cannot see that
    fault: ``wald_second_mean``, the plain mean of C against its target 0,
    checks it.  var C is infinite when E[T^4] is: such a law keeps the plain
    bar on the variance and has no ``wald_second_target``.
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
    finite_m4 = not math.isinf(spec.lifetime.excess_moment(4, 0.0))
    stats = path_statistics(spec, [horizon], reps, seed, threads=threads)
    scaled = (stats["count"][:, 0] - rate * horizon) / math.sqrt(n)
    scaled_resid = rate * stats["residual"][:, 0] / math.sqrt(n)
    m = _noise_at(stats, rate, horizon, 0)
    wald_second = (m * m - rate**2 * sigma2 * stats["count"][:, 0]) / n
    psi = (scaled - np.mean(scaled)) ** 2 * (reps / (reps - 1))

    return DiffusionScalingResult(
        variance=_controlled_mean(psi, wald_second) if finite_m4 else _mean_estimate(psi),
        variance_target=rate**3 * sigma2 * t,
        scaled_count_mean=_mean_estimate(scaled),
        scaled_residual_mean=_mean_estimate(scaled_resid),
        residual_mean_bound=rate**2 * m2 / math.sqrt(n),
        scaled_noise_mean=_mean_estimate(scaled - scaled_resid),
        wald_second_mean=_mean_estimate(wald_second),
        wald_second_target=0.0 if finite_m4 else None,
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
