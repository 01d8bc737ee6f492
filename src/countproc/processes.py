"""Sample-path simulation of renewal-type counting processes.

Four kinds of process are supported: plain renewal (an event at time 0,
i.i.d. inter-arrivals), delayed renewal (first event at a positive delay,
optionally drawn from the stationary-excess law), modulated (the law of
each inter-arrival chosen by a background chain advanced at events), and
a stationary moving-average construction whose inter-arrivals form an
(m-1)-dependent stationary sequence with a point at the origin.

A simulated path stores every event up to the horizon plus one overshoot
event, so counts and residual times are defined everywhere on [0, horizon].
A block of paths holds one path per row, padded with +inf after its
overshoot event, and every query answers per row.  A modulated or
moving-average path is a marked point process: a mark per event holds
what is known at that event of the gap after it.

Every path comes from one sampler that draws inter-arrivals in column
blocks; later blocks go only to rows not yet past the horizon.  A column
block is time-major, one row per event index and one column per path, so
its draws fill it event index by event index across paths and its event
times accumulate as contiguous row adds.  :func:`simulate_paths`
transposes the blocks into its path-major rows, :func:`simulate_path` is
its one-row case, and :func:`countproc.asymptotics.path_statistics` folds
the same blocks into per-path summaries.  The event cap counts the
gaps drawn (or counted on a clock, the overshoot's included) for a path
still at or before the horizon.  Simulation is a pure function of (spec,
horizon, rows, seed); seeds should be derived with :func:`child_rng`.

A plain or delayed path whose lifetime law is Erlang(m, r)
(``poisson_phases``: Exponential, or Gamma of a whole-number shape) does
not walk when m is no more than the gaps the walk would draw before its
stragglers, nor than ``_ERLANG_MAX_SHAPE``.  Its gaps are m phases of one
Poisson clock of rate r, and every m-th point counted from the bottom is
an event (see :class:`_Clock`).  After the starts the stream draws a seed
for the points, then the Poisson count P of each path's points between
its start and the horizon: one uniform per path, inverted through a
cached Poisson table, when every path has one start (a plain spec or a
constant delay), else ``rng.poisson``; then m uniforms per path, whose
product makes the overshoot event past the horizon.  Given P the points
are uniform order statistics, drawn top-down from the generator of the
seed; a consumer draws only the top rows it needs, and every prefix has
the same bits: :func:`simulate_paths` draws them all, the Monte Carlo fold
only down to the first event at or before its lowest query time.  Every
other law walks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import IO, Iterator, Literal, Mapping, Sequence, Union, get_args

import numpy as np

from .lifetimes import (
    _ERLANG_MAX_SHAPE, _SLAB, Deterministic, EquilibriumOf, Exponential, LifetimeDistribution, _decode, _draw_each, _pick,
    _probabilities, _Wire,
)

__all__ = [
    "Delayed",
    "EventCapExceeded",
    "Modulated",
    "Plain",
    "ProcessSpec",
    "SamplePath",
    "StationaryMA",
    "child_rng",
    "count",
    "path_from_interarrivals",
    "paths_per_chunk",
    "residual",
    "simulate_path",
    "simulate_paths",
    "spec_from_json",
    "write_events_ndjson",
]

DEFAULT_EVENT_CAP = 10**8  # the one event cap, read by the sampler on every call


class EventCapExceeded(RuntimeError):
    """Raised when a single path would exceed the configured event budget."""


def child_rng(root_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-replication generator derived from a root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plain(_Wire):
    """Non-delayed renewal process: event at 0, i.i.d. inter-arrivals."""

    kind = "plain"
    lifetime: LifetimeDistribution


@dataclass(frozen=True)
class Delayed(_Wire):
    """Renewal process whose first event happens at a positive delay.

    ``delay`` is either an explicit lifetime law or the string
    ``"equilibrium"``, which draws the delay from the stationary-excess law
    of ``lifetime`` and makes the count increments stationary.  The string
    is stored as ``EquilibriumOf(lifetime)``, so both spellings of that
    delay give one spec, written back as ``"equilibrium"``.
    """

    kind = "delayed"
    delay: Union[LifetimeDistribution, Literal["equilibrium"]]
    lifetime: LifetimeDistribution

    def __post_init__(self):
        if isinstance(self.delay, str):
            if self.delay != "equilibrium":
                raise ValueError(f"delay must be a distribution or 'equilibrium', got {self.delay!r}")
            object.__setattr__(self, "delay", EquilibriumOf(self.lifetime))  # needs E[T^2] < inf

    @property
    def stationary(self) -> bool:
        """Whether the delay is the stationary-excess law of the lifetime."""
        return isinstance(self.delay, EquilibriumOf) and self.delay.base == self.lifetime

    def to_json(self):
        out = super().to_json()
        if self.stationary:
            out["delay"] = "equilibrium"
        return out


@dataclass(frozen=True)
class Modulated(_Wire):
    """Inter-arrival law selected by a background chain advanced at events.

    The chain moves by ``kernel`` at every event; the state entered at an
    event governs the next inter-arrival.  ``initial`` is a state label, a
    mapping state -> probability, or None for the uniform law over states.
    """

    kind = "modulated"
    states: tuple[str, ...]
    kernel: tuple[tuple[float, ...], ...]
    lifetimes: Mapping[str, LifetimeDistribution]
    initial: Union[str, Mapping[str, float], None] = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "kernel", tuple(
            _probabilities(row, f"kernel row {i}") for i, row in enumerate(self.kernel)))
        if not self.states:
            raise ValueError("modulated spec needs a nonempty state list")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")
        if len(self.kernel) != len(self.states) or any(len(r) != len(self.states) for r in self.kernel):
            raise ValueError("kernel must be square over the state list")
        missing = set(self.states) - set(self.lifetimes)
        if missing:
            raise ValueError(f"lifetimes missing for states {sorted(missing)}")
        object.__setattr__(self, "lifetimes", {s: self.lifetimes[s] for s in self.states})
        if isinstance(self.initial, str) and self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in state list")
        if isinstance(self.initial, Mapping):
            bad = set(self.initial) - set(self.states)
            if bad:
                raise ValueError(f"initial law mentions unknown states {sorted(bad)}")
            _probabilities(self.initial.values(), "initial law")

    def initial_law(self) -> np.ndarray:
        n = len(self.states)
        if self.initial is None:
            return np.full(n, 1.0 / n)
        if isinstance(self.initial, str):
            law = np.zeros(n)
            law[self.states.index(self.initial)] = 1.0
            return law
        return np.array([float(self.initial.get(s, 0.0)) for s in self.states])

    def kernel_matrix(self) -> np.ndarray:
        return np.array(self.kernel, dtype=float)


@dataclass(frozen=True)
class StationaryMA(_Wire):
    """Inter-arrivals T_n = (U_n + ... + U_{n+m-1}) / m with i.i.d. base draws.

    A pre-roll of m-1 base draws makes T_1 already follow the stationary
    law, so the sequence is stationary, ergodic and (m-1)-dependent as seen
    from the event at the origin.
    """

    kind = "stationary_ma"
    order: int
    base: LifetimeDistribution

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValueError("order must be an integer >= 1")


ProcessSpec = Union[Plain, Delayed, Modulated, StationaryMA]

_SPECS = {cls.kind: cls for cls in get_args(ProcessSpec)}


def spec_from_json(obj: Mapping) -> ProcessSpec:
    """Parse the ``{"kind": ..., fields...}`` wire format of a process spec."""
    return _decode(_SPECS, "process", obj)


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePath:
    """Ordered event times on [0, horizon] plus one overshoot event.

    ``events`` is 1-d, or rows x events for a block of paths with each row
    padded by +inf after its overshoot event; a row starts at 0, or at the
    delay on a delayed path.  ``marks``, in the layout of ``events``, holds
    per event the index in ``spec.states`` of the state entered (modulated)
    or the sum of the m-1 revealed base draws that enter the next
    inter-arrival (moving average); it is None for other specs.
    """

    horizon: float
    events: np.ndarray
    spec: ProcessSpec
    marks: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", ev)
        if ev.ndim not in (1, 2) or ev.shape[-1] < 1:
            raise ValueError("events must be a nonempty 1-d or 2-d array")
        if not ((ev[..., 1:] > ev[..., :-1]) | (ev[..., 1:] == np.inf)).all():
            raise ValueError("event times must be strictly increasing")
        if not ((ev > self.horizon) & (ev < np.inf)).any(axis=-1).all():
            raise ValueError("the last stored event must exceed the horizon")
        if self.delayed:
            if (ev[..., 0] <= 0).any():
                raise ValueError("a delayed path must start with a positive delay")
        elif (ev[..., 0] != 0.0).any():
            raise ValueError("a non-delayed path must have an event at time 0")

    def __getitem__(self, index) -> SamplePath:
        """Row ``index`` as a 1-d path ending at its overshoot event, or a row slice as a block."""
        ev = self.events[index]
        keep = slice(None) if ev.ndim == 2 else slice(np.searchsorted(ev, self.horizon, "right") + 1)
        marks = None if self.marks is None else self.marks[index][..., keep]
        return SamplePath(self.horizon, ev[..., keep], self.spec, marks)

    @property
    def delayed(self) -> bool:
        """Whether the spec is :class:`Delayed`, so that a row starts at its delay."""
        return isinstance(self.spec, Delayed)

    @property
    def interarrivals(self) -> np.ndarray:
        """Genuine inter-arrival times (the delay excluded); +inf past a row's overshoot."""
        ev = self.events
        return np.subtract(ev[..., 1:], ev[..., :-1], where=ev[..., :-1] < np.inf,
                           out=np.full(ev[..., 1:].shape, np.inf))

    @property
    def delay(self):
        return _answer(self.events[..., 0], self.events.shape[:-1]) if self.delayed else 0.0


def _take(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row i of ``n`` picks entries of row i of ``x``: every per-row gather."""
    return np.take_along_axis(np.atleast_2d(x), n, axis=1)


def _lookup(path: SamplePath, t):
    """(t as a 1-d array, N(t) per row as rows x times, the answer's shape:
    t's, or (rows,) + t's for a block) after checking that t lies in
    [0, horizon]: one search per row behind every pathwise query."""
    ts = np.asarray(t, dtype=float).ravel()
    if not np.all((ts >= 0) & (ts <= path.horizon)):  # NaN fails this too
        raise ValueError("query times must lie in [0, horizon]")
    n = np.array([np.searchsorted(row, ts, side="right") for row in np.atleast_2d(path.events)])
    return ts, n, path.events.shape[:-1] + np.shape(t)


def _answer(x: np.ndarray, shape: tuple):
    """A rows x times result in the shape :func:`_lookup` gave; a Python scalar for shape ()."""
    out = x.reshape(shape)
    return out.item() if shape == () else out


def count(path: SamplePath, t):
    """N(t): number of events in [0, t]; right-continuous, N(0)=1 when non-delayed."""
    _, n, shape = _lookup(path, t)
    return _answer(n, shape)


def residual(path: SamplePath, t):
    """R(t) = S_{N(t)} - t: time from t to the first event strictly after t."""
    ts, n, shape = _lookup(path, t)
    return _answer(_take(path.events, n) - ts, shape)


def path_from_interarrivals(interarrivals: Sequence[float], horizon: float) -> SamplePath:
    """A plain Exponential(1) path with the given inter-arrival times (testing helper)."""
    return SamplePath(horizon, np.concatenate([[0.0], np.cumsum(interarrivals)]), Plain(Exponential(1.0)))


# ---------------------------------------------------------------------------
# Simulation: the column-block sampler
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1 << 14
_BLOCK_COLS = 256  # widest block: a chunk holds at most _CHUNK_ROWS x _BLOCK_COLS draws
_ROW_ADD_PATHS = 384  # blocks of this many paths or more accumulate by row adds


def _lifetime_laws(spec: ProcessSpec) -> list[LifetimeDistribution]:
    if isinstance(spec, (Plain, Delayed)):
        return [spec.lifetime]
    if isinstance(spec, Modulated):
        return [spec.lifetimes[s] for s in spec.states]
    return [spec.base]


def _block_widths(spec: ProcessSpec, tmax: float) -> tuple[int, Iterator[int]]:
    """(cover, widths): the column widths of a chunk's successive blocks,
    unless a clock (:class:`_Clock`) holds the events, which depend only on
    (spec, tmax), and their sum before the stragglers.

    Blocks of at most ``_BLOCK_COLS`` columns cover the mean event count up
    to ``tmax`` plus one standard deviation; blocks of about one standard
    deviation follow for the rows still at or before ``tmax``.  The mean
    gap is taken as the average over the spec's lifetime laws, exact for a
    modulated chain whose stationary law is uniform.  Raises
    :class:`EventCapExceeded`, before anything is drawn, when the mean
    count alone is over ``DEFAULT_EVENT_CAP``.
    """
    laws = _lifetime_laws(spec)
    mean = sum(d.moment(1) for d in laws) / len(laws)
    var = max(d.variance for d in laws)
    events = tmax / mean
    if events > DEFAULT_EVENT_CAP:
        raise EventCapExceeded(
            f"a path would need about {events:.3g} events, over the event cap of {DEFAULT_EVENT_CAP}"
        )
    sd = events**0.75 if math.isinf(var) else math.sqrt(var * events) / mean
    cover = int(events + sd) + 1
    full, rest = divmod(cover, _BLOCK_COLS)
    return cover, itertools.chain(
        itertools.repeat(_BLOCK_COLS, full), [rest] if rest else [],
        itertools.repeat(min(_BLOCK_COLS, max(16, int(sd)))),
    )


def _initial_carry(spec: ProcessSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Per-path sampler state before the first block, one column per path:
    the moving-average pre-roll, the modulated chain's initial state, or
    nothing."""
    if isinstance(spec, StationaryMA):
        return spec.base.draw(rng, (spec.order - 1, rows))
    if isinstance(spec, Modulated):
        return _pick(np.cumsum(spec.initial_law()), rng.random(rows))
    return np.empty((0, rows))


def _draw_block(spec: ProcessSpec, rng: np.random.Generator, carry: np.ndarray, width: int):
    """(gaps, carry, marks): ``width`` inter-arrivals for each path of ``carry``,
    time-major: row c holds every path's gap c, and the draws fill the
    block event index by event index across paths.

    ``marks`` has one row per gap plus one for the gap after the block:
    the state that governs it (modulated), the sum of the m-1 base draws
    it shares with the gap before (moving average), or None.
    """
    n = carry.shape[-1]
    if isinstance(spec, (Plain, Delayed)):
        return spec.lifetime.draw(rng, (width, n)), carry, None
    if isinstance(spec, StationaryMA):
        u = np.concatenate([carry, spec.base.draw(rng, (width, n))])
        gaps = np.lib.stride_tricks.sliding_window_view(u, spec.order, axis=0).mean(axis=2)
        marks = np.lib.stride_tricks.sliding_window_view(u, spec.order - 1, axis=0).sum(axis=2)
        return gaps, u[width:], marks
    # a semi-Markov chain needs only its state path sequentially: walk it
    # one event row at a time, then draw each state's gaps for the whole block
    kernel_cum = np.cumsum(spec.kernel_matrix(), axis=1)
    u = rng.random((width, n))
    states = np.empty((width + 1, n), dtype=np.intp)
    for c in range(width):
        states[c] = carry
        carry = np.minimum((u[c, :, None] >= kernel_cum[carry]).sum(axis=1), len(spec.states) - 1)
    states[width] = carry
    return _draw_each(_lifetime_laws(spec), states[:width], rng), carry, states


def _accumulate(times: np.ndarray) -> None:
    """Running sums down the rows of a time-major block, in place: one
    contiguous row add per event index when the block has at least
    ``_ROW_ADD_PATHS`` paths, else one ``cumsum``, which pays no per-call
    cost on a block of few paths.  Both add each path's gaps left to right,
    so they give the bits of a row-wise ``cumsum``."""
    if times.shape[1] >= _ROW_ADD_PATHS:
        for c in range(1, times.shape[0]):
            np.add(times[c - 1], times[c], out=times[c])
    else:
        np.cumsum(times, axis=0, out=times)


@lru_cache(maxsize=4)
def _poisson_table(mean: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, cdf, guide) of Poisson(``mean``) on lo, ..., lo + cdf.size - 1,
    the counts within 12 sqrt(mean) + 40 of the mean, whose mass outside
    is below 1e-30: O(sqrt(mean)) entries, built on first use.

    The log pmf is summed from the mode by the ratios p(k) / p(k - 1) =
    mean / k, then exponentiated and normalised, so ``cdf[-1]`` is 1.
    ``guide`` (Devroye 1986, sec. III.2.4) has a power-of-two count of
    slots, at least 4 per entry, so that u times it is exact.  Slot s
    holds the first index whose cdf exceeds s / slots, which is the
    inverse of every u in the slot unless a cdf value lies in it too;
    such a slot holds the index complemented (``~``), negative.
    """
    span = 12.0 * math.sqrt(mean) + 40.0 if mean > 0 else 0.0
    lo, hi = max(0, math.floor(mean - span)), math.ceil(mean + span)
    # in place, so that a table of 10^4 entries adds little beyond itself to the peak memory
    step = np.arange(lo + 1, hi + 1, dtype=float)  # k, then log p(k) - log p(k - 1)
    np.log1p(np.divide(mean - step, step, out=step), out=step)
    mode = int(mean) - lo
    cdf = np.zeros(hi - lo + 1)  # log p(k) - log p(mode), then p(k), then the cdf
    np.cumsum(step[mode:], out=cdf[mode + 1 :])
    cdf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    del step
    np.cumsum(np.exp(cdf, out=cdf), out=cdf)
    cdf /= cdf[-1]
    slots = 1 << (4 * cdf.size - 1).bit_length()
    ends = np.ceil(cdf * slots).astype(np.intp)  # cdf[i] <= s / slots exactly when ends[i] <= s
    # slot s holds the count of ends at or below s, built run by run with no slot-sized scratch
    guide = np.repeat(np.arange(cdf.size + 1, dtype=np.int32), np.diff(ends, prepend=0, append=slots + 1))[:-1]
    guide[ends - 1] = ~guide[ends - 1]  # slot ends[i] - 1 holds cdf[i]
    cdf.setflags(write=False)  # the cache hands these arrays to every caller
    guide.setflags(write=False)
    return lo, cdf, guide


def _poisson_counts(mean: float, u: np.ndarray) -> np.ndarray:
    """Poisson(``mean``) counts, one per uniform of ``u``: lo plus
    ``np.searchsorted(cdf, u, "right")`` on the table of
    :func:`_poisson_table`, read off the guide slot of each u, and searched
    for only where the slot holds a cdf value: at most a quarter of the
    slots, and about 5% of the u at means from 50 to 2e5."""
    lo, cdf, guide = _poisson_table(mean)
    i = guide[(u * guide.size).astype(np.intp)].astype(np.intp)
    mixed = np.flatnonzero(i < 0)
    i[mixed] = np.searchsorted(cdf, u[mixed], "right")
    i += lo
    return i


@dataclass(frozen=True)
class _Clock:
    """The events after ``start`` up to ``horizon`` of the paths ``active``,
    whose lifetime law is Erlang(m, ``rate``): m phases of one Poisson clock
    of rate ``rate``, so every m-th point of the clock after ``start`` is an
    event.

    ``phases``, P ~ Poisson(rate (horizon - start)), counts the points in
    (start, horizon]; with q, j = divmod(P, m) the path has q events there,
    the last of them the (j + 1)-th largest point (``start`` itself when q =
    0), and by memorylessness its next event, ``over``, is horizon +
    Gamma(m - j, rate).  Given P the points are uniform order statistics
    (Cinlar 1975, ch. 4), which :class:`_ClockRows` draws top-down from a
    generator of its own, seeded by ``seed``; the sampler's stream is the
    same however many of them a consumer draws.  That stream holds, in
    order: ``seed``; one uniform per path for P (or ``rng.poisson``, see
    :meth:`draw`); m uniforms per path for ``over``.
    """

    m: int
    rate: float
    horizon: float
    seed: int
    active: np.ndarray
    start: np.ndarray
    phases: np.ndarray
    over: np.ndarray

    @classmethod
    def draw(cls, phases: tuple[int, float], horizon: float, active: np.ndarray, start: np.ndarray,
             rng: np.random.Generator, shared: bool) -> _Clock:
        """The clock of Erlang ``phases`` (m, rate) from ``start`` to
        ``horizon`` of the paths ``active``: one seed, then the Poisson
        counts and the overshoots, from the sampler's stream.  When the
        paths are ``shared``, all of one start and so of one mean, each
        takes its count from one uniform (:func:`_poisson_counts`); else
        from ``rng.poisson``.  Each overshoot Gamma(m - j, rate) is -log of
        the product of the first m - j rows of one (m, paths) block of
        uniforms, over ``rate``.  Raises :class:`EventCapExceeded` when a
        path's q events and its overshoot are more than
        ``DEFAULT_EVENT_CAP`` gaps, the walk's count."""
        m, rate = phases
        seed = int(rng.integers(2**63))
        if shared:
            count = _poisson_counts(rate * (horizon - float(start[0])), rng.random(start.size))
        else:
            count = rng.poisson(rate * (horizon - start))
        if count.max() // m + 1 > DEFAULT_EVENT_CAP:
            raise EventCapExceeded(f"a path needs over {DEFAULT_EVENT_CAP} events, the event cap")
        # the block's rows, drawn one at a time: row i is a factor 1 - U, on (0, 1] so
        # that none is 0 (4 cannot underflow), of the paths with m - j > i, and 1 of the others
        over = 1.0 - rng.random(start.size)
        if m > 1:
            j = count % m
            for i in range(1, m):
                u = rng.random(start.size)
                u *= j < m - i
                over *= np.subtract(1.0, u, out=u)
        np.log(over, out=over)
        over /= -rate
        over += horizon
        np.maximum(over, np.nextafter(horizon, np.inf), out=over)  # past the horizon, though a gap rounds off
        return cls(m, rate, horizon, seed, active, start, count, over)

    @cached_property
    def events(self) -> np.ndarray:
        """q, each path's event count in (start, horizon]."""
        return self.phases // self.m

    @cached_property
    def depth(self) -> np.ndarray:
        """The row of :class:`_ClockRows` that holds each path's lowest
        event, P - m + 1 (0 without one)."""
        return np.maximum(self.phases - self.m + 1, 0)

    def blocks(self):
        """The events as one ``(active, last, times, None)`` block of
        :func:`_column_blocks`: each path's q events ascending, then its
        ``over`` in every row after them."""
        rows, n = _ClockRows(self), self.active.size
        s = np.arange(int(self.events.max()) + 1)[:, None]  # the s-th event from the bottom
        logs = rows.take(max(int(self.depth.max()), 1))  # holds it at row depth - 1 - s m, from 0
        at = (self.depth - 1) * n + np.arange(n) - s * (self.m * n)
        times = rows.points(logs.take(at, mode="clip"))  # past the q events: any row, replaced
        yield self.active, self.start, np.where(s < self.events, times, self.over), None


class _ClockRows:
    """A clock's points, drawn top-down on demand.

    Row i (from 1) holds each path's i-th largest point: row i - 1 times
    U^(1/(P - i + 1)) in the scale of (start, horizon], taken as a running
    sum of logs; past P a row is padding below the lowest point.  Its
    events are the rows depth, depth - m, ..., j + 1.  Every row draws its
    uniforms across all the clock's paths, so the bits of a point do not
    depend on how the rows are split into takes, nor on which paths a take
    computes.
    """

    def __init__(self, clock: _Clock):
        self.clock = clock
        self.rng = np.random.default_rng(clock.seed)
        self.log_top = np.zeros(clock.active.size)
        self.drawn = 0

    def take(self, size: int, cols: np.ndarray | None = None) -> np.ndarray:
        """The logs of the next ``size`` rows at the paths ``cols`` (all for
        None), time-major, as shares of (start, horizon]; a path left out of
        a take is left out of every later one."""
        c, cols = self.clock, slice(None) if cols is None else cols
        x = self.rng.random((size, c.active.size))[:, cols]
        np.subtract(1.0, x, out=x)  # on (0, 1]: no log of 0
        np.log(x, out=x)
        left = c.phases[cols] - float(self.drawn)  # P - i + 1 at the take's first row i
        step = max(1, _SLAB // x.shape[1])  # rows of divisors at a time, a _SLAB of values
        for lo in range(0, size, step):
            d = left - np.arange(lo, min(lo + step, size), dtype=float)[:, None]
            x[lo : lo + step] /= np.maximum(d, 1.0, out=d)  # past P a row is padding
        x[0] += self.log_top[cols]
        _accumulate(x)
        self.log_top[cols] = x[-1]
        self.drawn += size
        return x

    def points(self, logs: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """The points of the paths ``cols`` (all for None) whose logs
        :meth:`take` gave, in place."""
        c, cols = self.clock, slice(None) if cols is None else cols
        np.exp(logs, out=logs)
        logs *= c.horizon - c.start[cols]
        logs += c.start[cols]
        return np.minimum(logs, c.horizon, out=logs)  # rounding must not lift a point past the horizon


def _column_blocks(spec, tmax, rows, rng):
    """The one sampler behind every simulated path.

    Yields first ``start``: each path's start (its delay, or 0).  Then the
    :class:`_Clock` of the paths at or before ``tmax``, which holds all
    their events, when the lifetime law of a plain or delayed spec has
    ``poisson_phases`` (m, r) and m is at most both the ``cover`` of
    :func:`_block_widths` and ``_ERLANG_MAX_SHAPE``, or None.  Then,
    without a clock, per block ``(active, last, times, marks)`` for the
    paths ``active`` still at or before ``tmax``: their last event time
    before the block, the block's event times accumulated from it,
    time-major (one row per event index, one column per active path), and
    the marks of :func:`_draw_block`.  The stream draws the starts, then,
    for a clock, one seed for its points, the Poisson counts and the
    overshoots, else the blocks.  Raises
    :class:`EventCapExceeded` when a still-active path has drawn (or
    counted on its clock) more than ``DEFAULT_EVENT_CAP`` gaps.
    """
    cover, widths = _block_widths(spec, tmax)
    if isinstance(spec, Delayed):
        start = np.asarray(spec.delay.draw(rng, rows), float)
    else:
        start = np.zeros(rows)
    yield start
    active = np.flatnonzero(start <= tmax)
    last, carry = start[active], _initial_carry(spec, rng, rows)[..., active]
    # a clock's top event takes m rows of points, no more than the walk's blocks before the
    # stragglers; drawn in full, it takes m points an event, about the m uniforms a gap of the
    # walk's Erlang fill, where a larger shape draws one gamma variate a gap
    phases = spec.lifetime.poisson_phases() if isinstance(spec, (Plain, Delayed)) else None
    if phases is not None and phases[0] <= min(cover, _ERLANG_MAX_SHAPE):
        shared = not isinstance(spec, Delayed) or isinstance(spec.delay, Deterministic)  # one start for all
        yield _Clock.draw(phases, tmax, active, last, rng, shared) if active.size else None
        return
    yield None
    drawn = 0
    for width in widths:
        if not active.size:
            return
        drawn += width
        if drawn > DEFAULT_EVENT_CAP:
            raise EventCapExceeded(f"a path needs over {DEFAULT_EVENT_CAP} events, the event cap")
        times, carry, marks = _draw_block(spec, rng, carry, width)
        times[0] += last
        _accumulate(times)
        yield active, last, times, marks
        keep = times[-1] <= tmax
        active, last, carry = active[keep], times[-1, keep], carry[..., keep]


def simulate_paths(spec: ProcessSpec, horizon: float, rows: int, rng: np.random.Generator) -> SamplePath:
    """A block of ``rows`` paths of ``spec`` covering [0, horizon], allocated
    once and filled from the column blocks: with ``rng = child_rng(seed, i)``
    and ``horizon`` the largest query time, the rows are the paths that chunk
    i of :func:`countproc.asymptotics.path_statistics` summarizes, each with
    every event of its clock (:class:`_Clock`) drawn.  Raises
    :class:`EventCapExceeded` when a path still at or before the horizon
    has drawn more than ``DEFAULT_EVENT_CAP`` gaps.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    start, clock, *blocks = _column_blocks(spec, float(horizon), rows, rng)
    if clock is not None:  # a kept path holds every event: draw all of its clock's
        blocks = list(clock.blocks())
    cols = 1 + sum(times.shape[0] for _, _, times, _ in blocks)
    events = np.full((rows, cols), np.inf)
    events[:, 0] = start
    marks = None if not blocks or blocks[0][3] is None else np.zeros((rows, cols), blocks[0][3].dtype)
    col = 1
    for active, _, times, block_marks in blocks:
        width = times.shape[0]
        events[active, col : col + width] = times.T
        if marks is not None:  # a block's last mark is the next block's first
            marks[active, col - 1 : col + width] = block_marks.T
        col += width
    del blocks  # free the drawn blocks before the passes below
    events[:, 1:][events[:, :-1] > horizon] = np.inf  # drop the events after each overshoot
    # a floored gap can vanish in the sum (1.0 + 1e-300 == 1.0): move such an
    # event one ulp past the one before it, so event times strictly increase
    stuck = (events[:, 1:] <= events[:, :-1]) & (events[:, :-1] < np.inf)
    if stuck.any():  # rare, and nonzero costs more than the comparisons
        row, col = np.nonzero(stuck)
        events[row, col + 1] = np.nextafter(events[row, col], np.inf)
    return SamplePath(horizon, events, spec, marks)


def paths_per_chunk(spec: ProcessSpec, horizon: float) -> int:
    """Rows per :func:`simulate_paths` call whose kept events fit one chunk's
    draw budget of ``_CHUNK_ROWS x _BLOCK_COLS`` values (at least one row)."""
    cover, _ = _block_widths(spec, horizon)
    return max(1, _CHUNK_ROWS * _BLOCK_COLS // cover)


def simulate_path(spec: ProcessSpec, horizon: float, seed) -> SamplePath:
    """One path of ``spec`` covering [0, horizon], deterministic in ``seed``
    (an int, SeedSequence or Generator): row 0 of the one-row
    :func:`simulate_paths` block, cut after its overshoot event."""
    return simulate_paths(spec, horizon, 1, np.random.default_rng(seed))[0]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_NDJSON_BATCH = 2048


def write_events_ndjson(path: SamplePath, fp: IO[str]) -> None:
    """One JSON object per event of a 1-d path: index, time, inter-arrival, state.

    Written in batches of lines; a finite float is written as its ``repr``,
    as ``json.dumps`` writes it, and only state labels go through ``json.dumps``.
    """
    if path.events.ndim != 1:
        raise ValueError("write_events_ndjson writes one path: pick a row of the block first")
    times, gaps, states = path.events, path.interarrivals, path.marks
    labels = [json.dumps(s) for s in path.spec.states] if isinstance(path.spec, Modulated) else None
    for lo in range(0, times.size, _NDJSON_BATCH):
        hi = min(lo + _NDJSON_BATCH, times.size)
        gap = ["null"] * (lo == 0) + [repr(g) for g in gaps[max(lo - 1, 0) : hi - 1].tolist()]
        state = ["null"] * (hi - lo) if labels is None else [labels[s] for s in states[lo:hi].tolist()]
        fp.write("".join(
            f'{{"index": {i}, "time": {t!r}, "interarrival": {g}, "state": {s}}}\n'
            for i, t, g, s in zip(range(lo, hi), times[lo:hi].tolist(), gap, state)
        ))
