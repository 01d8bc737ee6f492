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
overshoot event, and every query answers per row.

Every path comes from one sampler that draws rows of inter-arrivals in
column blocks; later blocks go only to rows not yet past the horizon.
:func:`simulate_paths` fills a block with them, :func:`simulate_path` is
its one-row case, and :func:`countproc.asymptotics.path_statistics` folds
the same blocks into per-path summaries.  The event cap counts the gaps
drawn for a path still at or before the horizon.  Simulation is a pure
function of (spec, horizon, rows, seed); seeds should be derived with
:func:`child_rng`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Iterator, Literal, Mapping, Sequence, Union, get_args

import numpy as np

from .lifetimes import EquilibriumOf, Exponential, LifetimeDistribution, _decode, _draw_each, _pick, _Wire

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
        object.__setattr__(self, "kernel", tuple(tuple(float(p) for p in row) for row in self.kernel))
        if not self.states:
            raise ValueError("modulated spec needs a nonempty state list")
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")
        if len(self.kernel) != len(self.states) or any(len(r) != len(self.states) for r in self.kernel):
            raise ValueError("kernel must be square over the state list")
        for i, row in enumerate(self.kernel):
            if any(p < 0 for p in row):
                raise ValueError(f"kernel row {i} has a negative entry")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError(f"kernel row {i} must sum to 1 within 1e-12")
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
            if abs(sum(self.initial.values()) - 1.0) > 1e-12:
                raise ValueError("initial law must sum to 1 within 1e-12")

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
    delay on a delayed path.  ``states`` (modulated) holds the index in
    ``spec.states`` of the state entered at each event and ``ma_trace``
    (moving average), per event, the sum of the m-1 revealed base draws that
    enter the next inter-arrival; both follow the layout of ``events``.
    """

    horizon: float
    events: np.ndarray
    spec: ProcessSpec
    states: np.ndarray | None = None
    ma_trace: np.ndarray | None = None

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
        marks = {name: getattr(self, name)[index][..., keep] for name in ("states", "ma_trace")
                 if getattr(self, name) is not None}
        return SamplePath(self.horizon, ev[..., keep], self.spec, **marks)

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
    if np.any(ts < 0) or np.any(ts > path.horizon):
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


def _lifetime_laws(spec: ProcessSpec) -> list[LifetimeDistribution]:
    if isinstance(spec, (Plain, Delayed)):
        return [spec.lifetime]
    if isinstance(spec, Modulated):
        return [spec.lifetimes[s] for s in spec.states]
    return [spec.base]


def _block_widths(spec: ProcessSpec, tmax: float) -> tuple[int, Iterator[int]]:
    """(cover, widths): the column widths of a chunk's successive blocks,
    which depend only on (spec, tmax), and their sum before the stragglers.

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
    """Per-row sampler state before the first block: the moving-average
    pre-roll, the modulated chain's initial state, or nothing."""
    if isinstance(spec, StationaryMA):
        return spec.base.draw(rng, (rows, spec.order - 1))
    if isinstance(spec, Modulated):
        return _pick(np.cumsum(spec.initial_law()), rng.random(rows))
    return np.empty((rows, 0))


def _draw_block(spec: ProcessSpec, rng: np.random.Generator, carry: np.ndarray, width: int):
    """(gaps, carry, marks): ``width`` inter-arrivals for each row of ``carry``.

    ``marks`` has one column per gap plus one for the gap after the block:
    the state that governs it (modulated), the sum of the m-1 base draws
    it shares with the gap before (moving average), or None.
    """
    n = carry.shape[0]
    if isinstance(spec, (Plain, Delayed)):
        return spec.lifetime.draw(rng, (n, width)), carry, None
    if isinstance(spec, StationaryMA):
        u = np.concatenate([carry, spec.base.draw(rng, (n, width))], axis=1)
        gaps = np.lib.stride_tricks.sliding_window_view(u, spec.order, axis=1).mean(axis=2)
        marks = np.lib.stride_tricks.sliding_window_view(u, spec.order - 1, axis=1).sum(axis=2)
        return gaps, u[:, width:], marks
    # a semi-Markov chain needs only its state path sequentially: walk it
    # column by column, then draw each state's gaps for the whole block
    kernel_cum = np.cumsum(spec.kernel_matrix(), axis=1)
    u = rng.random((n, width))
    states = np.empty((n, width + 1), dtype=np.intp)
    for c in range(width):
        states[:, c] = carry
        carry = np.minimum((u[:, c, None] >= kernel_cum[carry]).sum(axis=1), len(spec.states) - 1)
    states[:, width] = carry
    return _draw_each(_lifetime_laws(spec), states[:, :width], rng), carry, states


def _column_blocks(spec, tmax, rows, rng):
    """The one sampler behind every simulated path.

    Yields first each row's start (its delay, or 0), then per block
    ``(active, last, times, marks)`` for the rows ``active`` still at or
    before ``tmax``: their last event time before the block, the block's
    event times accumulated from it and the marks of :func:`_draw_block`.
    Raises :class:`EventCapExceeded` when a still-active row has drawn more
    than ``DEFAULT_EVENT_CAP`` gaps.
    """
    _, widths = _block_widths(spec, tmax)
    if isinstance(spec, Delayed):
        start = np.asarray(spec.delay.draw(rng, rows), float)
    else:
        start = np.zeros(rows)
    yield start
    active = np.flatnonzero(start <= tmax)
    last, carry = start[active], _initial_carry(spec, rng, rows)[active]
    drawn = 0
    for width in widths:
        if not active.size:
            return
        drawn += width
        if drawn > DEFAULT_EVENT_CAP:
            raise EventCapExceeded(f"a path needs over {DEFAULT_EVENT_CAP} events, the event cap")
        gaps, carry, marks = _draw_block(spec, rng, carry, width)
        gaps[:, 0] += last
        times = np.cumsum(gaps, axis=1, out=gaps)
        yield active, last, times, marks
        keep = times[:, -1] <= tmax
        active, last, carry = active[keep], times[keep, -1], carry[keep]


def _widen(a: np.ndarray, cols: int, fill) -> np.ndarray:
    """``a`` with columns of ``fill`` appended up to ``cols`` columns."""
    out = np.full((a.shape[0], cols), fill, a.dtype)
    out[:, : a.shape[1]] = a
    return out


def simulate_paths(spec: ProcessSpec, horizon: float, rows: int, rng: np.random.Generator) -> SamplePath:
    """A block of ``rows`` paths of ``spec`` covering [0, horizon], filled in
    place from the column blocks: with ``rng = child_rng(seed, i)`` and
    ``horizon`` the largest query time, the rows are the paths that chunk i
    of :func:`countproc.asymptotics.path_statistics` summarizes.  Raises
    :class:`EventCapExceeded` when a path still at or before the horizon
    has drawn more than ``DEFAULT_EVENT_CAP`` gaps.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    cover, _ = _block_widths(spec, float(horizon))
    blocks = _column_blocks(spec, float(horizon), rows, rng)
    events, marks, col = next(blocks)[:, None], None, 1
    for active, _, times, block_marks in blocks:
        width = times.shape[1]
        if events.shape[1] < col + width:  # the mean count plus one sd first, then stragglers
            cols = max(col + width, 1 + cover)
            events = _widen(events, cols, np.inf)
            if block_marks is not None:
                marks = _widen(np.zeros((rows, 0), block_marks.dtype) if marks is None else marks, cols, 0)
        events[active, col : col + width] = times
        if block_marks is not None:  # a block's last mark is the next block's first
            marks[active, col - 1 : col + width] = block_marks
        col += width
    events[:, 1:][events[:, :-1] > horizon] = np.inf  # drop the events after each overshoot
    # a floored gap can vanish in the sum (1.0 + 1e-300 == 1.0): move such an
    # event one ulp past the one before it, so event times strictly increase
    np.maximum(events[:, 1:], np.nextafter(events[:, :-1], np.inf), out=events[:, 1:])
    marks = {} if marks is None else {"states" if isinstance(spec, Modulated) else "ma_trace": marks[:, :col]}
    return SamplePath(horizon, events[:, :col], spec, **marks)


def paths_per_chunk(spec: ProcessSpec, horizon: float) -> int:
    """Rows per :func:`simulate_paths` call whose kept events fit one chunk's
    draw budget of ``_CHUNK_ROWS x _BLOCK_COLS`` values (at least one row)."""
    cover, _ = _block_widths(spec, horizon)
    return max(1, _CHUNK_ROWS * _BLOCK_COLS // cover)


def simulate_path(spec: ProcessSpec, horizon: float, seed) -> SamplePath:
    """One path of ``spec`` covering [0, horizon]: the one-row case of
    :func:`simulate_paths`, deterministic in ``seed`` (an int, SeedSequence
    or Generator)."""
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
    times, gaps, states = path.events, path.interarrivals, path.states
    labels = None if states is None else [json.dumps(s) for s in path.spec.states]
    for lo in range(0, times.size, _NDJSON_BATCH):
        hi = min(lo + _NDJSON_BATCH, times.size)
        gap = ["null"] * (lo == 0) + [repr(g) for g in gaps[max(lo - 1, 0) : hi - 1].tolist()]
        state = ["null"] * (hi - lo) if labels is None else [labels[s] for s in states[lo:hi].tolist()]
        fp.write("".join(
            f'{{"index": {i}, "time": {t!r}, "interarrival": {g}, "state": {s}}}\n'
            for i, t, g, s in zip(range(lo, hi), times[lo:hi].tolist(), gap, state)
        ))
