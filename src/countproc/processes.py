"""Sample-path simulation of renewal-type counting processes.

Four kinds of process are supported: plain renewal (an event at time 0,
i.i.d. inter-arrivals), delayed renewal (first event at a positive delay,
optionally drawn from the stationary-excess law), modulated (the law of
each inter-arrival chosen by a background chain advanced at events), and
a stationary moving-average construction whose inter-arrivals form an
(m-1)-dependent stationary sequence with a point at the origin.

A simulated path stores every event up to the horizon plus one overshoot
event, so counts and residual times are defined everywhere on [0, horizon].
Simulation is a pure function of (spec, horizon, seed); replication seeds
should be derived with :func:`child_rng`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Literal, Mapping, Sequence, Union

import numpy as np

from .lifetimes import (
    EquilibriumOf,
    LifetimeDistribution,
    distribution_from_json,
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
    "equilibrium_delay_sample",
    "path_from_interarrivals",
    "residual",
    "simulate_path",
    "spec_from_json",
    "write_events_ndjson",
]

DEFAULT_EVENT_CAP = 10**8


class EventCapExceeded(RuntimeError):
    """Raised when a single path would exceed the configured event budget."""


def child_rng(root_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-replication generator derived from a root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plain:
    """Non-delayed renewal process: event at 0, i.i.d. inter-arrivals."""

    lifetime: LifetimeDistribution

    def to_json(self):
        return {"kind": "plain", "lifetime": self.lifetime.to_json()}


@dataclass(frozen=True)
class Delayed:
    """Renewal process whose first event happens at a positive delay.

    ``delay`` is either an explicit lifetime law or the string
    ``"equilibrium"``, which draws the delay from the stationary-excess law
    of ``lifetime`` and makes the count increments stationary.
    """

    delay: Union[LifetimeDistribution, Literal["equilibrium"]]
    lifetime: LifetimeDistribution

    def __post_init__(self):
        if isinstance(self.delay, str) and self.delay != "equilibrium":
            raise ValueError(f"delay must be a distribution or 'equilibrium', got {self.delay!r}")
        if self.delay == "equilibrium":
            EquilibriumOf(self.lifetime)  # validates E[T^2] < inf

    @property
    def delay_distribution(self) -> LifetimeDistribution:
        if self.delay == "equilibrium":
            return EquilibriumOf(self.lifetime)
        return self.delay

    def to_json(self):
        delay = "equilibrium" if self.delay == "equilibrium" else self.delay.to_json()
        return {"kind": "delayed", "delay": delay, "lifetime": self.lifetime.to_json()}


@dataclass(frozen=True)
class Modulated:
    """Inter-arrival law selected by a background chain advanced at events.

    The chain moves by ``kernel`` at every event; the state entered at an
    event governs the next inter-arrival.  ``initial`` is a state label, a
    mapping state -> probability, or None for the uniform law over states.
    """

    states: tuple[str, ...]
    kernel: tuple[tuple[float, ...], ...]
    lifetimes: Mapping[str, LifetimeDistribution]
    initial: Union[str, Mapping[str, float], None] = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "kernel", tuple(tuple(float(p) for p in row) for row in self.kernel))
        object.__setattr__(self, "lifetimes", dict(self.lifetimes))
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

    def to_json(self):
        initial = self.initial
        if isinstance(initial, Mapping):
            initial = dict(initial)
        return {
            "kind": "modulated",
            "states": list(self.states),
            "kernel": [list(r) for r in self.kernel],
            "lifetimes": {s: self.lifetimes[s].to_json() for s in self.states},
            "initial": initial,
        }


@dataclass(frozen=True)
class StationaryMA:
    """Inter-arrivals T_n = (U_n + ... + U_{n+m-1}) / m with i.i.d. base draws.

    A pre-roll of m-1 base draws makes T_1 already follow the stationary
    law, so the sequence is stationary, ergodic and (m-1)-dependent as seen
    from the event at the origin.
    """

    order: int
    base: LifetimeDistribution

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValueError("order must be an integer >= 1")

    def to_json(self):
        return {"kind": "stationary_ma", "order": self.order, "base": self.base.to_json()}


ProcessSpec = Union[Plain, Delayed, Modulated, StationaryMA]


def spec_from_json(obj: Mapping) -> ProcessSpec:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ValueError("process spec JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    fields = {
        "plain": {"kind", "lifetime"},
        "delayed": {"kind", "delay", "lifetime"},
        "modulated": {"kind", "states", "kernel", "lifetimes", "initial"},
        "stationary_ma": {"kind", "order", "base"},
    }
    if kind not in fields:
        raise ValueError(f"unknown process kind {kind!r}")
    extra = set(obj) - fields[kind]
    if extra:
        raise ValueError(f"unknown fields for {kind!r} spec: {sorted(extra)}")
    if kind == "plain":
        return Plain(lifetime=distribution_from_json(obj["lifetime"]))
    if kind == "delayed":
        delay = obj["delay"]
        delay = delay if delay == "equilibrium" else distribution_from_json(delay)
        return Delayed(delay=delay, lifetime=distribution_from_json(obj["lifetime"]))
    if kind == "modulated":
        return Modulated(
            states=tuple(obj["states"]),
            kernel=tuple(tuple(r) for r in obj["kernel"]),
            lifetimes={s: distribution_from_json(d) for s, d in obj["lifetimes"].items()},
            initial=obj.get("initial"),
        )
    return StationaryMA(order=int(obj["order"]), base=distribution_from_json(obj["base"]))


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePath:
    """Ordered event times on [0, horizon] plus one overshoot event.

    ``events[0] == 0`` for non-delayed processes; for delayed processes the
    first entry is the delay itself.  ``states`` (modulated) records the
    state entered at each event; ``ma_trace`` (stationary moving average)
    records, per event, the sum of the m-1 base draws already revealed that
    enter the next inter-arrival.
    """

    horizon: float
    events: np.ndarray
    spec: ProcessSpec
    delayed: bool = False
    states: tuple[str, ...] | None = None
    ma_trace: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", ev)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("events must be a nonempty 1-d array")
        if np.any(np.diff(ev) <= 0):
            raise ValueError("event times must be strictly increasing")
        if ev[-1] <= self.horizon:
            raise ValueError("the last stored event must exceed the horizon")
        if self.delayed:
            if ev[0] <= 0:
                raise ValueError("a delayed path must start with a positive delay")
        elif ev[0] != 0.0:
            raise ValueError("a non-delayed path must have an event at time 0")

    @property
    def interarrivals(self) -> np.ndarray:
        """Genuine inter-arrival times (the delay, if any, is excluded)."""
        return np.diff(self.events)

    @property
    def delay(self) -> float:
        return float(self.events[0]) if self.delayed else 0.0

    def interval_bounds(self) -> np.ndarray:
        """Left-closed interval boundaries partitioning [0, last event)."""
        if self.delayed:
            return np.concatenate([[0.0], self.events])
        return self.events

    def _check_times(self, t: np.ndarray) -> None:
        if np.any(t < 0) or np.any(t > self.horizon):
            raise ValueError("query times must lie in [0, horizon]")


def count(path: SamplePath, t):
    """N(t): number of events in [0, t]; right-continuous, N(0)=1 when non-delayed."""
    t_arr = np.asarray(t, dtype=float)
    path._check_times(t_arr)
    idx = np.searchsorted(path.events, t_arr, side="right")
    return int(idx) if t_arr.ndim == 0 else idx


def residual(path: SamplePath, t):
    """R(t): time from t to the first event strictly after t (next event at events)."""
    t_arr = np.asarray(t, dtype=float)
    path._check_times(t_arr)
    idx = np.searchsorted(path.events, t_arr, side="right")
    out = path.events[idx] - t_arr
    return float(out) if t_arr.ndim == 0 else out


def equilibrium_delay_sample(lifetime: LifetimeDistribution, rng: np.random.Generator) -> float:
    """One draw from the stationary-excess law of ``lifetime``.

    Inverts the equilibrium CDF by safeguarded Newton steps (tolerance 1e-10).
    Raises when the lifetime law has an infinite second moment, which would
    make the excess law's mean infinite.
    """
    return float(EquilibriumOf(lifetime).draw(rng))


def path_from_interarrivals(
    interarrivals: Sequence[float],
    horizon: float,
    spec: ProcessSpec | None = None,
    delay: float | None = None,
) -> SamplePath:
    """Build a path from explicit inter-arrival times (testing helper)."""
    gaps = np.asarray(interarrivals, dtype=float)
    if delay is None:
        events = np.concatenate([[0.0], np.cumsum(gaps)])
        delayed = False
    else:
        events = delay + np.concatenate([[0.0], np.cumsum(gaps)])
        delayed = True
    if spec is None:
        from .lifetimes import Exponential

        spec = Plain(Exponential(rate=1.0))
    return SamplePath(horizon=horizon, events=events, spec=spec, delayed=delayed)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def simulate_path(
    spec: ProcessSpec,
    horizon: float,
    seed,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> SamplePath:
    """Simulate one path of ``spec`` covering [0, horizon].

    Deterministic in ``seed`` (an int, SeedSequence or Generator).  Raises
    :class:`EventCapExceeded` when more than ``event_cap`` events would be
    stored, which guards against misconfigured heavy-traffic specs.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = _as_rng(seed)
    if isinstance(spec, Plain):
        return _simulate_renewal(spec, spec.lifetime, horizon, rng, event_cap, delay=None)
    if isinstance(spec, Delayed):
        t0 = float(spec.delay_distribution.draw(rng))
        return _simulate_renewal(spec, spec.lifetime, horizon, rng, event_cap, delay=t0)
    if isinstance(spec, Modulated):
        return _simulate_modulated(spec, horizon, rng, event_cap)
    if isinstance(spec, StationaryMA):
        return _simulate_stationary_ma(spec, horizon, rng, event_cap)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _draw_until(
    draw_block, mean_gap: float, start: float, horizon: float, event_cap: int
) -> np.ndarray:
    """Accumulate positive increments from ``start`` until the sum exceeds horizon."""
    blocks: list[np.ndarray] = []
    total = start
    n = 0
    while total <= horizon:
        expect = (horizon - total) / max(mean_gap, 1e-12)
        need = int(min(max(expect * 1.2 + 16, 16), 65536))
        block = np.atleast_1d(draw_block(need))
        blocks.append(block)
        total += float(block.sum())
        n += block.size
        if n > event_cap:
            raise EventCapExceeded(f"path would exceed the event cap of {event_cap}")
    times = start + np.cumsum(np.concatenate(blocks))
    keep = int(np.searchsorted(times, horizon, side="right")) + 1  # one overshoot point
    return times[:keep]


def _simulate_renewal(spec, lifetime, horizon, rng, event_cap, delay):
    mean = lifetime.moment(1)
    start = 0.0 if delay is None else delay

    def block(n):
        return lifetime.draw(rng, n)

    if start > horizon:
        events = np.array([start])
    else:
        times = _draw_until(block, mean, start, horizon, event_cap)
        events = np.concatenate([[start], times])
    return SamplePath(horizon=horizon, events=events, spec=spec, delayed=delay is not None)


def _simulate_modulated(spec: Modulated, horizon, rng, event_cap):
    kernel_cum = np.cumsum(spec.kernel_matrix(), axis=1)
    init_cum = np.cumsum(spec.initial_law())
    state_idx = int(np.searchsorted(init_cum, rng.random(), side="right"))
    state_idx = min(state_idx, len(spec.states) - 1)

    times = [0.0]
    states = [state_idx]
    t = 0.0
    while t <= horizon:
        label = spec.states[state_idx]
        gap = float(spec.lifetimes[label].draw(rng))
        t += gap
        times.append(t)
        if len(times) - 1 > event_cap:
            raise EventCapExceeded(f"path would exceed the event cap of {event_cap}")
        state_idx = int(np.searchsorted(kernel_cum[state_idx], rng.random(), side="right"))
        state_idx = min(state_idx, len(spec.states) - 1)
        states.append(state_idx)
    return SamplePath(
        horizon=horizon,
        events=np.array(times),
        spec=spec,
        states=tuple(spec.states[i] for i in states),
    )


def _simulate_stationary_ma(spec: StationaryMA, horizon, rng, event_cap):
    m = spec.order
    base = spec.base
    mean = base.moment(1)

    # U_1..U_{n+m-1} support n inter-arrivals; T_k averages draws k..k+m-1,
    # so the first m-1 draws are the pre-roll that makes T_1 stationary.
    n_u = int(horizon / max(mean, 1e-12) * 1.25) + 8 * m + 32
    u = np.atleast_1d(base.draw(rng, n_u))
    while True:
        window = np.lib.stride_tricks.sliding_window_view(u, m)
        gaps = window.mean(axis=1)
        times = np.cumsum(gaps)
        if times[-1] > horizon:
            break
        if u.size > event_cap + m:
            raise EventCapExceeded(f"path would exceed the event cap of {event_cap}")
        u = np.concatenate([u, np.atleast_1d(base.draw(rng, max(32, u.size // 2)))])

    keep = int(np.searchsorted(times, horizon, side="right")) + 1
    if keep > event_cap:
        raise EventCapExceeded(f"path would exceed the event cap of {event_cap}")
    events = np.concatenate([[0.0], times[:keep]])
    # trace[i] = sum of the m-1 draws shared between T_i's window and T_{i+1}'s
    if m == 1:
        trace = np.zeros(events.size)
    else:
        csum = np.concatenate([[0.0], np.cumsum(u)])
        i = np.arange(events.size)
        trace = csum[i + m - 1] - csum[i]
    return SamplePath(horizon=horizon, events=events, spec=spec, ma_trace=trace)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_events_ndjson(path: SamplePath, fp: IO[str]) -> None:
    """One JSON object per event: index, time, inter-arrival, state."""
    gaps = path.interarrivals
    for i, t in enumerate(path.events):
        rec = {
            "index": i,
            "time": float(t),
            "interarrival": float(gaps[i - 1]) if i > 0 else None,
            "state": path.states[i] if path.states is not None else None,
        }
        fp.write(json.dumps(rec) + "\n")
