"""Path simulation: event grids, counting queries, stationarity checks."""

import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from countproc import processes
from countproc.decomposition import optional_quadratic_variation
from countproc.lifetimes import (
    Deterministic, EquilibriumOf, Exponential, Gamma, Mixture, ParetoShifted, Uniform,
)
from countproc.processes import (
    _CHUNK_ROWS,
    Delayed,
    EventCapExceeded,
    Modulated,
    Plain,
    SamplePath,
    StationaryMA,
    child_rng,
    count,
    path_from_interarrivals,
    paths_per_chunk,
    residual,
    simulate_path,
    simulate_paths,
    spec_from_json,
    write_events_ndjson,
)
from countproc.asymptotics import path_statistics

EXP_JSON = {"kind": "exponential", "rate": 1.0}

TWO_STATE = Modulated(
    states=("a", "b"),
    kernel=((0.0, 1.0), (1.0, 0.0)),
    lifetimes={"a": Exponential(1.0), "b": Exponential(1.0 / 3.0)},
)


class ZeroOnce:
    """``default_rng(seed)`` whose first ``random()`` block has entry 5 set to
    0.0, an outcome of probability 2**-53 a draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._zeroed = False

    def random(self, size=None, out=None):
        x = self._rng.random(size, out=out)
        if not self._zeroed:
            x.flat[5], self._zeroed = 0.0, True
        return x

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestSimulate:
    def test_deterministic_grid(self):
        p = simulate_path(Plain(Deterministic(1.0)), 3.5, 0)
        assert np.array_equal(p.events, [0, 1, 2, 3, 4])

    def test_delayed_deterministic_shift(self):
        p = simulate_path(Delayed(Deterministic(0.5), Deterministic(1.0)), 2.0, 0)
        assert np.array_equal(p.events, [0.5, 1.5, 2.5])
        assert p.delayed and p.delay == 0.5

    def test_plain_path_starts_at_zero(self):
        # a plain spec has no delay, whatever the events say
        with pytest.raises(ValueError, match="event at time 0"):
            SamplePath(3.0, [0.5, 2.0, 3.5], Plain(Exponential(1.0)))
        assert not SamplePath(3.0, [0.0, 2.0, 3.5], Plain(Exponential(1.0))).delayed

    def test_overshoot_invariant(self):
        for seed in range(20):
            p = simulate_path(Plain(Exponential(1.0)), 7.0, seed)
            assert p.events[-1] > 7.0
            assert p.events[0] == 0.0
            assert np.all(np.diff(p.events) > 0)

    def test_vanished_gap_moves_one_ulp(self):
        # u = 0.0 draws the ParetoShifted gap 0, floored to 1e-300, which
        # vanishes when added to the event time before it
        p = simulate_paths(Plain(ParetoShifted(3.0)), 20.0, 4, ZeroOnce(1))
        # a block fills event index by event index across its 4 paths, so
        # entry 5 of the first draw is gap `gap` of path `row`
        gap, row = divmod(5, 4)
        assert p.events[row, gap] > 0.0
        assert p.events[row, gap + 1] == np.nextafter(p.events[row, gap], np.inf)
        ev = p.events
        assert np.all((ev[:, 1:] > ev[:, :-1]) | (ev[:, 1:] == np.inf))

    def test_deterministic_in_seed(self):
        a = simulate_path(Plain(Gamma(2, 2)), 11.0, 42)
        b = simulate_path(Plain(Gamma(2, 2)), 11.0, 42)
        assert np.array_equal(a.events, b.events)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            simulate_path(Plain(Exponential(1.0)), 0.0, 0)

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", 100)
        with pytest.raises(EventCapExceeded):
            simulate_path(Plain(Exponential(1.0)), 1000.0, 0)

    def test_event_cap_counts_drawn_gaps(self, monkeypatch):
        # the mean count 50 passes the up-front check under a cap of 60; a
        # path whose clock counts more than 59 events before the horizon, 60
        # gaps with its overshoot, is stopped, and a kept path has at most
        # 61 events, the start's included
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", 60)
        raised = 0
        for seed in range(40):
            try:
                p = simulate_path(Plain(Exponential(1.0)), 50.0, seed)
            except EventCapExceeded:
                raised += 1
            else:
                assert p.events.size <= 61
        assert 0 < raised < 40

    def test_paths_per_chunk(self):
        assert paths_per_chunk(Plain(Gamma(2, 2)), 200.0) >= 500
        assert paths_per_chunk(Plain(Gamma(2, 2)), 1e8) == 1

    def test_stationary_ma_mean_gap(self):
        # the first gap already carries the stationary law: mean E[U]
        spec = StationaryMA(2, Exponential(1.0))
        first = [
            float(np.diff(simulate_path(spec, 1.0, child_rng(7, i)).events[:2])[0])
            for i in range(4000)
        ]
        se = np.std(first, ddof=1) / math.sqrt(len(first))
        assert abs(np.mean(first) - 1.0) <= 3 * se


ENGINE_SPECS = {
    "plain": Plain(Gamma(2, 2)),
    "exponential": Plain(Exponential(1.0)),
    "delayed": Delayed(Uniform(0.0, 8.0), Gamma(2, 2)),
    "modulated": TWO_STATE,
    "ma": StationaryMA(2, Exponential(1.0)),
}


class TestEngineAgreement:
    """Paths kept by simulate_paths and the summaries path_statistics folds
    come from one sampler: on the same stream they must agree."""

    @pytest.mark.parametrize("kind", ENGINE_SPECS)
    @pytest.mark.parametrize("ts", [[0.0, 2.5, 7.0, 40.0], [5.0, 600.0], [1.0, 6.0]])
    @pytest.mark.parametrize("reps", [1, 300])
    def test_summaries_match(self, kind, ts, reps):
        assert reps <= _CHUNK_ROWS
        spec = ENGINE_SPECS[kind]
        stats = path_statistics(spec, ts, reps, seed=23)
        paths = simulate_paths(spec, max(ts), reps, child_rng(23, 0))
        assert paths.events.shape[0] == reps
        if reps == 1:
            assert np.array_equal(simulate_path(spec, max(ts), child_rng(23, 0)).events, paths[0].events)
        assert np.array_equal(count(paths, ts), stats["count"])
        assert np.array_equal(residual(paths, ts), stats["residual"])
        # the block's quadratic variation against each row's gaps summed one by one
        qv = optional_quadratic_variation(paths, 0.5, ts)
        for r in range(reps):
            gaps = np.diff(paths[r].events)
            expect = [np.sum((1.0 - 0.5 * gaps[:n]) ** 2) for n in stats["count"][r].astype(int)]
            np.testing.assert_allclose(qv[r], expect, rtol=1e-12, atol=0)
        if kind == "delayed":
            assert np.array_equal(paths.delay, stats["delay"])

    def test_rows_outlast_first_block(self):
        # the 600-horizon case above reaches the straggler blocks: some row
        # needs more gaps than the blocks covering mean + 1 sd events
        cover = int(600 + math.sqrt(0.5 * 600)) + 1
        paths = simulate_paths(Plain(Gamma(2, 2)), 600.0, 300, child_rng(23, 0))
        assert np.isfinite(paths.events).sum(axis=1).max() - 1 > cover

    def test_marks_cover_every_event(self):
        # the overshoot event is marked too: TWO_STATE alternates its states,
        # and for MA(2) marks[i + 1] = U_{i+1} = 2 T_i - marks[i]
        paths = simulate_paths(TWO_STATE, 30.0, 50, child_rng(2, 0))
        assert paths.marks.shape == paths.events.shape
        for r in range(50):
            p = paths[r]
            assert p.marks.size == p.events.size
            assert np.all(p.marks[1:] != p.marks[:-1])
        paths = simulate_paths(StationaryMA(2, Exponential(1.0)), 30.0, 50, child_rng(2, 0))
        assert paths.marks.shape == paths.events.shape
        for r in range(50):
            p = paths[r]
            assert p.marks.size == p.events.size
            np.testing.assert_allclose(p.marks[1:], 2 * p.interarrivals - p.marks[:-1],
                                       rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("shape", [(256, 1000), (256, 40), (256, 1)], ids=["wide", "narrow", "one-row"])
    @pytest.mark.parametrize("row_adds_from", [1, 10**9], ids=["row-adds", "cumsum"])
    def test_accumulation_branches_agree(self, monkeypatch, shape, row_adds_from):
        # either way of summing a time-major block down its rows gives the
        # bits of a row-wise cumsum of each path's gaps
        monkeypatch.setattr(processes, "_ROW_ADD_PATHS", row_adds_from)
        gaps = Gamma(2, 2).draw(np.random.default_rng(3), shape)
        gaps[0] += 1e3 * np.random.default_rng(4).random(shape[1])  # a start to round against
        times = gaps.copy()
        processes._accumulate(times)
        assert np.array_equal(times, np.cumsum(gaps.T, axis=1).T)

    @pytest.mark.parametrize("spec", [Plain(Gamma(2.5, 2.5)), Plain(ParetoShifted(2.5))], ids=["gamma", "pareto"])
    def test_one_row_path_keeps_its_stream(self, spec):
        # a one-row block, (w, 1) time-major, is the (1, w) draw of a
        # path-major block: the path sums one such draw per block, in order.
        # A shape of 2.5 has no Poisson clock, so the path walks
        horizon, seed = 2_000.0, 5
        p = simulate_path(spec, horizon, seed)
        rng = np.random.default_rng(seed)
        _, widths = processes._block_widths(spec, horizon)
        events, blocks = np.zeros(1), 0
        while events[-1] <= horizon:
            gaps = spec.lifetime.draw(rng, (1, next(widths)))[0]
            events = np.concatenate([events, np.cumsum([events[-1], *gaps])[1:]])
            blocks += 1
        kept = np.searchsorted(events, horizon, side="right") + 1
        assert blocks >= 2  # the path spans several blocks
        assert np.array_equal(p.events, events[:kept])

    @pytest.mark.parametrize("spec", [
        Plain(Gamma(2, 2)), Plain(Exponential(1.0)), Plain(Gamma(3, 3)), Delayed(Deterministic(5.0), Gamma(2, 2)),
        Delayed(Uniform(0.0, 10.0), Gamma(2, 2)),
    ], ids=["gamma", "exponential", "gamma-3", "constant-delay", "random-delay"])
    def test_one_row_clock_keeps_its_stream(self, spec):
        # from the path's start (a delay is drawn first) the stream draws the
        # clock's seed; the Poisson count P of its points in (start, horizon],
        # from one uniform inverted through the Poisson cdf when every path has
        # one start (no delay, or a constant one), and from rng.poisson after a
        # random delay; then m uniforms,
        # the first m - j of which make the overshoot horizon - log(U_1 ...
        # U_(m-j)) / r.  The clock's own generator gives the points top-down,
        # U^(1/(P - i + 1)) at a time, and every m-th from the bottom is an event
        horizon, seed = 300.0, 9
        p = simulate_path(spec, horizon, seed)
        rng = np.random.default_rng(seed)
        start = spec.delay.draw(rng, 1)[0] if isinstance(spec, Delayed) else 0.0
        clock_seed = int(rng.integers(2**63))
        m, r = spec.lifetime.poisson_phases()
        mean = r * (horizon - start)
        if isinstance(spec, Delayed) and not isinstance(spec.delay, Deterministic):
            phases = int(rng.poisson(mean))
        else:
            lo, cdf, _ = processes._poisson_table(mean)
            phases = lo + int(np.searchsorted(cdf, rng.random(), "right"))
        q, j = divmod(phases, m)
        over = horizon - np.log(math.prod((1.0 - rng.random(m))[: m - j])) / r
        u = np.random.default_rng(clock_seed).random(phases)
        points = start + (horizon - start) * np.exp(np.cumsum(np.log(1.0 - u) / (phases - np.arange(phases))))
        events = np.sort(points[j::m])
        assert q == events.size > 0
        assert np.array_equal(p.events, np.concatenate([[start], events, [over]]))

    def test_marks_line_up_with_their_events(self):
        # across 300 paths and several blocks: a modulated gap is the
        # Deterministic lifetime of the state marked at the event before it;
        # gap i of an MA(3) reveals the base draw U_i = 3 T_i - mark_i, and
        # the mark at event i is the two revealed before it, U_{i-2} + U_{i-1}
        chain = Modulated(states=("a", "b"), kernel=((0.3, 0.7), (0.6, 0.4)),
                          lifetimes={"a": Deterministic(1.0), "b": Deterministic(2.0)})
        paths = simulate_paths(chain, 600.0, 300, child_rng(6, 0))
        for r in range(300):
            p = paths[r]
            assert np.array_equal(p.interarrivals, np.array([1.0, 2.0])[p.marks[:-1]])
        paths = simulate_paths(StationaryMA(3, Exponential(1.0)), 600.0, 300, child_rng(6, 0))
        assert np.isfinite(paths.events).sum(axis=1).max() > 2 * processes._BLOCK_COLS
        for r in range(300):
            p = paths[r]
            u = 3 * p.interarrivals - p.marks[:-1]
            np.testing.assert_allclose(p.marks[2:], u[:-1] + u[1:], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("spec,horizon", [
        *((spec, 600.0) for spec in ENGINE_SPECS.values()),
        (Delayed(Deterministic(5.0), Gamma(2, 2)), 1.0),
    ], ids=[*ENGINE_SPECS, "every-delay-past-horizon"])
    def test_rows_concatenate_the_column_blocks(self, spec, horizon):
        # on the same stream each row of the block is its row's blocks from
        # the sampler, concatenated and cut after the overshoot event, with
        # +inf after it and marks padded by 0
        rows = 300
        start, clock, *walked = processes._column_blocks(spec, horizon, rows, child_rng(29, 0))
        # an Erlang path's clock holds all of its events, in one block
        assert clock is None or not walked
        blocks = walked if clock is None else list(clock.blocks())
        times, marks, last_drawn, drawn = [[s] for s in start], [[] for _ in start], [0] * rows, 0
        for active, _, block_times, block_marks in blocks:
            for j, r in enumerate(active):  # a block is time-major: column j is path active[j]
                if block_marks is not None:  # a block's first mark is the previous block's last
                    marks[r][len(times[r]) - 1 :] = block_marks[:, j].tolist()
                times[r] += block_times[:, j].tolist()
                last_drawn[r] = drawn
            drawn += block_times.shape[0]
        events = np.full((rows, max(map(len, times))), np.inf)
        for r, row in enumerate(times):
            kept = np.searchsorted(row, horizon, side="right") + 1
            events[r, :kept] = row[:kept]
        paths = simulate_paths(spec, horizon, rows, child_rng(29, 0))
        assert np.array_equal(paths.events, events)
        if blocks and blocks[0][3] is not None:
            expect = np.zeros(events.shape, blocks[0][3].dtype)
            for r, row in enumerate(marks):
                expect[r, : len(row)] = row
            assert paths.marks.dtype == expect.dtype and np.array_equal(paths.marks, expect)
        else:
            assert paths.marks is None
        cover, _ = processes._block_widths(spec, horizon)
        if walked:  # rows end in at least two different straggler blocks
            assert len({d for d in last_drawn if d >= cover}) >= 2
        elif clock is not None:  # rows end at different events of the clock's block
            assert len(set(np.isfinite(paths.events).sum(axis=1))) >= 2
        else:  # every row starts past the horizon: no block is drawn
            assert paths.events.shape == (rows, 1) and np.all(paths.events == 5.0)

    @pytest.mark.parametrize("kind", ENGINE_SPECS)
    def test_block_rows_end_at_their_overshoot(self, kind):
        # each row holds its events up to the horizon and one overshoot
        # event, then +inf; rows that start past the horizon hold only that
        paths = simulate_paths(ENGINE_SPECS[kind], 6.0, 200, child_rng(8, 0))
        kept = np.isfinite(paths.events).sum(axis=1)
        assert np.array_equal(kept, count(paths, 6.0) + 1)
        assert np.all(np.isinf(paths.events[np.arange(paths.events.shape[1]) >= kept[:, None]]))
        for r in range(200):
            assert np.array_equal(paths[r].events, paths.events[r, : kept[r]])

    @pytest.mark.parametrize("kind", ENGINE_SPECS)
    def test_simulate_path_is_row_zero(self, kind):
        spec = ENGINE_SPECS[kind]
        p = simulate_path(spec, 25.0, 17)
        row = simulate_paths(spec, 25.0, 1, np.random.default_rng(17))[0]
        for name in ("events", "marks"):
            a, b = getattr(p, name), getattr(row, name)
            assert (a is None and b is None) or np.array_equal(a, b)


class TestClock:
    """An Erlang(m, r) path reads its events up to the horizon off one
    Poisson count of a rate-r clock's points (see processes._Clock)."""

    def test_non_whole_shapes_walk_with_the_pre_clock_bits(self):
        # Gamma(2.5, 2.5) has no clock: it walks gap by gap, and the rows and
        # the fold keep the bits of the walk-only engine, before the Poisson
        # clock and the count jump existed
        paths = simulate_paths(Plain(Gamma(2.5, 2.5)), 100.0, 50, child_rng(5, 0))
        assert hashlib.sha256(paths.events.tobytes()).hexdigest() == (
            "c1e05d0914e7e121ab9d6432a794db4c24ec189e25a9055dc106718bdc5bfa39")
        stats = path_statistics(Delayed(Uniform(0.0, 8.0), Gamma(2.5, 2.5)), [3.0, 100.0], 2_000, seed=5)
        digest = hashlib.sha256()
        for key in ("count", "residual", "age", "delay"):
            digest.update(stats[key].tobytes())
        assert digest.hexdigest() == "3ac7cf408999ab9c630b13a9cc923bf85a3eaac1c53ba2ffc22e6a4e8dfe7141"

    @pytest.mark.parametrize("law,horizon,clocked", [
        (Gamma(2, 2), 0.5, True), (Gamma(2, 2), 0.3, False), (Gamma(4, 4), 3.0, True), (Gamma(4, 4), 2.0, False),
        (Gamma(5, 5), 40.0, False), (Gamma(100, 100), 100.0, False),
    ])
    def test_clock_only_where_it_costs_about_the_walk(self, law, horizon, clocked):
        # the top event takes m rows of points, and the walk draws cover gaps
        # before its stragglers; drawn in full a clock takes m points an
        # event, and above the Erlang fill's largest shape the walk draws one
        # gamma variate a gap
        cover, _ = processes._block_widths(Plain(law), horizon)
        assert (law.poisson_phases()[0] <= min(cover, 4)) == clocked
        _, clock, *walked = processes._column_blocks(Plain(law), horizon, 200, child_rng(3, 0))
        assert (clock is not None) == clocked and bool(walked) != clocked

    @pytest.mark.parametrize("spec", [Plain(Gamma(2, 2)), Delayed(Uniform(0.0, 80.0), Exponential(1.0))],
                             ids=["gamma", "delayed-exponential"])
    def test_cap_counts_the_clock_events(self, monkeypatch, spec):
        # like the walk, the cap counts a path's gaps: its q clock events and
        # its overshoot.  A cap one below the largest q + 1 raises, the cap at
        # it does not; the mean count is below both
        _, clock = processes._column_blocks(spec, 60.0, 2_000, child_rng(7, 0))
        most = int(clock.events.max()) + 1
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", most - 1)
        with pytest.raises(EventCapExceeded, match="event cap"):
            path_statistics(spec, [60.0], 2_000, seed=7)
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", most)
        assert path_statistics(spec, [60.0], 2_000, seed=7)["count"].max() == most

    @pytest.mark.parametrize("ts", [[50.0, 51.0], [0.5, 100.0], [100.0, 100.0], [7.0, 99.0, 100.0]],
                             ids=["window", "deep", "twice-at-horizon", "three"])
    @pytest.mark.parametrize("law", [Gamma(2, 2), Gamma(3, 3), Exponential(2.0)], ids=["gamma", "gamma-3", "exponential"])
    def test_fold_reads_the_kept_rows(self, ts, law):
        # the fold draws the clock's rows only as far down as ts need;
        # simulate_paths draws them all: counts, residuals and ages agree
        stats = path_statistics(Plain(law), ts, 500, seed=37)
        paths = simulate_paths(Plain(law), max(ts), 500, child_rng(37, 0))
        n = count(paths, ts)
        assert np.array_equal(n, stats["count"])
        assert np.array_equal(residual(paths, ts), stats["residual"])
        assert np.array_equal(np.asarray(ts) - np.take_along_axis(paths.events, n - 1, axis=1), stats["age"])

    @pytest.mark.parametrize("spec,ts", [
        (Plain(Gamma(2, 2)), [100.0]),
        (Delayed(Uniform(1.0, 8.0), Gamma(2, 2)), [0.5, 100.0]),
    ], ids=["horizon", "before-every-delay"])
    def test_fold_takes_only_the_top_event_when_each_path_stops_at_the_horizon(self, monkeypatch, spec, ts):
        # 0.5 precedes every path's delay, so the clock does not answer it and
        # each path stops at the horizon: one take of the top event's m = 2 rows
        sizes, take = [], processes._ClockRows.take
        def record(rows, size, cols=None):
            sizes.append(size)
            return take(rows, size, cols)
        monkeypatch.setattr(processes._ClockRows, "take", record)
        stats = path_statistics(spec, ts, 2_000, seed=3)
        assert sizes == [2]
        if len(ts) > 1:  # before its delay a path has no event and no age
            assert np.all(stats["count"][:, 0] == 0) and np.all(np.isnan(stats["age"][:, 0]))
            assert np.array_equal(stats["residual"][:, 0], stats["delay"] - 0.5)

    @pytest.mark.parametrize("ts", [[600.0], [3.0, 600.0]], ids=["horizon", "before-some-delays"])
    @pytest.mark.parametrize("law", [Gamma(2, 2), Exponential(1.0)], ids=["gamma", "exponential"])
    def test_delayed_fold_reads_the_kept_rows(self, law, ts):
        # a query time before a path's delay is masked out of its clock's rows;
        # the fold and simulate_paths agree on counts, residuals and ages
        spec = Delayed(Uniform(0.0, 8.0), law)
        stats = path_statistics(spec, ts, 300, seed=31)
        paths = simulate_paths(spec, max(ts), 300, child_rng(31, 0))
        n = count(paths, ts)
        if len(ts) > 1:  # 3.0 precedes some delays and follows others
            assert np.any(n[:, 0] == 0) and np.any(n[:, 0] > 0)
        last = np.take_along_axis(paths.events, np.maximum(n - 1, 0), axis=1)
        assert np.array_equal(n, stats["count"])
        assert np.array_equal(residual(paths, ts), stats["residual"])
        assert np.array_equal(np.where(n > 0, np.asarray(ts) - last, np.nan), stats["age"], equal_nan=True)

    @pytest.mark.parametrize("spec", [Plain(Gamma(3, 3)), Delayed(Uniform(0.0, 8.0), Exponential(1.0))],
                             ids=["plain", "delayed"])
    def test_clock_block_holds_rising_events_then_the_overshoot(self, spec):
        # each column's q events rise strictly from its path's start and stay at
        # or before the horizon; every row after them holds its overshoot
        start, clock = processes._column_blocks(spec, 200.0, 40, child_rng(3, 0))
        (active, last, times, marks), = clock.blocks()
        assert np.array_equal(active, np.arange(40)) and np.array_equal(last, start) and marks is None
        assert np.all(clock.over > 200.0)
        for j, q in enumerate(clock.events):
            events = np.concatenate([[last[j]], times[:q, j]])
            assert np.all(np.diff(events) > 0) and events[-1] <= 200.0
            assert np.all(times[q:, j] == clock.over[j])


class TestPoissonTable:
    """The counts of clock paths of one start come from one uniform each,
    inverted through a cached Poisson table (see processes._poisson_table)."""

    MEANS = [1e-3, 0.5, 3.0, 50.0, 200.0, 2e5, 1e6]

    @pytest.mark.parametrize("mean", MEANS)
    def test_cdf_matches_scipy(self, mean):
        # summing log ratios from the mode loses a little with the table's
        # width: 6.1e-15 read through 2e5, 3.9e-11 at 1e6; outside the
        # window is less than 1e-30 of the mass
        from scipy import stats
        lo, cdf, _ = processes._poisson_table.__wrapped__(mean)
        k = np.arange(lo, lo + cdf.size)
        assert np.max(np.abs(cdf - stats.poisson.cdf(k, mean))) <= (1e-13 if mean <= 2e5 else 1e-10)
        assert stats.poisson.cdf(lo - 1, mean) + stats.poisson.sf(k[-1], mean) < 1e-30

    @pytest.mark.parametrize("mean", MEANS)
    def test_guide_gives_the_search(self, mean):
        # the guide slot, or a search where the slot holds a cdf value, lands
        # where a search of the whole cdf does, at either end of [0, 1) too
        u = np.concatenate([np.random.default_rng(35).random(10**6), [0.0, 1.0 - 2.0**-53]])
        lo, cdf, _ = processes._poisson_table(mean)
        assert np.array_equal(processes._poisson_counts(mean, u), lo + np.searchsorted(cdf, u, "right"))

    @pytest.mark.parametrize("mean", [1e2, 1e4, 2e5, 1e6, 1e7])
    def test_table_holds_order_sqrt_mean_entries(self, mean):
        # 12 sqrt(mean) + 40 counts each side of the mean, and at most 8 guide
        # slots an entry
        lo, cdf, guide = processes._poisson_table.__wrapped__(mean)
        assert cdf.size <= 24 * math.sqrt(mean) + 83
        assert 4 * cdf.size <= guide.size <= 8 * cdf.size
        if mean == 2e5:
            assert cdf.size == 10_815

    def test_zero_mean_counts_zero(self):
        # a constant delay at the horizon leaves its clock no time: every
        # path has P = 0 and holds its delay and its overshoot
        spec = Delayed(Deterministic(5.0), Gamma(2, 2))
        _, clock = processes._column_blocks(spec, 5.0, 100, child_rng(4, 0))
        assert np.all(clock.phases == 0)
        paths = simulate_paths(spec, 5.0, 100, child_rng(4, 0))
        assert np.all(count(paths, 5.0) == 1) and np.all(paths.events[:, 0] == 5.0)
        assert np.all(paths.events[:, 1] > 5.0) and np.all(np.isinf(paths.events[:, 2:]))

    @pytest.mark.parametrize("mean", [50.0, 200.0])
    def test_counts_have_the_poisson_moments(self, mean):
        # 10^6 counts: the mean within 4 se of sqrt(mean / n), the sample
        # variance within 4 se of sqrt((mean + 2 mean^2) / n)
        n = 10**6
        x = processes._poisson_counts(mean, np.random.default_rng(36).random(n))
        assert abs(x.mean() - mean) <= 4 * math.sqrt(mean / n)
        assert abs(x.var(ddof=1) - mean) <= 4 * math.sqrt((mean + 2 * mean**2) / n)


class TestWalk:
    """Without a clock a path walks: blocks of gaps drawn for every path still
    at or before the horizon (see processes._block_widths)."""

    @pytest.mark.parametrize("spec,tmax,cover,first", [
        (Plain(Gamma(2, 2)), 100.0, 108, [108, 16, 16]),  # 100 events, sd 7.07: stragglers take 16
        (Plain(Gamma(2, 2)), 1_000.0, 1_023, [256, 256, 256, 255, 22, 22]),  # sd 22.4
        (Plain(Uniform(0.0, 2.0)), 512.0, 526, [256, 256, 14, 16]),  # sd sqrt(512 / 3) = 13.1
        (TWO_STATE, 100.0, 61, [61, 16]),  # mean gap 2 over the states, largest variance 9: sd 10.6
        (Plain(ParetoShifted(1.5)), 200.0, 132, [132, 31, 31]),  # infinite variance: sd 100^0.75
    ], ids=["gamma", "gamma-several-blocks", "uniform", "modulated", "pareto"])
    def test_widths_cover_the_mean_count_and_one_sd(self, spec, tmax, cover, first):
        got, widths = processes._block_widths(spec, tmax)
        assert (got, list(itertools.islice(widths, len(first)))) == (cover, first)

    @pytest.mark.parametrize("spec,clocked", [
        (Plain(Uniform(0.0, 2.0)), False), (Plain(Mixture((1.0,), (Gamma(2, 2),))), False), (TWO_STATE, False),
        (StationaryMA(2, Exponential(1.0)), False), (Delayed(Gamma(2, 2), ParetoShifted(2.5)), False),
        (Delayed(ParetoShifted(2.5), Gamma(2, 2)), True), (Plain(Exponential(1.0)), True),
    ], ids=["uniform", "mixture", "modulated", "ma", "gamma-delay", "pareto-delay", "exponential"])
    def test_only_an_erlang_lifetime_gets_a_clock(self, spec, clocked):
        # a delay is drawn once a path, so only the lifetime law decides; a
        # modulated chain or a moving average walks though its laws are Erlang
        _, clock, *walked = processes._column_blocks(spec, 100.0, 50, child_rng(3, 0))
        assert (clock is not None) == clocked and bool(walked) != clocked


class TestQueries:
    def test_count_examples(self):
        p = simulate_path(Plain(Deterministic(1.0)), 3.5, 0)
        assert count(p, 3.5) == 4
        assert count(p, 0.0) == 1  # the origin event counts

    def test_delayed_count_before_delay(self):
        p = simulate_path(Delayed(Deterministic(0.5), Deterministic(1.0)), 2.0, 0)
        assert count(p, 0.25) == 0

    def test_residual_examples(self):
        p = simulate_path(Plain(Deterministic(1.0)), 3.5, 0)
        assert residual(p, 0.25) == pytest.approx(0.75)
        assert residual(p, 1.0) == pytest.approx(1.0)  # at an event: next gap

    def test_out_of_range(self):
        p = simulate_path(Plain(Exponential(1.0)), 5.0, 0)
        with pytest.raises(ValueError):
            count(p, 5.5)
        with pytest.raises(ValueError):
            residual(p, -0.1)
        with pytest.raises(ValueError, match="query times"):  # NaN passes `< 0` and `> horizon`
            count(p, [1.0, float("nan")])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_binary_search_equals_linear_scan(self, seed):
        p = simulate_path(Plain(Gamma(2, 2)), 15.0, seed)
        ts = np.linspace(0.0, 15.0, 1000)
        fast = count(p, ts)
        slow = np.array([int(np.sum(p.events <= t)) for t in ts])
        assert np.array_equal(fast, slow)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_elapsed_plus_residual_is_next_event(self, seed):
        p = simulate_path(Plain(Exponential(1.0)), 12.0, seed)
        ts = np.linspace(0.0, 12.0, 200)
        n = count(p, ts)
        r = residual(p, ts)
        assert np.allclose(ts + r, p.events[n], rtol=1e-13, atol=1e-13)


class TestEquilibriumDelay:
    def test_exponential_fixed_point(self):
        # the excess law of an exponential is the same exponential
        rng = np.random.default_rng(3)
        draws = np.array([EquilibriumOf(Exponential(1.0)).draw(rng) for _ in range(2000)])
        draws.sort()
        cdf = 1 - np.exp(-draws)
        n = draws.size
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(n) / n)),
        )
        assert ks < 1.95 / math.sqrt(n)

    def test_deterministic_becomes_uniform(self):
        rng = np.random.default_rng(4)
        draws = np.array([EquilibriumOf(Deterministic(2.0)).draw(rng) for _ in range(2000)])
        draws.sort()
        cdf = np.clip(draws / 2.0, 0, 1)
        n = draws.size
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(n) / n)),
        )
        assert ks < 1.95 / math.sqrt(n)

    def test_inverse_at_zero(self):
        eq = EquilibriumOf(Exponential(1.0))
        assert float(eq.inverse_cdf(np.array([0.0]))[0]) <= 1e-9

    def test_infinite_mean_rejected(self):
        from countproc.lifetimes import ParetoShifted

        with pytest.raises(ValueError):
            EquilibriumOf(ParetoShifted(1.5)).draw(np.random.default_rng(0))

    def test_stationary_increments(self):
        # with an equilibrium delay the count increments are stationary
        spec = Delayed("equilibrium", Exponential(1.0))
        ts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0]
        stats = path_statistics(spec, ts, 100_000, seed=17)
        for i in range(0, 6, 2):
            inc = stats["count"][:, i + 1] - stats["count"][:, i]
            se = inc.std(ddof=1) / math.sqrt(inc.size)
            assert abs(inc.mean() - 1.0) <= 4 * se, f"window starting at {ts[i]}"


class TestModulated:
    def test_state_frequencies_match_embedded_chain(self):
        # deterministic alternation: embedded stationary law is uniform
        p = simulate_path(TWO_STATE, 2.0 * 10**5, 0)
        states = p.marks[: len(p.events) - 1]
        assert len(states) > 50_000
        freq_a = np.mean(states == TWO_STATE.states.index("a"))
        tv = abs(freq_a - 0.5)
        assert tv <= 0.01

    def test_state_governs_gap(self):
        # holding means differ 1 vs 3: regression by state on one long path
        p = simulate_path(TWO_STATE, 10**5, 1)
        gaps = p.interarrivals
        states = np.array(TWO_STATE.states)[p.marks[: gaps.size]]
        mean_a = gaps[states == "a"].mean()
        mean_b = gaps[states == "b"].mean()
        assert abs(mean_a - 1.0) < 0.05
        assert abs(mean_b - 3.0) < 0.1

    def test_initial_state_label(self):
        spec = Modulated(TWO_STATE.states, TWO_STATE.kernel, TWO_STATE.lifetimes, initial="b")
        paths = simulate_paths(spec, 1.0, 500, child_rng(5, 0))
        assert set(paths.marks[:, 0].tolist()) == {spec.states.index("b")}

    def test_initial_law_mapping(self):
        spec = Modulated(TWO_STATE.states, TWO_STATE.kernel, TWO_STATE.lifetimes,
                         initial={"a": 0.3, "b": 0.7})
        first = simulate_paths(spec, 1.0, 4000, child_rng(5, 0)).marks[:, 0]
        se = math.sqrt(0.3 * 0.7 / first.size)
        assert abs(np.mean(first == spec.states.index("a")) - 0.3) <= 4 * se

    def test_kernel_row_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Modulated(
                states=("a", "b"),
                kernel=((0.5, 0.4), (1.0, 0.0)),
                lifetimes={"a": Exponential(1.0), "b": Exponential(1.0)},
            )

    @pytest.mark.parametrize("kernel,initial,message", [
        (((math.nan, 1.0), (1.0, 0.0)), None, "kernel row 0 must be nonnegative, got [nan, 1.0]"),
        (((0.0, 1.0), (1.5, -0.5)), None, "kernel row 1 must be nonnegative, got [1.5, -0.5]"),
        (((0.0, 1.0), (1.0, 0.0)), {"a": 1.5, "b": -0.5}, "initial law must be nonnegative, got [1.5, -0.5]"),
        (((0.0, 1.0), (1.0, 0.0)), {"a": math.nan, "b": 1.0}, "initial law must be nonnegative, got [nan, 1.0]"),
        (((0.0, 1.0), (1.0, 0.0)), {"a": 0.5}, "initial law must sum to 1 within 1e-12"),
    ], ids=["kernel-nan", "kernel-negative", "initial-negative", "initial-nan", "initial-short"])
    def test_probability_vectors_validated(self, kernel, initial, message):
        with pytest.raises(ValueError) as err:
            Modulated(("a", "b"), kernel, TWO_STATE.lifetimes, initial)
        assert str(err.value) == message

    def test_missing_lifetime_validated(self):
        with pytest.raises(ValueError, match="missing"):
            Modulated(
                states=("a", "b"),
                kernel=((0.0, 1.0), (1.0, 0.0)),
                lifetimes={"a": Exponential(1.0)},
            )


class TestStationaryMA:
    def test_dependence_range(self):
        # gaps are (m-1)-dependent: lag-1 correlated, lag >= m uncorrelated
        m = 2
        p = simulate_path(StationaryMA(m, Exponential(1.0)), 10**5, 5)
        gaps = p.interarrivals
        n = gaps.size
        x = gaps - gaps.mean()
        denom = float(np.dot(x, x))
        for k in range(1, m + 4):
            rho = float(np.dot(x[:-k], x[k:])) / denom
            if k < m:
                assert rho > 0.3  # shared base draw: correlation 1/2 at lag 1
            else:
                assert abs(rho) <= 4.0 / math.sqrt(n)

    def test_trace_matches_window_sums(self):
        p = simulate_path(StationaryMA(3, Exponential(1.0)), 20.0, 2)
        gaps = p.interarrivals
        # consecutive gaps share marks: 3*T_{k+1} = marks_k + (new draw);
        # reconstruct new draws and check positivity
        new_draws = 3 * gaps - p.marks[: gaps.size]
        assert np.all(new_draws > 0)

    def test_order_one_is_plain_renewal(self):
        p = simulate_path(StationaryMA(1, Exponential(1.0)), 10.0, 3)
        assert np.all(p.marks == 0)


class TestSerialization:
    def test_spec_round_trips(self):
        specs = [
            Plain(Exponential(1.0)),
            Delayed("equilibrium", Gamma(2, 2)),
            Delayed(Deterministic(0.5), Exponential(1.0)),
            TWO_STATE,
            StationaryMA(2, Exponential(1.0)),
            Modulated(("a", "b"), ((0.5, 0.5), (1.0, 0.0)),
                      {"a": Gamma(2.0, 2.0), "b": Uniform(0.0, 4.0)}, {"a": 0.25, "b": 0.75}),
            Delayed(Mixture((0.5, 0.5), (Exponential(1.0), Uniform(0.0, 2.0))), Gamma(2, 2)),
        ]
        for spec in specs:
            back = spec_from_json(json.loads(json.dumps(spec.to_json())))
            assert back == spec

    def test_wire_format_pinned(self):
        # field order, nesting and the "equilibrium" write-back
        spec = Modulated(("b", "a"), ((0.0, 1.0), (1.0, 0.0)),
                         {"a": Exponential(1.0), "b": Mixture((1.0,), (Deterministic(2),))}, "a")
        assert json.dumps(spec.to_json()) == (
            '{"kind": "modulated", "states": ["b", "a"], "kernel": [[0.0, 1.0], [1.0, 0.0]], '
            '"lifetimes": {"b": {"kind": "mixture", "weights": [1.0], "components": '
            '[{"kind": "deterministic", "value": 2.0}]}, "a": {"kind": "exponential", "rate": 1.0}}, '
            '"initial": "a"}'
        )
        assert json.dumps(Delayed("equilibrium", Exponential(1.0)).to_json()) == (
            '{"kind": "delayed", "delay": "equilibrium", "lifetime": {"kind": "exponential", "rate": 1.0}}'
        )
        assert json.dumps(StationaryMA(3, Uniform(0.0, 2.0)).to_json()) == (
            '{"kind": "stationary_ma", "order": 3, "base": {"kind": "uniform", "low": 0.0, "high": 2.0}}'
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown process kind"):
            spec_from_json({"kind": "hawkes"})

    @pytest.mark.parametrize("obj,message", [
        ({"kind": "stationary_ma", "order": 2.7, "base": EXP_JSON},
         "order: must be a whole number, got 2.7"),
        ({"kind": "stationary_ma", "order": True, "base": EXP_JSON},
         "order: must be a whole number, got True"),
        ({"kind": "plain"}, "missing fields for 'plain' process: ['lifetime']"),
        ({"kind": "plain", "lifetime": {"kind": "gamma", "shape": 2.0}},
         "lifetime: missing fields for 'gamma' distribution: ['rate']"),
        ({"kind": "plain", "lifetime": EXP_JSON, "delay": "equilibrium"},
         "unknown fields for 'plain' process: ['delay']"),
        ({"kind": "delayed", "lifetime": EXP_JSON, "delay": {
            "kind": "mixture", "weights": [0.5, 0.5], "components": [EXP_JSON, {"kind": "exponential", "rate": "2"}]}},
         "delay.components[1].rate: must be a number, got '2'"),
        ({"kind": "delayed", "lifetime": EXP_JSON, "delay": "stationary"},
         "delay: must be a distribution object or 'equilibrium', got 'stationary'"),
        ({"kind": "modulated", "states": ["a"], "kernel": [[1.0]],
          "lifetimes": {"a": {"kind": "exponential", "rate": True}}},
         "lifetimes.a.rate: must be a number, got True"),
        ({"kind": "modulated", "states": ["a", "b"], "kernel": [[0.0, 1.0], [1.0, "0"]],
          "lifetimes": {"a": EXP_JSON, "b": EXP_JSON}},
         "kernel[1][1]: must be a number, got '0'"),
        ({"kind": "modulated", "states": ["a"], "kernel": [[1.0]], "lifetimes": {"a": EXP_JSON},
          "initial": 0}, "initial: must be a string or an object or null, got 0"),
        ({"kind": "modulated", "states": ["a"], "kernel": [[1.0]], "lifetimes": {"a": EXP_JSON},
          "initial": {"a": "1"}}, "initial.a: must be a number, got '1'"),
    ], ids=["order-fraction", "order-bool", "missing-lifetime", "missing-nested", "unknown-field",
            "mixture-delay-component", "delay-string", "state-law", "kernel-entry",
            "initial-number", "initial-entry"])
    def test_field_errors_name_their_path(self, obj, message):
        with pytest.raises(ValueError) as err:
            spec_from_json(obj)
        assert str(err.value) == message

    def test_whole_number_order_accepted(self):
        assert spec_from_json({"kind": "stationary_ma", "order": 2.0, "base": EXP_JSON}) == \
            StationaryMA(2, Exponential(1.0))

    def test_ndjson_export(self):
        p = simulate_path(TWO_STATE, 5.0, 0)
        buf = io.StringIO()
        write_events_ndjson(p, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == len(p.events)
        assert lines[0]["index"] == 0 and lines[0]["interarrival"] is None
        assert lines[1]["interarrival"] == pytest.approx(float(p.events[1] - p.events[0]))
        assert lines[0]["state"] in ("a", "b")

    def test_ndjson_rejects_a_block(self):
        # each "line" would be a whole row of the block
        block = simulate_paths(Plain(Gamma(2, 2)), 3.0, 3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="one path"):
            write_events_ndjson(block, io.StringIO())

    @pytest.mark.parametrize("spec,horizon", [
        (Plain(Gamma(2, 2)), 5000.0),
        (Delayed("equilibrium", Gamma(2, 2)), 5000.0),
        (Modulated(states=('a"b', "é"), kernel=((0.0, 1.0), (1.0, 0.0)),
                   lifetimes={'a"b': Exponential(1.0), "é": Exponential(1.0 / 3.0)}), 10000.0),
        (StationaryMA(2, Gamma(2, 2)), 5000.0),
    ], ids=["plain", "delayed", "modulated-escaped-labels", "ma2"])
    def test_ndjson_matches_json_dumps(self, spec, horizon):
        # only a modulated path writes states: an MA path's marks are not labels
        p = simulate_path(spec, horizon, 4)
        assert p.events.size > 4096  # several write batches
        gaps = p.interarrivals
        expected = "".join(
            json.dumps({
                "index": i,
                "time": float(t),
                "interarrival": float(gaps[i - 1]) if i > 0 else None,
                "state": spec.states[p.marks[i]] if isinstance(spec, Modulated) else None,
            }) + "\n"
            for i, t in enumerate(p.events)
        )
        buf = io.StringIO()
        write_events_ndjson(p, buf)
        assert buf.getvalue() == expected

    def test_hand_path_builder(self):
        p = path_from_interarrivals([0.5, 2.0], horizon=2.0)
        assert np.allclose(p.events, [0.0, 0.5, 2.5])
        with pytest.raises(ValueError):
            path_from_interarrivals([0.5, 1.0], horizon=2.0)  # no overshoot
