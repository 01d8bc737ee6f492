"""Path simulation: event grids, counting queries, stationarity checks."""

import io
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
        assert p.events[0, 5] > 0.0
        assert p.events[0, 6] == np.nextafter(p.events[0, 5], np.inf)
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
        # path still before the horizon after its first block of 58 gaps is
        # stopped when the next block takes it past 60 drawn gaps
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
        # and for MA(2) trace[i + 1] = U_{i+1} = 2 T_i - trace[i]
        paths = simulate_paths(TWO_STATE, 30.0, 50, child_rng(2, 0))
        assert paths.states.shape == paths.events.shape
        for r in range(50):
            p = paths[r]
            assert p.states.size == p.events.size
            assert np.all(p.states[1:] != p.states[:-1])
        paths = simulate_paths(StationaryMA(2, Exponential(1.0)), 30.0, 50, child_rng(2, 0))
        assert paths.ma_trace.shape == paths.events.shape
        for r in range(50):
            p = paths[r]
            assert p.ma_trace.size == p.events.size
            np.testing.assert_allclose(p.ma_trace[1:], 2 * p.interarrivals - p.ma_trace[:-1],
                                       rtol=1e-9, atol=1e-9)

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
        for name in ("events", "states", "ma_trace"):
            a, b = getattr(p, name), getattr(row, name)
            assert (a is None and b is None) or np.array_equal(a, b)


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
        states = p.states[: len(p.events) - 1]
        assert len(states) > 50_000
        freq_a = np.mean(states == TWO_STATE.states.index("a"))
        tv = abs(freq_a - 0.5)
        assert tv <= 0.01

    def test_state_governs_gap(self):
        # holding means differ 1 vs 3: regression by state on one long path
        p = simulate_path(TWO_STATE, 10**5, 1)
        gaps = p.interarrivals
        states = np.array(TWO_STATE.states)[p.states[: gaps.size]]
        mean_a = gaps[states == "a"].mean()
        mean_b = gaps[states == "b"].mean()
        assert abs(mean_a - 1.0) < 0.05
        assert abs(mean_b - 3.0) < 0.1

    def test_initial_state_label(self):
        spec = Modulated(TWO_STATE.states, TWO_STATE.kernel, TWO_STATE.lifetimes, initial="b")
        paths = simulate_paths(spec, 1.0, 500, child_rng(5, 0))
        assert set(paths.states[:, 0].tolist()) == {spec.states.index("b")}

    def test_initial_law_mapping(self):
        spec = Modulated(TWO_STATE.states, TWO_STATE.kernel, TWO_STATE.lifetimes,
                         initial={"a": 0.3, "b": 0.7})
        first = simulate_paths(spec, 1.0, 4000, child_rng(5, 0)).states[:, 0]
        se = math.sqrt(0.3 * 0.7 / first.size)
        assert abs(np.mean(first == spec.states.index("a")) - 0.3) <= 4 * se

    def test_kernel_row_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Modulated(
                states=("a", "b"),
                kernel=((0.5, 0.4), (1.0, 0.0)),
                lifetimes={"a": Exponential(1.0), "b": Exponential(1.0)},
            )

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
        # consecutive gaps share trace: 3*T_{k+1} = trace_k + (new draw);
        # reconstruct new draws and check positivity
        new_draws = 3 * gaps - p.ma_trace[: gaps.size]
        assert np.all(new_draws > 0)

    def test_order_one_is_plain_renewal(self):
        p = simulate_path(StationaryMA(1, Exponential(1.0)), 10.0, 3)
        assert np.all(p.ma_trace == 0)


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
        (Modulated(states=('a"b', "é"), kernel=((0.0, 1.0), (1.0, 0.0)),
                   lifetimes={'a"b': Exponential(1.0), "é": Exponential(1.0 / 3.0)}), 10000.0),
    ], ids=["plain", "modulated-escaped-labels"])
    def test_ndjson_matches_json_dumps(self, spec, horizon):
        p = simulate_path(spec, horizon, 4)
        assert p.events.size > 4096  # several write batches
        gaps = p.interarrivals
        expected = "".join(
            json.dumps({
                "index": i,
                "time": float(t),
                "interarrival": float(gaps[i - 1]) if i > 0 else None,
                "state": spec.states[p.states[i]] if p.states is not None else None,
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
