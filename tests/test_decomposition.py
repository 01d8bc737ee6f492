"""Pathwise identities: hand values, exactness batteries, noise-term statistics."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from countproc.lifetimes import Deterministic, Exponential, Gamma, ParetoShifted, Uniform
from countproc.processes import (
    Delayed,
    Modulated,
    Plain,
    StationaryMA,
    child_rng,
    count,
    path_from_interarrivals,
    residual,
    simulate_path,
    simulate_paths,
)
from countproc.decomposition import (
    ConditionalMeanOracle,
    DecompositionReport,
    build_reports,
    centered_residual_functional,
    counting_functional,
    decompose_functional,
    decomposition_residual,
    martingale,
    optional_quadratic_variation,
    predictable_quadratic_variation,
    quadratic_error_bound,
    reports_to_csv,
    squared_noise_functional,
    tolerance_for,
    truncated_decomposition_residual,
    truncated_rate,
    wald_residual,
)
from countproc.asymptotics import path_statistics

TWO_STATE = Modulated(
    states=("a", "b"),
    kernel=((0.0, 1.0), (1.0, 0.0)),
    lifetimes={"a": Exponential(1.0), "b": Exponential(1.0 / 3.0)},
)

ALL_SPECS = [
    Plain(Gamma(2, 2)),
    Delayed("equilibrium", Exponential(1.0)),
    TWO_STATE,
    StationaryMA(2, Exponential(1.0)),
]


HAND = path_from_interarrivals([0.5, 2.0], horizon=2.0)


class TestHandValues:
    def test_martingale(self):
        assert martingale(HAND, 1.0, 0.7) == pytest.approx(-0.5)

    def test_deterministic_martingale_vanishes(self):
        p = simulate_path(Plain(Deterministic(1.0)), 6.0, 0)
        ts = np.linspace(0, 6, 25)
        assert np.allclose(martingale(p, 1.0, ts), 0.0)

    def test_identity(self):
        assert decomposition_residual(HAND, 1.0, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_optional_qv(self):
        assert optional_quadratic_variation(HAND, 1.0, 0.7) == pytest.approx(1.25)

    def test_wald(self):
        assert wald_residual(HAND, 1.0, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_wald_deterministic(self):
        p = simulate_path(Plain(Deterministic(1.0)), 6.0, 0)
        assert wald_residual(p, 1.0, 4.2) == pytest.approx(0.0, abs=1e-12)

    def test_predictable_qv_counts_events(self):
        p = simulate_path(Plain(Exponential(1.0)), 10.0, 3)
        n = count(p, 8.0)
        assert predictable_quadratic_variation(p, 1.0, 1.0, 8.0) == pytest.approx(float(n))

    def test_predictable_qv_needs_variance(self):
        p = simulate_path(Plain(ParetoShifted(1.5)), 10.0, 3)
        with pytest.raises(ValueError):
            predictable_quadratic_variation(p, 0.5, math.inf, 5.0)

    def test_error_bound_values(self):
        assert quadratic_error_bound(Exponential(1.0), 10.0) == pytest.approx(12.0)
        assert quadratic_error_bound(Deterministic(1.0), 10.0) == 0.0
        with pytest.raises(ValueError):
            quadratic_error_bound(ParetoShifted(1.5), 10.0)


class TestTruncatedRate:
    def test_plain_constant(self):
        p = simulate_path(Plain(Exponential(1.0)), 10.0, 1)
        oracle = ConditionalMeanOracle(p.spec)
        lam = truncated_rate(p, oracle, 1.0, 5.0)
        assert lam == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))
        assert lam == pytest.approx(1.58198, abs=1e-5)

    def test_large_v_recovers_rate(self):
        p = simulate_path(Plain(Gamma(2, 2)), 10.0, 1)
        oracle = ConditionalMeanOracle(p.spec)
        assert truncated_rate(p, oracle, math.inf, 5.0) == pytest.approx(1.0)

    def test_bounded_below_by_inverse_v(self):
        p = simulate_path(Plain(Gamma(2, 2)), 10.0, 2)
        oracle = ConditionalMeanOracle(p.spec)
        for v in (0.1, 0.5, 2.0):
            assert truncated_rate(p, oracle, v, 3.0) * v >= 1.0

    def test_modulated_alternation(self):
        p = simulate_path(TWO_STATE, 40.0, 3)
        oracle = ConditionalMeanOracle(TWO_STATE)
        ts = np.asarray(p.events[:-1])[1:8] + 1e-6  # just after each event
        lam = truncated_rate(p, oracle, 1e9, ts)
        states = p.marks[1:8]
        expect = np.where(states == TWO_STATE.states.index("a"), 1.0, 1.0 / 3.0)
        assert np.allclose(lam, expect)

    def test_nonpositive_oracle_rejected(self):
        p = simulate_path(Plain(Exponential(1.0)), 5.0, 1)

        class Bad:
            def interval_means(self, path, v):
                return np.zeros(path.events.size - 1 + path.delayed)

        with pytest.raises(ValueError):
            truncated_rate(p, Bad(), 1.0, 2.0)


class TestTruncatedIdentity:
    def test_deterministic_geometry(self):
        p = simulate_path(Plain(Deterministic(1.0)), 2.5, 0)
        oracle = ConditionalMeanOracle(p.spec)
        res = truncated_decomposition_residual(p, oracle, 0.5, 2.25)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_large_v_reduces_to_plain_identity(self):
        p = simulate_path(Plain(Gamma(2, 2)), 15.0, 5)
        oracle = ConditionalMeanOracle(p.spec)
        big_v = float(np.max(p.interarrivals)) + 1.0
        ts = np.linspace(0, 15, 60)
        trunc = truncated_decomposition_residual(p, oracle, big_v, ts)
        assert np.max(np.abs(trunc)) <= 1e-10

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["plain", "delayed", "modulated", "ma"])
    def test_exactness_battery(self, spec):
        oracle = ConditionalMeanOracle(spec)
        ts = np.linspace(0.2, 20.0, 100)
        for i in range(250):
            p = simulate_path(spec, 20.0, child_rng(123, i))
            tol = tolerance_for(count(p, ts))
            res = decomposition_residual(p, 1.0, ts)
            assert np.all(np.abs(res) <= tol)
            for v in (0.1, 1.0, 10.0, math.inf):
                tres = truncated_decomposition_residual(p, oracle, v, ts)
                assert np.all(np.abs(tres) <= tol), f"path {i}, v={v}"

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["plain", "delayed", "modulated", "ma"])
    def test_v_independence_of_totals(self, spec):
        # drift + truncated residual term + noise rebuilds the count for
        # every truncation level, so totals agree across v
        oracle = ConditionalMeanOracle(spec)
        p = simulate_path(spec, 20.0, child_rng(9, 0))
        ts = np.linspace(0.5, 20.0, 40)
        n = count(p, ts)
        tol = 2.0 * tolerance_for(n)
        totals = []
        for v in (0.1, 1.0, 10.0, math.inf):
            res = truncated_decomposition_residual(p, oracle, v, ts)
            totals.append(np.asarray(n, dtype=float) - res)
        for other in totals[1:]:
            assert np.all(np.abs(other - totals[0]) <= tol)


class TestNoiseStatistics:
    def test_null_mean_plain_and_delayed(self):
        for spec in (Plain(Exponential(1.0)), Delayed("equilibrium", Gamma(2, 2))):
            stats = path_statistics(spec, [1.0, 10.0, 50.0], 40_000, seed=31)
            delay = stats.get("delay", 0.0)
            rate = 1.0
            for j, t in enumerate((1.0, 10.0, 50.0)):
                m = stats["count"][:, j] - rate * (t + stats["residual"][:, j] - delay)
                se = m.std(ddof=1) / math.sqrt(m.size)
                assert abs(m.mean()) <= 4 * se, f"{spec} at t={t}"

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=["plain", "delayed", "modulated", "ma"])
    @pytest.mark.parametrize("v", [1.0, math.inf], ids=["v1", "vinf"])
    def test_truncated_noise_null_mean(self, spec, v):
        # the truncated noise term sums 1 - lam_i * min(gap_i, v) over the
        # gaps observed by time t and has zero mean at every t, for every kind
        oracle = ConditionalMeanOracle(spec)
        t = 10.0
        paths = simulate_paths(spec, t, 4000, child_rng(77, 0))
        n = count(paths, t)
        # interval 0 of a delayed path is the delay, which is not a noise summand
        means = oracle.interval_means(paths, v)[:, int(paths.delayed):]
        terms = 1.0 - np.minimum(paths.interarrivals, v) / means
        vals = np.where(np.arange(terms.shape[1]) < n[:, None], terms, 0.0).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 4 * se

    def test_increment_orthogonal_to_past(self):
        stats = path_statistics(Plain(Gamma(2, 2)), [5.0, 20.0], 60_000, seed=13)
        rate = 1.0
        m5 = stats["count"][:, 0] - rate * (5.0 + stats["residual"][:, 0])
        m20 = stats["count"][:, 1] - rate * (20.0 + stats["residual"][:, 1])
        even = (stats["count"][:, 0] % 2 == 0).astype(float)
        prod = (m20 - m5) * (even - even.mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean()) <= 4 * se

    def test_qv_consistency(self, chunk_paths):
        # mean of the jump-sum form matches mean of the count form
        spec = Plain(Exponential(1.0))
        blocks = [(optional_quadratic_variation(paths, 1.0, 20.0), count(paths, 20.0))
                  for paths in chunk_paths(spec, 20.0, 50_000, 19)]
        optional = np.concatenate([qv for qv, _ in blocks])
        predictable = np.concatenate([n for _, n in blocks])  # rate^2 * var = 1
        diff = optional - predictable
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 4 * se

    def test_error_bound_dominates_wald_error(self):
        spec = Plain(Gamma(2, 2))
        t = 10.0
        stats = path_statistics(spec, [t], 50_000, seed=23)
        m = stats["count"][:, 0] - 1.0 * (t + stats["residual"][:, 0])
        msq = m**2  # (E T)^2 = 1 here
        se = msq.std(ddof=1) / math.sqrt(msq.size)
        assert msq.mean() <= quadratic_error_bound(spec.lifetime, t) + 3 * se


def per_event_split(path, evaluator, t):
    """Reference for decompose_functional: the per-event sweep, one scalar
    evaluator call at a time, summing each term in event order."""
    drift = predictable = noise = 0.0
    running, prev = float(evaluator.initial(path)), 0.0
    for k in range(count(path, t)):
        tk = float(path.events[k])
        seg = float(evaluator.derivative(path, 0.5 * (prev + tk))) * (tk - prev)
        drift, running = drift + seg, running + seg
        value_at, cm = float(evaluator.value(path, tk)), float(evaluator.conditional_mean(path, k))
        predictable, noise = predictable + cm - running, noise + value_at - cm
        running, prev = value_at, tk
    return drift + float(evaluator.derivative(path, 0.5 * (prev + t))) * (t - prev), predictable, noise


class TestFunctionalDecomposition:
    def test_counting_functional_is_pure_drift(self):
        p = simulate_path(Plain(Exponential(1.0)), 12.0, 5)
        f = counting_functional()
        integral, predictable, noise = decompose_functional(p, f, 9.0)
        assert integral == 0.0
        assert predictable == pytest.approx(float(count(p, 9.0)))
        assert noise == pytest.approx(0.0, abs=1e-12)

    def test_centered_residual_recovers_martingale(self):
        p = simulate_path(Plain(Gamma(2, 2)), 12.0, 6)
        f = centered_residual_functional(rate=1.0)
        integral, predictable, noise = decompose_functional(p, f, 9.0)
        assert integral == pytest.approx(9.0)
        assert predictable == pytest.approx(0.0, abs=1e-9)
        assert noise == pytest.approx(martingale(p, 1.0, 9.0), abs=1e-9)

    def test_centered_residual_delayed(self):
        p = simulate_path(Delayed(Deterministic(0.5), Deterministic(1.0)), 2.0, 0)
        f = centered_residual_functional(rate=1.0)
        integral, predictable, noise = decompose_functional(p, f, 1.75)
        assert predictable == pytest.approx(0.0, abs=1e-12)
        # initial value -rate*delay balances: count = drift + noise + initial
        assert -0.5 + integral + predictable + noise == pytest.approx(
            float(count(p, 1.75)) - 1.0 * float(p.events[2] - 1.75), abs=1e-12
        )

    def test_squared_noise_predictable_part(self):
        spec = Plain(Exponential(1.0))
        p = simulate_path(spec, 12.0, 7)
        f = squared_noise_functional(rate=1.0, sigma2=1.0)
        integral, predictable, noise = decompose_functional(p, f, 9.0)
        assert integral == 0.0
        assert predictable == pytest.approx(float(count(p, 9.0)), abs=1e-9)

    def test_inconsistent_jump_rejected(self):
        p = simulate_path(Plain(Exponential(1.0)), 8.0, 8)

        class Lying(counting_functional):
            def jump(self, path, k):
                return 2.0

        f = Lying()
        with pytest.raises(ValueError, match="jump"):
            decompose_functional(p, f, 5.0)

    def test_first_inconsistent_jump_named(self):
        p = simulate_path(Plain(Exponential(1.0)), 8.0, 8)

        class LyingLater(counting_functional):
            def jump(self, path, k):
                return np.where(k >= 3, 2.0, 1.0)

        f = LyingLater()
        with pytest.raises(ValueError, match="at event 3 "):
            decompose_functional(p, f, 5.0)

    # a delayed path, and a long one that a per-event loop would take about a second on
    @pytest.mark.parametrize("spec,horizon,t", [
        (Delayed(Exponential(0.5), Gamma(2, 2)), 60.0, 50.0),
        (Plain(Gamma(2, 2)), 5010.0, 5000.0),
    ], ids=["delayed", "long"])
    def test_identities_on_whole_paths(self, spec, horizon, t):
        p = simulate_path(spec, horizon, 3)
        n = count(p, t)
        rate, sigma2 = 1.0, 0.5  # Gamma(2, 2): mean 1, variance 1/2
        f = counting_functional()
        _, predictable, noise = decompose_functional(p, f, t)
        assert predictable == n
        assert noise == 0.0
        f = centered_residual_functional(rate)
        integral, _, noise = decompose_functional(p, f, t)
        assert integral == pytest.approx(rate * t, rel=1e-12)
        assert noise == pytest.approx(martingale(p, rate, t), rel=1e-9, abs=1e-9)
        f = squared_noise_functional(rate, sigma2)
        _, predictable, _ = decompose_functional(p, f, t)
        assert predictable == pytest.approx(rate**2 * sigma2 * n, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("f", [
        counting_functional(), centered_residual_functional(1.0), squared_noise_functional(1.0, 0.5),
    ], ids=["counting", "centered-residual", "squared-noise"])
    @pytest.mark.parametrize("spec", [Plain(Gamma(2, 2)), Delayed(Exponential(0.5), Gamma(2, 2))],
                             ids=["plain", "delayed"])
    def test_matches_per_event_loop(self, spec, f):
        # the array pass sums in another order: equal to rounding, about
        # 1e-16 relative per event over some 400 events
        p = simulate_path(spec, 410.0, 5)
        got = decompose_functional(p, f, 400.0)
        assert got == pytest.approx(per_event_split(p, f, 400.0), rel=1e-12, abs=1e-12)


class TestReports:
    def test_report_rows_and_csv(self):
        p = simulate_path(Plain(Exponential(1.0)), 10.0, 11)
        reports = build_reports(p, 1.0, 1.0, 1.0, [1.0, 5.0, 9.0])
        assert len(reports) == 3
        for rep in reports:
            assert abs(rep.identity_residual) <= tolerance_for(rep.count)
            assert abs(rep.wald_residual) <= tolerance_for(rep.count)
            assert rep.optional_qv >= 0
        buf = io.StringIO()
        reports_to_csv(reports, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("t,count,residual,martingale,drift")
        assert len(lines) == 4

    def test_report_without_variance(self):
        p = simulate_path(Plain(ParetoShifted(2.5)), 10.0, 11)
        reports = build_reports(p, 1.5, 1.0 / 1.5, math.inf, [2.0])
        assert reports[0].predictable_qv is None
        buf = io.StringIO()
        reports_to_csv(reports, buf)
        assert ",," in buf.getvalue().splitlines()[1]

    def test_csv_pinned(self):
        rep = DecompositionReport(0.1, 3, 2.5, -1.0, 2.0, 0.0, 4.0, None, 1e-17)
        buf = io.StringIO()
        reports_to_csv([rep], buf)
        assert buf.getvalue() == (
            "t,count,residual,martingale,drift,identity_residual,optional_qv,predictable_qv,wald_residual\n"
            "0.10000000000000001,3,2.5,-1,2,0,4,,1.0000000000000001e-17\n"
        )


def lookup_cases():
    """One path per spec kind, queried at 0, at every stored event up to the
    horizon, at the horizon, and (delayed path) halfway to the first event."""
    specs = ALL_SPECS + [Delayed(Deterministic(3.0), Gamma(2, 2))]
    for spec in specs:
        p = simulate_path(spec, 12.0, child_rng(41, 0))
        ts = np.concatenate([[0.0, min(p.events[0], p.horizon) / 2, p.horizon],
                             p.events[p.events <= p.horizon]])
        yield p, np.unique(ts)


def block_cases():
    """A block of 40 paths per spec kind, with query times from 0 to the
    horizon; the delayed block has rows whose delay passes some of them."""
    specs = [Plain(Gamma(2, 2)), Delayed(Uniform(0.0, 8.0), Gamma(2, 2)), TWO_STATE,
             StationaryMA(2, Exponential(1.0))]
    return [(simulate_paths(spec, 12.0, 40, child_rng(43, 0)), np.linspace(0.0, 12.0, 61))
            for spec in specs]


LOOKUP_IDS = ["plain", "delayed", "modulated", "ma", "delayed-before-delay"]


class TestSingleLookup:
    @pytest.mark.parametrize("case", lookup_cases(), ids=LOOKUP_IDS)
    def test_truncated_rate_matches_interval_search(self, case):
        p, ts = case
        oracle = ConditionalMeanOracle(p.spec)
        for v in (0.5, math.inf):
            means = oracle.interval_means(p, v)
            bounds = np.concatenate([[0.0], p.events]) if p.delayed else p.events
            expect = 1.0 / means[np.searchsorted(bounds, ts, "right") - 1]
            assert np.array_equal(truncated_rate(p, oracle, v, ts), expect)
            assert [truncated_rate(p, oracle, v, t) for t in ts] == expect.tolist()
            tres = truncated_decomposition_residual(p, oracle, v, ts)
            assert np.all(np.abs(tres) <= tolerance_for(count(p, ts)))

    @pytest.mark.parametrize("case", lookup_cases(), ids=LOOKUP_IDS)
    def test_report_fields_equal_their_definitions(self, case):
        p, ts = case
        rate, mean_lifetime, sigma2 = 1.1, 0.7, 0.3  # not reciprocal: each keeps its own
        reports = build_reports(p, rate, mean_lifetime, sigma2, ts)
        assert [rep.t for rep in reports] == ts.tolist()
        for rep in reports:
            t = rep.t
            assert rep.count == count(p, t)
            assert rep.residual == residual(p, t)
            assert rep.martingale == martingale(p, rate, t)
            assert rep.drift == rate * (t + residual(p, t) - p.delay)
            assert rep.identity_residual == decomposition_residual(p, rate, t)
            assert rep.optional_qv == optional_quadratic_variation(p, rate, t)
            assert rep.predictable_qv == predictable_quadratic_variation(p, rate, sigma2, t)
            assert rep.wald_residual == wald_residual(p, mean_lifetime, t)
        assert all(rep.predictable_qv is None
                   for rep in build_reports(p, rate, mean_lifetime, math.inf, ts))

    @pytest.mark.parametrize("case", [*lookup_cases(), *block_cases()[:1]], ids=[*LOOKUP_IDS, "block"])
    def test_one_search_over_events_per_query(self, case, monkeypatch):
        # one search per row: a single path is searched once, a block once per row
        p, ts = case
        oracle = ConditionalMeanOracle(p.spec)
        searched = []
        search = np.searchsorted

        def recording(a, *args, **kwargs):
            searched.append(np.shares_memory(a, p.events))
            return search(a, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recording)
        queries = [
            lambda: martingale(p, 1.0, ts),
            lambda: decomposition_residual(p, 1.0, ts),
            lambda: wald_residual(p, 1.0, ts),
            lambda: optional_quadratic_variation(p, 1.0, ts),
            lambda: predictable_quadratic_variation(p, 1.0, 1.0, ts),
            lambda: truncated_rate(p, oracle, 1.0, ts),
            lambda: truncated_decomposition_residual(p, oracle, 1.0, ts),
        ]
        if p.events.ndim == 1:
            queries.append(lambda: build_reports(p, 1.0, 1.0, 1.0, ts))
        rows = p.events.reshape(-1, p.events.shape[-1]).shape[0]
        for query in queries:
            searched.clear()
            query()
            assert searched == [True] * rows


class TestBlocks:
    """Every query on a block answers row by row with the bits the same
    query gives on that row's own path."""

    @pytest.mark.parametrize("case", block_cases(), ids=["plain", "delayed", "modulated", "ma"])
    def test_block_queries_equal_row_queries(self, case):
        block, ts = case
        oracle = ConditionalMeanOracle(block.spec)
        if block.delayed:
            assert np.any(block.events[:, 0] > ts[1])  # t before the delay on some rows
        queries = [
            lambda p, t: count(p, t),
            lambda p, t: residual(p, t),
            lambda p, t: martingale(p, 1.1, t),
            lambda p, t: decomposition_residual(p, 1.1, t),
            lambda p, t: wald_residual(p, 0.7, t),
            lambda p, t: optional_quadratic_variation(p, 1.1, t),
            lambda p, t: predictable_quadratic_variation(p, 1.1, 0.3, t),
        ]
        for v in (0.5, math.inf):
            queries += [
                lambda p, t, v=v: truncated_rate(p, oracle, v, t),
                lambda p, t, v=v: truncated_decomposition_residual(p, oracle, v, t),
            ]
        for query in queries:
            for t in (ts, 0.0, 7.3, 12.0):
                answer = query(block, t)
                assert answer.shape == (40,) + np.shape(t)
                for r in range(40):
                    assert np.array_equal(answer[r], query(block[r], t))
        for v in (0.5, math.inf):
            means = oracle.interval_means(block, v)
            for r in range(40):
                row = oracle.interval_means(block[r], v)
                assert np.array_equal(means[r, : row.size], row)

    def test_row_slice_is_a_block(self):
        block, ts = block_cases()[1]
        part = block[5:12]
        assert part.events.shape[0] == 7 and part.delayed
        whole = decomposition_residual(block, 1.1, ts)
        assert np.array_equal(decomposition_residual(part, 1.1, ts), whole[5:12])
