"""Estimators: closed-form targets, convergence checks, reproducibility."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from countproc import processes
from countproc.lifetimes import (
    Deterministic,
    Exponential,
    Gamma,
    LifetimeDistribution,
    ParetoShifted,
    Uniform,
)
from countproc.decomposition import optional_quadratic_variation
from countproc.processes import (
    Delayed,
    EventCapExceeded,
    Modulated,
    Plain,
    StationaryMA,
    child_rng,
    simulate_path,
    simulate_paths,
)
from countproc.asymptotics import (
    Estimate,
    estimate_blackwell,
    estimate_rate,
    estimate_rm_cross,
    estimate_variance_drift,
    diffusion_scaling,
    modulated_rate,
    modulated_time_law,
    path_statistics,
    residual_limit_ks,
    rm_cross_limit,
    smith_constant,
    spec_rate,
    truncated_rate_indicator_mean,
    wald_ratio,
)

TWO_STATE = Modulated(
    states=("a", "b"),
    kernel=((0.0, 1.0), (1.0, 0.0)),
    lifetimes={"a": Exponential(1.0), "b": Exponential(1.0 / 3.0)},
)


class TestClosedForms:
    def test_smith_constants(self):
        assert smith_constant(Exponential(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert smith_constant(Gamma(2, 2)) == pytest.approx(0.0625)
        assert smith_constant(Uniform(0, 2)) == pytest.approx(2.0 / 9.0)

    def test_smith_needs_third_moment(self):
        with pytest.raises(ValueError):
            smith_constant(ParetoShifted(2.5))

    def test_cross_limits(self):
        assert rm_cross_limit(Exponential(1.0)) == pytest.approx(-1.0)
        assert rm_cross_limit(Gamma(2, 2)) == pytest.approx(-0.375)
        assert rm_cross_limit(Deterministic(1.0)) == pytest.approx(0.0)

    def test_modulated_rate_hand_value(self):
        assert modulated_rate(TWO_STATE) == pytest.approx(0.5)
        assert np.allclose(modulated_time_law(TWO_STATE), [0.25, 0.75])

    def test_modulated_rate_degenerate_cases(self):
        one = Modulated(states=("a",), kernel=((1.0,),), lifetimes={"a": Gamma(2, 2)})
        assert modulated_rate(one) == pytest.approx(1.0)
        same = Modulated(
            states=("a", "b"),
            kernel=((0.3, 0.7), (0.6, 0.4)),
            lifetimes={"a": Exponential(0.5), "b": Exponential(0.5)},
        )
        assert modulated_rate(same) == pytest.approx(0.5)

    def test_reducible_kernel_rejected(self):
        bad = Modulated(
            states=("a", "b"),
            kernel=((1.0, 0.0), (0.0, 1.0)),
            lifetimes={"a": Exponential(1.0), "b": Exponential(2.0)},
        )
        with pytest.raises(ValueError, match="irreducible"):
            modulated_rate(bad)

    @pytest.mark.parametrize("n,edges,irreducible", [
        (3, [(0, 1), (1, 2), (2, 0)], True),
        (3, [(0, 1), (1, 2), (2, 2)], False),  # the last state absorbs
        (3, [(0, 1), (1, 0), (2, 1)], False),  # the last state is never re-entered
        (5, [(i, (i + 1) % 5) for i in range(5)], True),  # needs a path of n - 1 steps
        (9, [(i, (i + 1) % 9) for i in range(9)], True),
        (9, [(i, i + 1) for i in range(8)] + [(8, 7)], False),
    ], ids=["3-cycle", "absorbing", "transient", "5-cycle", "9-cycle", "9-chain"])
    def test_irreducibility_rule(self, n, edges, irreducible):
        kernel = np.zeros((n, n))
        for i, j in edges:
            kernel[i, j] = 1.0
        spec = Modulated(tuple("abcdefghi"[:n]), tuple(map(tuple, kernel)),
                         {s: Exponential(1.0) for s in "abcdefghi"[:n]})
        if irreducible:
            assert modulated_rate(spec) == pytest.approx(1.0)
        else:
            with pytest.raises(ValueError, match="irreducible"):
                modulated_rate(spec)

    def test_spec_rate(self):
        assert spec_rate(Plain(Gamma(2, 2))) == pytest.approx(1.0)
        assert spec_rate(StationaryMA(3, Exponential(2.0))) == pytest.approx(2.0)
        assert spec_rate(TWO_STATE) == pytest.approx(0.5)


class TestEstimateType:
    def test_interval_contains_point(self):
        e = Estimate(value=1.0, se=0.1)
        assert e.lo < 1.0 < e.hi
        assert e.z_against(1.2) == pytest.approx(2.0)

    @pytest.mark.parametrize("value,se", [(1.0, -0.1), (1.0, math.nan), (math.nan, 0.1)])
    def test_invalid_rejected(self, value, se):
        with pytest.raises(ValueError):
            Estimate(value=value, se=se)

    def test_zero_se_z(self):
        e = Estimate(value=0.0, se=0.0)
        assert e.z_against(0.0) == 0.0
        assert math.isinf(e.z_against(0.1))


class TestBlackwell:
    def test_gamma_limit(self):
        est = estimate_blackwell(Plain(Gamma(2, 2)), 50.0, 1.0, 20_000, seed=42)
        assert est.z_against(1.0) <= 4.0
        assert not est.flags

    def test_arithmetic_negative(self):
        est = estimate_blackwell(Plain(Deterministic(1.0)), 50.5, 0.25, 2_000, seed=1)
        assert est.value == 0.0
        assert est.se == 0.0
        assert est.flags  # accepted but flagged

    def test_equilibrium_delay_is_stationary(self):
        spec = Delayed("equilibrium", Exponential(1.0))
        est = estimate_blackwell(spec, 3.0, 2.0, 20_000, seed=2)
        assert est.z_against(2.0) <= 4.0

    def test_needs_enough_reps(self):
        with pytest.raises(ValueError):
            estimate_blackwell(Plain(Exponential(1.0)), 10.0, 1.0, 10, seed=0)


class TestRate:
    def test_poisson_exact_mean(self):
        # with an event at the origin, E[N(t)]/t = (1 + t)/t exactly
        est = estimate_rate(Plain(Exponential(1.0)), 100.0, 20_000, seed=3)
        assert est.z_against(1.01) <= 4.0

    def test_stationary_ma(self):
        est = estimate_rate(StationaryMA(2, Exponential(1.0)), 200.0, 10_000, seed=4)
        assert est.z_against(1.0 + 1.0 / 200.0) <= 4.0

    def test_modulated_two_state(self):
        # The chain alternates a, b from a uniform start, so counting cycles
        # (mean 4, E[C^2] = 26) as a renewal process from the origin gives
        # E[N(t)] = t/2 + 1 + 2 (26/32 - 1) + (3/4 + 1/4)/2 + o(1): the origin
        # event, two events per cycle, and the mid-cycle event, which has
        # happened with probability E[B]/E[C] from a and E[A]/E[C] from b.
        t = 100.0
        est = estimate_rate(TWO_STATE, t, 20_000, seed=4)
        assert est.z_against(modulated_rate(TWO_STATE) + 1.125 / t) <= 4.0

    def test_int_parameter_matches_float(self):
        # Deterministic(1) used to draw ints, which the block sampler could not add to
        a, b = Plain(Deterministic(1)), Plain(Deterministic(1.0))
        assert simulate_path(a, 10.5, 3).events.tobytes() == simulate_path(b, 10.5, 3).events.tobytes()
        assert estimate_rate(a, 10.5, 100, seed=2) == estimate_rate(b, 10.5, 100, seed=2)
        chain = [Modulated(("a", "b"), ((0.0, 1.0), (1.0, 0.0)), {"a": Gamma(2, 2), "b": d})
                 for d in (Deterministic(1), Deterministic(1.0))]
        assert estimate_rate(chain[0], 10.5, 100, seed=2) == estimate_rate(chain[1], 10.5, 100, seed=2)

    @pytest.mark.parametrize("spec", [TWO_STATE, StationaryMA(2, Exponential(1.0))],
                             ids=["modulated", "ma"])
    def test_other_kinds_keep_plain_mean(self, spec):
        # E[M(t)] != 0 at finite t for these kinds: no control variate
        est = estimate_rate(spec, 20.0, 5_000, seed=5)
        y = path_statistics(spec, [20.0], 5_000, seed=5)["count"][:, 0] / 20.0
        assert est == Estimate(float(np.mean(y)), float(np.std(y, ddof=1) / math.sqrt(y.size)))


class TestControlVariate:
    """The noise M(t), of mean 0 by Wald's identity, as a control variate."""

    def test_rm_cross_unbiased(self):
        # E[R(t)M(t)] = -1 at every t for Exponential(1): the slope fitted on
        # the same paths may bias each estimate by O(1/reps), which must stay
        # inside the error bar of a 100-seed average
        ests = [estimate_rm_cross(Plain(Exponential(1.0)), 20.0, 2_000, seed=s) for s in range(100)]
        mean = np.mean([e.value for e in ests])
        se = np.mean([e.se for e in ests])
        assert abs(mean + 1.0) <= 3 * se / math.sqrt(100)

    def test_noiseless_control(self):
        # a Deterministic law has M = 0 on every path: no NaN slope, and no spread
        spec = Plain(Deterministic(1.0))
        rate = estimate_rate(spec, 10.5, 100, seed=2)
        cross = estimate_rm_cross(spec, 20.5, 2_000, seed=12)
        assert rate == Estimate(11.0 / 10.5, 0.0)
        assert cross.value == 0.0 and cross.se == 0.0

    @staticmethod
    def _plain_se(x):
        return float(np.std(x, ddof=1) / math.sqrt(x.size))

    def test_rm_cross_bar_narrows(self):
        spec, t = Plain(Exponential(1.0)), 20.0
        stats = path_statistics(spec, [t], 20_000, seed=21)
        r = stats["residual"][:, 0]
        m = stats["count"][:, 0] - (t + r)
        est = estimate_rm_cross(spec, t, 20_000, seed=21)
        assert est.se <= 0.8 * self._plain_se(r * m)

    def test_variance_drift_bar_narrows(self):
        # against the delta-method bar of the same paths without the control
        spec, t = Plain(Gamma(2, 2)), 50.0
        stats = path_statistics(spec, [t], 20_000, seed=21)
        r = stats["residual"][:, 0]
        m = stats["count"][:, 0] - (t + r)
        psi = r * (r - 2.0 * np.mean(r)) + 2.0 * r * m + 0.5 * r  # rate 1, var T 1/2
        est = estimate_variance_drift(spec, t, 20_000, seed=21)
        assert est.se <= 0.8 * self._plain_se(psi)

    def test_rate_bar_narrows(self):
        # N(t) - M(t) = t + R(t): only the residual's spread is left
        spec, t = Plain(Gamma(2, 2)), 50.0
        y = path_statistics(spec, [t], 20_000, seed=21)["count"][:, 0] / t
        est = estimate_rate(spec, t, 20_000, seed=21)
        assert est.se <= 0.3 * self._plain_se(y)


class TestResidualLaw:
    def test_exponential_ks(self):
        ks = residual_limit_ks(Plain(Exponential(1.0)), 50.0, 10_000, seed=5)
        assert ks.statistic < 0.03
        assert ks.passed

    def test_gamma_ks(self):
        ks = residual_limit_ks(Plain(Gamma(2, 2)), 100.0, 10_000, seed=6)
        assert ks.statistic < 0.03

    def test_at_time_zero_the_law_is_the_lifetime(self):
        # R(0) is the first gap; against the excess law the distance is huge
        # for a point mass
        stats = path_statistics(Plain(Deterministic(1.0)), [0.0], 500, seed=7)
        r = np.sort(stats["residual"][:, 0])
        cdf = np.clip(r / 1.0, 0, 1)  # excess law of a unit point mass
        n = r.size
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks > 0.5

    def test_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            residual_limit_ks(Plain(Deterministic(1.0)), 50.0, 1_000, seed=0)


class TestVarianceDrift:
    def test_exponential_drift_zero(self):
        est = estimate_variance_drift(Plain(Exponential(1.0)), 30.0, 200_000, seed=8)
        assert est.z_against(0.0) <= 4.0

    def test_gamma_drift(self):
        est = estimate_variance_drift(Plain(Gamma(2, 2)), 60.0, 200_000, seed=9)
        assert est.z_against(smith_constant(Gamma(2, 2))) <= 4.0

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            estimate_variance_drift(Plain(ParetoShifted(1.5)), 10.0, 10_000, seed=0)


class TestRmCross:
    def test_exponential_cross_limit(self):
        est = estimate_rm_cross(Plain(Exponential(1.0)), 50.0, 200_000, seed=10)
        assert est.z_against(-1.0) <= 4.0

    def test_gamma_cross_limit(self):
        est = estimate_rm_cross(Plain(Gamma(2, 2)), 100.0, 200_000, seed=11)
        assert est.z_against(-0.375) <= 4.0

    def test_arithmetic_flagged(self):
        est = estimate_rm_cross(Plain(Deterministic(1.0)), 20.5, 2_000, seed=12)
        assert est.flags  # formula value exists; hypotheses do not hold


class TestDiffusion:
    def test_gamma_scaling(self):
        res = diffusion_scaling(Plain(Gamma(2, 2)), 2_000, 1.0, 4_000, seed=13)
        assert abs(res.variance.value - res.variance_target) <= 0.1 * res.variance_target
        assert res.scaled_count_mean.z_against(0.0) <= 4.0
        assert res.scaled_residual_mean.value <= res.residual_mean_bound + 4 * res.scaled_residual_mean.se

    def test_variance_is_the_sample_variance(self):
        # the mean of the per-path terms (X - mean X)^2 n/(n - 1), with their plain bar
        spec = Plain(Gamma(2, 2))
        res = diffusion_scaling(spec, 50, 1.0, 3_000, seed=21)
        x = (path_statistics(spec, [50.0], 3_000, seed=21)["count"][:, 0] - 50.0) / math.sqrt(50)
        psi = (x - x.mean()) ** 2 * 3_000 / 2_999
        assert res.variance.value == pytest.approx(np.var(x, ddof=1), rel=1e-12)
        assert res.variance.se == pytest.approx(np.std(psi, ddof=1) / math.sqrt(3_000), rel=1e-12)

    def test_too_few_reps_raise_before_simulating(self, monkeypatch):
        import countproc.asymptotics

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(countproc.asymptotics, "path_statistics", no_simulation)
        with pytest.raises(ValueError, match="at least 200"):
            diffusion_scaling(Plain(Gamma(2, 2)), 10, 1.0, 199, seed=0)

    def test_deterministic_is_noiseless(self):
        res = diffusion_scaling(Plain(Deterministic(1.0)), 500, 1.0, 2_000, seed=14)
        assert res.variance.value == pytest.approx(0.0, abs=1e-12)
        assert res.variance_target == 0.0


class TestTruncatedRateLimit:
    def test_converges_and_v_independent(self):
        spec = Plain(Gamma(2, 2))
        ests = {
            (v, t): truncated_rate_indicator_mean(spec, v, t, 50_000, seed=15)
            for v in (0.5, 1.0, 5.0)
            for t in (50.0, 100.0)
        }
        for v in (0.5, 1.0, 5.0):
            a, b = ests[(v, 50.0)], ests[(v, 100.0)]
            assert abs(a.value - b.value) <= 4 * math.hypot(a.se, b.se)
            assert b.z_against(1.0) <= 4.0
        pairs = [(0.5, 1.0), (1.0, 5.0)]
        for v1, v2 in pairs:
            a, b = ests[(v1, 100.0)], ests[(v2, 100.0)]
            assert abs(a.value - b.value) <= 4 * math.hypot(a.se, b.se)


class TestWaldRatio:
    @pytest.mark.parametrize(
        "spec,t",
        [(Plain(Gamma(2, 2)), 50.0), (Delayed("equilibrium", Exponential(1.0)), 50.0)],
        ids=["plain", "delayed"],
    )
    def test_renewal_kinds_exact(self, spec, t):
        est = wald_ratio(spec, t, 50_000, seed=16)
        assert abs(est.value - 1.0) <= 4 * est.se

    @pytest.mark.parametrize(
        "spec,t", [(TWO_STATE, 100.0), (StationaryMA(2, Exponential(1.0)), 50.0)],
        ids=["modulated", "ma"],
    )
    def test_general_kinds_asymptotic(self, spec, t):
        # the product identity holds only in the limit here: allow the
        # O(1/t) boundary term on top of the statistical band
        est = wald_ratio(spec, t, 50_000, seed=17)
        allowance = 2.0 / (spec_rate(spec) * t)
        assert abs(est.value - 1.0) <= 4 * est.se + allowance


class TestReproducibility:
    def test_bit_identical_reruns(self):
        a = estimate_blackwell(Plain(Gamma(2, 2)), 20.0, 1.0, 5_000, seed=99)
        b = estimate_blackwell(Plain(Gamma(2, 2)), 20.0, 1.0, 5_000, seed=99)
        assert a.value == b.value and a.se == b.se

    def test_seed_changes_value(self):
        a = estimate_blackwell(Plain(Gamma(2, 2)), 20.0, 1.0, 5_000, seed=99)
        b = estimate_blackwell(Plain(Gamma(2, 2)), 20.0, 1.0, 5_000, seed=100)
        assert a.value != b.value

    @staticmethod
    def _assert_thread_invariant(spec):
        seq = path_statistics(spec, [5.0], 40_000, seed=101, threads=1)
        par = path_statistics(spec, [5.0], 40_000, seed=101, threads=2)
        assert seq.keys() == par.keys()
        for key in seq:
            assert np.array_equal(seq[key], par[key])

    def test_thread_count_invariance(self):
        self._assert_thread_invariant(Plain(Gamma(2, 2)))

    @pytest.mark.parametrize(
        "spec",
        [Delayed("equilibrium", Gamma(2, 2)), TWO_STATE, StationaryMA(2, Exponential(1.0))],
        ids=["delayed", "modulated", "ma"],
    )
    def test_thread_count_invariance_other_kinds(self, spec):
        self._assert_thread_invariant(spec)

    @pytest.mark.parametrize("estimator,spec", [
        (estimate_rate, Plain(Gamma(2, 2))),
        (estimate_rate, Delayed("equilibrium", Gamma(2, 2))),
        (estimate_rm_cross, Plain(Exponential(1.0))),
        (estimate_variance_drift, Plain(Gamma(2, 2))),
    ], ids=["rate-plain", "rate-delayed", "rm-cross", "variance-drift"])
    def test_controlled_estimates_thread_invariant(self, estimator, spec):
        # 40000 reps are three chunks; the slope is fitted after they are joined
        one = estimator(spec, 5.0, 40_000, seed=101, threads=1)
        two = estimator(spec, 5.0, 40_000, seed=101, threads=2)
        assert one == two

    def test_delayed_statistics_reproducible(self):
        spec = Delayed("equilibrium", Gamma(2, 2))
        a = path_statistics(spec, [5.0], 2_000, seed=7)
        b = path_statistics(spec, [5.0], 2_000, seed=7)
        assert np.array_equal(a["delay"], b["delay"])


@dataclass(frozen=True)
class Recording(LifetimeDistribution):
    """Test double: draws from ``base`` and keeps a copy of every block it returns."""

    base: LifetimeDistribution
    blocks: list = field(default_factory=list, compare=False)

    def excess_moment(self, k, t):
        return self.base.excess_moment(k, t)

    def truncated_mean(self, v):
        return self.base.truncated_mean(v)

    def draw(self, rng, size=None):
        out = self.base.draw(rng, size)
        self.blocks.append(np.array(out, copy=True))
        return out


def replay(blocks, start, tmax):
    """Per-row event times rebuilt from the recorded blocks.

    Each block holds one row per path still at or before tmax, in row
    order; event times accumulate from the start point like a running sum.
    """
    gaps = [[] for _ in start]
    active = [r for r, s in enumerate(start) if s <= tmax]
    for block in blocks:
        assert block.shape[0] == len(active)
        for r, row in zip(active, block):
            gaps[r].extend(row)
        active = [r for r in active if np.cumsum([start[r], *gaps[r]])[-1] <= tmax]
    assert not active
    return [np.cumsum([s, *g]) for s, g in zip(start, gaps)]


class TestBlockKernel:
    @pytest.mark.parametrize(
        "kind,ts",
        [("plain", [0.0, 2.5, 7.0]), ("plain", [40.0, 600.0]),
         ("delayed", [0.0, 3.0, 6.0]), ("delayed", [5.0, 300.0])],
    )
    def test_matches_brute_force(self, kind, ts):
        life, delay = Recording(Gamma(2, 2)), Recording(Uniform(0.0, 8.0))
        spec = Plain(life) if kind == "plain" else Delayed(delay, life)
        stats = path_statistics(spec, ts, 300, seed=41)
        tmax = max(ts)
        # the quadratic variation from the block of the same chunk, drawn from
        # the unrecorded laws so that the recorded blocks stay the engine's
        plain = Plain(Gamma(2, 2)) if kind == "plain" else Delayed(Uniform(0.0, 8.0), Gamma(2, 2))
        qv = optional_quadratic_variation(simulate_paths(plain, tmax, 300, child_rng(41, 0)), 0.5, ts)
        if kind == "delayed":
            start = delay.blocks[0]
            assert np.array_equal(stats["delay"], start)
        else:
            start = np.zeros(300)
        assert len(life.blocks) >= 2  # some rows outlast the first block
        for r, events in enumerate(replay(life.blocks, start, tmax)):
            for i, t in enumerate(ts):
                n = int(np.searchsorted(events, t, side="right"))
                assert stats["count"][r, i] == n
                assert stats["residual"][r, i] == events[n] - t
                q = np.sum((1.0 - 0.5 * np.diff(events)[:n]) ** 2)
                assert qv[r, i] == pytest.approx(q, rel=1e-12, abs=1e-12)
        if kind == "delayed":
            assert np.any(start > ts[0])  # t below the delay on some rows


class TestEventCap:
    def test_cap_counts_drawn_events(self, monkeypatch):
        # the mean count 50 passes the up-front check; the paths that need
        # more than 60 events are caught while they are drawn
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", 60)
        with pytest.raises(EventCapExceeded, match="event cap"):
            path_statistics(Plain(Exponential(1.0)), [50.0], 1_000, seed=0)

    def test_cap_not_reached(self, monkeypatch):
        monkeypatch.setattr(processes, "DEFAULT_EVENT_CAP", 200)
        stats = path_statistics(Plain(Exponential(1.0)), [50.0], 1_000, seed=0)
        assert stats["count"].max() < 200
