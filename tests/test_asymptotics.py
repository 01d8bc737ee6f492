"""Estimators: closed-form targets, convergence checks, reproducibility."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy import stats as scipy_stats

from countproc import processes
from countproc.lifetimes import (
    Deterministic,
    Exponential,
    Gamma,
    Lattice,
    LifetimeDistribution,
    Mixture,
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
from countproc import asymptotics
from countproc.asymptotics import (
    ConditionedEstimate,
    Estimate,
    _mean_estimate,
    _window_given_age,
    estimate_blackwell,
    estimate_rate,
    estimate_rm_cross,
    estimate_variance_drift,
    diffusion_scaling,
    modulated_rate,
    path_statistics,
    residual_limit_ks,
    rm_cross_limit,
    smith_constant,
    spec_rate,
    truncated_rate_indicator_mean,
    wald_ratio,
)
from countproc.renewal_solver import fitted_step, renewal_function, residual_mean_change

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

    def test_z_reads_the_rounding_bound(self):
        # a bar below the rounding of the computed mean is not a bar: z divides
        # by the larger of the two, and equality ignores the derived bound
        e = Estimate(value=1.0 + 2**-51, se=1e-17, rounding=1e-13)
        assert e.z_against(1.0) == pytest.approx(2**-51 / 1e-13)
        assert Estimate(2.0, 0.5, rounding=1e-13).z_against(1.0) == 2.0
        assert e == Estimate(value=1.0 + 2**-51, se=1e-17)
        with pytest.raises(ValueError):
            Estimate(1.0, 0.1, rounding=-1.0)

    def test_rounding_scales_with_the_terms(self):
        # the same spread at a 1e6 times larger level has a 1e6 times larger bound
        x = np.array([1.0, 2.0, 3.0])
        small, large = _mean_estimate(x), _mean_estimate(x + 1e6)
        assert small.se == pytest.approx(large.se)
        assert large.rounding == pytest.approx(small.rounding * (1e6 + 2) / 2)


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


def uniform_window(a, h):
    """E[N(t + h) - N(t) | age a] for Uniform(0, 2), where U(x) = exp(x / 2) on [0, 2]."""
    m = np.minimum(h, 2.0 - a)
    return (np.exp(h / 2.0) - np.exp((h - m) / 2.0)) / (1.0 - a / 2.0)


class TestBlackwellGivenAge:
    """The window conditioned on the age: the mean of g(age) = E[U(h - R); R <= h | age]."""

    @staticmethod
    def _given_age(law, h, age):
        step = fitted_step(h, [law])
        u, u_error = renewal_function(law, h, step)
        g, error = _window_given_age(law, h, age, step * np.arange(u.size), u)
        return g, error + u_error

    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_uniform_closed_form(self, h):
        # g has a kink at a = 2 - h, past which the gap ends inside the window; every
        # read, on the table's ages or between them, stays within its error
        probe = np.linspace(0.0, 1.999, 4001)
        assert np.count_nonzero(probe > 2.0 - h) > 900
        g, error = self._given_age(Uniform(0.0, 2.0), h, probe)
        assert np.all(np.abs(g - uniform_window(probe, h)) <= error)
        assert float(np.mean(error)) < 1e-3

    def test_table_stops_where_the_tail_is_0(self):
        # an age at the end of the support, which only rounding in t - S produces, read NaN;
        # g(a) tends to U(h) = exp(h / 2) as a -> 2
        g, error = self._given_age(Uniform(0.0, 2.0), 1.0, np.array([0.5, 2.0, 2.0 + 1e-9]))
        assert np.all(np.isfinite(g)) and np.all(np.abs(g[1:] - math.exp(0.5)) <= error[1:])

    def test_table_does_not_grow_with_t(self, monkeypatch):
        # heavy-tailed ages run up to t: at t = 1e4 the table still evaluates the tail on
        # one grid of _WINDOW_AGES + 1 ages by _WINDOW_CELLS + 1 points of [0, h]
        shapes = []
        monkeypatch.setattr(ParetoShifted, "tail",
                            lambda self, x: shapes.append(np.shape(x)) or LifetimeDistribution.tail(self, x),
                            raising=False)
        law, t = ParetoShifted(1.5), 1e4
        est = estimate_blackwell(Plain(law), t, 1.0, 1_000, seed=5)
        assert [shape for shape in shapes if len(shape) == 2] == \
            [(asymptotics._WINDOW_AGES + 1, asymptotics._WINDOW_CELLS + 1)]
        change, _ = residual_mean_change(law, t, 1.0, fitted_step(t + 1.0, [law]))
        assert est.z_against(law.renewal_rate * (1.0 + change)) <= 4.0

    @pytest.mark.parametrize("law", [Gamma(2, 2), Uniform(0, 2)], ids=["gamma", "uniform"])
    def test_bar_is_calibrated(self, law):
        # the spread of the estimates over 200 seeds against their mean bar, and their
        # mean against the finite-t window (1 to within 1e-15 at t = 20 for both laws)
        ests = [estimate_blackwell(Plain(law), 20.0, 1.0, 2_000, seed=s) for s in range(200)]
        values = [e.value for e in ests]
        se = np.mean([e.se for e in ests])
        assert 0.8 <= np.std(values, ddof=1) / se <= 1.25
        assert abs(np.mean(values) - 1.0) <= 3 * se / math.sqrt(200)

    def test_variance_falls(self):
        spec, t = Plain(Gamma(2, 2)), 50.0
        stats = path_statistics(spec, [t, t + 1.0], 25_000, seed=3001)
        window = stats["count"][:, 1] - stats["count"][:, 0]
        est = estimate_blackwell(spec, t, 1.0, 25_000, seed=3001)
        assert isinstance(est, ConditionedEstimate)
        assert est.se <= _mean_estimate(window).se / 5
        assert est.quadrature < est.se / 5

    def test_sampler_check_is_the_plain_mean(self):
        spec, t = Plain(Gamma(2, 2)), 30.0
        stats = path_statistics(spec, [t, t + 1.0], 5_000, seed=4)
        window = stats["count"][:, 1] - stats["count"][:, 0]
        est = estimate_blackwell(spec, t, 1.0, 5_000, seed=4)
        assert est.sampler_check.value == pytest.approx(float(np.mean(window)) - est.value, abs=1e-12)
        assert est.sampler_check.z_against(0.0) <= 4.0

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_exponential_is_read_against_the_quadrature(self, t):
        # g is the constant 1 up to the midpoint rule's 2e-5, with an se of about 1e-18:
        # the z-check divides by the quadrature bound, and a target 1% off still fails
        est = estimate_blackwell(Plain(Exponential(1.0)), t, 1.0, 5_000, seed=3)
        assert est.se < 1e-12 < est.quadrature < 1e-3
        assert est.z_against(1.0) <= 1.0 and est.z_against(1.01) > 4.0

    def test_delayed_rows_without_an_age(self):
        # at t = 0.5 about 61% of the equilibrium delays exceed t; their windows are known
        # given D, and the window of the equilibrium delay is rate * h at every t
        spec = Delayed("equilibrium", Exponential(1.0))
        stats = path_statistics(spec, [0.5, 1.5], 20_000, seed=2)
        assert np.mean(np.isnan(stats["age"][:, 0])) > 0.5
        est = estimate_blackwell(spec, 0.5, 1.0, 20_000, seed=2)
        assert isinstance(est, ConditionedEstimate) and est.z_against(1.0) <= 4.0
        assert est.sampler_check.z_against(0.0) <= 4.0

    @pytest.mark.parametrize("law,t,h", [
        (Deterministic(1.0), 50.5, 0.25),
        (Lattice(1.0, (0.5, 0.5)), 20.0, 1.0),
        (Mixture((0.5, 0.5), (Deterministic(1.0), Gamma(2, 2))), 20.0, 1.0),
    ], ids=["deterministic", "lattice", "mixture-with-an-atom"])
    def test_atoms_keep_the_plain_mean(self, law, t, h):
        # the cells of [0, h] and the age table would misplace the atoms: a lattice
        # window stays the flagged plain mean, and an atom off the lattice the plain mean
        spec = Plain(law)
        stats = path_statistics(spec, [t, t + h], 2_000, seed=1)
        window = stats["count"][:, 1] - stats["count"][:, 0]
        est = estimate_blackwell(spec, t, h, 2_000, seed=1)
        assert type(est) is Estimate
        assert est == _mean_estimate(window, asymptotics._arithmetic_flags(spec))
        assert bool(est.flags) == law.is_arithmetic()[0]

    @pytest.mark.parametrize("spec", [TWO_STATE, StationaryMA(2, Exponential(1.0))], ids=["modulated", "ma"])
    def test_other_kinds_keep_the_plain_mean(self, spec):
        stats = path_statistics(spec, [20.0, 21.0], 2_000, seed=1)
        est = estimate_blackwell(spec, 20.0, 1.0, 2_000, seed=1)
        assert type(est) is Estimate
        assert est == _mean_estimate(stats["count"][:, 1] - stats["count"][:, 0])


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

    def test_constant_control_fits_no_slope(self):
        # Deterministic(0.3): every path has N(20)/20 = 3.35 and the same M, which
        # centred on its rounded mean is rounding noise; a slope fitted on that
        # noise moved the estimate to 5.75
        est = estimate_rate(Plain(Deterministic(0.3)), 20, 1000, seed=1)
        assert est.value == pytest.approx(3.35, abs=1e-12)

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


class TestConditionedOnAge:
    """rm-cross and variance drift average conditional means given F_t."""

    @pytest.mark.parametrize("law", [Gamma(2, 2), Uniform(0, 2)], ids=["gamma", "uniform"])
    @pytest.mark.parametrize("estimator", [estimate_variance_drift, estimate_rm_cross],
                             ids=["drift", "rm-cross"])
    def test_bar_is_calibrated(self, law, estimator):
        # the spread of the estimates over 200 seeds against their mean bar
        ests = [estimator(Plain(law), 20.0, 2_000, seed=s) for s in range(200)]
        spread = np.std([e.value for e in ests], ddof=1)
        assert 0.8 <= spread / np.mean([e.se for e in ests]) <= 1.25

    def test_exponential_is_exact(self):
        # memoryless: E[R M | F_t] = (N - t) - 2 = m - 1, so the controlled
        # mean is -1 on every sample, and its bar is its rounding
        est = estimate_rm_cross(Plain(Exponential(1.0)), 50.0, 20_000, seed=3)
        assert est.value == pytest.approx(-1.0, abs=1e-14) and est.se < 1e-15
        assert est.z_against(-1.0) <= 1e-3 and est.z_against(-1.0 - 1e-6) > 4.0
        assert est.sampler_check.z_against(0.0) <= 4.0
        assert est.sampler_check.se > 1e-3

    def test_residual_given_age_is_the_plain_mean(self):
        spec, t = Plain(Gamma(2, 2)), 30.0
        stats = path_statistics(spec, [t], 5_000, seed=4)
        r1, _ = spec.lifetime.residual_moments(stats["age"][:, 0])
        check = estimate_rm_cross(spec, t, 5_000, seed=4).sampler_check
        assert check == _mean_estimate(stats["residual"][:, 0] - r1)

    def test_needs_a_finite_second_moment(self):
        # E[R^2 | age] is infinite
        with pytest.raises(ValueError, match="second moment"):
            estimate_rm_cross(Plain(ParetoShifted(1.5)), 10.0, 1_000, seed=0)


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
        # the mean of the per-path terms psi = (X - mean X)^2 n/(n - 1), with
        # C = (M^2 - rate^2 var T N)/n (Wald's second identity: mean 0) as
        # their control: Gamma(2, 2) has rate 1 and var T = 1/2
        spec = Plain(Gamma(2, 2))
        res = diffusion_scaling(spec, 50, 1.0, 3_000, seed=21)
        stats = path_statistics(spec, [50.0], 3_000, seed=21)
        count = stats["count"][:, 0]
        x = (count - 50.0) / math.sqrt(50)
        c = ((count - 50.0 - stats["residual"][:, 0]) ** 2 - 0.5 * count) / 50
        psi = (x - x.mean()) ** 2 * 3_000 / 2_999
        assert psi.mean() == pytest.approx(np.var(x, ddof=1), rel=1e-12)
        beta = np.cov(psi, c)[0, 1] / np.var(c, ddof=1)
        assert res.variance.value == pytest.approx(np.mean(psi - beta * c), rel=1e-12)
        assert res.variance.se == pytest.approx(np.std(psi - beta * c, ddof=2) / math.sqrt(3_000), rel=1e-12)
        assert res.variance.se < 0.2 * np.std(psi, ddof=1) / math.sqrt(3_000)

    def test_infinite_fourth_moment_keeps_the_plain_bar(self):
        # ParetoShifted(3.5): E[T^2] finite, E[T^4] and so var C infinite
        spec = Plain(ParetoShifted(3.5))
        res = diffusion_scaling(spec, 50, 1.0, 3_000, seed=21)
        rate = spec.lifetime.renewal_rate
        x = (path_statistics(spec, [50.0], 3_000, seed=21)["count"][:, 0] - rate * 50.0) / math.sqrt(50)
        psi = (x - np.mean(x)) ** 2 * (3_000 / 2_999)
        assert res.variance == _mean_estimate(psi)
        assert res.variance.value == pytest.approx(np.var(x, ddof=1), rel=1e-12)
        assert res.wald_second_target is None

    @pytest.mark.parametrize("law", [Gamma(2, 2), Uniform(0, 2), Exponential(1.0), Lattice(1.0, (0.5, 0.5))],
                             ids=["gamma", "uniform", "exponential", "lattice"])
    def test_wald_second_identity_holds_at_small_n(self, law):
        # E[M^2] = rate^2 var T E[N] at every n, lattice laws included
        res = diffusion_scaling(Plain(law), 50, 1.0, 4_000, seed=22)
        assert res.wald_second_target == 0.0
        assert not res.wald_second_mean.flags
        assert res.wald_second_mean.z_against(0.0) <= 4.0

    @pytest.mark.parametrize("seed", [12001, 12002, 12003])
    def test_wrong_sampler_variance_fails_wald_second(self, monkeypatch, seed):
        # Gamma(k, k) with k = 2/1.2 (mean 1, variance 1.2 x 1/2) is drawn where
        # rate and var T are the nominal Gamma(2, 2)'s, at the benchmark's size.
        # The fault is a function of the law; with its Poisson clock hidden
        # the path walks, each gap a wrong draw
        draw = Gamma._draw
        monkeypatch.setattr(Gamma, "_draw",
                            lambda self, rng, size: draw(Gamma(self.shape / 1.2, self.rate / 1.2), rng, size))
        monkeypatch.setattr(Gamma, "poisson_phases", lambda self: None)
        res = diffusion_scaling(Plain(Gamma(2, 2)), 10**4, 1.0, 2_500, seed=seed)
        assert res.wald_second_mean.z_against(res.wald_second_target) > 4.0
        # psi and its control move together: the controlled variance cannot see the fault
        assert res.variance.value == pytest.approx(0.5, rel=0.01)

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
    def _assert_thread_invariant(spec, ts=(5.0,), reps=40_000):
        seq = path_statistics(spec, ts, reps, seed=101, threads=1)
        par = path_statistics(spec, ts, reps, seed=101, threads=2)
        assert seq.keys() == par.keys()
        for key in seq:  # a delayed row's age is NaN while its delay exceeds t
            assert np.array_equal(seq[key], par[key], equal_nan=True)

    def test_thread_count_invariance(self):
        self._assert_thread_invariant(Plain(Gamma(2, 2)))

    @pytest.mark.parametrize(
        "spec",
        [Delayed("equilibrium", Gamma(2, 2)), TWO_STATE, StationaryMA(2, Exponential(1.0))],
        ids=["delayed", "modulated", "ma"],
    )
    def test_thread_count_invariance_other_kinds(self, spec):
        self._assert_thread_invariant(spec)

    @pytest.mark.parametrize("spec,ts,reps", [
        (Plain(Gamma(2, 2)), [100.0], 40_000), (Plain(Gamma(2, 2)), [1e4], 20_000),
        (Plain(Gamma(2, 2)), [0.5, 100.0], 40_000), (Plain(Exponential(1.0)), [50.0], 40_000),
        (Plain(Gamma(2, 2)), [50.0, 51.0], 40_000), (Delayed("equilibrium", Exponential(1.0)), [0.5, 5.0, 50.0], 40_000),
    ], ids=["variance", "diffusion", "deep", "rm-cross", "window", "equilibrium-delay"])
    def test_thread_count_invariance_of_clocks(self, spec, ts, reps):
        # the benchmark configs' horizons and a low query time, two or more
        # chunks: each chunk's clock, its points drawn as far down as ts
        # need, comes from that chunk's stream
        self._assert_thread_invariant(spec, ts, reps)

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

    Each block is time-major, one column per path still at or before
    tmax, in row order; event times accumulate from the start point like
    a running sum.
    """
    gaps = [[] for _ in start]
    active = [r for r, s in enumerate(start) if s <= tmax]
    for block in blocks:
        assert block.shape[1] == len(active)
        for r, row in zip(active, block.T):
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
        # second recorders so that the recorded blocks stay the engine's; a
        # Recording law has no poisson_phases, so both streams walk
        plain = (Plain(Recording(Gamma(2, 2))) if kind == "plain"
                 else Delayed(Recording(Uniform(0.0, 8.0)), Recording(Gamma(2, 2))))
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


    @pytest.mark.parametrize("spec", [
        Plain(Gamma(2, 2)), Delayed(Uniform(0.0, 8.0), Gamma(2, 2)), TWO_STATE, StationaryMA(2, Exponential(1.0)),
    ], ids=["plain", "delayed", "modulated", "ma"])
    def test_age_is_time_since_last_event(self, spec):
        # t - events[N(t) - 1] on the rows simulate_paths builds from the same
        # chunk; NaN on a delayed row whose delay is past t
        ts = [0.0, 3.0, 6.5, 20.0]
        stats = path_statistics(spec, ts, 300, seed=43)
        paths = simulate_paths(spec, max(ts), 300, child_rng(43, 0))
        n = processes.count(paths, ts)
        assert np.array_equal(stats["count"], n)
        last = np.take_along_axis(paths.events, np.maximum(n - 1, 0), axis=1)
        want = np.where(n > 0, np.asarray(ts) - last, np.nan)
        assert np.array_equal(stats["age"], want, equal_nan=True)
        assert np.isnan(stats["age"]).any() == isinstance(spec, Delayed)


@dataclass(frozen=True)
class NoClock(LifetimeDistribution):
    """Test double: ``base``'s law without ``poisson_phases``, so its paths walk."""

    base: LifetimeDistribution

    def _excess_moment(self, k, t):
        return self.base._excess_moment(k, t)

    def _truncated_mean(self, v):
        return self.base._truncated_mean(v)

    def _draw(self, rng, size):
        return self.base._draw(rng, size)


class TestClockInLaw:
    """Reading an Erlang path's events off its Poisson clock, top-down and
    only as far as the query times need, is exact in law."""

    def test_a_lower_query_time_keeps_the_rows_at_the_horizon(self):
        # at ts = [100] the fold draws each path's top event only; at [0.5,
        # 100] it draws the clock's rows far down, and every prefix has the
        # same bits: the t = 100 rows are the same
        spec = Plain(Gamma(2, 2))
        alone = path_statistics(spec, [100.0], 20_000, seed=61)
        deep = path_statistics(spec, [0.5, 100.0], 20_000, seed=61)
        for key in ("count", "residual", "age"):
            assert np.array_equal(alone[key][:, 0], deep[key][:, 1])

    @pytest.mark.parametrize("spec,wrapped", [
        (Plain(Gamma(2, 2)), Plain(NoClock(Gamma(2, 2)))),
        (Plain(Gamma(3, 3)), Plain(NoClock(Gamma(3, 3)))),
        (Delayed(Uniform(0.0, 3.0), Gamma(1, 0.5)), Delayed(Uniform(0.0, 3.0), NoClock(Gamma(1, 0.5)))),
        (Delayed(Uniform(0.0, 80.0), Gamma(2, 2)), Delayed(Uniform(0.0, 80.0), NoClock(Gamma(2, 2)))),
        (Plain(Exponential(2.0)), Plain(NoClock(Exponential(2.0)))),
    ], ids=["gamma", "gamma-3", "delayed-gamma", "delay-past-t", "exponential"])
    @pytest.mark.parametrize("ts", [[60.0], [3.0, 60.0]], ids=["horizon", "deep"])
    def test_same_law_as_gap_by_gap(self, spec, wrapped, ts):
        # two-sample KS of N, R and the age at each t against the same law
        # drawn gap by gap, on independent seeds: the Poisson clock of an
        # Erlang law is exact in law
        assert spec.lifetime.poisson_phases()[0] <= processes._block_widths(spec, 60.0)[0]  # clocked
        assert wrapped.lifetime.poisson_phases() is None
        a = path_statistics(spec, ts, 20_000, seed=1)
        b = path_statistics(wrapped, ts, 20_000, seed=2)
        for key in ("count", "residual", "age"):
            for i in range(len(ts)):
                x, y = a[key][:, i], b[key][:, i]
                assert scipy_stats.ks_2samp(x[~np.isnan(x)], y[~np.isnan(y)]).pvalue > 1e-3

    def test_deep_query_has_the_gap_by_gap_law(self):
        # at a horizon of 10^3 a Gamma(2, 2) path has about 2000 points on its
        # clock; t = 300 sits about 1400 of them down, read over several
        # takes: N, R and the age at t = 300 against the gap-by-gap law
        spec, wrapped = Plain(Gamma(2, 2)), Plain(NoClock(Gamma(2, 2)))
        a = path_statistics(spec, [300.0, 1e3], 20_000, seed=3)
        b = path_statistics(wrapped, [300.0, 1e3], 20_000, seed=4)
        for key in ("count", "residual", "age"):
            assert scipy_stats.ks_2samp(a[key][:, 0], b[key][:, 0]).pvalue > 1e-3

    def test_mean_count_matches_the_renewal_function(self):
        # Gamma(2, 2): E[N(t)] = U(t) = 0.75 + t + exp(-4 t)/4, the event at 0
        # counted; t = 0.5 and 7 are read deep down the clocks to 100
        cases = [([0.5, 7.0, 100.0], 50_000, 71), ([1e3], 50_000, 72), ([1e4], 20_000, 73)]
        for ts, reps, seed in cases:
            counts = path_statistics(Plain(Gamma(2, 2)), ts, reps, seed=seed)["count"]
            for t, n in zip(ts, counts.T):
                se = n.std(ddof=1) / math.sqrt(reps)
                assert abs(n.mean() - (0.75 + t + math.exp(-4 * t) / 4)) <= 4 * se

    def test_exponential_mean_count_is_one_plus_t(self):
        # a Poisson process with its event at 0 counted: E[N(t)] = 1 + t; t = 0.3
        # and 5 are read deep down the clocks to 50, and 50 off their top event
        ts, reps = [0.3, 5.0, 50.0], 50_000
        counts = path_statistics(Plain(Exponential(1.0)), ts, reps, seed=74)["count"]
        for t, n in zip(ts, counts.T):
            assert abs(n.mean() - (1.0 + t)) <= 4 * n.std(ddof=1) / math.sqrt(reps)


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

    def test_query_times_must_be_numbers(self):
        # NaN passes a `< 0` test; it is named, not left to fail in the sampler
        with pytest.raises(ValueError, match="query times must be nonnegative"):
            path_statistics(Plain(Exponential(1.0)), [1.0, float("nan")], 10, seed=0)
        with pytest.raises(ValueError, match="query times"):
            path_statistics(Plain(Exponential(1.0)), [-1.0], 10, seed=0)
        with pytest.raises(EventCapExceeded):
            path_statistics(Plain(Exponential(1.0)), [math.inf], 10, seed=0)
