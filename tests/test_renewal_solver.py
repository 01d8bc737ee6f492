"""Grid solver: closed-form targets, convergence order, generator identities."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from countproc.lifetimes import (
    Deterministic,
    Exponential,
    Gamma,
    Lattice,
    Mixture,
    ParetoShifted,
    Uniform,
)
from countproc.processes import Plain, child_rng, count, residual, simulate_paths
from countproc.renewal_solver import (
    _cdf_increments,
    _grid,
    cumulative_residual_bias,
    erlang_mean_count,
    erlang_phases,
    erlang_residual_mean,
    erlang_window_given_age,
    extrapolate,
    fitted_step,
    integrated_second_generator,
    renewal_function,
    residual_mean_at,
    residual_mean_change,
    residual_mean_generator,
    residual_second_generator,
    sgibnev_asymptote,
    solution_at,
    solve_renewal_equation,
)
from countproc.asymptotics import path_statistics
from conftest import any_distribution


def ones_grid(horizon, step):
    """(ones at 0, step, ..., horizon, those times): the generator of U and its grid."""
    times = _grid(horizon, step)
    return np.ones_like(times), times


def reference_solve(z, step, dist):
    """The O(K^2) forward recurrence: one dot product per grid point.

    out[k] = z[k] + sum_{j=1..k} inc[j] * out[k - j], accumulated left to
    right; the oracle the divide-and-conquer solver is checked against.
    """
    k_max = z.size - 1
    inc = _cdf_increments(dist, step, k_max)
    out = np.empty(k_max + 1)
    rev = np.empty(k_max + 1)  # rev[k_max - i] = out[i]: contiguous convolution slices
    out[0] = z[0]
    rev[k_max] = z[0]
    for k in range(1, k_max + 1):
        val = z[k] + np.dot(inc[1 : k + 1], rev[k_max - k + 1 : k_max + 1])
        out[k] = val
        rev[k_max - k] = val
    return out


AGREEMENT_LAWS = {
    "gamma": Gamma(2, 2),
    "pareto": ParetoShifted(1.5),
    "uniform": Uniform(0.0, 2.0),
    "exp": Exponential(1.0),
    "det": Deterministic(1.0),
    "lattice": Lattice(0.25, (0.2, 0.5, 0.3)),
    "atom-mix": Mixture((0.3, 0.7), (Deterministic(1.0), Gamma(2, 2))),
}
AGREEMENT_GENERATORS = {
    "ones": np.ones_like,
    "mixed-sign": lambda u: np.cos(2.0 * u) - 0.3,
}


class TestSolver:
    def test_poisson_count_function(self):
        z, times = ones_grid(10.0, 1e-3)
        sol = solve_renewal_equation(z, 1e-3, Exponential(1.0))
        err = np.max(np.abs(sol - (1.0 + times)))
        assert err < 5e-3

    def test_error_halves_with_step(self):
        e = []
        for step in (1e-3, 5e-4):
            z, times = ones_grid(10.0, step)
            sol = solve_renewal_equation(z, step, Exponential(1.0))
            e.append(np.max(np.abs(sol - (1.0 + times))))
        assert 1.7 <= e[0] / e[1] <= 2.3

    def test_deterministic_staircase_exact(self):
        z, times = ones_grid(5.0, 0.01)
        sol = solve_renewal_equation(z, 0.01, Deterministic(1.0))
        expected = np.floor(times + 1e-9) + 1.0
        assert np.max(np.abs(sol - expected)) == 0.0

    def test_zero_generator_zero_solution(self):
        sol = solve_renewal_equation(np.zeros_like(_grid(5.0, 0.01)), 0.01, Gamma(2, 2))
        assert np.all(sol == 0.0)

    def test_linearity(self):
        dist = Gamma(2, 2)
        times = _grid(5.0, 0.01)
        g1, g2 = np.exp(-times), 1.0 / (1.0 + times)
        lhs = solve_renewal_equation(2.0 * g1 - 0.5 * g2, 0.01, dist)
        rhs = (
            2.0 * solve_renewal_equation(g1, 0.01, dist)
            - 0.5 * solve_renewal_equation(g2, 0.01, dist)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_off_grid_atom_warns(self):
        with pytest.warns(RuntimeWarning, match="snapped"):
            solve_renewal_equation(ones_grid(3.0, 0.15)[0], 0.15, Deterministic(1.0))

    def test_deterministic_staircase_long_grid(self):
        # 40 001 points: beyond one leaf the FFT adds rounding, nothing more
        z, times = ones_grid(400.0, 0.01)
        sol = solve_renewal_equation(z, 0.01, Deterministic(1.0))
        expected = np.floor(times + 1e-9) + 1.0
        assert np.max(np.abs(sol - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("gen", AGREEMENT_GENERATORS)
    @pytest.mark.parametrize("k", [1, 2, 510, 511, 512, 513, 1537, 40_000])
    @pytest.mark.parametrize("law", AGREEMENT_LAWS)
    def test_matches_forward_recurrence(self, law, k, gen):
        # k steps, k + 1 points: covers one leaf, the leaf boundary and uneven splits
        step = 0.01
        z = AGREEMENT_GENERATORS[gen](_grid(k * step, step))
        new = solve_renewal_equation(z, step, AGREEMENT_LAWS[law])
        ref = reference_solve(z, step, AGREEMENT_LAWS[law])
        assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_lattice_and_mixture_mass_placement(self):
        # mixture of atoms on the grid: solution jumps exactly at atoms
        mix = Mixture((0.5, 0.5), (Deterministic(1.0), Deterministic(2.0)))
        sol = solve_renewal_equation(ones_grid(3.0, 0.01)[0], 0.01, mix)
        before, after = sol[[99, 100]]
        assert after - before == pytest.approx(0.5)


def ones(law, u):
    return np.ones_like(u)


class TestSolutionAt:
    """One solve on [0, max point], read at named points."""

    def test_grid_points_read_the_grid_and_others_the_line_between(self):
        sol = solve_renewal_equation(ones_grid(3.0, 0.01)[0], 0.01, Gamma(2, 2))
        at_grid, between, last = solution_at(Gamma(2, 2), ones, [1.5, 0.2525, 3.0], 0.01)
        assert at_grid == sol[150] and last == sol[300]
        assert between == pytest.approx(0.75 * sol[25] + 0.25 * sol[26], rel=1e-14)

    def test_a_deterministic_delay_shifts_the_reads(self):
        # after a delay of 0.5, Z(x) = Z(x - 0.5), at grid points and between them
        dist = Gamma(2, 2)
        plain = solution_at(dist, residual_mean_generator, [1.5, 2.005, 3.5], 0.01)
        delayed = solution_at(dist, residual_mean_generator, [2.0, 2.505, 4.0], 0.01, delay=Deterministic(0.5))
        assert delayed == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("points", [[-3.0], [math.nan], [1.0, -0.5], [math.nan, 1.0]])
    def test_negative_and_nan_points_rejected(self, points):
        with pytest.raises(ValueError, match="nonnegative"):
            solution_at(Gamma(2, 2), ones, points, 0.01)


class TestExtrapolate:
    """The step-halving error bounds the true error of the Richardson value."""

    def test_poisson_count_function(self):
        # U(t) = 1 + t: true error about 4e-7 against a halving change of 1.2e-3
        values, error = renewal_function(Exponential(1.0), 5.0, 1e-3)
        true = float(np.max(np.abs(values - (1.0 + 1e-3 * np.arange(5001)))))
        assert values.size == 5001
        assert true <= error / 100
        assert error == pytest.approx(1.2e-3, rel=0.1)

    def test_gamma_mean_residual(self):
        # E[R(t)] = 3/4 + exp(-4t)/4: true error about 1.1e-6 against 6.3e-4
        dist = Gamma(2, 2)
        t = 0.01 * np.arange(1001)
        values, error = extrapolate(lambda h: solution_at(dist, residual_mean_generator, t, h), 0.01)
        true = float(np.max(np.abs(values - (0.75 + np.exp(-4.0 * t) / 4.0))))
        assert true <= error / 100
        assert error == pytest.approx(6.3e-4, rel=0.1)

    def test_deterministic_staircase(self):
        # exact on both grids up to FFT rounding (about 1e-14), beyond one leaf
        values, error = renewal_function(Deterministic(1.0), 20.0, 0.01)
        true = float(np.max(np.abs(values - (1.0 + np.floor(0.01 * np.arange(2001) + 1e-9)))))
        assert true <= error + 1e-12
        assert error < 1e-12

    def test_a_point_reads_the_whole_grid_value(self):
        full, full_error = renewal_function(Gamma(2, 2), 3.0, 0.01)
        last, last_error = extrapolate(lambda h: solution_at(Gamma(2, 2), ones, [3.0], h), 0.01)
        assert last.tolist() == full[-1:].tolist()
        assert last_error <= full_error

    def test_point_values_extrapolated_together_equal_each_alone(self):
        # [E R(t), E R(t)^2] in one call: a fine pick aligned at the grid's tail once kept
        # one entry and broadcast it against both, which read a bias of 2 for
        # Exponential(1), whose bias is 0
        dist = Exponential(1.0)
        def mean(h):
            return solution_at(dist, residual_mean_generator, [5.0], h)

        def second(h):
            return solution_at(dist, residual_second_generator, [5.0], h)

        both, both_error = extrapolate(lambda h: np.concatenate([mean(h), second(h)]), 0.01)
        alone = [extrapolate(f, 0.01) for f in (mean, second)]
        assert both.tolist() == [float(v[0]) for v, _ in alone] and both[0] != both[1]
        assert both_error == max(e for _, e in alone)
        assert abs(cumulative_residual_bias(dist, 5.0)) <= 1e-8


class TestResidualMeanAt:
    def test_delay_with_the_lifetime_law_is_the_plain_process(self):
        # a first event at D ~ F after 0 is the plain process without its origin event,
        # and the delayed sum is the renewal equation's right-hand side at t
        dist = Gamma(2, 2)
        plain, _ = residual_mean_at(dist, 10.0, 0.01)
        delayed, error = residual_mean_at(dist, 10.0, 0.01, delay=dist)
        assert delayed == pytest.approx(plain, abs=1e-12)
        assert error < 1e-3

    def test_deterministic_delay_shifts_the_solution(self):
        # a delay of 5 gives E[R(t)] = r(t - 5), exactly on a grid through 5
        dist = Uniform(0.0, 2.0)
        shifted, _ = residual_mean_at(dist, 15.0, 0.01, delay=Deterministic(5.0))
        plain, _ = residual_mean_at(dist, 10.0, 0.01)
        assert shifted == pytest.approx(plain, abs=1e-12)


class TestResidualMeanChange:
    """E[R(t + h)] - E[R(t)] from one solve on [0, t + h], the window target's change."""

    @pytest.mark.parametrize("t,h", [(0.3, 0.5), (0.3, 0.55)], ids=["t-on-grid", "t-off-grid"])
    def test_gamma_closed_form(self, t, h):
        # E[R(x)] = 3/4 + exp(-4x)/4; at (t + h)/5000, t = 0.3 is grid point 1875 of the
        # first grid and lies 0.7 of a cell past grid point 1764 of the second.  The
        # Richardson value sits about 1e-9 from the closed form (1.5e-5 when E[R(t)] is
        # read at the grid point before t), inside its reported error of about 5e-6
        change, error = residual_mean_change(Gamma(2, 2), t, h, (t + h) / 5000)
        exact = (math.exp(-4.0 * (t + h)) - math.exp(-4.0 * t)) / 4.0
        assert abs(change - exact) < 1e-8
        assert error < 1e-5

    def test_delayed_matches_two_point_values(self):
        # the same two mean residuals read from two solves, each at its own last point
        dist, delay = Gamma(2, 2), Uniform(0.0, 3.0)
        change, error = residual_mean_change(dist, 5.0, 1.0, 0.001, delay)
        late, late_error = residual_mean_at(dist, 6.0, 0.001, delay)
        early, early_error = residual_mean_at(dist, 5.0, 0.001, delay)
        assert abs(change - (late - early)) <= error + late_error + early_error
        assert error < 1e-3

    def test_lattice_on_the_grid_is_exact(self):
        # Deterministic(1): E[R(x)] = ceil(x) - x off the integers and 1 on them
        change, error = residual_mean_change(Deterministic(1.0), 50.5, 0.25, 0.01)
        assert change == pytest.approx(-0.25, abs=1e-12) and error < 1e-12


class TestRenewalFunction:
    def test_gamma_closed_form(self):
        # U(x) = 0.75 + x + exp(-4x)/4, the event at 0 counted
        values, error = renewal_function(Gamma(2, 2), 2.0, 0.002)
        x = 0.002 * np.arange(values.size)
        assert values.size == 1001
        assert float(np.max(np.abs(values - (0.75 + x + np.exp(-4.0 * x) / 4.0)))) <= error < 1e-3


class TestFittedStep:
    @pytest.mark.parametrize("laws", [[Gamma(2, 2)], [Gamma(2, 2), Uniform(0, 8)]])
    def test_continuous_laws_keep_the_default(self, laws):
        assert fitted_step(10.5, laws) == 10.5 / 5000

    @pytest.mark.parametrize("laws,horizon,span", [
        ([Deterministic(1.0)], 10.5, 0.5),
        ([Lattice(1.0, (0.5, 0.5))], 30.0, 1.0),
        ([Gamma(2, 2), Deterministic(15.0)], 50.0, 5.0),  # an atomic delay
        ([Lattice(0.3, (0.5, 0.5))], 10.0, 0.1),
        ([Mixture((0.5, 0.5), (Deterministic(1.0), Gamma(2, 2)))], 10.5, 0.5),  # an atomic part
    ])
    def test_divides_horizon_and_span(self, laws, horizon, span):
        step = fitted_step(horizon, laws)
        assert horizon / 10_000 < step <= horizon / 5000
        for length in (horizon, span):
            assert abs(length / step - round(length / step)) < 1e-9

    @pytest.mark.parametrize("laws", [
        [Deterministic(1.0), Deterministic(math.pi)],  # no common span
        [Mixture((0.5, 0.5), (Deterministic(math.pi), Gamma(2, 2)))],  # an atom off every span
    ])
    def test_no_fitting_step_keeps_the_default(self, laws):
        assert fitted_step(10.5, laws) == 10.5 / 5000

    def test_an_atom_past_the_cell_bound_raises(self):
        # the default step kept Lattice(1e-7), and the solver dropped its atom at grid point 0
        with pytest.raises(ValueError, match=r"Lattice\(span=1e-07.* has an atom at 1e-07"):
            fitted_step(10.5, [Lattice(1e-7, (1.0,))])

    @pytest.mark.parametrize("laws,atom,cells", [
        ([Deterministic(0.001)], 0.001, 50_000),
        ([Mixture((0.5, 0.5), (Deterministic(0.001), Gamma(2, 2)))], 0.001, 50_000),
        ([Gamma(2, 2), Deterministic(0.001)], 0.001, 50_000),  # an atomic delay
        ([Mixture((0.5, 0.5), (Deterministic(0.0013), Gamma(2, 2)))], 0.0013, 38_462),  # off the span
    ])
    def test_step_stays_below_the_smallest_atom(self, laws, atom, cells):
        # t/5000 = 0.01 put these atoms at grid point 0, and the solver dropped their mass
        step = fitted_step(50.0, laws)
        assert step <= atom and round(50.0 / step) == cells
        assert abs(50.0 / step - cells) < 1e-9 * cells

    def test_atoms_land_on_the_grid(self):
        # at h = t/5000 the atom at 1 is snapped; the fitted step leaves it on a grid point
        with pytest.warns(RuntimeWarning):
            solution_at(Deterministic(1.0), residual_mean_generator, [10.5], 10.5 / 5000)
        step = fitted_step(10.5, [Deterministic(1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (r,) = solution_at(Deterministic(1.0), residual_mean_generator, [10.5], step)
        assert r == pytest.approx(0.5, abs=1e-12)


class TestCdfIncrements:
    @settings(max_examples=40, deadline=None)
    @given(any_distribution, st.sampled_from([8.0, 10.5, 50.0, 200.0]))
    @example(Deterministic(0.001), 50.0)
    @example(Mixture((0.5, 0.5), (Deterministic(0.001), Gamma(2, 2))), 20.0)
    def test_no_mass_is_lost_at_the_fitted_step(self, dist, horizon):
        # atoms off the grid are snapped, with a warning, but keep their mass
        step = fitted_step(horizon, [dist])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            inc = _cdf_increments(dist, step, round(horizon / step))
        assert abs(inc.sum() - (1.0 - dist.tail(horizon))) <= 1e-12

    @pytest.mark.parametrize("dist", [
        Deterministic(0.001),
        Deterministic(0.005),  # half a cell rounds to grid point 0
        Lattice(0.001, (0.5, 0.5)),
        Mixture((0.5, 0.5), (Deterministic(0.001), Gamma(2, 2))),
    ])
    def test_an_atom_at_grid_point_0_raises(self, dist):
        # its mass used to be dropped: U = 1 on Deterministic(0.001), where U(1) = 1001
        with pytest.raises(ValueError, match="at most half a cell of 0.01 from 0"):
            _cdf_increments(dist, 0.01, 100)


class TestGenerators:
    def test_residual_mean_generator_values(self):
        assert residual_mean_generator(Exponential(1.0), 2.0) == pytest.approx(math.exp(-2.0))
        assert residual_mean_generator(Deterministic(1.0), 0.25) == pytest.approx(0.75)
        assert residual_mean_generator(Gamma(2, 2), 50.0) == pytest.approx(0.0, abs=1e-12)
        assert residual_mean_generator(Exponential(1.0), 0.0) == pytest.approx(1.0)

    def test_second_generator_values(self):
        assert residual_second_generator(Exponential(1.0), 0.0) == pytest.approx(2.0)
        assert residual_second_generator(Deterministic(1.0), 0.5) == pytest.approx(0.25)

    def test_second_generator_decay_rate(self):
        # power tail: decays like (1+t)^(2 - alpha), so ~ t^(-1/2) at 2.5
        d = ParetoShifted(2.5)
        v1 = residual_second_generator(d, 100.0)
        v2 = residual_second_generator(d, 400.0)
        oracle = integrate.quad(lambda x: 2 * (x - 400.0) * float(d.tail(x)), 400.0, np.inf)[0]
        assert v2 == pytest.approx(oracle, rel=1e-8)
        assert v1 / v2 == pytest.approx(math.sqrt(401.0 / 101.0), rel=0.01)

    def test_second_generator_divergence_guard(self):
        with pytest.raises(ValueError):
            residual_second_generator(ParetoShifted(1.5), 1.0)

    @pytest.mark.parametrize(
        "dist", [Exponential(1.3), Gamma(2, 2), Deterministic(1.0), ParetoShifted(2.5)],
        ids=["exp", "gamma", "det", "pareto"],
    )
    def test_second_generator_matches_quadrature(self, dist):
        for t in (0.0, 0.4, 2.0, 7.0):
            oracle = integrate.quad(
                lambda x: 2 * (x - t) * float(dist.tail(x)), t, np.inf, limit=300
            )[0]
            assert residual_second_generator(dist, t) == pytest.approx(oracle, abs=1e-8)


class TestIntegratedSecond:
    def test_at_zero(self):
        assert integrated_second_generator(Gamma(2, 2), 0.0) == 0.0

    def test_exponential_limit(self):
        # tends to E[T^3] / 3 = 2
        assert integrated_second_generator(Exponential(1.0), 60.0) == pytest.approx(2.0)

    def test_deterministic_plateau(self):
        assert integrated_second_generator(Deterministic(1.0), 2.0) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize(
        "dist", [Exponential(1.0), Gamma(2, 2), Deterministic(1.5), ParetoShifted(2.5)],
        ids=["exp", "gamma", "det", "pareto"],
    )
    def test_split_identity(self, dist):
        # integral of the quadratic excess = t*E[(T-t)T; T>t] + E[min(T,t)^3]/3,
        # with both pieces evaluated by independent tail quadrature
        for t in (0.5, 2.0, 5.0):
            def j1(x):
                return x * float(dist.tail(x))

            tail_j1 = integrate.quad(j1, t, np.inf, limit=300)[0]
            z_t = residual_mean_generator(dist, t)
            cross = 2.0 * tail_j1 - t * z_t  # E[(T-t)T; T>t]
            cubed = integrate.quad(lambda u: 3 * u**2 * float(dist.tail(u)), 0, t, limit=300)[0]
            split = t * cross + cubed / 3.0
            assert integrated_second_generator(dist, t) == pytest.approx(split, abs=1e-8)


class TestSgibnev:
    def test_hand_value(self):
        assert sgibnev_asymptote(ParetoShifted(1.5), 99.0) == pytest.approx(18.0, abs=1e-6)

    def test_exponential_form(self):
        for t in (0.5, 2.0, 10.0):
            assert sgibnev_asymptote(Exponential(1.0), t) == pytest.approx(1 - math.exp(-t))

    def test_at_zero(self):
        assert sgibnev_asymptote(Gamma(2, 2), 0.0) == 0.0

    def test_mixture_is_rate_times_weighted_sum(self):
        parts = (Gamma(2, 2), ParetoShifted(1.5))
        mix = Mixture((0.3, 0.7), parts)
        inner = 0.3 * parts[0].integrated_excess(1, 50.0) + 0.7 * parts[1].integrated_excess(1, 50.0)
        assert sgibnev_asymptote(mix, 50.0) == pytest.approx(mix.renewal_rate * inner, rel=1e-14)

    def test_ratio_approaches_one(self):
        # the heavy-tail mean residual closes in on the asymptote slowly,
        # like 1 + O(1/sqrt(t)); check monotone improvement along a ladder
        d = ParetoShifted(1.5)
        ratios = []
        for t in (200.0, 800.0):
            (r,) = solution_at(d, residual_mean_generator, [t], 0.05)
            ratios.append(float(r) / sgibnev_asymptote(d, t))
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] < 1.09


class TestResidualMoments:
    def test_exponential_residual_mean_is_flat(self):
        values = solution_at(Exponential(1.0), residual_mean_generator, 0.01 * np.arange(2001), 0.01)
        assert np.max(np.abs(values - 1.0)) <= 1e-12

    def test_monte_carlo_cross_validation(self):
        dist = Gamma(2, 2)
        step = 2e-3
        solved = solution_at(dist, residual_mean_generator, [1.0, 5.0, 20.0], step)
        stats = path_statistics(Plain(dist), [1.0, 5.0, 20.0], 100_000, seed=29)
        for j, t in enumerate((1.0, 5.0, 20.0)):
            mc = stats["residual"][:, j]
            se = mc.std(ddof=1) / math.sqrt(mc.size)
            tol = max(3 * se, 5 * step)
            assert abs(solved[j] - mc.mean()) <= tol, f"t={t}"

    def test_variance_grid_limit(self):
        # var R tends to E[T^3]/(3 E[T]) - (E[T^2]/(2 E[T]))^2
        dist = Gamma(2, 2)
        (second,) = solution_at(dist, residual_second_generator, [30.0], 5e-3)
        (first,) = solution_at(dist, residual_mean_generator, [30.0], 5e-3)
        target = dist.moment(3) / (3 * dist.moment(1)) - (
            dist.moment(2) / (2 * dist.moment(1))
        ) ** 2
        assert second - first**2 == pytest.approx(target, abs=0.01)


class TestCumulativeBias:
    def test_exponential_is_centred(self):
        assert abs(cumulative_residual_bias(Exponential(1.0), 20.0)) <= 1e-8

    def test_dichotomy(self):
        # finite third moment: the integral settles; infinite: it diverges
        gamma_vals = [cumulative_residual_bias(Gamma(2, 2), t, step=8e-3) for t in (20, 40, 80)]
        d1 = abs(gamma_vals[1] - gamma_vals[0])
        d2 = abs(gamma_vals[2] - gamma_vals[1])
        assert d2 <= max(d1 / 2.0, 1e-9)
        pareto_vals = [
            cumulative_residual_bias(ParetoShifted(2.5), t, step=8e-3) for t in (20, 40, 80)
        ]
        mags = [abs(v) for v in pareto_vals]
        assert mags[1] >= 1.3 * mags[0]
        assert mags[2] >= 1.3 * mags[1]

    def test_infinite_second_moment_rejected(self):
        with pytest.raises(ValueError):
            cumulative_residual_bias(ParetoShifted(1.5), 10.0)

    def test_default_step_puts_atoms_on_the_grid(self):
        # both point values are exact on a grid through the atoms; the trapezoid over
        # the whole grid that this replaced read 0.235735
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias = cumulative_residual_bias(Lattice(1.0, (0.5, 0.5)), 10.5)
        assert bias == pytest.approx(float(lattice_bias(Fraction(21, 2))), abs=1e-12)
        assert lattice_bias(Fraction(21, 2)) == Fraction(967, 4096)

    def test_default_step_of_a_continuous_law(self):
        dist = Gamma(2, 2)
        step = fitted_step(10.0, [dist])
        assert cumulative_residual_bias(dist, 10.0) == cumulative_residual_bias(dist, 10.0, step=step)

    @pytest.mark.parametrize("dist,t,limit", [
        (Gamma(2, 2), 20.0, 1 / 16), (Gamma(2, 2), 80.0, 1 / 16), (Uniform(0.0, 2.0), 50.0, 1 / 9),
    ], ids=["gamma-20", "gamma-80", "uniform-50"])
    def test_limit_within_the_extrapolation_error(self, dist, t, limit):
        # rate^2 E[T^2]^2 / 4 - rate E[T^3] / 6, the limit of C E[R(t)] - E[R(t)^2] / 2
        step = fitted_step(t, [dist])
        _, first_error = residual_mean_at(dist, t, step)
        _, second_error = extrapolate(lambda h: solution_at(dist, residual_second_generator, [t], h), step)
        error = dist.renewal_rate * dist.moment(2) / 2 * first_error + second_error / 2
        assert abs(cumulative_residual_bias(dist, t) - limit) <= error

    def test_pathwise_identity(self):
        # the integral of R over [0, t] is sum_{k <= N(t)} T_k^2 / 2 - R(t)^2 / 2 on every row
        t = 20.0
        paths = simulate_paths(Plain(Gamma(2, 2)), t, 500, child_rng(3, 0))
        n, r = count(paths, t), residual(paths, t)
        gaps = np.where(np.arange(paths.interarrivals.shape[1]) < n[:, None], paths.interarrivals, 0.0)
        rhs = np.sum(gaps**2, axis=1) / 2 - r**2 / 2
        assert np.max(np.abs(integrated_residual(paths, t) - rhs)) <= 1e-12 * t**2

    def test_monte_carlo_mean(self):
        # the mean over paths of the integral of R - C over [0, t], within 4 se
        dist, t, reps = Gamma(2, 2), 20.0, 50000
        paths = simulate_paths(Plain(dist), t, reps, child_rng(5, 0))
        x = integrated_residual(paths, t) - dist.renewal_rate * dist.moment(2) / 2 * t
        se = float(np.std(x, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(x)) - cumulative_residual_bias(dist, t)) <= 4 * se


def lattice_bias(t: Fraction) -> Fraction:
    """Exact integral of E[R(u)] - C over [0, t] for T = 1 or 2 with probability 1/2 each.

    E[R(u)] = sum_{n <= u} P(event at n) e_1(u - n), so the integral is
    sum_n P(event at n) int_0^(t - n) e_1, with P(event at n) from the integer
    renewal recursion and the inner integral in closed form.
    """
    half = Fraction(1, 2)
    events = [Fraction(1), half]  # P(an event at 0), P(an event at 1)
    while len(events) <= t:
        events.append(half * events[-1] + half * events[-2])

    def integrated_excess(y):  # int_0^y E[(T - x)+] dx
        return sum(half * (c * min(y, c) - Fraction(min(y, c)) ** 2 / 2) for c in (1, 2))

    c = Fraction(2, 3) * Fraction(5, 2) / 2  # rate E[T^2] / 2
    return sum(p * integrated_excess(t - n) for n, p in enumerate(events) if n <= t) - c * t


def integrated_residual(paths, t: float) -> np.ndarray:
    """Per row, the integral of R over [0, t]: on the cell before each event s,
    R(u) = s - u, clipped to [0, t] (cells past the overshoot have width 0)."""
    before, after = paths.events[:, :-1], paths.events[:, 1:]
    lo, hi = np.minimum(before, t), np.minimum(after, t)
    return np.sum((hi - lo) * (np.where(np.isfinite(after), after, 0.0) - (lo + hi) / 2), axis=1)


class TestGridChecks:
    def test_step_must_split_the_horizon(self):
        # 0.3 would round 3.33 cells to 3, a grid ending at 0.9
        with pytest.raises(ValueError, match="whole cells"):
            renewal_function(Gamma(2, 2), 1.0, 0.3)
        with pytest.raises(ValueError, match="whole cells"):
            solution_at(Gamma(2, 2), residual_mean_generator, [1.0], 0.3)
        u, _ = renewal_function(Gamma(2, 2), 0.3, 0.1)  # 2.9999999999999996 cells
        assert u.shape == (4,)

    @pytest.mark.parametrize("z,step,message", [
        ([1.0, 2.0], 0.0, "step must be positive"),
        ([1.0, 2.0], -0.1, "step must be positive"),
        ([1.0], 0.1, "at least two points"),
        ([[1.0, 2.0], [3.0, 4.0]], 0.1, "at least two points"),
        ([1.0, np.nan], 0.1, "must be finite"),
    ])
    def test_validation(self, z, step, message):
        with pytest.raises(ValueError, match=message):
            solve_renewal_equation(np.array(z), step, Gamma(2, 2))


def poisson_reference(x: Decimal, m: int, values) -> Decimal:
    """E[values(P, j)] summed over j = P mod m for P ~ Poisson(x), in 50-digit decimal
    arithmetic: every term of the pmf until it falls below 1e-60 past the mean."""
    total, term, n = Decimal(0), (-x).exp(), 0
    while True:
        total += term * values(n)
        n += 1
        term = term * x / n
        if n > x and term < Decimal("1e-60"):
            return total


class TestErlangClosedForms:
    """E[N(t)], E[R(t)], the window and g(age) of an Erlang(m, r) renewal process from
    the law of the clock's residue P mod m, against 50-digit sums over the Poisson pmf
    (40 digits kept).  Each was off by less than 1 eps relative (or relative to 1 + the
    value where it can be near 0); the bar is 1e-15, about 4.5 eps."""

    XS = [0.0, 1e-3, 0.5, 3.0, 17.3, 100.0, 700.0]  # r t

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_mean_count_and_residual(self, m, r):
        ts = [x / r for x in self.XS]
        got_n, got_r = erlang_mean_count((m, r), ts), erlang_residual_mean((m, r), ts)
        with localcontext() as ctx:
            ctx.prec = 50
            for t, n, res in zip(ts, got_n, got_r):
                x = Decimal(r) * Decimal(t)  # the product of the float inputs, exactly
                phase = poisson_reference(x, m, lambda k: k % m)  # E[J_t]
                exact_n, exact_r = 1 + (x - phase) / m, (m - phase) / Decimal(r)
                assert abs(Decimal(float(n)) - exact_n) <= Decimal(1e-15) * exact_n
                assert abs(Decimal(float(res)) - exact_r) <= Decimal(1e-15) * exact_r

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t,h", [(0.001, 0.001), (0.3, 1.0), (5.0, 0.5), (50.0, 1.0), (280.0, 3.0)])
    def test_window(self, m, t, h):
        # E[N(t + h) - N(t)] = rate (h + E[R(t + h)] - E[R(t)]) by Wald's identity
        r = 2.5
        res = erlang_residual_mean((m, r), [t, t + h])
        got = r / m * (h + float(res[1] - res[0]))
        with localcontext() as ctx:
            ctx.prec = 50
            counts = [poisson_reference(Decimal(r) * Decimal(s), m, lambda k: k // m) for s in (t, t + h)]
            exact = counts[1] - counts[0]
        assert abs(Decimal(got) - exact) <= Decimal(1e-15) * (1 + exact)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rh", [1e-3, 1.0, 4.0, 30.0])
    def test_window_given_age(self, m, rh):
        # given the age a the open gap has seen q < m points, with weights (r a)^q / q!,
        # and the window floor((q + P_h) / m) events; ages from 0 to 50 / r
        r = 2.0
        h, ages = rh / r, np.array([0.0, 1e-4, 0.3, 2.0, 11.0, 50.0]) / r
        got = erlang_window_given_age((m, r), h, ages)
        with localcontext() as ctx:
            ctx.prec = 50
            xh = Decimal(r) * Decimal(h)
            inside = [poisson_reference(xh, m, lambda k: (q + k) // m) for q in range(m)]
            for a, g in zip(ages, got):
                xa = Decimal(r) * Decimal(float(a))
                weights = [Decimal(1)]
                for q in range(1, m):
                    weights.append(weights[-1] * xa / q)
                exact = sum(w * f for w, f in zip(weights, inside)) / sum(weights)
                assert abs(Decimal(float(g)) - exact) <= Decimal(1e-15) * (1 + exact)

    @pytest.mark.parametrize("law", [Gamma(2, 2), Gamma(4, 2)], ids=["gamma-2", "gamma-4"])
    def test_solver_at_an_eighth_of_the_step_within_its_error(self, law):
        # U on [0, 1] and the mean residual's change over (50, 51], each solved at an
        # eighth of its fitted step, lie within the error they report of the closed forms
        phases = law.poisson_phases()
        step = fitted_step(1.0, [law]) / 8
        u, error = renewal_function(law, 1.0, step)
        assert np.max(np.abs(u - erlang_mean_count(phases, step * np.arange(u.size)))) <= error
        t, h = 50.0, 1.0
        change, error = residual_mean_change(law, t, h, fitted_step(t + h, [law]) / 8)
        exact = erlang_residual_mean(phases, [t, t + h])
        assert abs(change - float(exact[1] - exact[0])) <= error

    def test_closed_forms_serve_erlang_laws_only(self):
        # a whole shape up to 16, where the phase weights stay finite; a hook that
        # disagrees with its law's mean leaves the targets to the solver
        assert erlang_phases(Exponential(0.5)) == (1, 0.5)
        assert erlang_phases(Gamma(16, 3)) == (16, 3.0)
        assert erlang_phases(Gamma(17, 3)) is None
        assert erlang_phases(Gamma(2.5, 2)) is None
        assert erlang_phases(Uniform(0, 2)) is None

        class FastClock(Gamma):
            def poisson_phases(self):
                return int(self.shape), 1.1 * self.rate

        assert erlang_phases(FastClock(2, 2)) is None
