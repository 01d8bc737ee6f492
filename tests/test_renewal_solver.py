"""Grid solver: closed-form targets, convergence order, generator identities."""

import io
import math
import warnings

import numpy as np
import pytest
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
from countproc.processes import Plain
from countproc.renewal_solver import (
    GridFunction,
    _cdf_increments,
    cumulative_residual_bias,
    extrapolate,
    fitted_step,
    integrated_second_generator,
    residual_mean_generator,
    residual_second_generator,
    residual_variance_grid,
    sgibnev_asymptote,
    solve_renewal_equation,
    solve_residual_mean,
)
from countproc.asymptotics import path_statistics


def ones_grid(horizon, step):
    return GridFunction.from_callable(lambda u: np.ones_like(u), horizon, step)


def reference_solve(generator, dist):
    """The O(K^2) forward recurrence: one dot product per grid point.

    out[k] = z[k] + sum_{j=1..k} inc[j] * out[k - j], accumulated left to
    right; the oracle the divide-and-conquer solver is checked against.
    """
    z = generator.values
    k_max = z.size - 1
    inc = _cdf_increments(dist, generator.step, k_max)
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
        sol = solve_renewal_equation(ones_grid(10.0, 1e-3), Exponential(1.0))
        err = np.max(np.abs(sol.values - (1.0 + sol.times)))
        assert err < 5e-3

    def test_error_halves_with_step(self):
        e = []
        for step in (1e-3, 5e-4):
            sol = solve_renewal_equation(ones_grid(10.0, step), Exponential(1.0))
            e.append(np.max(np.abs(sol.values - (1.0 + sol.times))))
        assert 1.7 <= e[0] / e[1] <= 2.3

    def test_deterministic_staircase_exact(self):
        sol = solve_renewal_equation(ones_grid(5.0, 0.01), Deterministic(1.0))
        expected = np.floor(sol.times + 1e-9) + 1.0
        assert np.max(np.abs(sol.values - expected)) == 0.0

    def test_zero_generator_zero_solution(self):
        gen = GridFunction.from_callable(lambda u: np.zeros_like(u), 5.0, 0.01)
        sol = solve_renewal_equation(gen, Gamma(2, 2))
        assert np.all(sol.values == 0.0)

    def test_linearity(self):
        dist = Gamma(2, 2)
        g1 = GridFunction.from_callable(lambda u: np.exp(-u), 5.0, 0.01)
        g2 = GridFunction.from_callable(lambda u: 1.0 / (1.0 + u), 5.0, 0.01)
        combo = GridFunction(0.01, 2.0 * g1.values - 0.5 * g2.values)
        lhs = solve_renewal_equation(combo, dist).values
        rhs = (
            2.0 * solve_renewal_equation(g1, dist).values
            - 0.5 * solve_renewal_equation(g2, dist).values
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_off_grid_atom_warns(self):
        with pytest.warns(RuntimeWarning, match="snapped"):
            solve_renewal_equation(ones_grid(3.0, 0.15), Deterministic(1.0))

    def test_deterministic_staircase_long_grid(self):
        # 40 001 points: beyond one leaf the FFT adds rounding, nothing more
        sol = solve_renewal_equation(ones_grid(400.0, 0.01), Deterministic(1.0))
        expected = np.floor(sol.times + 1e-9) + 1.0
        assert np.max(np.abs(sol.values - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("gen", AGREEMENT_GENERATORS)
    @pytest.mark.parametrize("k", [1, 2, 510, 511, 512, 513, 1537, 40_000])
    @pytest.mark.parametrize("law", AGREEMENT_LAWS)
    def test_matches_forward_recurrence(self, law, k, gen):
        # k steps, k + 1 points: covers one leaf, the leaf boundary and uneven splits
        step = 0.01
        grid = GridFunction.from_callable(AGREEMENT_GENERATORS[gen], k * step, step)
        new = solve_renewal_equation(grid, AGREEMENT_LAWS[law]).values
        ref = reference_solve(grid, AGREEMENT_LAWS[law])
        assert np.all(np.abs(new - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_lattice_and_mixture_mass_placement(self):
        # mixture of atoms on the grid: solution jumps exactly at atoms
        mix = Mixture((0.5, 0.5), (Deterministic(1.0), Deterministic(2.0)))
        sol = solve_renewal_equation(ones_grid(3.0, 0.01), mix)
        before = sol.at(0.99)
        after = sol.at(1.0)
        assert after - before == pytest.approx(0.5)


def solve_ones(dist, horizon):
    return lambda h: solve_renewal_equation(ones_grid(horizon, h), dist).values


class TestExtrapolate:
    """The step-halving error bounds the true error of the Richardson value."""

    def test_poisson_count_function(self):
        # U(t) = 1 + t: true error about 4e-7 against a halving change of 1.2e-3
        values, error = extrapolate(solve_ones(Exponential(1.0), 5.0), 1e-3)
        true = float(np.max(np.abs(values - (1.0 + 1e-3 * np.arange(5001)))))
        assert values.size == 5001
        assert true <= error / 100
        assert error == pytest.approx(1.2e-3, rel=0.1)

    def test_gamma_mean_residual(self):
        # E[R(t)] = 3/4 + exp(-4t)/4: true error about 1.1e-6 against 6.3e-4
        dist = Gamma(2, 2)
        values, error = extrapolate(lambda h: solve_residual_mean(dist, 10.0, h).values, 0.01)
        t = 0.01 * np.arange(values.size)
        true = float(np.max(np.abs(values - (0.75 + np.exp(-4.0 * t) / 4.0))))
        assert true <= error / 100
        assert error == pytest.approx(6.3e-4, rel=0.1)

    def test_deterministic_staircase(self):
        # exact on both grids up to FFT rounding (about 1e-14), beyond one leaf
        values, error = extrapolate(solve_ones(Deterministic(1.0), 20.0), 0.01)
        true = float(np.max(np.abs(values - (1.0 + np.floor(0.01 * np.arange(2001) + 1e-9)))))
        assert true <= error + 1e-12
        assert error < 1e-12

    def test_tail_lines_up_at_last_point(self):
        full, full_error = extrapolate(solve_ones(Gamma(2, 2), 3.0), 0.01)
        tail, tail_error = extrapolate(lambda h: solve_ones(Gamma(2, 2), 3.0)(h)[-1:], 0.01)
        assert tail.tolist() == full[-1:].tolist()
        assert tail_error <= full_error


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
        [Lattice(1e-7, (1.0,))],  # a span far below the default step
        [Mixture((0.5, 0.5), (Deterministic(math.pi), Gamma(2, 2)))],  # an atom off every span
    ])
    def test_no_fitting_step_keeps_the_default(self, laws):
        assert fitted_step(10.5, laws) == 10.5 / 5000

    def test_atoms_land_on_the_grid(self):
        # at h = t/5000 the atom at 1 is snapped; the fitted step leaves it on a grid point
        with pytest.warns(RuntimeWarning):
            solve_residual_mean(Deterministic(1.0), 10.5, 10.5 / 5000)
        step = fitted_step(10.5, [Deterministic(1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve_residual_mean(Deterministic(1.0), 10.5, step).values[-1]
        assert r == pytest.approx(0.5, abs=1e-12)


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
            grid = solve_residual_mean(d, t, 0.05)
            ratios.append(float(grid.values[-1]) / sgibnev_asymptote(d, t))
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[1] < 1.09


class TestResidualMoments:
    def test_exponential_residual_mean_is_flat(self):
        grid = solve_residual_mean(Exponential(1.0), 20.0, 0.01)
        assert np.max(np.abs(grid.values - 1.0)) <= 1e-12

    def test_monte_carlo_cross_validation(self):
        dist = Gamma(2, 2)
        step = 2e-3
        grid = solve_residual_mean(dist, 20.0, step)
        stats = path_statistics(Plain(dist), [1.0, 5.0, 20.0], 100_000, seed=29)
        for j, t in enumerate((1.0, 5.0, 20.0)):
            mc = stats["residual"][:, j]
            se = mc.std(ddof=1) / math.sqrt(mc.size)
            tol = max(3 * se, 5 * step)
            assert abs(grid.at(t) - mc.mean()) <= tol, f"t={t}"

    def test_variance_grid_limit(self):
        # var R tends to E[T^3]/(3 E[T]) - (E[T^2]/(2 E[T]))^2
        dist = Gamma(2, 2)
        grid = residual_variance_grid(dist, 30.0, 5e-3)
        target = dist.moment(3) / (3 * dist.moment(1)) - (
            dist.moment(2) / (2 * dist.moment(1))
        ) ** 2
        assert grid.values[-1] == pytest.approx(target, abs=0.01)


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
        # t/10000 snapped the atoms at 1 and 2 (two warnings) and read 0.235801
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias = cumulative_residual_bias(Lattice(1.0, (0.5, 0.5)), 10.5)
        assert bias == pytest.approx(0.235735, abs=1e-6)

    def test_default_step_of_a_continuous_law(self):
        dist = Gamma(2, 2)
        assert cumulative_residual_bias(dist, 10.0) == cumulative_residual_bias(dist, 10.0, step=1e-3)


class TestGridFunction:
    def test_csv_round_trip(self):
        g = GridFunction.from_callable(lambda u: np.sin(u), 2.0, 0.25)
        buf = io.StringIO()
        g.to_csv(buf)
        buf.seek(0)
        back = GridFunction.from_csv(buf)
        assert back.step == pytest.approx(g.step)
        assert np.allclose(back.values, g.values)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            GridFunction.from_csv(io.StringIO("x,y\n0,1\n1,2\n"))

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            GridFunction.from_csv(io.StringIO("t,value\n0,1\n0.5,2\n2.0,3\n"))

    def test_step_must_split_the_horizon(self):
        # 0.3 would round 3.33 cells to 3, a grid ending at 0.9
        with pytest.raises(ValueError, match="whole cells"):
            GridFunction.from_callable(np.ones_like, 1.0, 0.3)
        with pytest.raises(ValueError, match="whole cells"):
            solve_residual_mean(Gamma(2, 2), 1.0, 0.3)
        assert len(GridFunction.from_callable(np.ones_like, 0.3, 0.1)) == 4  # 2.9999999999999996 cells

    def test_lookup_stays_on_the_grid(self):
        g = GridFunction.from_callable(lambda u: u, 10.0, 0.5)
        assert g.at(10.0) == 10.0 and g.at(0.0) == 0.0
        assert g.at(np.array([0.24, 9.76])).tolist() == [0.0, 10.0]
        for t in (500.0, -3.0, 10.26, math.nan):
            with pytest.raises(ValueError, match="grid's span"):
                g.at(t)
        with pytest.raises(ValueError, match="grid's span"):
            g.at(np.array([1.0, 10.5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GridFunction(0.1, np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(0.1, np.array([1.0, np.nan]))
