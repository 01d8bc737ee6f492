"""Distribution catalog: closed forms against quadrature and sampling oracles."""

import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from scipy import integrate, special, stats

from countproc.lifetimes import (
    _POSITIVE_FLOOR,
    _SLAB,
    Deterministic,
    EquilibriumOf,
    Exponential,
    Gamma,
    Lattice,
    Mixture,
    ParetoShifted,
    Uniform,
    _gamma_pq,
    _lattice_span,
    distribution_from_json,
)

from conftest import any_distribution, light_tailed


def breakpoints(dist) -> list[float]:
    """Locations where the tail jumps or kinks: atoms and uniform support ends."""
    if isinstance(dist, Mixture):
        out: set[float] = set()
        for w, c in zip(dist.weights, dist.components):
            if w > 0:
                out.update(breakpoints(c))
        return sorted(out)
    if isinstance(dist, EquilibriumOf):
        return breakpoints(dist.base)
    if isinstance(dist, Uniform):
        return [dist.low, dist.high]
    atoms = dist.atoms()
    return [loc for loc, _ in atoms] if atoms else []


def quad_tail(dist, lo, hi):
    pts = [a for a in breakpoints(dist) if lo < a < hi] or None
    return integrate.quad(lambda u: float(dist.tail(u)), lo, hi, points=pts, limit=300)[0]


def quad_far_moment(dist, k, lo):
    """Tail quadrature of int_lo^inf k x^(k-1) tail(x) dx, exact in a power-law tail index.

    A tail ~ x^-beta with beta just above k puts most of this integral beyond
    the largest float, out of reach of plain quad. With x = lo/s the integrand
    is g(s) * s^(beta-k-1) with g smooth, and QAWS integrates the singular
    factor exactly. beta is read off the tail at 1e30 and 1e60; a tail that
    is zero there is light and goes to plain quad.
    """
    x1, x2 = 1e30, 1e60
    far = float(dist.tail(x2))
    if far == 0.0:
        return integrate.quad(lambda x: k * x ** (k - 1) * float(dist.tail(x)), lo, np.inf, limit=400)[0]
    beta = math.log(float(dist.tail(x1)) / far) / math.log(x2 / x1)

    def g(s):
        x = lo / s if s > lo / x2 else x2  # s -> 0 limit read off at x2
        return k * lo**k * (x / lo) ** beta * float(dist.tail(x))

    return integrate.quad(g, 0.0, 1.0, weight="alg", wvar=(beta - k - 1, 0.0), limit=400)[0]


class TestMoments:
    def test_exponential_closed_forms(self):
        d = Exponential(1.0)
        assert d.moment(1) == 1.0
        assert d.moment(2) == 2.0
        assert d.moment(3) == 6.0

    def test_deterministic_point_mass(self):
        assert Deterministic(2.0).moment(3) == 8.0

    def test_pareto_divergence(self):
        assert ParetoShifted(1.5).moment(2) == math.inf
        assert ParetoShifted(2.5).moment(2) == pytest.approx(8.0 / 3.0)
        assert ParetoShifted(2.5).moment(3) == math.inf

    def test_pareto_divergence_matches_quadrature_blowup(self):
        # the tail integral for the second moment exceeds any bound
        d = ParetoShifted(1.5)
        val = integrate.quad(lambda x: 2 * x * float(d.tail(x)), 0, 1e8, limit=500)[0]
        assert val > 1e3

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            Exponential(1.0).moment(4)

    @settings(max_examples=40, deadline=None)
    @given(any_distribution)
    @example(ParetoShifted(2.00001))
    @example(ParetoShifted(3.00001))
    def test_moments_match_tail_quadrature(self, dist):
        for k in (1, 2, 3):
            m = dist.moment(k)
            if math.isinf(m):
                continue
            mid = 60.0 * max(dist.moment(1), 1.0)
            pts = [a for a in breakpoints(dist) if a < mid] or None

            def integrand(x):
                return k * x ** (k - 1) * float(dist.tail(x))

            oracle = integrate.quad(integrand, 0, mid, points=pts, limit=400)[0]
            oracle += quad_far_moment(dist, k, mid)
            assert m == pytest.approx(oracle, rel=1e-6, abs=1e-8)


CATALOG = {
    "exp": Exponential(1.3),
    "gamma": Gamma(0.7, 1.5),
    "uniform": Uniform(0.3, 2.0),
    "det": Deterministic(1.5),
    "pareto": ParetoShifted(4.5),
    "lattice": Lattice(0.5, (0.2, 0.5, 0.3)),
    "mixture": Mixture((0.3, 0.3, 0.4), (Gamma(2, 2), Uniform(0.3, 2.0), Deterministic(1.5))),
    "equilibrium": EquilibriumOf(Gamma(2, 2)),
    # E[T^3] diverges at alpha = 2.5, so e_3 is infinite for every t
    "pareto-heavy": ParetoShifted(2.5),
}


class TestExcessMoment:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dist", CATALOG.values(), ids=CATALOG.keys())
    def test_matches_tail_quadrature(self, dist, k):
        for t in (0.0, 0.4, 1.0, 2.5, 6.0):
            closed = dist.excess_moment(k, t)
            if k >= getattr(dist, "alpha", math.inf):
                assert closed == math.inf
                continue
            mid = t + 60.0 * dist.moment(1)
            pts = [a for a in breakpoints(dist) if t < a < mid] or None

            def integrand(x):
                return k * (x - t) ** (k - 1) * float(dist.tail(x))

            oracle = integrate.quad(integrand, t, mid, points=pts, limit=400)[0]
            oracle += integrate.quad(integrand, mid, np.inf, limit=400)[0]
            assert closed == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1])
    def test_mixture_integrated_excess_is_weighted_sum(self, k):
        # ParetoShifted keeps its own antiderivative, finite where E[T^(k+1)] is not
        parts = (Gamma(2, 2), ParetoShifted(1.5))
        mix = Mixture((0.3, 0.7), parts)
        for t in (0.0, 2.5, 40.0, np.array([0.5, 3.0, 80.0])):
            expected = 0.3 * parts[0].integrated_excess(k, t) + 0.7 * parts[1].integrated_excess(k, t)
            np.testing.assert_allclose(mix.integrated_excess(k, t), expected, rtol=1e-15)

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 0.4, 1.0, 2.5, 6.0])
        for dist in CATALOG.values():
            for k in (0, 1, 2):
                vec = np.asarray(dist.excess_moment(k, ts))
                assert vec.shape == ts.shape
                assert np.allclose(vec, [dist.excess_moment(k, t) for t in ts], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("dist", CATALOG.values(), ids=CATALOG.keys())
    def test_limits_at_infinity(self, dist):
        # a closed form with t * tail(t) must not turn inf * 0 into NaN
        assert dist.truncated_mean(math.inf) == dist.moment(1)
        assert dist.equilibrium_cdf(math.inf) == 1.0
        for k in (0, 1, 2, 3):
            if k == 0 or not math.isinf(dist.moment(k)):
                assert dist.excess_moment(k, math.inf) == 0.0
        ts = np.array([2.5, math.inf])
        assert dist.truncated_mean(ts).tolist() == [dist.truncated_mean(2.5), dist.moment(1)]
        assert dist.excess_moment(2, ts).tolist() == [dist.excess_moment(2, 2.5), 0.0]

    def test_laws_implement_only_the_primitive(self):
        public = {"excess_moment", "truncated_mean", "integrated_excess", "tail", "moment",
                  "excess_second_moment", "draw"}
        for dist in CATALOG.values():
            own = vars(type(dist))
            assert {"_excess_moment", "_truncated_mean"} <= set(own)
            assert not public & set(own)


# every public evaluation of a law, by name: f(law, x)
QUANTITIES = {
    **{f"excess_moment-{k}": (lambda d, x, k=k: d.excess_moment(k, x)) for k in range(4)},
    "truncated_mean": lambda d, x: d.truncated_mean(x),
    **{f"integrated_excess-{k}": (lambda d, x, k=k: d.integrated_excess(k, x)) for k in (0, 1)},
    **{f"residual_moments-{k}": (lambda d, x, k=k: d.residual_moments(x)[k - 1]) for k in (1, 2)},
}


class TestEvaluationContract:
    @pytest.mark.parametrize("name", QUANTITIES)
    @pytest.mark.parametrize("dist", CATALOG.values(), ids=CATALOG.keys())
    def test_float_for_scalar_array_of_input_shape(self, dist, name):
        # a divergent moment too: ParetoShifted(2.5)'s e_3 is an array of inf
        f = QUANTITIES[name]
        for x in (1.5, 2, np.float64(0.5), np.array(4.0)):
            assert type(f(dist, x)) is float
        for x in (np.array([1.0, 2.0, 0.25]), np.array([[0.5, 1.0], [2.0, 4.0]])):
            out = f(dist, x)
            assert isinstance(out, np.ndarray) and out.shape == x.shape
            np.testing.assert_allclose(out.ravel(), [f(dist, v) for v in x.ravel()], rtol=1e-14)


def erlang_residual_moments(k: int, rate: float, a: float) -> tuple[float, float]:
    """E[R^j | age a], j = 1, 2, of an Erlang(k) gap: j phases are done with
    weight x^j / j! (x = rate a, j < k), and the k - j left are exponential;
    every term is positive, so this is exact to rounding at any age."""
    x = rate * a
    logs = [j * math.log(x) - math.lgamma(j + 1) if x > 0 else (0.0 if j == 0 else -math.inf)
            for j in range(k)]
    w = [math.exp(v - max(logs)) for v in logs]
    left = [k - j for j in range(k)]
    return (sum(wj * n for wj, n in zip(w, left)) / (rate * sum(w)),
            sum(wj * n * (n + 1) for wj, n in zip(w, left)) / (rate**2 * sum(w)))


class TestResidualMoments:
    """E[R^k | age a] = e_k(a) / tail(a): what is left of a gap that has lasted a."""

    @pytest.mark.parametrize("dist", [
        Exponential(1.0), Exponential(0.7), Gamma(2, 2), Gamma(0.5, 0.5), Gamma(0.7, 1.5),
        Uniform(0, 2), ParetoShifted(2.5), Mixture((0.5, 0.5), (Gamma(2, 2), Uniform(0, 2))),
        EquilibriumOf(Gamma(2, 2)),
    ], ids=repr)
    def test_matches_excess_over_tail(self, dist):
        # the binomial Gamma e_2 cancels at large ages: past a tail of 1e-60 it
        # is off by up to 7e-9 relative at shapes 0.5 and 0.7 (against 40-digit
        # values, which the hook matches to 2e-16), so e_2 is compared above it
        ages = np.concatenate([np.linspace(0.0, 10.0, 41), np.geomspace(10.0, 1000.0, 61)])
        tail = dist.tail(ages)
        for k, floor in ((1, 1e-200), (2, 1e-60)):
            a = ages[tail > floor]
            got = dist.residual_moments(a)[k - 1]
            np.testing.assert_allclose(got, dist.excess_moment(k, a) / dist.tail(a), rtol=1e-9)

    @pytest.mark.parametrize("shape", [1, 2, 3, 5])
    def test_erlang_phases(self, shape):
        # far past the continued-fraction switch, and where the tail underflows
        law = Gamma(shape, 2.0)
        for a in (0.0, 0.1, 1.0, 7.0, 20.0, 60.0, 400.0, 1e4):
            got = law.residual_moments(a)
            assert got == pytest.approx(erlang_residual_moments(shape, 2.0, a), rel=1e-12)

    @pytest.mark.parametrize("dist,age", [(Exponential(1.0), 800.0), (Gamma(2, 2), 400.0)])
    def test_finite_where_the_tail_underflows(self, dist, age):
        # e_k / tail is 0/0 there; the residual tends to the exponential tail's
        assert dist.tail(age) == 0.0
        r1, r2 = dist.residual_moments(age)
        rate = dist.rate
        assert r1 == pytest.approx(1.0 / rate, rel=1e-2) and r2 == pytest.approx(2.0 / rate**2, rel=1e-2)

    def test_past_a_bounded_support_nothing_is_left(self):
        # only rounding in t - S gives such an age; the default hook returns 0, not 0/0
        assert Deterministic(0.3).residual_moments(0.30000000000000004) == (0.0, 0.0)
        assert Uniform(0, 2).residual_moments(np.array([2.0, 3.0]))[0].tolist() == [0.0, 0.0]


def erlang_excess_exact(m: int, rate: float, k: int, x: float) -> Decimal:
    """e_k at t = x / rate of an Erlang(m, rate) gap, k! / rate^k e^-x sum over l < m
    of C(m - 1 - l + k, k) x^l / l!, evaluated in 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        big_x, term, total = Decimal(x), Decimal(1), Decimal(0)
        for l in range(m):
            total += math.comb(m - 1 - l + k, k) * term
            term = term * big_x / (l + 1)
        return math.factorial(k) / Decimal(rate) ** k * (-big_x).exp() * total


class TestGammaPrimitives:
    """Erlang sums for whole-number shapes, _gamma_pq for the others."""

    # x = rate * t is exact at these rates, so each value is that of the closed form at x
    @pytest.mark.parametrize("rate", [2.0, 0.5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_erlang_primitives_to_rounding(self, m, rate):
        # the sums have positive terms only: the binomial expansion they replace
        # cancelled in the tail (e_3 off by 2e-5 relative, e_1 by 1e-10)
        xs = np.concatenate([[0.0, 1e-6, 0.1], np.linspace(0.5, 700.0, 140)])
        law = Gamma(m, rate)
        exact = {k: [erlang_excess_exact(m, rate, k, x) for x in xs] for k in range(4)}

        def worst(got, want):
            return max(abs(Decimal(g) - w) / w for g, w in zip(got.tolist(), want))

        for k in range(4):
            assert worst(law.excess_moment(k, xs / rate), exact[k]) <= 1e-15
        for k, got in zip((1, 2), law.residual_moments(xs / rate)):
            assert worst(got, [e / q for e, q in zip(exact[k], exact[0])]) <= 1e-15

    @pytest.mark.parametrize("rate", [0.7, 2.0, 3.0])
    def test_one_phase_residual_is_exactly_exponential(self, rate):
        ages = np.array([0.0, 1e-9, 0.5, 7.0, 400.0, 1e4, 1e300, math.inf])
        r1, r2 = Gamma(1, rate).residual_moments(ages)
        assert r1.tolist() == [1.0 / rate] * ages.size
        assert r2.tolist() == [2.0 / rate**2] * ages.size

    @pytest.mark.parametrize("shape", [0.3, 0.5, 0.7, 1.0, 1.5, 2.5, 4.0, 9.5, 30.3, 100.0])
    def test_gamma_pq_matches_scipy(self, shape):
        # both sides of x = shape + 1, the series' last point and the fraction's
        # first, and out to x = 700
        xs = np.concatenate([
            [0.0, shape + 1.0, np.nextafter(shape + 1.0, 0.0)],
            shape + 1.0 + np.array([-0.5, -1e-9, 1e-9, 0.5]) * min(shape, 1.0),
            np.geomspace(1e-8, 1.0, 50), np.linspace(0.0, 700.0, 1401)[1:],
        ])
        p, q = _gamma_pq(shape, xs)
        assert np.all((p >= 0) & (q >= 0) & (p <= 1) & (q <= 1))
        # scipy's own values carry the rounding of its exponent shape log x - x,
        # about an ulp of the larger term; past |exponent| ~ 450 that alone is
        # over 1e-13 relative (against 40-digit values: up to 1.8e-13, where
        # these are within 6e-16)
        with np.errstate(divide="ignore"):  # log 0
            exponent = np.maximum(xs, shape * np.abs(np.log(xs)))
        rtol = np.maximum(1e-13, 4 * np.finfo(float).eps * exponent)
        for ours, theirs in ((q, special.gammaincc(shape, xs)), (p, special.gammainc(shape, xs))):
            seen = theirs > 1e-290
            assert np.all(np.abs(ours - theirs)[seen] <= rtol[seen] * theirs[seen])

    @pytest.mark.parametrize("shape", [0.3, 2.5, 100.0])
    def test_gamma_pq_ends(self, shape):
        # 0 and 1 at x = 0 and x = inf, and where e^-x underflows
        p, q = _gamma_pq(shape, np.array([0.0, 1e4, 1e300, math.inf]))
        assert p.tolist() == [0.0, 1.0, 1.0, 1.0] and q.tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("shape", [0.3, 0.5, 2.5])
    def test_gamma_pq_where_gammaincc_underflows(self, shape):
        xs = np.linspace(700.0, 800.0, 101)
        assert np.any(special.gammaincc(shape, xs) == 0.0)
        p, q = _gamma_pq(shape, xs)
        assert np.all(p == 1.0) and np.all((q >= 0.0) & (q < 1e-290))

    @pytest.mark.parametrize("shape,x,p,q", [
        # 40-digit values (mpmath), to 17 digits
        (0.3, 0.001, 1.4024245892486737e-1, 8.5975754107513263e-1),
        (0.3, 5.0, 9.9934868124928155e-1, 6.5131875071845155e-4),
        (2.5, 3.0, 6.937810815867216e-1, 3.062189184132784e-1),
        (2.5, 3.5, 7.7935969206328921e-1, 2.2064030793671079e-1),
        (2.5, 600.0, 1.0, 2.9375604806858985e-257),
        (9.5, 10.5, 6.6319909807246642e-1, 3.3680090192753358e-1),
        (30.3, 20.0, 1.8937430939429538e-2, 9.8106256906057046e-1),
        (100.0, 101.0, 5.5289629343451125e-1, 4.4710370656548875e-1),
        (100.0, 250.0, 1.0, 1.1737017704487874e-27),
        (0.7, 690.0, 1.0, 2.3532661282714267e-301),
    ])
    def test_gamma_pq_to_rounding(self, shape, x, p, q):
        got_p, got_q = _gamma_pq(shape, np.array([x]))
        assert got_p[0] == pytest.approx(p, rel=2e-15) and got_q[0] == pytest.approx(q, rel=2e-15)


class TestTail:
    def test_at_zero_everything_is_above(self):
        for d in (Exponential(2.0), Gamma(2, 2), Uniform(0, 2), Deterministic(1.0),
                  ParetoShifted(1.5), Lattice(0.5, (0.5, 0.5))):
            assert d.tail(0.0) == pytest.approx(1.0)

    def test_pareto_hand_value(self):
        assert ParetoShifted(1.5).tail(3.0) == pytest.approx(0.125)

    def test_lattice_far_tail_is_zero(self):
        # t / span past the int64 range must not wrap round to the first atom
        assert Lattice(1.0, (1.0,)).tail(1e30) == 0.0

    def test_deterministic_right_continuity(self):
        d = Deterministic(1.0)
        assert d.tail(1.0) == 0.0
        assert d.tail(np.nextafter(1.0, 0.0)) == 1.0

    def test_lattice_excludes_atom_at_query(self):
        d = Lattice(0.5, (0.25, 0.75))
        assert d.tail(0.5) == pytest.approx(0.75)
        assert d.tail(0.49) == pytest.approx(1.0)
        assert d.tail(1.0) == pytest.approx(0.0)

    @settings(max_examples=40, deadline=None)
    @given(any_distribution)
    def test_monotone_nonincreasing(self, dist):
        xs = np.linspace(0.0, 10.0, 200)
        t = dist.tail(xs)
        assert np.all(np.diff(t) <= 1e-12)


class TestTruncatedMean:
    def test_hand_values(self):
        assert Deterministic(2.0).truncated_mean(1.0) == 1.0
        assert Exponential(1.0).truncated_mean(1.0) == pytest.approx(0.63212, abs=1e-5)
        assert Exponential(1.0).truncated_mean(200.0) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(any_distribution)
    @example(Uniform(0.3, 2.0))
    def test_matches_quadrature(self, dist):
        for v in (0.1, 0.7, 1.0, 3.7, 10.0):
            closed = float(dist.truncated_mean(v))
            oracle = quad_tail(dist, 0.0, v)
            assert abs(closed - oracle) <= 1e-8 * (1.0 + v)

    @settings(max_examples=30, deadline=None)
    @given(any_distribution)
    def test_monotone_and_bounded(self, dist):
        vs = np.linspace(0.01, 20.0, 100)
        tm = np.asarray(dist.truncated_mean(vs))
        assert np.all(np.diff(tm) >= -1e-12)
        mean = dist.moment(1)
        assert np.all(tm <= np.minimum(vs, mean) + 1e-9)


class TestEquilibriumCdf:
    def test_zero_at_origin(self):
        for d in (Exponential(1.0), Gamma(2, 2), Deterministic(1.0)):
            assert d.equilibrium_cdf(0.0) == 0.0

    def test_exponential_is_its_own_equilibrium(self):
        d = Exponential(1.7)
        xs = np.linspace(0, 5, 50)
        assert np.allclose(d.equilibrium_cdf(xs), 1 - np.exp(-1.7 * xs), atol=1e-12)

    def test_deterministic_equilibrium_is_uniform(self):
        d = Deterministic(2.0)
        assert d.equilibrium_cdf(1.0) == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(light_tailed)
    def test_monotone_and_saturating(self, dist):
        # light-tailed laws reach the excess-law tail bound quickly; power
        # tails do not and are exercised separately
        xs = np.linspace(0.0, 50.0 * dist.moment(1), 400)
        cdf = np.asarray(dist.equilibrium_cdf(xs))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert cdf[-1] >= 1.0 - 1e-6

    def test_heavy_tail_saturates_slowly_but_monotonely(self):
        d = ParetoShifted(2.5)
        x = 50.0 * d.moment(1)
        val = float(d.equilibrium_cdf(x))
        assert 0.99 < val < 1.0 - 1e-6  # genuinely slower than light tails


class ZeroUniforms:
    """A generator whose ``random()`` returns 0.0, an outcome of probability
    2**-53 a draw."""

    def random(self, size=None, out=None):
        if out is not None:
            out.fill(0.0)
            return out
        return 0.0 if size is None else np.zeros(size)


def erlang_reference(shape: int, rate: float, rng, size):
    """The Erlang fill on whole arrays: each factor's uniforms in one draw."""
    x = 1.0 - rng.random(size)
    for _ in range(shape - 1):
        x = x * (1.0 - rng.random(size))
    return np.maximum(np.log(x) * (-1.0 / rate), _POSITIVE_FLOOR)


class TestSampling:
    def test_deterministic_sample(self, rng):
        assert Deterministic(1.0).draw(rng) == 1.0

    def test_same_seed_same_draw(self):
        a = Exponential(1.0).draw(np.random.default_rng(5))
        b = Exponential(1.0).draw(np.random.default_rng(5))
        assert a == b

    def test_gamma_mean_within_three_se(self):
        d = Gamma(2, 2)
        x = d.draw(np.random.default_rng(1), 10**6)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - d.moment(1)) <= 3 * se

    @pytest.mark.parametrize(
        "dist,orders",
        [(Exponential(0.7), (1, 2, 3)), (Gamma(3, 1.5), (1, 2, 3)),
         (Uniform(0.5, 2.5), (1, 2, 3)), (Lattice(0.5, (0.2, 0.5, 0.3)), (1, 2, 3)),
         (Mixture((0.4, 0.6), (Exponential(1.0), Deterministic(1.5))), (1, 2, 3)),
         # the sample SE of the k-th moment needs E[T^(2k)]; alpha=2.5 only
         # affords the mean
         (ParetoShifted(2.5), (1,))],
        ids=["exp", "gamma", "uniform", "lattice", "mixture", "pareto"],
    )
    def test_sample_moments_match(self, dist, orders):
        x = dist.draw(np.random.default_rng(42), 10**6)
        for k in orders:
            xk = x**k
            se = xk.std(ddof=1) / math.sqrt(x.size)
            assert abs(xk.mean() - dist.moment(k)) <= 4 * se

    def test_sample_variance_matches(self):
        d = Gamma(2, 2)
        x = d.draw(np.random.default_rng(9), 10**6)
        sq = (x - x.mean()) ** 2
        se = sq.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.var(ddof=1) - d.variance) <= 4 * se

    @settings(max_examples=25, deadline=None)
    @given(any_distribution)
    def test_draws_strictly_positive(self, dist):
        x = np.atleast_1d(dist.draw(np.random.default_rng(0), 256))
        assert np.all(x > 0)

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_whole_number_gamma_law(self, shape):
        # the Erlang branch against the law's CDF, at the KS critical value
        # 1.95/sqrt(n) (exact i.i.d. draws need no discretisation slack), and
        # its mean and variance within 4 se of shape/rate and shape/rate**2
        d = Gamma(shape, 1.5)
        n = 2 * 10**5
        x = d.draw(np.random.default_rng(21), n)
        assert stats.kstest(x, lambda v: 1.0 - d.tail(v)).statistic < 1.95 / math.sqrt(n)
        mean, var = shape / 1.5, shape / 1.5**2
        assert abs(x.mean() - mean) < 4 * math.sqrt(var / n)
        # var of the sample variance is (mu4 - var**2)/n; mu4 = 3k(k+2)/rate**4
        mu4 = 3 * shape * (shape + 2) / 1.5**4
        assert abs(x.var() - var) < 4 * math.sqrt((mu4 - var**2) / n)

    @pytest.mark.parametrize("shape", [2.0, 2.5])
    @pytest.mark.parametrize("size,expected", [(7, (7,)), ((3, 5), (3, 5)), (0, (0,))])
    def test_gamma_size_forms(self, shape, size, expected):
        # an int size is what _draw_block passes for a modulated chain
        x = Gamma(shape, 2).draw(np.random.default_rng(4), size)
        assert isinstance(x, np.ndarray) and x.shape == expected
        assert np.all(x >= _POSITIVE_FLOOR)

    @pytest.mark.parametrize("shape", [2.0, 2.5])
    def test_gamma_scalar_draw_is_a_float(self, shape):
        x = Gamma(shape, 2).draw(np.random.default_rng(4))
        assert isinstance(x, float) and x > 0

    @pytest.mark.parametrize("shape", [2.5, 5])
    def test_other_gamma_shapes_keep_numpy_stream(self, shape):
        got = Gamma(shape, 2).draw(np.random.default_rng(8), (50, 40))
        want = np.maximum(np.random.default_rng(8).gamma(shape, 0.5, (50, 40)), _POSITIVE_FLOOR)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [None, 1, _SLAB - 1, _SLAB, 3 * _SLAB + 5, (16384, 108)],
                             ids=["none", "one", "slab-less-1", "slab", "three-slabs-and-5", "block"])
    def test_erlang_slabs_keep_the_whole_array_stream(self, shape, size):
        a, b = np.random.default_rng(17), np.random.default_rng(17)
        got = Gamma(shape, 1.5).draw(a, size)
        want = erlang_reference(shape, 1.5, b, size)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        assert a.random() == b.random()  # and leave the generator where it would

    @pytest.mark.parametrize("shape", [2, 4])
    def test_erlang_fill_allocates_one_block(self, shape):
        # the output plus one _SLAB scratch; a second block-sized array reads 2x
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            x = Gamma(shape, 2).draw(rng, (16384, 108))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.nbytes

    @pytest.mark.parametrize("shape", [1, 2, 4])
    def test_erlang_survives_zero_uniforms(self, shape):
        # -log(0) would be an infinite gap
        x = Gamma(shape, 2).draw(ZeroUniforms(), 16)
        assert np.all(np.isfinite(x)) and np.all(x >= _POSITIVE_FLOOR)

    def test_equilibrium_draw_is_floored(self):
        # the inverse CDF maps u = 0 to the gap 0.0
        eq = EquilibriumOf(Gamma(2, 2))
        assert eq.draw(ZeroUniforms()) >= _POSITIVE_FLOOR
        assert np.all(eq.draw(ZeroUniforms(), 16) >= _POSITIVE_FLOOR)

    @settings(max_examples=25, deadline=None)
    @given(any_distribution)
    def test_scalar_draw_is_the_first_of_one(self, dist):
        x = dist.draw(np.random.default_rng(3))
        assert type(x) is float and x == dist.draw(np.random.default_rng(3), 1)[0]


class TestPoissonPhases:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(any_distribution, st.builds(Gamma, shape=st.integers(1, 6), rate=st.floats(0.25, 4.0))))
    def test_only_erlang_laws_answer(self, dist):
        # an Erlang(m, r) gap is m phases of a rate-r clock: mean m / r, variance m / r^2
        phases = dist.poisson_phases()
        if not (isinstance(dist, Exponential) or isinstance(dist, Gamma) and dist.shape.is_integer()):
            assert phases is None
            return
        m, r = phases
        assert type(m) is int and m >= 1
        assert dist.moment(1) == pytest.approx(m / r, rel=1e-12)
        assert dist.variance == pytest.approx(m / r**2, rel=1e-9)

    @pytest.mark.parametrize("dist,phases", [
        (Exponential(2.0), (1, 2.0)), (Gamma(3, 1.5), (3, 1.5)), (Gamma(2.5, 2.5), None),
        (EquilibriumOf(Gamma(2, 2)), None), (Mixture((1.0,), (Gamma(2, 2),)), None),
    ], ids=["exponential", "erlang", "non-whole-shape", "equilibrium", "one-component-mixture"])
    def test_catalog(self, dist, phases):
        assert dist.poisson_phases() == phases


class TestLengthBiasedLaw:
    @pytest.mark.parametrize("dist", [Exponential(0.7), Gamma(2, 2), Gamma(0.5, 3.0)],
                             ids=["exponential", "gamma", "gamma-small-shape"])
    def test_density_is_x_f_over_the_mean(self, dist):
        # E[g(T^)] = E[T g(T)] / E[T] for g = x and x^2
        law = dist.length_biased_law()
        assert law.moment(1) == pytest.approx(dist.moment(2) / dist.moment(1), rel=1e-12)
        assert law.moment(2) == pytest.approx(dist.moment(3) / dist.moment(1), rel=1e-12)

    @pytest.mark.parametrize("dist", [Uniform(0.0, 2.0), ParetoShifted(3.5), Deterministic(1.0),
                                      EquilibriumOf(Gamma(2, 2)), Mixture((1.0,), (Exponential(1.0),))],
                             ids=["uniform", "pareto", "deterministic", "equilibrium", "mixture"])
    def test_other_laws_have_none(self, dist):
        assert dist.length_biased_law() is None


class TestArithmetic:
    def test_catalog(self):
        assert Deterministic(1.0).is_arithmetic() == (True, 1.0)
        assert Exponential(1.0).is_arithmetic() == (False, None)
        mix = Mixture((0.5, 0.5), (Deterministic(1.0), Deterministic(1.5)))
        assert mix.is_arithmetic() == (True, 0.5)

    def test_lattice_support_gcd(self):
        d = Lattice(0.5, (0.0, 0.5, 0.0, 0.5))  # atoms at 1.0 and 2.0 only
        arith, span = d.is_arithmetic()
        assert arith and span == pytest.approx(1.0)

    def test_mixture_with_continuous_component(self):
        mix = Mixture((0.5, 0.5), (Deterministic(1.0), Exponential(1.0)))
        assert mix.is_arithmetic() == (False, None)

    @pytest.mark.parametrize("values", [
        (409523.64915303834, 67859.17899673306),  # exact gcd of the floats: 7.8e-9
        (584096.2522396672, 461643.2779883989),  # last Euclid remainder: 1.7e-9
    ])
    def test_float_debris_is_no_lattice(self, values):
        # two unrelated floats have a tiny common "span" that only rounding
        # makes look exact; it must not turn the law into a lattice law
        laws = tuple(Deterministic(v) for v in values)
        assert _lattice_span(laws) is None
        assert Mixture((0.5, 0.5), laws).is_arithmetic() == (False, None)

    def test_mixture_atoms_are_its_discrete_part(self):
        # a density part made atoms() None; two mixed atoms were merged into one
        assert Mixture((0.5, 0.5), (Deterministic(1.0), Gamma(2, 2))).atoms() == [(1.0, 0.5)]
        inner = Mixture((0.5, 0.5), (Deterministic(1.0), Exponential(1.0)))
        mix = Mixture((0.5, 0.25, 0.25), (inner, Lattice(0.5, (0.0, 1.0)), Deterministic(3.0)))
        assert mix.atoms() == [(1.0, 0.25), (1.0, 0.25), (3.0, 0.25)]
        assert Mixture((1.0, 0.0), (Gamma(2, 2), Deterministic(1.0))).atoms() == []

    @settings(max_examples=30, deadline=None)
    @given(any_distribution)
    def test_atom_masses_sum_to_one_on_a_lattice(self, dist):
        masses = [mass for _, mass in dist.atoms()]
        assert all(m > 0 for m in masses) and sum(masses) <= 1.0 + 1e-12
        if dist.is_arithmetic()[0]:
            assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_decimal_spans_give_one_rounding(self):
        # the Euclid pass alone returned its accumulated rounding, 0.10000000000012221
        laws = tuple(Deterministic(v) for v in (42.7, 9.0, 13.6))
        assert _lattice_span(laws) == 9.0 / 90 == 0.1

    @settings(max_examples=30, deadline=None)
    @given(any_distribution)
    @example(Mixture((0.5, 0.5), (Deterministic(1.0), Deterministic(0.689861864921478))))
    def test_span_divides_every_atom(self, dist):
        arith, span = dist.is_arithmetic()
        if not arith:
            return
        for loc, _ in dist.atoms():
            ratio = loc / span
            assert abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


class TestEquilibriumLaw:
    def test_needs_second_moment(self):
        with pytest.raises(ValueError):
            EquilibriumOf(ParetoShifted(1.5))

    def test_moments(self):
        eq = EquilibriumOf(Exponential(1.0))
        assert eq.moment(1) == pytest.approx(1.0)  # E T^2 / (2 E T)
        assert eq.moment(2) == pytest.approx(2.0)  # E T^3 / (3 E T)

    def test_truncated_mean_matches_tail_quadrature(self):
        eq = EquilibriumOf(Gamma(2, 2))
        for v in (0.5, 1.0, 4.0):
            oracle = integrate.quad(lambda u: float(eq.tail(u)), 0, v, limit=300)[0]
            assert eq.truncated_mean(v) == pytest.approx(oracle, abs=1e-8)


def bisection_inverse(base, u):
    """Reference inverse of the equilibrium CDF: doubling bracket, then bisection to float resolution."""
    lo, hi = np.zeros_like(u), np.full_like(u, max(base.moment(1), 1.0))
    while np.any(base.equilibrium_cdf(hi) < u):
        hi = np.where(base.equilibrium_cdf(hi) < u, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = np.asarray(base.equilibrium_cdf(mid)) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestEquilibriumInverse:
    # Past 1 - 1e-4 the density at the root falls to ~1e-6 for the exponential
    # laws, so the CDF is flat to within rounding over more than 1e-10 and no
    # inverse is determined to that tolerance.
    U = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-4])

    @pytest.mark.parametrize("base", CATALOG.values(), ids=CATALOG.keys())
    def test_newton_matches_bisection(self, base):
        x = EquilibriumOf(base).inverse_cdf(self.U)
        assert np.max(np.abs(x - bisection_inverse(base, self.U))) <= 1e-10

    @pytest.mark.parametrize("base", [Gamma(2, 2), Exponential(1.0)], ids=["gamma", "exponential"])
    def test_length_biased_draws_have_the_equilibrium_law(self, base):
        # U times a length-biased gap, against the equilibrium CDF: KS on 4e5 draws
        eq = EquilibriumOf(base)
        draws = eq.draw(np.random.default_rng(11), 400_000)
        assert stats.kstest(draws, base.equilibrium_cdf).pvalue > 1e-3

    def test_without_a_length_biased_law_the_cdf_is_inverted(self):
        # a Uniform base has none: its delays are the Newton inverse of the
        # same uniforms, as before the length-biased draw existed
        eq = EquilibriumOf(Uniform(0.3, 2.0))
        assert np.array_equal(eq.draw(np.random.default_rng(12), 5_000),
                              eq.inverse_cdf(np.random.default_rng(12).random(5_000)))

    def test_keeps_the_shape_of_u(self):
        eq = EquilibriumOf(Uniform(0.3, 2.0))
        assert eq.inverse_cdf(self.U[:8].reshape(2, 4)).shape == (2, 4)
        assert isinstance(eq.draw(np.random.default_rng(0)), float)


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(any_distribution)
    def test_round_trip(self, dist):
        obj = json.loads(json.dumps(dist.to_json()))
        back = distribution_from_json(obj)
        assert back == dist

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            distribution_from_json({"kind": "weibull", "shape": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            distribution_from_json({"kind": "exponential", "rate": 1.0, "scale": 2.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            distribution_from_json({"kind": "gamma", "shape": 2.0})

    @pytest.mark.parametrize("value", [True, "2", None, [2.0]], ids=["bool", "string", "null", "list"])
    def test_parameter_must_be_a_number(self, value):
        with pytest.raises(ValueError) as err:
            distribution_from_json({"kind": "gamma", "shape": 2.0, "rate": value})
        assert str(err.value) == f"rate: must be a number, got {value!r}"

    def test_whole_number_parameter_is_a_float(self):
        law = distribution_from_json({"kind": "deterministic", "value": 1})
        assert isinstance(law.value, float) and law == Deterministic(1.0)

    @pytest.mark.parametrize("obj,message", [
        ({"kind": "mixture", "weights": [0.5, 0.5],
          "components": [{"kind": "exponential", "rate": 1.0}, {"kind": "exponential", "rate": True}]},
         "components[1].rate: must be a number, got True"),
        ({"kind": "mixture", "weights": [0.5, 0.5],
          "components": [{"kind": "exponential", "rate": 1.0}, {"kind": "gamma", "shape": 2.0}]},
         "components[1]: missing fields for 'gamma' distribution: ['rate']"),
        ({"kind": "mixture", "weights": [0.5, 0.5],
          "components": [{"kind": "exponential", "rate": 1.0}, {"kind": "exponential", "rate": -1}]},
         "components[1]: exponential rate must be positive, got -1.0"),
        ({"kind": "equilibrium", "base": {"kind": "uniform", "low": 0, "high": 2, "mode": 1}},
         "base: unknown fields for 'uniform' distribution: ['mode']"),
        ({"kind": "equilibrium", "base": 2.0}, "base: must be a distribution object, got 2.0"),
        ({"kind": "lattice", "span": 1.0, "pmf": "0.5,0.5"}, "pmf: must be a list, got '0.5,0.5'"),
        ({"kind": "lattice", "span": 1.0, "pmf": [0.5, "0.5"]}, "pmf[1]: must be a number, got '0.5'"),
    ], ids=["component-bool", "component-missing", "component-invalid", "base-unknown",
            "base-number", "pmf-string", "pmf-entry"])
    def test_nested_error_names_its_path(self, obj, message):
        with pytest.raises(ValueError) as err:
            distribution_from_json(obj)
        assert str(err.value) == message


class TestIntParameters:
    """An int parameter behaves as the float with the same value."""

    PAIRS = {
        "det": (Deterministic(1), Deterministic(1.0)),
        "exp": (Exponential(2), Exponential(2.0)),
        "gamma": (Gamma(2, 2), Gamma(2.0, 2.0)),
        "uniform": (Uniform(0, 2), Uniform(0.0, 2.0)),
        "pareto": (ParetoShifted(3), ParetoShifted(3.0)),
        "lattice": (Lattice(1, (0.5, 0.5)), Lattice(1.0, (0.5, 0.5))),
    }

    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    def test_same_law_draws_and_wire_format(self, pair):
        a, b = pair
        assert a == b and json.dumps(a.to_json()) == json.dumps(b.to_json())
        for size in (None, 5, (2, 3)):
            x, y = (np.asarray(d.draw(np.random.default_rng(1), size)) for d in pair)
            assert x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()
        ts = np.array([0.0, 0.5, 1.0, 2.5])
        for k in (0, 1, 2):
            assert np.asarray(a.excess_moment(k, ts)).tobytes() == np.asarray(b.excess_moment(k, ts)).tobytes()


class TestValidation:
    def test_mixture_weights_must_normalize(self):
        with pytest.raises(ValueError):
            Mixture((0.5, 0.6), (Exponential(1.0), Exponential(2.0)))

    def test_mixture_weights_nonnegative(self):
        with pytest.raises(ValueError):
            Mixture((1.5, -0.5), (Exponential(1.0), Exponential(2.0)))

    def test_pareto_alpha_guard(self):
        with pytest.raises(ValueError):
            ParetoShifted(1.0)

    def test_uniform_support_guard(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)

    def test_lattice_pmf_guard(self):
        with pytest.raises(ValueError):
            Lattice(0.5, (0.5, 0.4))

    @pytest.mark.parametrize("make,message", [
        (lambda: Exponential(math.inf), "rate must be a finite number, got inf"),
        (lambda: Uniform(0.0, math.inf), "high must be a finite number, got inf"),
        (lambda: ParetoShifted(math.inf), "alpha must be a finite number, got inf"),
        (lambda: Gamma(math.nan, 1.0), "shape must be a finite number, got nan"),
        (lambda: Lattice(math.inf, (1.0,)), "span must be a finite number, got inf"),
        (lambda: Lattice(1.0, (math.nan, 1.0)), "pmf must be nonnegative, got [nan, 1.0]"),
        (lambda: Lattice(1.0, (math.inf,)), "pmf must sum to 1 within 1e-12"),
        (lambda: Lattice(1.0, ()), "pmf must sum to 1 within 1e-12"),
        (lambda: Mixture((math.nan, 1.0), (Exponential(1.0), Exponential(2.0))),
         "mixture weights must be nonnegative, got [nan, 1.0]"),
    ], ids=["exp-inf", "uniform-inf", "pareto-inf", "gamma-nan", "span-inf", "pmf-nan", "pmf-inf",
            "pmf-empty", "weight-nan"])
    def test_nonfinite_parameter_rejected(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
