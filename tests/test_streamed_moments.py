"""Estimators reduce each chunk as it is folded: the same numbers as the
two-pass array formulas (``reference_estimators``), the same bits for any
thread count, and memory that does not grow with reps."""

import math
import tracemalloc

import numpy as np
import pytest

import reference_estimators as ref
from reference_estimators import assert_close
from countproc.asymptotics import (
    _controlled_mean,
    _mean_estimate,
    _Moments,
    diffusion_scaling,
    estimate_blackwell,
    estimate_rate,
    estimate_rm_cross,
    estimate_variance_drift,
    truncated_rate_indicator_mean,
    wald_ratio,
)
from countproc.lifetimes import Deterministic, Exponential, Gamma, Uniform
from countproc.processes import _CHUNK_ROWS, Delayed, Modulated, Plain, StationaryMA

TWO_STATE = Modulated(
    states=("a", "b"),
    kernel=((0.0, 1.0), (1.0, 0.0)),
    lifetimes={"a": Exponential(1.0), "b": Exponential(1.0 / 3.0)},
)
SPECS = {
    "plain-gamma": Plain(Gamma(2, 2)),
    "plain-uniform": Plain(Uniform(0.0, 2.0)),
    "constant-delay": Delayed(Deterministic(1.5), Gamma(2, 2)),
    "equilibrium-delay": Delayed("equilibrium", Gamma(2, 2)),
    "uniform-delay": Delayed(Uniform(0.0, 3.0), Uniform(0.0, 2.0)),
    "modulated": TWO_STATE,
    "ma": StationaryMA(2, Exponential(1.0)),
}
PLAIN = ("plain-gamma", "plain-uniform")
# one chunk, two and a half, and sixteen plus a remainder
REPS = {"1000": 1_000, "2.5-chunks": 5 * _CHUNK_ROWS // 2, "16-chunks": 16 * _CHUNK_ROWS + 123}


def cases(names):
    return [pytest.param(SPECS[s], r, id=f"{s}-{k}") for s in names for k, r in REPS.items()]


class TestAgainstTheArrays:
    @pytest.mark.parametrize("spec,reps", cases(SPECS))
    def test_rate(self, spec, reps):
        assert_close(estimate_rate(spec, 5.0, reps, seed=3), ref.rate(spec, 5.0, reps, seed=3))

    @pytest.mark.parametrize("spec,reps", cases(SPECS))
    def test_blackwell(self, spec, reps):
        assert_close(estimate_blackwell(spec, 4.0, 1.0, reps, seed=4), ref.blackwell(spec, 4.0, 1.0, reps, seed=4))

    @pytest.mark.parametrize("spec,reps", cases(SPECS))
    def test_wald_ratio(self, spec, reps):
        assert_close(wald_ratio(spec, 5.0, reps, seed=5), ref.wald_ratio(spec, 5.0, reps, seed=5))

    @pytest.mark.parametrize("spec,reps", cases(PLAIN))
    def test_variance_drift(self, spec, reps):
        assert_close(estimate_variance_drift(spec, 5.0, reps, seed=6), ref.variance_drift(spec, 5.0, reps, seed=6))

    @pytest.mark.parametrize("spec,reps", cases(PLAIN))
    def test_rm_cross(self, spec, reps):
        assert_close(estimate_rm_cross(spec, 5.0, reps, seed=7), ref.rm_cross(spec, 5.0, reps, seed=7))

    @pytest.mark.parametrize("spec,reps", cases(PLAIN))
    def test_diffusion(self, spec, reps):
        got, want = diffusion_scaling(spec, 4, 1.0, reps, seed=8), ref.diffusion(spec, 4, 1.0, reps, seed=8)
        for name in ("variance", "scaled_count_mean", "scaled_residual_mean", "scaled_noise_mean",
                     "wald_second_mean"):
            assert_close(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("spec,reps", cases(PLAIN))
    def test_truncated_rate_indicator(self, spec, reps):
        assert_close(truncated_rate_indicator_mean(spec, 0.5, 5.0, reps, seed=9),
                     ref.truncated_rate_indicator(spec, 0.5, 5.0, reps, seed=9))


ESTIMATORS = {
    "rate": lambda spec, threads: estimate_rate(spec, 5.0, REPS["2.5-chunks"], 11, threads),
    "blackwell": lambda spec, threads: estimate_blackwell(spec, 4.0, 1.0, REPS["2.5-chunks"], 11, threads),
    "wald-ratio": lambda spec, threads: wald_ratio(spec, 5.0, REPS["2.5-chunks"], 11, threads),
    "variance-drift": lambda spec, threads: estimate_variance_drift(spec, 5.0, REPS["2.5-chunks"], 11, threads),
    "rm-cross": lambda spec, threads: estimate_rm_cross(spec, 5.0, REPS["2.5-chunks"], 11, threads),
    "diffusion": lambda spec, threads: diffusion_scaling(spec, 4, 1.0, REPS["2.5-chunks"], 11, threads),
}


def bits(result):
    """Every float of an estimate or result, nested ones included, as bytes."""
    if isinstance(result, (float, int)) or result is None:
        return np.float64(np.nan if result is None else result).tobytes()
    if isinstance(result, tuple):
        return repr(result).encode()
    return b"|".join(bits(v) for v in vars(result).values())


@pytest.mark.parametrize("name,spec", [
    (name, SPECS[s]) for name in ESTIMATORS for s in ("plain-gamma", "plain-uniform", "uniform-delay", "ma")
    if name in ("rate", "blackwell", "wald-ratio") or s in PLAIN
])
def test_thread_counts_give_the_same_bits(name, spec):
    # three chunks on one, two and three threads: each chunk's moments come from its own
    # stream and are merged in chunk order
    one, two, three = (bits(ESTIMATORS[name](spec, threads)) for threads in (1, 2, 3))
    assert one == two == three


def test_exponential_rm_cross_stays_exact_across_chunks():
    # y - m = -1 on every path: the merged factor keeps the controlled spread at its
    # rounding, where a cross-product matrix would keep the square root of its rounding
    est = estimate_rm_cross(Plain(Exponential(1.0)), 20.0, REPS["16-chunks"], seed=3)
    assert abs(est.value + 1.0) <= est.rounding and est.se < 1e-15
    assert est.z_against(-1.0) <= 1e-3 and est.z_against(-1.0 - 1e-6) > 4.0


def moments(x):
    """``_Moments.of`` on a copy of ``x``, which it overwrites."""
    return _Moments.of(x.copy(), np.empty(x.shape[1]))


class TestMoments:
    def test_merge_is_the_moments_of_the_joined_rows(self, rng):
        x = rng.normal(3.0, 2.0, size=(3, 1000))
        x[2] = 2.0 * x[0] - x[1]  # a combination with no spread of its own
        joined = moments(x)
        merged = moments(x[:, :300]).merge(moments(x[:, 300:700])).merge(moments(x[:, 700:]))
        assert merged.n == joined.n == 1000
        np.testing.assert_allclose(merged.mean, joined.mean, rtol=1e-14)
        np.testing.assert_allclose(merged.root.T @ merged.root, np.cov(x) * 999, rtol=1e-12)
        np.testing.assert_allclose(merged.size, np.mean(np.abs(x), axis=1), rtol=1e-14)
        assert np.array_equal(merged.lo, x.min(axis=1)) and np.array_equal(merged.hi, x.max(axis=1))
        # the combination's bar is its rounding, not the square root of the rounding of its square
        assert _mean_estimate(merged, [2.0, -1.0, -1.0]).se < 1e-14

    def test_a_constant_row_has_no_spread(self):
        x = np.vstack([np.full(100, 0.3), np.arange(100.0)])
        s = moments(x)
        assert not s.root[0].any()
        # a constant control fits no slope: the controlled mean is the plain one, its bar
        # with one more degree of freedom spent
        controlled, plain = _controlled_mean(s, [0.0, 1.0], 0), _mean_estimate(s, [0.0, 1.0])
        assert controlled.value == plain.value
        assert controlled.se == pytest.approx(plain.se * math.sqrt(99 / 98), rel=1e-14)


@pytest.mark.parametrize("estimator", [
    lambda reps: estimate_variance_drift(Plain(Gamma(2, 2)), 100.0, reps, seed=8002),
    lambda reps: estimate_blackwell(Plain(Gamma(2, 2)), 50.0, 1.0, reps, seed=3001),
], ids=["variance-drift", "blackwell"])
def test_memory_does_not_grow_with_reps(estimator):
    # the peak of a run on four chunks is that of a run on one: each chunk is reduced and
    # dropped before the next is drawn (joined arrays made it about 4 times larger)
    estimator(_CHUNK_ROWS)  # warm the caches a first run fills
    peaks = []
    for reps in (_CHUNK_ROWS, 4 * _CHUNK_ROWS):
        tracemalloc.start()
        try:
            estimator(reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
