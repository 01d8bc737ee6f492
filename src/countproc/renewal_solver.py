"""Divide-and-conquer solver for convolution equations of renewal type.

Solves Z(t) = z(t) + integral of Z(t-u) dF(u) on the grid 0, step,
2*step, ... with a left-endpoint Stieltjes rule, from a 1-d array of the
generator's values there to a 1-d array of the solution's.  The lifetime
law enters through its CDF increments per grid cell, read off its tail
and its ``atoms()``.  An off-grid atom is snapped to the nearest grid
point with a warning; an atom within half a cell of 0 would be snapped to
0, where its mass is lost, and is a ValueError.  The discretization error
is O(step) for laws with a bounded density.

The grid of K + 1 points is solved in blocks (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6(3), 1985): a block is split in two, the left
part is solved first, its share of the right part is added by one real FFT
convolution, then the right part is solved.  A leaf of at most 512 points
is solved in one step, as the product with its lower-triangular Toeplitz
matrix of g = 1/(1 - increments), a power series computed once per solve.
The cost is O(K log^2 K).  A purely atomic law with its atoms on grid
points is handled exactly within one 512-point leaf, and to FFT rounding
beyond it (the Deterministic(1) staircase on 40 001 points is off by
about 1e-14 relative).

The module also evaluates the standard generators fed to the solver: the
integrated tail (whose solution is the mean residual time), the quadratic
excess (whose solution is the mean squared residual), their integrals,
and the integrated-tail asymptote for the mean residual at large times.
Each is an excess moment ``e_k(t) = E[((T - t)+)^k]`` of the lifetime law
or an integral of one, evaluated in closed form by the law itself.
``solution_at`` solves one grid and reads the solution at named points,
also after a delay law, and ``extrapolate`` takes 2 Z_(h/2) - Z_h of two
such reads, with an error bar never below their rounding.  The targets are compositions of the two: the mean residual
E[R(t)], also after a delay, its change over a window (t, t + h] from one
solve, the renewal function U on a grid, and by Wald's identity the
integral of the mean residual's offset from C = rate*E[T^2]/2, which is
C*E[R(t)] - E[R(t)^2]/2.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .lifetimes import (
    _ERLANG_SUM_MAX_SHAPE, Deterministic, LifetimeDistribution, Mixture, _lattice_span, _phase_sums,
)

__all__ = [
    "cumulative_residual_bias",
    "erlang_mean_count",
    "erlang_phases",
    "erlang_residual_mean",
    "erlang_window_given_age",
    "extrapolate",
    "fitted_step",
    "integrated_second_generator",
    "renewal_function",
    "residual_mean_at",
    "residual_mean_change",
    "residual_mean_generator",
    "residual_second_generator",
    "sgibnev_asymptote",
    "solution_at",
    "solve_renewal_equation",
]

_SNAP_WARN_REL = 1e-9
_LEAF = 512  # largest block solved directly, by one convolution with 1 / (1 - increments)
_CELLS = 5000  # cells of a grid whose step the caller does not set
_CELL_REL = 1e-9  # relative slack of a whole number of cells
# most cells of a fitted grid: on a 2-vCPU Xeon VM, residual_mean_at (grids of 2^19 and 2^20
# cells) takes 1.4 s and peaks at 180 MB RSS on Mixture(1/2 Det(0.001), 1/2 Gamma(2, 2)), and
# twice the cells take 2.9 s and 304 MB
_MAX_CELLS = 1 << 19
# Least ``extrapolate`` error, relative to the largest value read: where both grids
# agree to the bit the solves still carry rounding.  Over Gamma(m, r), m = 1-4, r = 1, 2
# and 3, t = 5-200 and h = 0.5, 1 and 3, the window rate (h + E[R(t + h)] - E[R(t)]) was
# off its closed form by up to 2.75 eps rate (h + C) more than the grid-halving change
# (C = rate E[T^2] / 2, the limit of E[R]); this floor leaves a margin of about 6.
_ROUNDING = 16 * float(np.finfo(float).eps)


def _whole_cells(horizon: float, step: float) -> int:
    """The number of cells of ``step`` in ``horizon``, or 0 unless that is a
    whole number >= 1 to within ``_CELL_REL`` relative."""
    cells = horizon / step
    k = round(cells)
    return k if k >= 1 and abs(cells - k) <= _CELL_REL * cells else 0


def _grid(horizon: float, step: float) -> np.ndarray:
    """The times 0, step, ..., horizon; ``step`` must split ``horizon`` into whole cells."""
    k = _whole_cells(horizon, step)
    if not k:
        raise ValueError(f"step {step:g} must split horizon {horizon:g} into whole cells")
    return step * np.arange(k + 1)


def _cdf_increments(dist: LifetimeDistribution, step: float, k: int) -> np.ndarray:
    """Per-cell lifetime CDF mass: out[j] = F(j*step) - F((j-1)*step), j >= 1.

    A mixture sums its components'.  Any other law with atoms is purely
    atomic and places each atom's full mass at the nearest grid index so
    the convolution sees it exactly; a snapped atom further than 1e-9
    (relatively) from its grid point triggers a warning.  Continuous laws
    use tail differences, which stay accurate deep into the tail.
    """
    out = np.zeros(k + 1)
    if isinstance(dist, Mixture):
        for w, comp in zip(dist.weights, dist.components):
            if w > 0:
                out += w * _cdf_increments(comp, step, k)
        return out
    atoms = dist.atoms()
    if atoms:
        _check_atoms(dist, step)
        for loc, mass in atoms:
            idx = int(round(loc / step))
            if abs(loc - idx * step) > _SNAP_WARN_REL * max(1.0, loc):
                warnings.warn(
                    f"atom at {loc} snapped to grid point {idx * step}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if idx <= k:
                out[idx] += mass
        return out
    grid = step * np.arange(k + 1)
    tails = dist.tail(grid)
    out[1:] = tails[:-1] - tails[1:]
    return out


def _check_atoms(dist: LifetimeDistribution, step: float) -> None:
    """ValueError when an atom of ``dist`` rounds to grid point 0 at ``step``, where
    ``_cdf_increments`` would lose its mass: every lifetime is positive."""
    low = [loc for loc, _ in dist.atoms() if round(loc / step) < 1]
    if low:
        raise ValueError(f"atom at {min(low):g} of {dist} is at most half a cell of {step:g} from 0")


def solve_renewal_equation(z, step: float, dist: LifetimeDistribution) -> np.ndarray:
    """Z = z + Z * dF at 0, ``step``, 2 ``step``, ..., solved block by block in time from ``z``,
    the generator's values there: a 1-d array of at least two finite values, or ValueError."""
    z = np.asarray(z, dtype=float)
    if not step > 0:
        raise ValueError("grid step must be positive")
    if z.ndim != 1 or z.size < 2:
        raise ValueError("grid needs at least two points")
    if not np.all(np.isfinite(z)):
        raise ValueError("grid values must be finite")
    inc = _cdf_increments(dist, step, z.size - 1)
    out = z.copy()
    g = np.zeros(min(_LEAF, out.size))  # power series of 1 / (1 - inc), to one leaf
    g[0] = 1.0
    for k in range(1, g.size):
        g[k] = np.dot(inc[1 : k + 1], g[k - 1 :: -1])
    _solve_block(out, inc, g, {}, 0, out.size)
    return out


def _solve_block(
    out: np.ndarray, inc: np.ndarray, g: np.ndarray, spectra: dict, lo: int, hi: int
) -> None:
    """Turn out[lo:hi] from z plus the convolution of the solution before lo
    into the solution.

    A leaf is one product with the lower-triangular Toeplitz matrix of g,
    taken as a truncated convolution.  A larger block solves its left part,
    adds the left part's share to the right part by a circular convolution
    with inc[:size] (whose wrap-around misses out[mid:hi]; ``spectra``
    keeps the transform of inc per size), then solves its right part.
    """
    n = hi - lo
    if n <= g.size:
        out[lo:hi] = np.convolve(out[lo:hi], g[:n])[:n]
        return
    size = 1 << (n - 1).bit_length()
    mid = lo + size // 2  # a power-of-two left part wastes no padding below
    _solve_block(out, inc, g, spectra, lo, mid)
    if size not in spectra:
        spectra[size] = np.fft.rfft(inc[:size], size)
    conv = np.fft.irfft(np.fft.rfft(out[lo:mid], size) * spectra[size], size)
    out[mid:hi] += conv[mid - lo : n]
    _solve_block(out, inc, g, spectra, mid, hi)


def solution_at(dist: LifetimeDistribution, generator: Callable, points, step: float,
                delay: LifetimeDistribution | None = None) -> np.ndarray:
    """Z = z + Z * dF, z = ``generator(dist, .)``, solved on [0, max(points)] at ``step``
    and read at ``points``: the grid value at a grid point, linear between the two
    grid points around any other.  After a ``delay`` law D, Z(x) = generator(D, x) +
    sum_j dF_D(j step) Z(x - j step), the same moment of the process whose first
    lifetime is D, is read the same way.  ``step`` must split max(points) into whole
    cells; a negative or NaN point raises ValueError."""
    points = np.asarray(points, dtype=float)
    if not np.all(points >= 0):
        raise ValueError(f"points must be nonnegative, got {points}")
    z = solve_renewal_equation(generator(dist, _grid(float(np.max(points)), step)), step, dist)
    inc = None if delay is None else _cdf_increments(delay, step, z.size - 1)

    def at(i: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Z at grid points ``i``, whose times are ``x``."""
        if delay is None:
            return z[i]
        return np.array([generator(delay, float(xk)) + float(np.dot(inc[1 : k + 1], z[:k][::-1]))
                         for k, xk in zip(i, x)])

    cells = points / step
    near = np.rint(cells)
    on = np.abs(cells - near) <= _CELL_REL * cells
    i = np.where(on, near, np.floor(cells)).astype(int)
    out = at(i, np.where(on, points, i * step))
    w, off = cells - i, ~on
    if off.any():
        out[off] = (1.0 - w[off]) * out[off] + w[off] * at(i[off] + 1, (i[off] + 1) * step)
    return out


def extrapolate(solve: Callable[[float], np.ndarray], step: float,
                combine: Callable[[np.ndarray], np.ndarray] | None = None) -> tuple[np.ndarray, float]:
    """(2 Y_(h/2) - Y_h, its error) at h = ``step``, with Y_h = ``combine(solve(h))``, or
    ``solve(h)`` itself: ``solve`` reads values at the same points on both grids, such as
    ``solution_at`` returns.  The error is max |Y_(h/2) - Y_h|, but at least
    ``_ROUNDING`` times the largest read, the rounding that the solves and ``combine``
    leave in the values even where the two grids agree."""
    coarse, fine = solve(step), solve(step / 2)
    floor = _ROUNDING * float(np.max(np.abs([coarse, fine])))
    if combine is not None:
        coarse, fine = combine(coarse), combine(fine)
    return 2.0 * fine - coarse, max(float(np.max(np.abs(fine - coarse))), floor)


def _arithmetic_parts(law: LifetimeDistribution) -> list[LifetimeDistribution]:
    """``law`` when it is arithmetic, else the arithmetic parts of its mixture
    components of positive weight, found recursively."""
    if law.is_arithmetic()[0]:
        return [law]
    if isinstance(law, Mixture):
        return [p for w, c in zip(law.weights, law.components) if w > 0 for p in _arithmetic_parts(c)]
    return []


def fitted_step(horizon: float, laws: Sequence[LifetimeDistribution]) -> float:
    """The smaller of horizon / 5000 and the smallest atom of ``laws``, shrunk
    to the largest step that divides both the horizon and the common lattice
    span of the arithmetic laws among ``laws`` and among the components of
    their mixtures.

    The atoms of those laws then sit on grid points and are not snapped.
    Without a common span of at least a quarter of the smaller value, the
    step is the largest one at most that value that splits the horizon into
    whole cells, and atoms off its grid are snapped, none to grid point 0.
    A grid of more than ``_MAX_CELLS`` cells raises ValueError naming the
    law whose atom asks for it.
    """
    loc, law = min(((loc, d) for d in laws for loc, _ in d.atoms()), key=lambda a: a[0],
                   default=(math.inf, None))
    step = min(horizon / _CELLS, loc)
    arithmetic = [part for d in laws for part in _arithmetic_parts(d)]
    span = _lattice_span(arithmetic + [Deterministic(horizon)]) if arithmetic else None
    if span is not None and span >= step / 4:
        step = span / math.ceil(span / step)
    elif loc < horizon / _CELLS and horizon / loc <= _MAX_CELLS:
        cells = math.ceil(horizon / loc)
        # one more cell when horizon / loc was rounded down to a whole number
        step = horizon / (cells if horizon / cells <= loc else cells + 1)
    if horizon / step > _MAX_CELLS:
        raise ValueError(f"{law} has an atom at {loc:g}: a step below it splits [0, {horizon:g}] "
                         f"into more than {_MAX_CELLS} cells")
    return step


# ---------------------------------------------------------------------------
# Generators and asymptotes
# ---------------------------------------------------------------------------


def residual_mean_generator(dist: LifetimeDistribution, t):
    """Integrated tail E[(T-t); T>t] = E[T] - E[min(t, T)]; the mean-residual generator."""
    return dist.excess_moment(1, t)


def residual_second_generator(dist: LifetimeDistribution, t):
    """Quadratic excess E[(T-t)^2; T>t], the mean-squared-residual generator."""
    return dist.excess_second_moment(t)


def integrated_second_generator(dist: LifetimeDistribution, t: float) -> float:
    """Integral over [0, t] of the quadratic excess; tends to E[T^3]/3."""
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if math.isinf(dist.moment(2)):
        raise ValueError("the quadratic excess diverges when E[T^2] is infinite")
    return dist.integrated_excess(2, t)


def sgibnev_asymptote(dist: LifetimeDistribution, t: float) -> float:
    """rate * integral over [0, t] of the integrated tail.

    This, A(t), is the doubly integrated tail scaled by the rate: the
    large-t asymptote of the mean residual time for monotone generators,
    and hence of (E[N(t)] - rate*t) / rate.  It is a first-order asymptote
    only: the ratio E[R(t)]/A(t) tends to 1, and nothing more is promised
    at a finite t.  For power tails with 1 < alpha < 2 the gap E[R(t)] - A(t) grows
    like rate^2 * (e_1 * e_1)(t), the self-convolution of the integrated
    tail, which tends to pi for alpha = 1.5 while A(t) grows like sqrt(t);
    so at moderate t the ratio is not close to 1 (about 1.11 at t = 200).
    """
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    return dist.renewal_rate * dist.integrated_excess(1, t)


def renewal_function(dist: LifetimeDistribution, horizon: float, step: float) -> tuple[np.ndarray, float]:
    """(U, its ``extrapolate`` error) on the ``step`` grid of [0, horizon]: U = 1 + U * dF,
    the mean number of renewals in [0, t], the one at 0 counted."""
    times = _grid(horizon, step)
    return extrapolate(lambda h: solution_at(dist, lambda law, u: np.ones_like(u), times, h), step)


def residual_mean_at(
    dist: LifetimeDistribution, t: float, step: float, delay: LifetimeDistribution | None = None
) -> tuple[float, float]:
    """(E[R(t)], its ``extrapolate`` error) from grids of ``step`` and ``step`` / 2; after
    a ``delay`` D it is E[(D - t)+] + sum_j dF_D(j h) r(t - j h), r the plain solution."""
    (r,), error = extrapolate(lambda h: solution_at(dist, residual_mean_generator, [t], h, delay), step)
    return float(r), error


def residual_mean_change(
    dist: LifetimeDistribution, t: float, h: float, step: float,
    delay: LifetimeDistribution | None = None,
) -> tuple[float, float]:
    """(E[R(t + h)] - E[R(t)], its ``extrapolate`` error), both read from one solve on
    [0, t + h] per grid, so that the error is that of the difference.  ``step`` must
    split t + h into whole cells; E[R(t)] is linear between the grid points around t
    when t is not one of them (after a ``delay``, as in ``residual_mean_at``)."""

    (change,), error = extrapolate(
        lambda s: solution_at(dist, residual_mean_generator, [t, t + h], s, delay), step, np.diff)
    return float(change), error


def cumulative_residual_bias(
    dist: LifetimeDistribution, t: float, step: float | None = None
) -> float:
    """Integral over [0, t] of the mean-residual offset E[R(u)] - C.

    C = rate * E[T^2] / 2 is the large-time mean residual; the integral
    converges exactly when E[T^3] is finite and diverges otherwise, which
    is what this diagnostic probes.  On each path the integral of R over
    [0, t] is sum_{k <= N(t)} T_k^2 / 2 - R(t)^2 / 2, and by Wald's identity
    with E[N(t)] = rate * (t + E[R(t)]) the offset's integral is
    C * E[R(t)] - E[R(t)^2] / 2: two point values, extrapolated from
    grids of ``step`` and ``step`` / 2.  The default step is
    ``fitted_step(t, [dist])``: t / 5000, with the atoms of an arithmetic
    law on grid points, where both values are exact.
    """
    m2 = dist.moment(2)
    if math.isinf(m2):
        raise ValueError("cumulative residual bias needs a finite second moment")
    if step is None:
        step = fitted_step(t, [dist])

    def solve(h: float) -> np.ndarray:
        return np.concatenate([solution_at(dist, residual_mean_generator, [t], h),
                               solution_at(dist, residual_second_generator, [t], h)])

    (first, second), _ = extrapolate(solve, step)
    c = dist.renewal_rate * m2 / 2.0
    return c * float(first) - float(second) / 2.0


# ---------------------------------------------------------------------------
# Closed forms for Erlang laws
# ---------------------------------------------------------------------------


def erlang_phases(law: LifetimeDistribution) -> tuple[int, float] | None:
    """The law's ``poisson_phases`` (m, r) when the closed forms below serve it, else None.

    An Erlang(m, r) renewal path is every m-th point of a Poisson clock of rate r, so
    its moments at t are finite sums over the clock's P ~ Poisson(r t) points by t.
    They serve m up to ``_ERLANG_SUM_MAX_SHAPE``, whose phase weights stay finite, and
    only a law whose mean is m / r: a hook that disagrees with its law then leaves the
    targets to the solver and cannot make them agree with a wrong clock.
    """
    phases = law.poisson_phases()
    if phases is None or phases[0] > _ERLANG_SUM_MAX_SHAPE:
        return None
    m, r = phases
    return phases if math.isclose(m / r, law.moment(1), rel_tol=1e-12) else None


def _residue_law(m: int, x) -> np.ndarray:
    """P(P mod m = j) for P ~ Poisson(x): one column per j < m, one row per x.

    The law of the residue has the discrete Fourier coefficients E[w^(kP)] =
    exp(x (w^k - 1)), w = exp(2 pi i / m), so P(P mod m = j) = (1/m) sum_k
    w^(-jk) exp(x (w^k - 1)): m terms of modulus at most 1, with no pmf summed.
    """
    k = np.arange(m)
    spectrum = np.exp(np.asarray(x, dtype=float)[..., None] * (np.exp(2j * np.pi * k / m) - 1.0))
    return (spectrum @ np.exp(-2j * np.pi * (np.outer(k, k) % m) / m)).real / m


def erlang_residual_mean(phases: tuple[int, float], t) -> np.ndarray:
    """E[R(t)] of the plain Erlang(m, r) renewal process at each t >= 0: the open gap
    has m - J_t phases left, J_t = P mod m, so E[R(t)] = (m - E[J_t]) / r."""
    m, r = phases
    return (m - _residue_law(m, r * np.asarray(t, dtype=float)) @ np.arange(m)) / r


def erlang_mean_count(phases: tuple[int, float], t) -> np.ndarray:
    """E[N(t)] of the plain Erlang(m, r) renewal process at each t >= 0, the event at
    0 counted: N(t) = 1 + floor(P / m), so E[N(t)] = 1 + (r t - E[J_t]) / m."""
    m, r = phases
    x = r * np.asarray(t, dtype=float)
    return 1.0 + (x - _residue_law(m, x) @ np.arange(m)) / m


def erlang_window_given_age(phases: tuple[int, float], h: float, age) -> np.ndarray:
    """g(a) = E[N(t + h) - N(t) | age a] of an Erlang(m, r) renewal path, at each age.

    Given the age a the open gap has seen Q < m points of its clock, with weights
    (r a)^q / q! (``lifetimes._phase_sums``), and the window holds floor((Q + P_h)
    / m) events, P_h ~ Poisson(r h) its own points; so g(a) is the weighted mean over
    q < m of E floor((q + P_h) / m) = (q + r h - E[(q + P_h) mod m]) / m.
    """
    m, r = phases
    q = np.arange(m)
    given = (q + r * h - ((q[:, None] + q) % m) @ _residue_law(m, r * h)) / m
    total, weight = _phase_sums(r * np.asarray(age, dtype=float), [given, [1.0] * m])
    return total / weight
