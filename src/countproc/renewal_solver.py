"""Divide-and-conquer solver for convolution equations of renewal type.

Solves Z(t) = z(t) + integral of Z(t-u) dF(u) on a uniform grid with a
left-endpoint Stieltjes rule: the lifetime law enters through its CDF
increments per grid cell (off-grid atoms are snapped to the nearest
point with a warning).  The discretization error is O(step) for laws with
a bounded density.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .lifetimes import Deterministic, Lattice, LifetimeDistribution, Mixture, _lattice_span

__all__ = [
    "GridFunction",
    "cumulative_residual_bias",
    "extrapolate",
    "fitted_step",
    "integrated_second_generator",
    "residual_mean_generator",
    "residual_second_generator",
    "residual_variance_grid",
    "sgibnev_asymptote",
    "solve_renewal_equation",
    "solve_residual_mean",
    "solve_residual_second",
]

_SNAP_WARN_REL = 1e-9
_LEAF = 512  # largest block solved directly, by one convolution with 1 / (1 - increments)
_CELLS = 5000  # cells of a grid whose step the caller does not set
_CELL_REL = 1e-9  # relative slack of a whole number of cells


def _whole_cells(horizon: float, step: float) -> int:
    """The number of cells of ``step`` in ``horizon``, or 0 unless that is a
    whole number >= 1 to within ``_CELL_REL`` relative."""
    cells = horizon / step
    k = round(cells)
    return k if k >= 1 and abs(cells - k) <= _CELL_REL * cells else 0


@dataclass
class GridFunction:
    """Values of a function at 0, step, 2*step, ..., horizon."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not self.step > 0:
            raise ValueError("grid step must be positive")
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.size)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def from_callable(cls, f: Callable, horizon: float, step: float) -> "GridFunction":
        """f at 0, step, ..., horizon; ``step`` must split ``horizon`` into whole cells."""
        k = _whole_cells(horizon, step)
        if not k:
            raise ValueError(f"step {step:g} must split horizon {horizon:g} into whole cells")
        t = step * np.arange(k + 1)
        return cls(step=step, values=np.asarray(f(t), dtype=float))

    def at(self, t) -> float | np.ndarray:
        """Nearest-grid-point lookup for t in [0, last grid time]."""
        cells = np.asarray(t, dtype=float) / self.step
        last = self.values.size - 1
        if not np.all((cells >= 0) & (cells - last <= _CELL_REL * last)):
            raise ValueError(f"t must lie in [0, {self.times[-1]:g}], the grid's span")
        out = self.values[np.rint(cells).astype(int)]
        return float(out) if np.ndim(t) == 0 else out

    def to_csv(self, fp: IO[str]) -> None:
        fp.write("t,value\n")
        for t, v in zip(self.times, self.values):
            fp.write(f"{t:.17g},{v:.17g}\n")

    @classmethod
    def from_csv(cls, fp: IO[str]) -> "GridFunction":
        header = fp.readline().strip()
        if header != "t,value":
            raise ValueError(f"expected header 't,value', got {header!r}")
        rows = [line.strip().split(",") for line in fp if line.strip()]
        t = np.array([float(r[0]) for r in rows])
        v = np.array([float(r[1]) for r in rows])
        if t.size < 2:
            raise ValueError("grid needs at least two points")
        steps = np.diff(t)
        if np.ptp(steps) > 1e-9 * steps[0]:
            raise ValueError("grid times must be uniformly spaced")
        return cls(step=float(steps[0]), values=v)


def _cdf_increments(dist: LifetimeDistribution, step: float, k: int) -> np.ndarray:
    """Per-cell lifetime CDF mass: out[j] = F(j*step) - F((j-1)*step), j >= 1.

    Atomic laws place each atom's full mass at the nearest grid index so
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
    if isinstance(dist, (Deterministic, Lattice)):
        for loc, mass in dist.atoms():
            idx = int(round(loc / step))
            if abs(loc - idx * step) > _SNAP_WARN_REL * max(1.0, loc):
                warnings.warn(
                    f"atom at {loc} snapped to grid point {idx * step}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if 1 <= idx <= k:
                out[idx] += mass
        return out
    grid = step * np.arange(k + 1)
    tails = dist.tail(grid)
    out[1:] = tails[:-1] - tails[1:]
    return out


def solve_renewal_equation(generator: GridFunction, dist: LifetimeDistribution) -> GridFunction:
    """Solve Z = z + Z * dF on the generator's grid, block by block in time."""
    z = generator.values
    h = generator.step
    inc = _cdf_increments(dist, h, z.size - 1)
    out = z.copy()
    g = np.zeros(min(_LEAF, out.size))  # power series of 1 / (1 - inc), to one leaf
    g[0] = 1.0
    for k in range(1, g.size):
        g[k] = np.dot(inc[1 : k + 1], g[k - 1 :: -1])
    _solve_block(out, inc, g, {}, 0, out.size)
    return GridFunction(step=h, values=out)


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


def extrapolate(solve: Callable[[float], np.ndarray], step: float) -> tuple[np.ndarray, float]:
    """(2 Z_(h/2) - Z_h, max |Z_(h/2) - Z_h|) at h = ``step``, with Z_h = ``solve(h)``;
    the grids line up at their last point, so a tail such as ``values[-1:]`` works too."""
    coarse = solve(step)
    fine = solve(step / 2)[::-2][: coarse.size][::-1]
    return 2.0 * fine - coarse, float(np.max(np.abs(fine - coarse)))


def _arithmetic_parts(law: LifetimeDistribution) -> list[LifetimeDistribution]:
    """``law`` when it is arithmetic, else the arithmetic parts of its mixture
    components of positive weight, found recursively."""
    if law.is_arithmetic().arithmetic:
        return [law]
    if isinstance(law, Mixture):
        return [p for w, c in zip(law.weights, law.components) if w > 0 for p in _arithmetic_parts(c)]
    return []


def fitted_step(horizon: float, laws: Sequence[LifetimeDistribution]) -> float:
    """horizon / 5000, shrunk to the largest step that divides both the horizon
    and the common lattice span of the arithmetic laws among ``laws`` and
    among the components of their mixtures.

    The atoms of those laws then sit on grid points and are not snapped.  A
    common span below a quarter of horizon / 5000, or none, keeps that step.
    """
    step = horizon / _CELLS
    arithmetic = [part for d in laws for part in _arithmetic_parts(d)]
    span = _lattice_span(arithmetic + [Deterministic(horizon)]) if arithmetic else None
    if span is None or span < step / 4:
        return step
    return span / math.ceil(span / step)


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


def solve_residual_mean(dist: LifetimeDistribution, horizon: float, step: float) -> GridFunction:
    """Grid solution for the mean residual time E[R(t)] on [0, horizon]."""
    gen = GridFunction.from_callable(lambda t: residual_mean_generator(dist, t), horizon, step)
    return solve_renewal_equation(gen, dist)


def solve_residual_second(dist: LifetimeDistribution, horizon: float, step: float) -> GridFunction:
    """Grid solution for the mean squared residual E[R(t)^2] on [0, horizon]."""
    gen = GridFunction.from_callable(lambda t: residual_second_generator(dist, t), horizon, step)
    return solve_renewal_equation(gen, dist)


def residual_variance_grid(dist: LifetimeDistribution, horizon: float, step: float) -> GridFunction:
    """Pointwise var R(t) = E[R^2](t) - (E[R](t))^2 from the two grid solutions."""
    first = solve_residual_mean(dist, horizon, step)
    second = solve_residual_second(dist, horizon, step)
    return GridFunction(step=step, values=second.values - first.values**2)


def _grid_steady_state(dist: LifetimeDistribution, step: float, k: int) -> float:
    """Exact large-time limit of the grid solution for the mean residual.

    By the discrete key renewal theorem the left-endpoint solution tends to
    (step / E[T_grid]) * sum_j z(j*step), where T_grid is the lifetime with
    each cell's mass moved to its right edge.  Sums beyond the grid use the
    closed-form integrated tails.  Subtracting this instead of the continuum
    constant C = rate*E[T^2]/2 (which it approaches at O(step)) keeps the
    steady-state offset from growing linearly under a time integral.
    """
    inc = _cdf_increments(dist, step, k)
    t_end = k * step
    tail_mass = dist.tail(t_end)
    mean_grid = step * float(np.dot(np.arange(k + 1), inc))
    mean_grid += float(residual_mean_generator(dist, t_end)) + t_end * tail_mass
    z_grid = residual_mean_generator(dist, step * np.arange(k + 1))
    z_sum = float(np.sum(z_grid))
    z_sum += dist.excess_second_moment(t_end) / (2.0 * step) + float(z_grid[-1]) / 2.0
    return step * z_sum / mean_grid


def cumulative_residual_bias(
    dist: LifetimeDistribution, t: float, step: float | None = None
) -> float:
    """Integral over [0, t] of the mean-residual offset E[R(u)] - C.

    C = rate * E[T^2] / 2 is the large-time mean residual; the integral
    converges exactly when E[T^3] is finite and diverges otherwise, which
    is what this diagnostic probes.  The grid solution's own steady state
    sits O(step) away from C, so that exact discrete limit is subtracted
    in its place; otherwise the offset would grow linearly in t and drown
    the dichotomy.  The default step is half of ``fitted_step(t, [dist])``:
    t / 10000, with the atoms of an arithmetic law on grid points.
    """
    m2 = dist.moment(2)
    if math.isinf(m2):
        raise ValueError("cumulative residual bias needs a finite second moment")
    if step is None:
        step = fitted_step(t, [dist]) / 2
    grid = solve_residual_mean(dist, t, step)
    c_grid = _grid_steady_state(dist, step, grid.values.size - 1)
    return float(np.trapezoid(grid.values - c_grid, dx=step))
