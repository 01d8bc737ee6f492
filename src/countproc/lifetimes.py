"""Parametric lifetime distributions for counting-process simulation.

Every distribution here puts all of its mass on (0, infinity) and has a
finite mean, so each can serve as the inter-arrival law of an orderly
counting process.  Each law evaluates one closed-form primitive, the
excess moment ``e_k(t) = E[((T - t)+)^k]`` (``e_0`` is the tail).  A Gamma
law with a whole-number shape evaluates it as an Erlang sum of positive
terms; other shapes take the regularized incomplete gamma functions from
``_gamma_pq``, a series below x = shape + 1 and Legendre's continued
fraction above it, so the package needs no SciPy.  Tails,
moments, the quadratic excess and the integrals of excess moments all
derive from it, so no target needs numerical quadrature.  Divergent
moments are reported as ``math.inf`` rather than a large float so that
callers can branch on finiteness.

``excess_moment``, ``truncated_mean`` and ``integrated_excess`` are defined
once, on :class:`LifetimeDistribution`: each converts its argument once to a
float array, calls the law's hook (``_excess_moment``, ``_truncated_mean``,
``_integrated_excess``) and returns a float for a scalar argument and an
array of its shape otherwise; ``tail``, ``equilibrium_cdf`` and
``excess_second_moment`` inherit that contract, and ``residual_moments``
(hook ``_residual_moments``) keeps it for each of the two moments it
returns.  Samplers take an explicit ``numpy.random.Generator`` and are
otherwise stateless; distribution objects are immutable and safe to share
across threads.
:meth:`LifetimeDistribution.draw`, the one sampler, raises each law's
``_draw`` to ``_POSITIVE_FLOOR`` and returns a float for ``size=None``.  A
Gamma law with a whole-number shape k <= 4 is drawn as an Erlang variate,
``-log(U_1 ... U_k) / rate`` with ``U_i = 1 - Generator.random()`` on
(0, 1], which costs less than ``Generator.gamma`` and has the same law;
every other shape is drawn by ``Generator.gamma``.  The Erlang fill takes
one block-sized array, the output, and one scratch of ``_SLAB`` values:
it walks the output in ``_SLAB`` slices factor by factor, so each factor's
uniforms leave the generator in the order of one whole-array draw and the
stream is that of a fill with a second block-sized array.
:class:`EquilibriumOf` draws U times a draw of the base law's length-biased
law where that law is in closed form (Gamma and Exponential bases), and
inverts its CDF by Newton steps elsewhere.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from typing import Any, ClassVar, Literal, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "Deterministic",
    "EquilibriumOf",
    "Exponential",
    "Gamma",
    "Lattice",
    "LifetimeDistribution",
    "Mixture",
    "ParetoShifted",
    "Uniform",
    "distribution_from_json",
]

# Smallest draw, applied by LifetimeDistribution.draw: inverse-CDF sampling hits
# 0.0 with probability 2**-53 a draw.  The floor keeps every gap positive, though
# not every event time strictly increasing (1.0 + 1e-300 == 1.0): simulate_paths
# moves such an event one ulp past the one before it.
_POSITIVE_FLOOR = 1e-300

# Largest whole-number Gamma shape drawn as an Erlang variate.  Cost per value
# on a 16384 x 256 block, best of 9 interleaved runs on a 2-vCPU Xeon VM (2 MiB
# L2 per core), numpy 2.4 (rng.gamma vs the _SLAB Erlang fill, ns): k = 1: 8.3
# vs 6.3; k = 2: 23.5 vs 9.5; k = 3: 22.5 vs 13.1; k = 4: 22.5 vs 17.6; k = 5:
# 23.3 vs 19.2; k = 6: 22.0 vs 22.6.  Those blocks were walked paths; a path of
# such a law now reads its events off a Poisson clock (processes), and on the
# mc-renewal benchmark the fill draws only one overshoot per clocked path and
# one delay per delayed path: per run, 250 000 values for variance-gamma's
# 250 000 paths, 25 000 for blackwell-gamma and 50 000 for
# rate-delayed-equilibrium-gamma.  Raising the cutoff would change the Gamma(5)
# stream.  processes also gates its Poisson clock on this shape, for another
# reason: a clock takes m points per event of an Erlang(m) law.
_ERLANG_MAX_SHAPE = 4

# Values per slice of the Erlang fill: a slice of the output and the uniform
# scratch, 256 KiB each, stay in L2 together.  Measured when the fill drew the
# gaps of walked paths: Gamma(2, 2) and Gamma(4, 2) on a 16384 x 108 block cost
# the same, within noise, from 2**13 to 2**19 on the host above; Gamma(4, 2) is
# about 1.4x slower at 2**11 and 2**12.  On the benchmark the fill now draws one
# overshoot or delay per path (see _ERLANG_MAX_SHAPE).
_SLAB = 1 << 15

# Largest whole-number Gamma shape m whose primitives are Erlang sums of m
# terms x^l / l! (x = rate * t).  Each sum reads x as at most _ERLANG_FAR: there
# e^-x is 0 and each ratio of sums is its limit to rounding (their relative
# offset is about k (m - 1) / x), while x^(m-1) / (m-1)! stays finite for m <= 16.
_ERLANG_SUM_MAX_SHAPE = 16
_ERLANG_FAR = 1e20
# Lentz steps of Legendre's fraction after which _legendre_fraction gives up
_LENTZ_STEPS = 10_000
_EPS = float(np.finfo(float).eps)

_LATTICE_TOL = 1e-9
# Most multiples of a lattice span a span may be: floats near 2**22 are 2**-30
# apart, finer than _LATTICE_TOL.  Two unrelated spans near 1e5 leave a Euclid
# remainder of 1e-9 to 4e-8, and their ratios to it, near 1e13, can round to
# whole numbers (for 4% of random pairs).
_LATTICE_MULTIPLES = 2**22


def _scalarize(x: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(x) if scalar else x


class _Wire:
    """A frozen dataclass written as ``{"kind": kind, <field>: <value>, ...}``.

    Fields are written in declaration order, a nested law as its own object,
    a tuple as a list and a mapping as an object; :func:`_decode` reads them
    back against their declared types.
    """

    kind: ClassVar[str]

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: _encode(getattr(self, f.name)) for f in fields(self)}}


@dataclass(frozen=True)
class LifetimeDistribution(_Wire):
    """Base class for positive lifetime laws.

    Subclasses set their wire ``kind`` and implement the float-array hooks
    ``_excess_moment(k, t)`` and ``_truncated_mean(v)`` (kept per law
    because ``E[T] - e_1(v)`` cancels at small v: a lattice law's
    equilibrium CDF would read about 1e-16 at 0) and ``_draw``, plus
    ``is_arithmetic`` and ``atoms`` for laws with atoms.  ``tail``, ``moment``,
    ``excess_second_moment`` and ``_integrated_excess`` derive from the
    excess moment; laws whose moments can diverge override
    ``_integrated_excess``, whose default needs ``E[T^(k+1)] < inf``;
    only the Gamma family overrides ``poisson_phases``, which puts an
    Erlang path on the sampler's Poisson clock, and ``length_biased_law``.
    A subclass ``__post_init__`` calls this one first.
    """

    def __post_init__(self):
        # an int parameter is stored as the float of the same value, so that
        # every law draws and evaluates floats, and no parameter is inf or NaN
        for name, tp, _ in _declared(type(self)):
            if tp is float:
                value = float(getattr(self, name))
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be a finite number, got {value}")
                object.__setattr__(self, name, value)

    # -- primitive surface -------------------------------------------------

    def excess_moment(self, k: int, t):
        """e_k(t) = E[((T - t)+)^k] for integer k >= 0 and t >= 0.

        ``e_0`` is the tail P(T > t); ``math.inf`` when E[T^k] diverges.
        """
        t = np.asarray(t, dtype=float)
        return _scalarize(self._excess_moment(k, t), t.ndim == 0)

    def truncated_mean(self, v):
        """E[min(v, T)], the integral of the tail over [0, v]; E[T] at v = inf."""
        v = np.asarray(v, dtype=float)
        return _scalarize(self._truncated_mean(v), v.ndim == 0)

    def integrated_excess(self, k: int, t):
        """Integral of e_k over [0, t], i.e. (E[T^(k+1)] - e_(k+1)(t)) / (k+1)."""
        t = np.asarray(t, dtype=float)
        return _scalarize(self._integrated_excess(k, t), t.ndim == 0)

    def _excess_moment(self, k: int, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _truncated_mean(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def residual_moments(self, a):
        """(E[T - a | T > a], E[(T - a)^2 | T > a]): the first two moments of
        what is left of a gap that has lasted ``a``, e_k(a) / tail(a) for
        k = 1, 2; the residual R(t) given the past of a renewal path at t
        depends only on its age a."""
        a = np.asarray(a, dtype=float)
        return tuple(_scalarize(r, a.ndim == 0) for r in self._residual_moments(a))

    def _integrated_excess(self, k: int, t: np.ndarray) -> np.ndarray:
        # needs E[T^(k+1)] < inf; laws whose moments can diverge override it
        return (self.excess_moment(k + 1, 0.0) - self._excess_moment(k + 1, t)) / (k + 1)

    def _residual_moments(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # 0 where the tail is 0: an age at the end of a bounded support, which
        # only rounding in t - S produces, leaves nothing of the gap
        tail = self._excess_moment(0, a)
        return tuple(np.divide(self._excess_moment(k, a), tail, out=np.zeros(np.shape(tail)),
                               where=tail > 0) for k in (1, 2))

    def draw(self, rng: np.random.Generator, size=None):
        """Sample from the law; identical generator state gives identical draws,
        each at least ``_POSITIVE_FLOOR``, and a float when ``size`` is None."""
        x = self._draw(rng, 1 if size is None else size)
        np.maximum(x, _POSITIVE_FLOOR, out=x)
        return float(x[0]) if size is None else x

    def _draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """A new float array of ``size`` draws, before the floor."""
        raise NotImplementedError

    def is_arithmetic(self) -> tuple[bool, float | None]:
        """(whether all mass sits on a lattice, the lattice span or None)."""
        return False, None

    def atoms(self) -> list[tuple[float, float]]:
        """The law's discrete part: a (location, mass) pair per atom, [] for none."""
        return []

    def poisson_phases(self) -> tuple[int, float] | None:
        """(m, r) when the law is Erlang(m, r), the time to the m-th point of
        a Poisson clock of rate r, or None.

        Exponential(r) answers (1, r) and a whole-number shape Gamma(m, r)
        answers (m, r): the sampler then reads a path's events up to its
        horizon off one Poisson count of the clock's points.
        """
        return None

    def length_biased_law(self) -> LifetimeDistribution | None:
        """The length-biased law x dF(x) / E[T] when it is in closed form, or None.

        A uniform share of a length-biased gap has density tail(x) / E[T], so
        :class:`EquilibriumOf` draws its delays from this law when there is one.
        """
        return None

    # -- derived quantities -------------------------------------------------

    def tail(self, x):
        """P(T > x), right-continuous and nonincreasing in x."""
        return self.excess_moment(0, x)

    def moment(self, k: int) -> float:
        """Exact E[T**k] for k in {1, 2, 3}; ``math.inf`` when divergent."""
        _check_k(k)
        return self._moments[k - 1]

    @cached_property
    def _moments(self) -> tuple[float, float, float]:
        # samplers and per-path code ask for the mean thousands of times
        return tuple(self.excess_moment(k, 0.0) for k in (1, 2, 3))

    @property
    def renewal_rate(self) -> float:
        """1 / E[T], the long-run event rate of the induced renewal process."""
        return 1.0 / self.moment(1)

    @property
    def variance(self) -> float:
        m2 = self.moment(2)
        if math.isinf(m2):
            return math.inf
        m1 = self.moment(1)
        return m2 - m1 * m1

    def equilibrium_cdf(self, x):
        """CDF of the stationary-excess law: truncated_mean(x) / mean."""
        return self.truncated_mean(x) / self.moment(1)

    def excess_second_moment(self, t):
        """E[(T - t)^2 ; T > t], i.e. twice the t-shifted integrated tail."""
        if math.isinf(self.moment(2)):
            raise ValueError("E[(T-t)^2; T>t] diverges when E[T^2] is infinite")
        return self.excess_moment(2, t)


@dataclass(frozen=True)
class Exponential(LifetimeDistribution):
    kind = "exponential"
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if not self.rate > 0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def _excess_moment(self, k, t):
        # memorylessness: tail(t) * E[T^k]
        return math.factorial(k) / self.rate**k * np.exp(-self.rate * t)

    def _truncated_mean(self, v):
        return -np.expm1(-self.rate * v) / self.rate

    def _residual_moments(self, a):
        # memorylessness: what is left of a gap has the gap's law at every age
        return np.full_like(a, 1.0 / self.rate), np.full_like(a, 2.0 / self.rate**2)

    def _draw(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def poisson_phases(self):
        return 1, self.rate

    def length_biased_law(self):
        return Gamma(2, self.rate)


@dataclass(frozen=True)
class Gamma(LifetimeDistribution):
    kind = "gamma"
    shape: float
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("gamma shape and rate must be positive")

    @property
    def _erlang_terms(self) -> int | None:
        """The whole-number shape m when every primitive is an Erlang sum, else None."""
        return int(self.shape) if self.shape.is_integer() and self.shape <= _ERLANG_SUM_MAX_SHAPE else None

    def _excess_moment(self, k, t):
        s, r, m = self.shape, self.rate, self._erlang_terms
        x = r * t
        if m:
            (total,) = _erlang_sums(m, x, (k,))
            return math.factorial(k) / r**k * np.exp(-x) * total
        # binomial expansion of (T - t)^k on {T > t}, with E[T^j; T > t] =
        # M_j / rate^j, M_0 = Q(s, x) and M_(j+1) = (s + j) M_j + x^j w, w =
        # x^s e^-x / Gamma(s) (as x f(x; s) = s f(x; s + 1)); at t = inf each term
        # is 0, not (-inf)^(k-j) * 0, so the powers read x as 0 there
        w = _gamma_weight(s, x)
        moment = _gamma_pq(s, x)[1]
        x = np.where(np.isinf(x), 0.0, x)
        out = 0.0
        for j in range(k + 1):
            out = out + math.comb(k, j) * (-x) ** (k - j) * moment
            moment = (s + j) * moment + x**j * w
        return out / r**k

    def _truncated_mean(self, v):
        # E[T; T<=v] + v P(T>v), with x*f(x; a) = (a/rate)*f(x; a+1); P is the
        # series below x = a + 2, so nothing cancels at small v, and the second
        # term is 0 at v = inf
        a, r = self.shape, self.rate
        w = np.where(np.isinf(v), 0.0, v)
        return (a / r) * _gamma_pq(a + 1, r * v)[0] + w * self._excess_moment(0, v)

    def _residual_moments(self, a):
        s, r, m = self.shape, self.rate, self._erlang_terms
        x = np.asarray(r * a)
        if m:
            # e^-x cancels from e_k(a) / tail(a): what is left are ratios of
            # Erlang sums of positive terms
            tail, first, second = _erlang_sums(m, x, (0, 1, 2))
            return first / tail / r, 2.0 * second / tail / r**2
        # With u = x^s e^-x / Gamma(s, x), the upward recurrence Q(s + 1, x) =
        # Q(s, x) + x^s e^-x / Gamma(s + 1) turns E[T^j; T > a] = (s)_j Q(s + j, x)
        # / rate^j into rate E[R | a] = 1 + v and rate^2 E[R^2 | a] = s + 1 -
        # (x - s - 1) v, with v = u - (x + 1 - s): the tail of Legendre's fraction
        # from x = s + 1 on, and u from the series below it
        v = np.empty_like(x)
        near = x < s + 1.0
        v[~near] = _legendre_fraction(s, x[~near])
        xn = x[near]
        v[near] = _gamma_weight(s, xn) / (1.0 - _gamma_series(s, xn)) - (xn + (1.0 - s))
        return (1.0 + v) / r, (s + 1.0 - (x - (s + 1.0)) * v) / r**2

    def _draw(self, rng, size):
        if not (self.shape.is_integer() and self.shape <= _ERLANG_MAX_SHAPE):
            return rng.gamma(self.shape, 1.0 / self.rate, size)
        # Erlang: -log(U_1 ... U_k) / rate with U_i = 1 - random() on (0, 1], so no
        # factor is 0; k <= 4 factors of at least 2**-53 cannot underflow.  Factor
        # by factor, the output is walked in _SLAB slices: the first factor's
        # uniforms fill the slice itself, each later one's a _SLAB scratch that is
        # folded into it, and the last folds in the log and the scale.  Each
        # factor takes its uniforms in the order of one whole-array draw.
        k = int(self.shape)
        x = np.empty(size)
        flat = x.reshape(-1)
        u = np.empty(min(_SLAB, flat.size))
        for i in range(k):
            for lo in range(0, flat.size, _SLAB):
                xs = flat[lo : lo + _SLAB]
                us = u[: xs.size] if i else xs
                rng.random(out=us)
                np.subtract(1.0, us, out=us)
                if i:
                    np.multiply(xs, us, out=xs)
                if i == k - 1:
                    np.log(xs, out=xs)
                    np.multiply(xs, -1.0 / self.rate, out=xs)
        return x

    def poisson_phases(self):
        return (int(self.shape), self.rate) if self.shape.is_integer() else None

    def length_biased_law(self):
        # x f(x; a) = (a / rate) f(x; a + 1)
        return Gamma(self.shape + 1, self.rate)


@dataclass(frozen=True)
class Uniform(LifetimeDistribution):
    kind = "uniform"
    low: float
    high: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.low >= 0 and self.high > self.low):
            raise ValueError("uniform support must satisfy 0 <= low < high")

    def _excess_moment(self, k, t):
        a, b = self.low, self.high
        s = np.minimum(t, b)  # past the support every excess is +0
        lo = np.maximum(s, a)
        # ((b-s)^(k+1) - (lo-s)^(k+1)) / ((k+1)(b-a)), factored so that the
        # difference b - lo is exact: the tail is exactly 1 below the support
        x, y = b - s, lo - s
        return (b - lo) * sum(x**i * y ** (k - i) for i in range(k + 1)) / ((k + 1) * (b - a))

    def _truncated_mean(self, v):
        a, b = self.low, self.high
        vc = np.clip(v, a, b)
        mid = a + (vc - a) * (2 * b - a - vc) / (2 * (b - a))
        return np.where(v <= a, v, np.where(v >= b, (a + b) / 2.0, mid))

    def _draw(self, rng, size):
        return rng.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class Deterministic(LifetimeDistribution):
    kind = "deterministic"
    value: float

    def __post_init__(self):
        super().__post_init__()
        if not self.value > 0:
            raise ValueError("deterministic lifetime must be positive")

    def _excess_moment(self, k, t):
        return np.where(t < self.value, (self.value - t) ** k, 0.0)

    def _truncated_mean(self, v):
        return np.minimum(v, self.value)

    def _draw(self, rng, size):
        return np.full(size, self.value)

    def is_arithmetic(self):
        return True, self.value

    def atoms(self):
        return [(self.value, 1.0)]


@dataclass(frozen=True)
class ParetoShifted(LifetimeDistribution):
    """Heavy-tailed law with P(T > x) = (1 + x)**(-alpha); needs alpha > 1."""

    kind = "pareto_shifted"
    alpha: float

    def __post_init__(self):
        super().__post_init__()
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1 so the mean is finite")

    def _scale(self, k: int) -> float:
        """c_k = k! / prod_{j=1..k} (alpha - j) = E[T^k]; inf when alpha <= k."""
        if self.alpha <= k:
            return math.inf
        return math.factorial(k) / math.prod(self.alpha - j for j in range(1, k + 1))

    def _excess_moment(self, k, t):
        # the excess over t is again a shifted power law, with scale 1 + t
        c = self._scale(k)
        if math.isinf(c):
            return np.full_like(t, math.inf)
        return c * (1.0 + t) ** (k - self.alpha)

    def _integrated_excess(self, k, t):
        # direct antiderivative of c_k (1 + u)^(k - alpha); finite even when
        # E[T^(k+1)] is not
        c = self._scale(k)
        if math.isinf(c):
            return np.full_like(t, math.inf)
        p = k + 1 - self.alpha
        log1p = np.log1p(t)
        return c * log1p if p == 0 else c * np.expm1(p * log1p) / p

    def _truncated_mean(self, v):
        return (1.0 - (1.0 + v) ** (1.0 - self.alpha)) / (self.alpha - 1.0)

    def _draw(self, rng, size):
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.alpha) - 1.0


@dataclass(frozen=True)
class Lattice(LifetimeDistribution):
    """Atoms at span, 2*span, ... with probabilities ``pmf`` (sums to 1)."""

    kind = "lattice"
    span: float
    pmf: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "pmf", _probabilities(self.pmf, "pmf"))
        if not self.span > 0:
            raise ValueError("lattice span must be positive")

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    @cached_property
    def _sites(self) -> np.ndarray:
        return self.span * np.arange(1, len(self.pmf) + 1)

    def _excess_moment(self, k, t):
        if k == 0:
            # number of atoms at or below t; the +tol keeps P(T > j*span) exclusive
            # clip before the cast: past ~9e18 spans the int cast overflows
            idx = np.clip(np.floor(t / self.span + _LATTICE_TOL), 0, len(self.pmf)).astype(int)
            return 1.0 - np.concatenate([[0.0], self._cum])[idx]
        diff = self._sites - t[..., None]
        return np.where(diff > 0, diff**k, 0.0) @ np.asarray(self.pmf)

    def _truncated_mean(self, v):
        return np.minimum(v[..., None], self._sites) @ np.asarray(self.pmf)

    def _draw(self, rng, size):
        return self.span * (_pick(self._cum, rng.random(size)) + 1.0)

    def is_arithmetic(self):
        return True, self.span * math.gcd(*(j + 1 for j, p in enumerate(self.pmf) if p > 0))

    def atoms(self):
        return [(float(s), p) for s, p in zip(self._sites, self.pmf) if p > 0]


@dataclass(frozen=True)
class Mixture(LifetimeDistribution):
    kind = "mixture"
    weights: tuple[float, ...]
    components: tuple[LifetimeDistribution, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "weights", _probabilities(self.weights, "mixture weights"))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.weights) != len(self.components):
            raise ValueError("weights and components must match in length")

    def _weighted(self, f):
        """Weighted sum of f over the components with positive weight, so
        that 0 * inf never appears."""
        return sum(w * f(c) for w, c in zip(self.weights, self.components) if w > 0)

    def _excess_moment(self, k, t):
        return self._weighted(lambda c: c._excess_moment(k, t))

    def _integrated_excess(self, k, t):
        return self._weighted(lambda c: c._integrated_excess(k, t))

    def _truncated_mean(self, v):
        return self._weighted(lambda c: c._truncated_mean(v))

    def _draw(self, rng, size):
        idx = _pick(np.cumsum(self.weights), rng.random(size))
        return _draw_each(self.components, idx, rng)

    def is_arithmetic(self):
        span = _lattice_span([c for w, c in zip(self.weights, self.components) if w > 0])
        return span is not None, span

    def atoms(self):
        return [(loc, w * mass) for w, c in zip(self.weights, self.components) if w > 0
                for loc, mass in c.atoms()]


@dataclass(frozen=True)
class EquilibriumOf(LifetimeDistribution):
    """Stationary-excess law of ``base``: tail(x) = 1 - equilibrium_cdf(x).

    Used as the delay law of a stationary delayed process.  Requires a
    finite second moment of the base law so its own mean is finite.
    """

    kind = "equilibrium"
    base: LifetimeDistribution

    def __post_init__(self):
        super().__post_init__()
        if math.isinf(self.base.moment(2)):
            raise ValueError(
                "equilibrium delay needs a finite second moment of the lifetime law"
            )

    # The excess law has density tail(x) / E[T] of the base law, so each of
    # its excess moments and their integrals is one order up on the base.

    def _excess_moment(self, k, t):
        return self.base._excess_moment(k + 1, t) / ((k + 1) * self.base.moment(1))

    def _integrated_excess(self, k, t):
        return self.base._integrated_excess(k + 1, t) / ((k + 1) * self.base.moment(1))

    def _truncated_mean(self, v):
        # (E[T^2] - e_2(v)) / (2 E[T]) of the base law
        return self._integrated_excess(0, v)

    def _draw(self, rng, size):
        # U times a length-biased gap has density integral_x^inf f(y) dy / E[T]
        # = tail(x) / E[T]; without that law in closed form, invert the CDF
        biased = self.base.length_biased_law()
        if biased is None:
            return self.inverse_cdf(rng.random(size))
        return biased._draw(rng, size) * rng.random(size)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Vectorized inverse of the base equilibrium CDF (tolerance 1e-10).

        The CDF is concave (its density tail(x)/E[T] is nonincreasing), so
        Newton steps from max(lo, u*E[T]), left of the root, climb to it
        monotonically; a step that leaves the doubling bracket bisects.
        """
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).ravel()
        m1 = self.base.moment(1)
        lo = np.zeros_like(u)
        hi = np.full_like(u, max(m1, 1.0))
        todo = np.arange(u.size)
        for _ in range(200):  # double hi on the entries still below their target
            todo = todo[self.base.equilibrium_cdf(hi[todo]) < u[todo]]
            if not todo.size:
                break
            lo[todo] = hi[todo]
            hi[todo] *= 2.0
        x = np.maximum(lo, u * m1)
        todo = np.arange(u.size)
        for _ in range(100):
            xt, lt, ht = x[todo], lo[todo], hi[todo]
            excess = self.base.equilibrium_cdf(xt) - u[todo]
            lt, ht = np.where(excess < 0, xt, lt), np.where(excess > 0, xt, ht)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = xt - excess * m1 / self.base.tail(xt)
            new = np.where((newton >= lt) & (newton <= ht), newton, 0.5 * (lt + ht))
            x[todo], lo[todo], hi[todo] = new, lt, ht
            todo = todo[(np.abs(new - xt) > 1e-11 + 1e-15 * xt) & (ht - lt > 1e-10)]
            if not todo.size:
                break
        return x.reshape(shape)


def _erlang_sums(m: int, x: np.ndarray, ks: Sequence[int]) -> list[np.ndarray]:
    """Per k in ``ks``, sum over l < m of C(m - 1 - l + k, k) x^l / l!.

    Given T > t, an Erlang(m) gap has seen l of its Poisson points in [0, t]
    with weight x^l / l!, and the m - l phases left have k-th moment k!
    C(m - 1 - l + k, k) / rate^k: so e_k(t) = k! / rate^k e^-x times the sum
    for k, and E[R^k | t] the same over the sum for k = 0.  Every term is
    positive, so nothing cancels; x is read as at most ``_ERLANG_FAR``.
    """
    return _phase_sums(x, [[math.comb(m - 1 - l + k, k) for l in range(m)] for k in ks])


def _phase_sums(x: np.ndarray, coefficients: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """Per row c of ``coefficients``, sum over l < len(c) of c[l] x^l / l!, term by
    term from l = 0; x is read as at most ``_ERLANG_FAR``.  With x = rate a, the
    terms are the weights of the l points an Erlang gap of age a has seen."""
    x = np.minimum(x, _ERLANG_FAR)
    term = np.ones_like(x)
    sums = [np.full_like(x, c[0]) for c in coefficients]
    for l in range(1, len(coefficients[0])):
        term = term * x / l
        for total, c in zip(sums, coefficients):
            total += c[l] * term
    return sums


def _gamma_weight(s: float, x: np.ndarray) -> np.ndarray:
    """x^s e^-x / Gamma(s), 0 at x = 0 and at x = inf.

    Where no factor leaves the normal range (x <= 700, x^s < e^700 and shape
    <= 170) it is the product of the three, each good to about an ulp.  Elsewhere it is
    sqrt(s / 2 pi) exp(-c(s) - s phi((x - s) / s)), with phi(t) = t - log(1 + t)
    and c(s) the remainder of Stirling's series for log Gamma(s), summed from
    shape 10 on, where the difference lgamma(s) - (s - 1/2) log s + s - log(2 pi)/2
    would cancel: the exponent then rounds by about eps |x - s|, not by an ulp
    of lgamma(s), so a large shape keeps its digits near the bulk of the law.
    """
    out = np.zeros_like(x)
    with np.errstate(divide="ignore"):  # log 0 at x = 0
        log_x = np.log(x)
        direct = (x <= 700.0) & (s * log_x <= 700.0) & (s <= 170.0)  # Gamma(170) < 1e305
        if direct.any():
            out[direct] = np.exp(-x[direct]) * x[direct] ** s / math.gamma(s)
        far = ~direct & (x < np.inf)
        if far.any():
            t = (x[far] - s) / s
            out[far] = math.sqrt(s / (2 * math.pi)) * np.exp(-_stirling_remainder(s) - s * (t - np.log1p(t)))
    return out


def _stirling_remainder(s: float) -> float:
    """lgamma(s) - ((s - 1/2) log s - s + log(2 pi) / 2), from its asymptotic
    series from shape 10 on (the first omitted term is below 1e-12 there)."""
    if s < 10.0:
        return math.lgamma(s) - ((s - 0.5) * math.log(s) - s + 0.5 * math.log(2 * math.pi))
    u = 1.0 / (s * s)
    return (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u / 1680))) / s


def _series_terms(s: float) -> int:
    """Terms after the first that the series of P(s, x) needs at x = s + 1, the
    slowest point of its range: past term n the rest is below term n (s + 1) / n,
    which is then under a quarter ulp of the sum."""
    term = total = 1.0
    n = 0
    while n == 0 or term * (s + 1.0) > _EPS / 4 * total * n:
        n += 1
        term *= (s + 1.0) / (s + n)
        total += term
    return n


def _gamma_series(s: float, x: np.ndarray) -> np.ndarray:
    """P(s, x) by the series x^s e^-x / Gamma(s + 1) sum_n x^n / ((s + 1) ... (s + n))
    (Abramowitz & Stegun 6.5.29) for x < s + 1, where its terms fall from the first:
    ``_series_terms(s)`` of them by Horner's rule, the same count for every x."""
    total = np.ones_like(x)
    for n in range(_series_terms(s), 0, -1):
        total *= x
        total /= s + n
        total += 1.0
    return total * _gamma_weight(s, x) / s


def _legendre_fraction(s: float, x: np.ndarray) -> np.ndarray:
    """The tail of Legendre's continued fraction (Abramowitz & Stegun 6.5.31)

        x^s e^-x / Gamma(s, x) = x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / (x + 5 - s - ...)),

    that is everything after x + 1 - s, for x >= s + 1 (0 at x = inf).  It is
    evaluated forward by the modified Lentz method (Press et al., *Numerical
    Recipes*, 5.2 and 6.2), each entry leaving the active set once a step
    changes it by less than an ulp: far in the tail after a few steps, near
    x = s + 1 after up to about 80 for shapes 0.3 to 100.  No term underflows and
    nothing cancels, so it is accurate to rounding far into the tail; the
    fraction ends by itself at a whole-number shape.
    """
    out = np.zeros_like(x)
    idx = np.flatnonzero(x < np.inf)
    xs = x[idx]
    d = 1.0 / (xs + (3.0 - s))
    f = (s - 1.0) * d
    c = np.full_like(xs, np.inf)  # the first step reads c = b_2
    for j in range(2, _LENTZ_STEPS):
        if not idx.size:
            return out
        b, a = xs + (2 * j + 1 - s), -j * (j - s)
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = c * d
        f *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[idx[done]] = f[done]
            keep = ~done
            xs, d, c, f, idx = xs[keep], d[keep], c[keep], f[keep], idx[keep]
    raise ArithmeticError(f"Legendre's fraction for shape {s} did not settle in {_LENTZ_STEPS} steps")


def _gamma_pq(s: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(s, x), Q(s, x)), the regularized lower and upper incomplete gamma
    functions, for x in [0, inf]: P from the series below x = s + 1, Q from
    Legendre's fraction at and above it, and the other as one minus it."""
    x = np.asarray(x, dtype=float)
    p, q = np.empty_like(x), np.empty_like(x)
    near = x < s + 1.0
    xn, xf = x[near], x[~near]
    p[near] = _gamma_series(s, xn)
    q[~near] = _gamma_weight(s, xf) / (xf + (1.0 - s) + _legendre_fraction(s, xf))
    q[near], p[~near] = 1.0 - p[near], 1.0 - q[~near]
    return p, q


def _check_k(k: int) -> None:
    if k not in (1, 2, 3):
        raise ValueError(f"moment order must be 1, 2 or 3, got {k}")


def _pick(cum: np.ndarray, u):
    """Per entry of ``u``, the index of the first entry of ``cum`` above it, or
    the last index when a sum ending a rounding short of 1 has none."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _draw_each(laws: Sequence[LifetimeDistribution], idx: np.ndarray, rng) -> np.ndarray:
    """One draw from ``laws[i]`` per entry i of ``idx``, made law by law in
    order, each law's draws filling its entries in row-major order: on a
    time-major sampler block, event index by event index across paths."""
    out = np.empty(np.shape(idx))
    for i, law in enumerate(laws):
        mask = idx == i
        n = int(mask.sum())
        if n:
            out[mask] = law.draw(rng, n)
    return out


def _probabilities(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats after checking that they form a
    probability vector: every entry ``>= 0`` (so no NaN) and the sum 1
    within 1e-12 (so at least one entry, and no inf)."""
    out = tuple(float(p) for p in values)
    if not all(p >= 0 for p in out):
        raise ValueError(f"{what} must be nonnegative, got {list(out)}")
    if abs(sum(out) - 1.0) > 1e-12:
        raise ValueError(f"{what} must sum to 1 within 1e-12")
    return out


def _lattice_span(laws: Sequence[LifetimeDistribution]) -> float | None:
    """The common lattice span of ``laws`` when every one is arithmetic, else None.

    The common span is the largest delta of which every law's span is an
    integer multiple.  A Euclid pass over the spans finds it, reading a
    remainder within ``_LATTICE_TOL`` of 0 or of its divisor as 0.  The
    result is rounding debris, not a lattice, and gives None when it leaves
    some span more than ``_LATTICE_TOL`` multiples off an integer, or when
    some span is over ``_LATTICE_MULTIPLES`` multiples of it, where the
    float ratio is spaced too widely to show such an offset.  A lattice is
    returned as the smallest span over its whole multiple, one rounding in
    place of the pass's accumulated ones (42.7, 9.0 and 13.6 give 9.0 / 90).
    """
    lattice = [d.is_arithmetic() for d in laws]
    if not all(arithmetic for arithmetic, _ in lattice):
        return None
    spans = [span for _, span in lattice]
    out = spans[0]
    for s in spans[1:]:
        a, b = max(out, s), min(out, s)
        while b > _LATTICE_TOL:
            a, b = b, a - math.floor(a / b) * b
            if abs(b - a) < _LATTICE_TOL:  # residue indistinguishable from divisor
                b = 0.0
        out = a
    if all(s / out <= _LATTICE_MULTIPLES and abs(s / out - round(s / out)) <= _LATTICE_TOL for s in spans):
        return min(spans) / round(min(spans) / out)
    return None


_LAWS = {cls.kind: cls for cls in (
    Exponential, Gamma, Uniform, Deterministic, ParetoShifted, Lattice, Mixture, EquilibriumOf)}


def _encode(value):
    if isinstance(value, _Wire):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _encode(v) for k, v in value.items()}
    return value


@cache
def _declared(cls) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) for each field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default is MISSING) for f in fields(cls))


def _decode(registry: Mapping[str, type], noun: str, obj, path: str = ""):
    """The ``registry`` class named by ``obj["kind"]``, built from the other
    fields of ``obj`` read against their declared types.  Errors start with
    the path of the offending value inside the object first decoded."""
    at = f"{path}: " if path else ""
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ValueError(f"{at}{noun} JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in registry:
        raise ValueError(f"{at}unknown {noun} kind {kind!r}")
    declared = _declared(registry[kind])
    extra = set(obj) - {"kind", *(name for name, _, _ in declared)}
    if extra:
        raise ValueError(f"{at}unknown fields for {kind!r} {noun}: {sorted(extra)}")
    missing = [name for name, _, required in declared if required and name not in obj]
    if missing:
        raise ValueError(f"{at}missing fields for {kind!r} {noun}: {sorted(missing)}")
    args = {name: _read(tp, obj[name], f"{path}.{name}" if path else name)
            for name, tp, _ in declared if name in obj}
    try:
        return registry[kind](**args)
    except ValueError as exc:
        raise ValueError(f"{at}{exc}") from None


def _shape(tp) -> tuple[tuple[type, ...], str]:
    """The JSON types that can hold a value of declared type ``tp``, and
    how an error names them."""
    origin = get_origin(tp) or tp
    if tp in (int, float):
        return (int, float), "a whole number" if tp is int else "a number"
    if origin is Literal:
        return (str,), " or ".join(map(repr, get_args(tp)))
    if issubclass(origin, LifetimeDistribution):
        return (Mapping,), "a distribution object"
    return {str: ((str,), "a string"), type(None): ((type(None),), "null"),
            tuple: ((list,), "a list"), Mapping: ((Mapping,), "an object")}[origin]


def _fits(tp, value) -> bool:
    if isinstance(value, bool) or not isinstance(value, _shape(tp)[0]):
        return False
    if tp is int:
        return isinstance(value, int) or value.is_integer()
    return get_origin(tp) is not Literal or value in get_args(tp)


def _read(tp, value, path: str):
    """``value`` as declared type ``tp``: a float, whole number, string,
    null, Literal, tuple, mapping or law, or a union of those."""
    alts = get_args(tp) if get_origin(tp) is Union else (tp,)
    fit = next((a for a in alts if _fits(a, value)), None)
    if fit is None:
        raise ValueError(f"{path}: must be {' or '.join(_shape(a)[1] for a in alts)}, got {value!r}")
    origin, args = get_origin(fit), get_args(fit)
    if fit in (int, float):
        return fit(value)
    if origin is tuple:
        return tuple(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is Mapping:
        return {k: _read(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(fit, type) and issubclass(fit, LifetimeDistribution):
        return _decode(_LAWS, "distribution", value, path)
    return value  # a string, null or Literal value


def distribution_from_json(obj: Mapping) -> LifetimeDistribution:
    """Parse the ``{"kind": ..., params...}`` wire format of a lifetime law."""
    return _decode(_LAWS, "distribution", obj)
