"""Shared strategies and fixtures for the test suite."""

import os

# one BLAS thread, as the benchmark runs: the solver tests' per-point dot
# products otherwise pay OpenBLAS thread start-up; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hypothesis.strategies as st
import numpy as np
import pytest

from countproc.lifetimes import (
    Deterministic,
    Exponential,
    Gamma,
    Lattice,
    Mixture,
    ParetoShifted,
    Uniform,
)
from countproc.processes import _CHUNK_ROWS, child_rng, simulate_paths

# parameter ranges kept away from numerical extremes on purpose
rates = st.floats(0.25, 4.0)
shapes = st.floats(0.5, 5.0)

exponentials = st.builds(Exponential, rate=rates)
gammas = st.builds(Gamma, shape=shapes, rate=rates)
uniforms = st.builds(
    Uniform,
    low=st.floats(0.0, 1.0),
    high=st.floats(1.25, 4.0),
)
deterministics = st.builds(Deterministic, value=st.floats(0.25, 3.0))
paretos = st.builds(ParetoShifted, alpha=st.floats(1.2, 4.0))


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    pmf = tuple(w / total for w in raw)
    pmf = pmf[:-1] + (1.0 - sum(pmf[:-1]),)
    return Lattice(span=draw(st.floats(0.1, 1.5)), pmf=pmf)


light_tailed = st.one_of(exponentials, gammas, uniforms, deterministics, lattices())


@st.composite
def mixtures(draw, components=light_tailed):
    n = draw(st.integers(2, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    weights = tuple(w / total for w in raw)
    weights = weights[:-1] + (1.0 - sum(weights[:-1]),)
    comps = tuple(draw(components) for _ in range(n))
    return Mixture(weights=weights, components=comps)


any_distribution = st.one_of(light_tailed, paretos, mixtures())


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def chunk_paths():
    """Blocks of the paths that path_statistics(spec, ts, reps, seed) with
    max(ts) = t summarizes, one block per chunk, drawn as they are used;
    every event of an Erlang path's Poisson clock is drawn."""

    def blocks(spec, t, reps, seed):
        for i, first in enumerate(range(0, reps, _CHUNK_ROWS)):
            yield simulate_paths(spec, t, min(_CHUNK_ROWS, reps - first), child_rng(seed, i))

    return blocks
