"""Everything the benchmark tracer patches exists where it looks for it."""

import importlib
import runpy
from pathlib import Path

import pytest

from countproc import lifetimes
from countproc.decomposition import ConditionalMeanOracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# read and run from source, so no bytecode is written next to it
FUNCTIONS = runpy.run_path(str(TRACER))["FUNCTIONS"]


@pytest.mark.parametrize("module,names", sorted(FUNCTIONS.items()))
def test_traced_functions_exist(module, names):
    # traced() reads each name with owner.__dict__[name]: a missing one
    # breaks every trace run
    owner = importlib.import_module(f"countproc.{module}")
    assert sorted(set(names) - set(vars(owner))) == []


def test_traced_oracle_method_exists():
    assert "interval_means" in vars(ConditionalMeanOracle)


@pytest.mark.parametrize("method", ["draw", "inverse_cdf"])
def test_traced_sampler_is_defined_by_a_law(method):
    # traced() patches the samplers only on the classes that define them
    # themselves: with none, the sampler layers would read 0
    laws = [cls for cls in vars(lifetimes).values()
            if isinstance(cls, type) and issubclass(cls, lifetimes.LifetimeDistribution)]
    assert any(method in vars(cls) for cls in laws)
