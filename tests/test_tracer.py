"""Everything the benchmark tracer patches exists where it looks for it, and
its renewal-solver counters read every solve the CLI makes."""

import importlib
import json
import runpy
from pathlib import Path

import pytest

from countproc import lifetimes
from countproc.cli import main
from countproc.decomposition import ConditionalMeanOracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# read and run from source, so no bytecode is written next to it
TRACER_NAMES = runpy.run_path(str(TRACER))
FUNCTIONS = TRACER_NAMES["FUNCTIONS"]


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


GAMMA = {"kind": "gamma", "shape": 2.0, "rate": 2.0}
UNIFORM = {"kind": "uniform", "low": 0.0, "high": 2.0}


@pytest.mark.parametrize("config, calls, points", [
    ({"experiment": "renewal-solve", "spec": {"kind": "plain", "lifetime": GAMMA},
      "horizon": 10, "step": 0.01}, 2, 3002),
    ({"experiment": "sgibnev", "spec": {"kind": "plain", "lifetime": GAMMA}, "t": 10, "step": 0.01},
     2, 3002),
    ({"experiment": "rate", "spec": {"kind": "plain", "lifetime": GAMMA}, "t": 5, "reps": 200}, 0, 0),
    ({"experiment": "rate", "spec": {"kind": "delayed", "lifetime": GAMMA,
                                     "delay": {"kind": "uniform", "low": 0.0, "high": 3.0}},
      "t": 5, "reps": 200}, 2, 15_002),
    ({"experiment": "blackwell", "spec": {"kind": "plain", "lifetime": GAMMA}, "t": 5, "h": 1,
      "reps": 1000}, 0, 0),
    ({"experiment": "rate", "spec": {"kind": "plain", "lifetime": UNIFORM}, "t": 5, "reps": 200}, 2, 15_002),
    ({"experiment": "blackwell", "spec": {"kind": "plain", "lifetime": UNIFORM}, "t": 5, "h": 1,
      "reps": 1000}, 4, 30_004),
], ids=["renewal-solve", "sgibnev", "rate", "rate-delayed", "blackwell", "rate-uniform", "blackwell-uniform"])
def test_solver_counters_read_every_solve(tmp_path, capsys, config, calls, points):
    # each extrapolated target solves a grid and its half-step grid through the module
    # global solve_renewal_equation, and the grid-point hook counts the solution's length;
    # the rate and window targets of an Erlang law, and its g, are closed forms (no solve)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, seed=1, out=str(tmp_path / "res"))))
    tracer = TRACER_NAMES["Tracer"]()
    with TRACER_NAMES["traced"](tracer):
        main(["run", str(path)])
    assert tracer.counters["renewal_solver.solve.calls"] == calls
    assert tracer.counters["renewal_solver.grid_points"] == points
