"""Experiment runner: validation diagnostics, artifacts, determinism."""

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import countproc
import countproc.processes
import countproc.cli
import countproc.renewal_solver
from countproc.cli import main, validate_config
from countproc.decomposition import build_reports, reports_to_csv
from countproc.lifetimes import Deterministic, EquilibriumOf, Exponential, Gamma, Lattice, ParetoShifted, Uniform
from countproc.processes import Delayed, Plain, child_rng, simulate_paths, spec_from_json
from countproc.renewal_solver import renewal_function, sgibnev_asymptote


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


GAMMA_SPEC = {"kind": "plain", "lifetime": {"kind": "gamma", "shape": 2.0, "rate": 2.0}}
GAMMA_25_SPEC = {"kind": "plain", "lifetime": {"kind": "gamma", "shape": 2.5, "rate": 2.5}}
EXP_SPEC = {"kind": "plain", "lifetime": {"kind": "exponential", "rate": 1.0}}
MODULATED_SPEC = {
    "kind": "modulated",
    "states": ["a", "b"],
    "kernel": [[0.0, 1.0], [1.0, 0.0]],
    "lifetimes": {
        "a": {"kind": "exponential", "rate": 1.0},
        "b": {"kind": "exponential", "rate": 0.5},
    },
    "initial": None,
}
MA_SPEC = {"kind": "stationary_ma", "order": 2, "base": {"kind": "exponential", "rate": 1.0}}


def pareto_spec(alpha):
    return {"kind": "plain", "lifetime": {"kind": "pareto_shifted", "alpha": alpha}}


def two_state_chain(a, b):
    return {"kind": "modulated", "states": ["a", "b"], "kernel": [[0.0, 1.0], [1.0, 0.0]],
            "lifetimes": {"a": a, "b": b}, "initial": None}


DETERMINISTIC_1 = {"kind": "deterministic", "value": 1.0}
LATTICE_SPEC = {"kind": "plain", "lifetime": {"kind": "lattice", "span": 1.0, "pmf": [0.5, 0.5]}}
DETERMINISTIC_0001 = {"kind": "deterministic", "value": 0.001}


def mixed_with_0001(law):
    return {"kind": "mixture", "weights": [0.5, 0.5], "components": [DETERMINISTIC_0001, law]}


DELAYED_15 = {"kind": "delayed", "delay": {"kind": "deterministic", "value": 15.0},
              "lifetime": GAMMA_SPEC["lifetime"]}


class TestValidate:
    def test_missing_knob_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": GAMMA_SPEC, "t": 50, "h": 1})
        assert main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "reps" in err

    def test_kernel_row_sum_reported(self, tmp_path, capsys):
        spec = {
            "kind": "modulated",
            "states": ["a", "b"],
            "kernel": [[0.5, 0.4], [1.0, 0.0]],
            "lifetimes": {
                "a": {"kind": "exponential", "rate": 1.0},
                "b": {"kind": "exponential", "rate": 1.0},
            },
            "initial": None,
        }
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": spec,
                                      "t": 10, "h": 1, "reps": 1000})
        assert main(["validate", str(cfg)]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_valid_config_echoes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": GAMMA_SPEC,
                                      "t": 50, "h": 1, "reps": 1000})
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        assert '"seed": 0' in out

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "rate", "spec": EXP_SPEC,
                                      "t": 10, "reps": 1000, "warmup": 5})
        assert main(["validate", str(cfg)]) == 2
        assert "warmup" in capsys.readouterr().err

    def test_nonpositive_knob_rejected(self):
        cfg, errors = validate_config(
            {"experiment": "rate", "spec": EXP_SPEC, "t": -1, "reps": 1000}
        )
        assert cfg is None
        assert any("t:" in e for e in errors)

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"experiment": "sgibnev", "spec": MODULATED_SPEC, "t": 50, "step": 0.1},
            {"experiment": "renewal-solve", "spec": MA_SPEC, "horizon": 5, "step": 0.01},
            {"experiment": "residual-law", "spec": MA_SPEC, "t": 50, "reps": 1000},
            {"experiment": "residual-law", "t": 50, "reps": 1000,
             "spec": {"kind": "plain", "lifetime": {"kind": "deterministic", "value": 1.0}}},
            {"experiment": "rm-cross", "spec": pareto_spec(2.5), "t": 50, "reps": 1000},
            {"experiment": "variance", "spec": pareto_spec(1.5), "t": 50, "reps": 1000},
            {"experiment": "diffusion", "spec": pareto_spec(1.5), "n": 10, "t": 1, "reps": 1000},
            {"experiment": "palm", "spec": MODULATED_SPEC, "t": 50, "h": 1, "reps": 1000},
            {"experiment": "modulated", "spec": GAMMA_SPEC, "t": 50, "h": 1, "reps": 1000},
            # the solver runners read only the lifetime: a delay would be ignored
            {"experiment": "renewal-solve", "spec": DELAYED_15, "horizon": 20, "step": 0.01},
            {"experiment": "sgibnev", "spec": DELAYED_15, "t": 20, "step": 0.01},
        ],
        ids=["sgibnev-modulated", "renewal-solve-ma", "residual-law-ma",
             "residual-law-arithmetic", "rm-cross-m3", "variance-m2", "diffusion-m2",
             "palm-modulated", "modulated-plain", "renewal-solve-delayed", "sgibnev-delayed"],
    )
    def test_unrunnable_spec_rejected(self, tmp_path, capsys, obj):
        cfg = write_config(tmp_path, obj)
        assert main(["validate", str(cfg)]) == 2
        assert "invalid: spec:" in capsys.readouterr().err

    @pytest.mark.parametrize("obj,message", [
        ({"experiment": "sgibnev", "spec": MA_SPEC, "t": 50, "step": 0.1},
         "spec: experiment 'sgibnev' needs a plain spec"),
        ({"experiment": "variance", "spec": MA_SPEC, "t": 50, "reps": 1000},
         "spec: experiment 'variance' needs a plain spec"),
        ({"experiment": "modulated", "spec": MA_SPEC, "t": 50, "h": 1, "reps": 1000},
         "spec: experiment 'modulated' needs a modulated spec"),
        ({"experiment": "palm", "spec": GAMMA_SPEC, "t": 50, "h": 1, "reps": 1000},
         "spec: experiment 'palm' needs a stationary_ma spec"),
        ({"experiment": "rm-cross", "spec": pareto_spec(2.5), "t": 50, "reps": 1000},
         "spec: experiment 'rm-cross' needs a finite E[T^3]"),
        ({"experiment": "diffusion", "spec": pareto_spec(1.5), "n": 10, "t": 1, "reps": 1000},
         "spec: experiment 'diffusion' needs a finite E[T^2]"),
        ({"experiment": "residual-law", "spec": {"kind": "plain", "lifetime": DETERMINISTIC_1},
          "t": 50, "reps": 1000},
         "spec: experiment 'residual-law' needs a non-arithmetic lifetime law"),
        ({"experiment": "palm", "spec": MA_SPEC, "t": 50},
         "h: required for experiment 'palm'"),
    ])
    def test_rejection_message(self, obj, message):
        cfg, errors = validate_config(obj)
        assert cfg is None
        assert message in errors

    @pytest.mark.parametrize("lifetime", [DETERMINISTIC_1, LATTICE_SPEC["lifetime"]],
                             ids=["deterministic", "lattice"])
    def test_sgibnev_arithmetic_law_exits_2(self, tmp_path, capsys, lifetime):
        # E[R(t)]/A(t) -> 1 is the key renewal theorem, which needs a non-arithmetic
        # law: Deterministic(1) read the exact 1.5 at t = 10.25 and 0.5 at t = 20.75 as FAIL
        cfg = write_config(tmp_path, {"experiment": "sgibnev", "spec": {"kind": "plain", "lifetime": lifetime},
                                      "t": 10.25, "step": 0.01, "out": str(tmp_path / "res")})
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "invalid: spec: experiment 'sgibnev' needs a non-arithmetic lifetime law"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("obj,message", [
        ({"experiment": "simulate", "horizon": 10,
          "spec": {"kind": "plain", "lifetime": {"kind": "exponential", "rate": float("inf")}}},
         "spec: lifetime: rate must be a finite number, got inf"),
        ({"experiment": "simulate", "horizon": 10,
          "spec": {"kind": "plain", "lifetime": {"kind": "uniform", "low": 0, "high": float("inf")}}},
         "spec: lifetime: high must be a finite number, got inf"),
        ({"experiment": "rate", "spec": pareto_spec(float("inf")), "t": 10, "reps": 1000},
         "spec: lifetime: alpha must be a finite number, got inf"),
        ({"experiment": "rate", "spec": EXP_SPEC, "t": float("inf"), "reps": 1000},
         "t: must be a positive finite number, got inf"),
        ({"experiment": "simulate", "horizon": 10,
          "spec": {"kind": "plain", "lifetime": {"kind": "lattice", "span": 1.0, "pmf": [float("nan"), 1.0]}}},
         "spec: lifetime: pmf must be nonnegative, got [nan, 1.0]"),
        ({"experiment": "simulate", "horizon": 10,
          "spec": {"kind": "plain", "lifetime": {"kind": "lattice", "span": 1.0, "pmf": [1.5, -0.5]}}},
         "spec: lifetime: pmf must be nonnegative, got [1.5, -0.5]"),
        ({"experiment": "simulate", "horizon": 10,
          "spec": {"kind": "plain", "lifetime": {"kind": "mixture", "weights": [float("nan"), 1.0],
                                                 "components": [EXP_SPEC["lifetime"], DETERMINISTIC_1]}}},
         "spec: lifetime: mixture weights must be nonnegative, got [nan, 1.0]"),
        ({"experiment": "rate", "spec": dict(MODULATED_SPEC, initial={"a": 1.5, "b": -0.5}), "t": 10,
          "reps": 1000},
         "spec: initial law must be nonnegative, got [1.5, -0.5]"),
        ({"experiment": "blackwell", "spec": dict(MODULATED_SPEC, kernel=[[float("nan"), 1.0], [1.0, 0.0]]),
          "t": 10, "h": 1, "reps": 1000},
         "spec: kernel row 0 must be nonnegative, got [nan, 1.0]"),
    ], ids=["rate-inf", "high-inf", "alpha-inf", "t-inf", "pmf-nan", "pmf-negative", "weight-nan",
            "initial-negative", "kernel-nan"])
    def test_improper_number_exits_2(self, tmp_path, capsys, obj, message):
        # json.load reads NaN and Infinity, so the spec and knob rules must reject them
        cfg = write_config(tmp_path, dict(obj, out=str(tmp_path / "res")))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"invalid: {message}"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("spec,message", [
        (dict(MA_SPEC, order=2.7), "spec: order: must be a whole number, got 2.7"),
        ({"kind": "plain"}, "spec: missing fields for 'plain' process: ['lifetime']"),
        ({"kind": "plain", "lifetime": {"kind": "exponential", "rate": True}},
         "spec: lifetime.rate: must be a number, got True"),
        ({"kind": "plain", "lifetime": {"kind": "exponential", "rate": "2"}},
         "spec: lifetime.rate: must be a number, got '2'"),
        (two_state_chain({"kind": "exponential", "rate": 1.0},
                         {"kind": "mixture", "weights": [1.0], "components": [{"kind": "gamma"}]}),
         "spec: lifetimes.b.components[0]: missing fields for 'gamma' distribution: ['rate', 'shape']"),
    ], ids=["order-fraction", "missing-lifetime", "rate-bool", "rate-string", "nested-missing"])
    def test_spec_field_named_with_its_path(self, spec, message):
        cfg, errors = validate_config({"experiment": "rate", "spec": spec, "t": 10, "reps": 1000})
        assert cfg is None and errors == [message]

    @pytest.mark.parametrize("experiment,knobs", [
        ("decompose", {"horizon": 10, "reps": 5}),
        ("blackwell", {"t": 10, "h": 1, "reps": 1000}),
        ("modulated", {"t": 10, "h": 1, "reps": 1000}),
        ("rate", {"t": 10, "reps": 1000}),
    ])
    def test_reducible_chain_rejected(self, tmp_path, capsys, experiment, knobs):
        # validate used to print ok; run then died in spec_rate with a traceback
        spec = dict(MODULATED_SPEC, kernel=[[1.0, 0.0], [0.0, 1.0]])
        cfg = write_config(tmp_path, dict(knobs, experiment=experiment, spec=spec))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "invalid: spec: modulated kernel must be irreducible"]

    def test_reducible_chain_simulates(self, tmp_path, capsys):
        spec = dict(MODULATED_SPEC, kernel=[[1.0, 0.0], [0.0, 1.0]])
        cfg = write_config(tmp_path, {"experiment": "simulate", "spec": spec, "horizon": 5,
                                      "out": str(tmp_path)})
        assert main(["run", str(cfg)]) == 0
        assert "PASS simulate" in capsys.readouterr().out

    def test_variance_order_bound_config_valid(self):
        # finite E[T^2], infinite E[T^3]: the order-bound branch runs it
        cfg, errors = validate_config(
            {"experiment": "variance", "spec": pareto_spec(2.5), "t": 50, "reps": 1000}
        )
        assert cfg is not None and errors == []

    # each of these passed validation and then crashed the estimator
    @pytest.mark.parametrize("obj,message", [
        ({"experiment": "blackwell", "spec": GAMMA_SPEC, "t": 50, "h": 1, "reps": 500},
         "reps: experiment 'blackwell' needs at least 1000, got 500"),
        ({"experiment": "modulated", "spec": MODULATED_SPEC, "t": 50, "h": 1, "reps": 999},
         "reps: experiment 'modulated' needs at least 1000, got 999"),
        ({"experiment": "palm", "spec": MA_SPEC, "t": 50, "h": 1, "reps": 999},
         "reps: experiment 'palm' needs at least 1000, got 999"),
        ({"experiment": "variance", "spec": GAMMA_SPEC, "t": 20, "reps": 150},
         "reps: experiment 'variance' needs at least 200, got 150"),
        ({"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 100, "t": 1, "reps": 199},
         "reps: experiment 'diffusion' needs at least 200, got 199"),
        ({"experiment": "rate", "spec": EXP_SPEC, "t": 10, "reps": 0.5},
         "reps: must be a whole number, got 0.5"),
        ({"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 0.5, "t": 1, "reps": 2000},
         "n: must be a whole number, got 0.5"),
        ({"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 1.5, "t": 1, "reps": 2000},
         "n: must be a whole number, got 1.5"),
    ], ids=["blackwell-reps", "modulated-reps", "palm-reps", "variance-reps", "diffusion-reps",
            "rate-fractional-reps", "diffusion-n-half", "diffusion-n-truncated"])
    def test_unrunnable_size_rejected(self, tmp_path, capsys, obj, message):
        cfg = write_config(tmp_path, dict(obj, out=str(tmp_path / "res")))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"invalid: {message}"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("obj,message", [
        ({"experiment": "renewal-solve", "spec": GAMMA_SPEC, "horizon": 1, "step": 5},
         "step: must split horizon = 1 into whole cells, got 5"),
        ({"experiment": "sgibnev", "spec": GAMMA_SPEC, "t": 1, "step": 0.7},
         "step: must split t = 1 into whole cells, got 0.7"),
        ({"experiment": "renewal-solve", "spec": GAMMA_SPEC, "horizon": 1, "step": 1 / (2**19 + 1)},
         "step: splits horizon = 1 into 524289 cells, more than 524288"),
        ({"experiment": "sgibnev", "spec": GAMMA_SPEC, "t": 2**19 + 1, "step": 1},
         "step: splits t = 524289 into 524289 cells, more than 524288"),
        ({"experiment": "renewal-solve", "spec": GAMMA_SPEC, "horizon": 100, "step": 1e-7},
         "step: splits horizon = 100 into 1000000000 cells, more than 524288"),
    ], ids=["renewal-solve-step-over-horizon", "sgibnev-step-fraction", "renewal-solve-one-cell-too-many",
            "sgibnev-one-cell-too-many", "renewal-solve-1e9-cells"])
    def test_step_must_split_its_span(self, tmp_path, capsys, obj, message):
        # the first crashed run with a traceback; the second read E[R(0.7)] as E[R(1)];
        # the others passed validate, and run would build grids at step and step / 2
        cfg = write_config(tmp_path, dict(obj, out=str(tmp_path / "res")))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"invalid: {message}"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("obj,message", [
        ({"experiment": "renewal-solve", "spec": {"kind": "plain", "lifetime": DETERMINISTIC_0001},
          "horizon": 1, "step": 0.01},
         "step: atom at 0.001 of Deterministic(value=0.001) is at most half a cell of 0.01 from 0"),
        ({"experiment": "renewal-solve", "spec": {"kind": "plain", "lifetime": mixed_with_0001(GAMMA_SPEC["lifetime"])},
          "horizon": 20, "step": 0.01},
         "step: atom at 0.001 of Mixture(weights=(0.5, 0.5), components=(Deterministic(value=0.001), "
         "Gamma(shape=2.0, rate=2.0))) is at most half a cell of 0.01 from 0"),
        ({"experiment": "sgibnev", "spec": {"kind": "plain", "lifetime": mixed_with_0001(
            {"kind": "uniform", "low": 0.0, "high": 2.0})}, "t": 100, "step": 0.01},
         "step: atom at 0.001 of Mixture(weights=(0.5, 0.5), components=(Deterministic(value=0.001), "
         "Uniform(low=0.0, high=2.0))) is at most half a cell of 0.01 from 0"),
        ({"experiment": "rate", "spec": {"kind": "plain", "lifetime": {"kind": "deterministic", "value": 1e-7}},
          "t": 50, "reps": 10},
         "spec: Deterministic(value=1e-07) has an atom at 1e-07: a step below it splits [0, 50] "
         "into more than 524288 cells"),
        ({"experiment": "rate", "spec": {"kind": "delayed", "delay": {"kind": "deterministic", "value": 1e-7},
                                         "lifetime": GAMMA_SPEC["lifetime"]}, "t": 50, "reps": 10},
         "spec: Deterministic(value=1e-07) has an atom at 1e-07: a step below it splits [0, 50] "
         "into more than 524288 cells"),
    ], ids=["renewal-solve-deterministic", "renewal-solve-mixture", "sgibnev-mixture", "rate-plain",
            "rate-delayed"])
    def test_atom_the_solver_would_drop_exits_2(self, tmp_path, capsys, obj, message):
        # the first three PASSed on wrong numbers: U = 1 on Deterministic(0.001), where U(1) = 1001,
        # U(20) = 2.0 on the mixture, where it is about 41, and an sgibnev ratio of -0.0000
        cfg = write_config(tmp_path, dict(obj, out=str(tmp_path / "res")))
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"invalid: {message}"]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("experiment,span,step", [
        ("sgibnev", 200, 0.02), ("sgibnev", 100, 0.01), ("renewal-solve", 100, 0.005),
        ("renewal-solve", 5, 0.001), ("renewal-solve", 0.3, 0.1),
        ("renewal-solve", 1, 2**-19), ("sgibnev", 2**19, 1),  # the most cells the solver takes
    ])
    def test_whole_step_splits_accepted(self, experiment, span, step):
        knob = "t" if experiment == "sgibnev" else "horizon"
        obj = {"experiment": experiment, "spec": GAMMA_SPEC, knob: span, "step": step}
        cfg, errors = validate_config(obj)
        assert errors == [] and cfg is not None

    def test_minimum_sizes_accepted(self):
        for obj in (
            {"experiment": "blackwell", "spec": GAMMA_SPEC, "t": 50, "h": 1, "reps": 1000},
            {"experiment": "variance", "spec": GAMMA_SPEC, "t": 20, "reps": 200.0},
            {"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 2.0, "t": 1, "reps": 200},
            {"experiment": "rate", "spec": EXP_SPEC, "t": 10, "reps": 1},
        ):
            cfg, errors = validate_config(obj)
            assert errors == [] and cfg is not None

    @pytest.mark.parametrize("spellings,pinned", [
        ([{"kind": "plain", "lifetime": {"kind": "exponential", "rate": r}} for r in (1, 1.0)],
         "9430b3483eca"),
        ([{"kind": "delayed", "delay": d, "lifetime": GAMMA_SPEC["lifetime"]}
          for d in ("equilibrium", {"kind": "equilibrium", "base": GAMMA_SPEC["lifetime"]})],
         "6bd8ac22cdcf"),
    ], ids=["rate-int-float", "equilibrium-delay"])
    def test_spec_hash_ignores_spelling(self, spellings, pinned):
        # the hash of the canonical spelling, which every spelling now shares
        hashes = {validate_config({"experiment": "rate", "spec": spec, "t": 10, "reps": 1000})[0]
                  .spec_hash for spec in spellings}
        assert hashes == {pinned}


def assert_solver_error_resolved(out):
    """The printed solver error of a ``rate`` check is below a quarter of its
    printed se, so the target's own error cannot move z by more than 0.25."""
    se = float(out.split("(se=")[1].split(")")[0])
    error = float(out.split("solver error ")[1].split()[0])
    assert error < se / 4


class TestRun:
    def test_blackwell_pass_and_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": GAMMA_SPEC,
            "t": 30, "h": 1, "reps": 5000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS blackwell")
        csv = (tmp_path / "res" / "blackwell.csv").read_text()
        assert csv.splitlines()[0].startswith("experiment,spec_hash")
        assert ",7," in csv.splitlines()[1]

    def test_rate_plain_gamma(self, tmp_path, capsys):
        # E[N(50)]/50 = rate * (1 + E[R(50)]/50) = 1.015 for Gamma(2,2); the
        # estimate is about 10 se away from rate + 1/t = 1.02
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": GAMMA_SPEC,
            "t": 50, "reps": 50000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "solver error" in out
        assert_solver_error_resolved(out)

    def test_rate_target_one_percent_off_fails(self, tmp_path, capsys, monkeypatch):
        exact = countproc.cli._rate_target
        monkeypatch.setattr(countproc.cli, "_rate_target",
                            lambda spec, t: (1.01 * exact(spec, t)[0], None))
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": GAMMA_SPEC,
            "t": 50, "reps": 50000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL rate")

    @pytest.mark.parametrize("lifetime,exact", [
        (Gamma(2, 2), 1.0 + 0.75 / 50),  # E[R(t)] = 3/4 + exp(-4t)/4
        (Uniform(0, 2), 1.0 + (2 / 3) / 50),  # E[R(t)] -> E[T^2]/(2 E[T]), converged by t = 50
        (Exponential(1.0), 1.0 + 1.0 / 50),
    ])
    def test_rate_target_plain(self, lifetime, exact):
        target, error = countproc.cli._rate_target(Plain(lifetime), 50.0)
        assert target == pytest.approx(exact, abs=1e-6)
        assert error < 1e-4

    @pytest.mark.parametrize("delay,lifetime,exact", [
        # rate * (1 + (E[R(50)] - E[D])/50); E[R(50)] = E[r(50 - D)] is converged
        (Uniform(0, 8), Gamma(2, 2), 1.0 + (0.75 - 4.0) / 50),
        (Exponential(0.5), Gamma(2, 2), 1.0 + (0.75 - 2.0) / 50),
        (Uniform(0, 8), Uniform(0, 2), 1.0 + (2 / 3 - 4.0) / 50),
    ])
    def test_rate_target_delayed(self, delay, lifetime, exact):
        target, error = countproc.cli._rate_target(Delayed(delay, lifetime), 50.0)
        assert target == pytest.approx(exact, abs=1e-6)
        assert error < 1e-4

    def test_rate_target_lattice_step_fits_t(self):
        # t/5000 would snap the atom at 1 (a RuntimeWarning); the fitted step
        # puts it on the grid, and E[N(10.5)]/10.5 = 11/10.5 exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            target, error = countproc.cli._rate_target(Plain(Deterministic(1.0)), 10.5)
        assert target == pytest.approx(22 / 21, abs=1e-15)
        assert error < 1e-15

    @pytest.mark.parametrize("t,h", [(0.3, 0.5), (0.3, 0.55), (10.0, 1.0), (20.0, 1.0), (50.0, 1.0)])
    def test_window_target_gamma_closed_form(self, t, h):
        # U(x) = 0.75 + x + exp(-4x)/4 for Gamma(2, 2), the event at 0 counted
        target, error = countproc.cli._window_target(Plain(Gamma(2, 2)), t, h)
        exact = h + (math.exp(-4.0 * (t + h)) - math.exp(-4.0 * t)) / 4.0
        assert abs(target - exact) <= error < 1e-4

    @pytest.mark.parametrize("law,t,h,exact", [
        (Deterministic(1.0), 50.5, 0.25, 0.0),
        (Lattice(1.0, (0.5, 0.5)), 10.0, 1.0, 2 / 3 - 1 / 3 / 2**11),
        (Lattice(1.0, (0.5, 0.5)), 9.5, 1.0, 2 / 3 + 1 / 3 / 2**10),
    ], ids=["deterministic", "lattice-at-an-atom", "lattice-between-atoms"])
    def test_window_target_lattice_exact(self, law, t, h, exact):
        # a lattice window (t, t + h] holds one lattice point n, a renewal with
        # probability u_n = 2/3 + (-1/2)^n / 3 for steps 1 and 2 of mass 1/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            target, error = countproc.cli._window_target(Plain(law), t, h)
        assert target == pytest.approx(exact, abs=1e-12) and error < 1e-12

    @pytest.mark.parametrize("spec", [
        Delayed("equilibrium", Gamma(2, 2)),
        spec_from_json(MODULATED_SPEC),
        spec_from_json(MA_SPEC),
    ], ids=["equilibrium-delay", "modulated", "ma"])
    def test_window_target_limit(self, spec):
        # the equilibrium delay's window is rate * h at every t; the other kinds keep the limit
        target, error = countproc.cli._window_target(spec, 5.0, 0.5)
        assert target == countproc.asymptotics.spec_rate(spec) * 0.5 and error is None

    def test_rate_deterministic_off_default_grid(self, tmp_path, capsys):
        # the t/5000 grid snapped the atom: the target read 1.04724, z=inf at se=0
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": {"kind": "plain", "lifetime": DETERMINISTIC_1},
            "t": 10.5, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "z=0.00 (se=0)" in out

    def test_rate_lattice_off_default_grid(self, tmp_path, capsys):
        # the t/5000 grid snapped the atoms: the target read 0.689116 (z=98)
        # and its claimed error, 6.6e-4, was a tenth of the true 7.2e-3
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": LATTICE_SPEC,
            "t": 30, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "solver error" in out
        assert_solver_error_resolved(out)

    def test_rate_mixture_atom_off_default_grid(self, tmp_path, capsys):
        # t/5000 snapped the mixture's atom at 1 (two warnings): the target read 1.0714576
        mixture = {"kind": "mixture", "weights": [0.5, 0.5],
                   "components": [{"kind": "exponential", "rate": 1.0}, DETERMINISTIC_1]}
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": {"kind": "plain", "lifetime": mixture},
            "t": 10.5, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "target=1.07144 " in out
        assert_solver_error_resolved(out)

    @pytest.mark.parametrize("spec,reps", [
        ({"kind": "plain", "lifetime": DETERMINISTIC_0001}, 2000),
        ({"kind": "plain", "lifetime": mixed_with_0001(GAMMA_SPEC["lifetime"])}, 5000),
        ({"kind": "delayed", "delay": DETERMINISTIC_0001, "lifetime": GAMMA_SPEC["lifetime"]}, 5000),
    ], ids=["deterministic", "mixture", "delay"])
    def test_rate_atom_below_the_default_step(self, tmp_path, capsys, spec, reps):
        # t/5000 = 0.01 put the atom at grid point 0 and the solver dropped it: at 2000 reps
        # (Deterministic) and 20 000 reps (the others) the checks read z = 8.8e7, 161 and 161
        cfg = write_config(tmp_path, {"experiment": "rate", "spec": spec, "t": 50, "reps": reps,
                                      "seed": 3, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("PASS rate")

    def test_rate_target_equilibrium_delay_exact(self):
        # both spellings of the stationary delay are one spec with the exact target
        for delay in ("equilibrium", EquilibriumOf(Gamma(2, 2))):
            spec = Delayed(delay, Gamma(2, 2))
            assert countproc.cli._rate_target(spec, 50.0) == (1.0, None)
            assert spec == Delayed("equilibrium", Gamma(2, 2))
            assert spec.to_json()["delay"] == "equilibrium"
            assert spec_from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_rate_lattice_is_a_z_check(self, tmp_path, capsys, monkeypatch):
        # N(t)/t -> 1/E[T] holds for every law: a lattice rate run is not
        # flagged, and a target 1% off fails
        obj = {"experiment": "rate", "spec": LATTICE_SPEC,
               "t": 50, "reps": 20000, "seed": 7, "out": str(tmp_path / "res")}
        cfg = write_config(tmp_path, obj)
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "z=" in out and "[arithmetic" not in out
        assert_solver_error_resolved(out)
        flags = (tmp_path / "res" / "rate.csv").read_text().splitlines()[1].split(",")[-1]
        assert flags == ""
        exact = countproc.cli._rate_target
        monkeypatch.setattr(countproc.cli, "_rate_target",
                            lambda spec, t: (1.01 * exact(spec, t)[0], None))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL rate")

    def test_variance_lattice_reported_flagged(self, tmp_path, capsys):
        # the variance-drift constant is a non-lattice limit: a lattice run
        # reports its estimate with the flag and passes
        cfg = write_config(tmp_path, {
            "experiment": "variance", "spec": LATTICE_SPEC,
            "t": 50, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        drift, given_age = capsys.readouterr().out.splitlines()
        assert drift.startswith("PASS variance-drift") and "[arithmetic" in drift and "z=" not in drift
        # E[R - E[R | age]] = 0 holds for every law: that row stays a z-check
        assert given_age.startswith("PASS residual-given-age") and "z=" in given_age

    def test_rate_delayed_explicit(self, tmp_path, capsys):
        # the mean count lags rate * t by rate * (E[D] - E[R(t)]) = 3.25: the
        # estimate is 86 se below the bare rate 1
        spec = {"kind": "delayed", "delay": {"kind": "uniform", "low": 0.0, "high": 8.0},
                "lifetime": GAMMA_SPEC["lifetime"]}
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": spec,
            "t": 50, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS rate") and "solver error" in out
        assert_solver_error_resolved(out)

    @pytest.mark.parametrize("experiment", ["blackwell", "modulated"])
    @pytest.mark.parametrize("b,lattice", [
        ({"kind": "exponential", "rate": 0.5}, False),
        ({"kind": "deterministic", "value": 2.0}, True),
    ], ids=["mixed", "lattice"])
    def test_arithmetic_flag_needs_lattice_chain(self, tmp_path, capsys, experiment, b, lattice):
        # a chain with one point-mass state is not lattice unless every
        # state's law is, on a common span
        cfg = write_config(tmp_path, {
            "experiment": experiment, "spec": two_state_chain(DETERMINISTIC_1, b),
            "t": 50, "h": 1, "reps": 20000, "seed": 7, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"PASS {experiment}")
        assert ("[arithmetic lifetime law" in out) == lattice
        assert ("z=" in out) != lattice
        flags = (tmp_path / "res" / f"{experiment}.csv").read_text().splitlines()[1].split(",")[-1]
        assert bool(flags) == lattice

    @pytest.mark.parametrize("obj,check", [
        ({"experiment": "modulated", "spec": MODULATED_SPEC, "t": 20, "h": 1, "reps": 5000},
         "modulated"),
        ({"experiment": "palm", "spec": MA_SPEC, "t": 20, "h": 1, "reps": 5000}, "palm"),
        ({"experiment": "residual-law", "spec": GAMMA_SPEC, "t": 20, "reps": 2000},
         "residual-law"),
        ({"experiment": "variance", "spec": GAMMA_SPEC, "t": 20, "reps": 20000},
         "variance-drift"),
        ({"experiment": "variance", "spec": pareto_spec(2.5), "t": 40, "reps": 100000},
         "variance-order-bound"),
        ({"experiment": "rm-cross", "spec": EXP_SPEC, "t": 20, "reps": 20000}, "rm-cross"),
        ({"experiment": "sgibnev", "t": 20, "step": 0.01,
          "spec": {"kind": "plain", "lifetime": {"kind": "uniform", "low": 0.0, "high": 2.0}}},
         "sgibnev"),
        # the scaled count's mean is rate * E[R(nt)]/sqrt(n) = 0.075 at n = 100,
        # 4 se from 0; the paired noise mean is 0 at every n
        ({"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 100, "t": 1, "reps": 2000},
         "diffusion-variance"),
    ], ids=["modulated", "palm", "residual-law", "variance-drift", "variance-order-bound",
            "rm-cross", "sgibnev-uniform", "diffusion"])
    def test_experiment_runs(self, tmp_path, capsys, obj, check):
        cfg = write_config(tmp_path, {**obj, "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith(f"PASS {check}:")
        assert (tmp_path / "res" / f"{obj['experiment']}.csv").exists()

    def test_sgibnev_reports_step_halving(self, tmp_path, capsys):
        # Pareto(1.5) at t = 200: E[R(t)] sits 11% above the asymptote, and
        # the solver's step-halving change is a small part of that gap
        cfg = write_config(tmp_path, {
            "experiment": "sgibnev", "spec": pareto_spec(1.5), "t": 200, "step": 0.02,
            "out": str(tmp_path / "res"),
        })
        main(["run", str(cfg)])
        out = capsys.readouterr().out
        assert out.startswith(("PASS sgibnev:", "FAIL sgibnev:"))
        ratio = float(out.split("asymptote = ")[1].split()[0])
        change = float(out.split("step-halving change ")[1].split()[0])
        gap = (ratio - 1.0) * sgibnev_asymptote(ParetoShifted(1.5), 200.0)
        assert 0.0 < change < 0.05 * gap

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": GAMMA_SPEC,
            "t": 30, "h": 1, "reps": 5000, "seed": 7,
        })
        main(["run", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "blackwell.csv").read_bytes() == \
            (tmp_path / "b" / "blackwell.csv").read_bytes()

    def test_thread_override_keeps_output(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": GAMMA_SPEC,
            "t": 30, "h": 1, "reps": 5000, "seed": 7,
        })
        main(["run", str(cfg), "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["run", str(cfg), "--out", str(tmp_path / "b"), "--threads", "2"])
        a = (tmp_path / "a" / "blackwell.csv").read_text().replace(",2,", ",1,")
        b = (tmp_path / "b" / "blackwell.csv").read_text().replace(",2,", ",1,")
        assert a == b

    def test_diffusion_thread_override_keeps_output(self, tmp_path):
        # two chunks of paths, reduced in chunk order at either thread count
        cfg = write_config(tmp_path, {
            "experiment": "diffusion", "spec": GAMMA_SPEC, "n": 10, "t": 1, "reps": 20000, "seed": 7,
        })
        main(["run", str(cfg), "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["run", str(cfg), "--out", str(tmp_path / "b"), "--threads", "2"])
        a = (tmp_path / "a" / "diffusion.csv").read_text().replace(",2,", ",1,")
        b = (tmp_path / "b" / "diffusion.csv").read_text().replace(",2,", ",1,")
        assert len(a.splitlines()) == 4 and a == b

    @pytest.mark.parametrize("spec, checked", [(GAMMA_SPEC, True), (pareto_spec(3.5), False)],
                             ids=["gamma", "pareto-infinite-m4"])
    def test_diffusion_wald_second_row(self, tmp_path, capsys, spec, checked):
        # the third row is the mean of C = (M^2 - rate^2 var T N)/n, z-checked
        # against 0 only when E[T^4], and with it var C, is finite
        cfg = write_config(tmp_path, {
            "experiment": "diffusion", "spec": spec, "n": 100, "t": 1, "reps": 2000, "seed": 7,
            "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert ("PASS wald-second: " in out) == checked == ("wald-second" in out)
        header, *rows = (tmp_path / "res" / "diffusion.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert len(rows) == 3 and cells[2]["target"] == ("0" if checked else "")
        # the scaled residual mean is positive and only bounded: no target, no z
        assert cells[1]["target"] == cells[1]["z"] == ""

    def test_diffusion_needs_positive_variance(self, tmp_path, capsys):
        # the diffusion-variance window divides by its target rate^3 var T t
        cfg = write_config(tmp_path, {
            "experiment": "diffusion", "n": 100, "t": 1, "reps": 2000, "seed": 7,
            "spec": {"kind": "plain", "lifetime": {"kind": "deterministic", "value": 0.3}},
            "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 2
        assert "invalid: spec: experiment 'diffusion' needs a positive var T" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("value,t", [(0.3, 20), (0.7, 33.3), (1.0, 20.5), (0.1, 7.77)])
    def test_rate_near_exact_is_read_against_its_rounding(self, tmp_path, capsys, monkeypatch, value, t):
        # every path has the same N(t)/t: the bar was 2e-17 or 0, and a few ulps
        # between estimate and target read z = 32 to inf
        cfg = write_config(tmp_path, {
            "experiment": "rate", "spec": {"kind": "plain", "lifetime": {"kind": "deterministic", "value": value}},
            "t": t, "reps": 1000, "seed": 1, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("PASS rate")
        exact = countproc.cli._rate_target
        monkeypatch.setattr(countproc.cli, "_rate_target",
                            lambda spec, t: ((1 + 1e-6) * exact(spec, t)[0], None))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL rate")

    def test_rm_cross_exponential_is_exact(self, tmp_path, capsys, monkeypatch):
        # conditioned on the age, E[R M] is exact on a memoryless law: its se, about
        # 1e-16, is below the rounding of its terms, against which it is read
        cfg = write_config(tmp_path, {
            "experiment": "rm-cross", "spec": {"kind": "plain", "lifetime": {"kind": "exponential", "rate": 0.7}},
            "t": 33.3, "reps": 20000, "seed": 1, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("PASS rm-cross")
        exact = countproc.asymptotics.rm_cross_limit
        monkeypatch.setattr(countproc.asymptotics, "rm_cross_limit", lambda law: (1 + 1e-6) * exact(law))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL rm-cross")

    @pytest.mark.parametrize("experiment,spec,rows", [
        ("variance", GAMMA_SPEC, 2), ("variance", pareto_spec(2.5), 6), ("rm-cross", EXP_SPEC, 2),
    ], ids=["variance-drift", "variance-order-bound", "rm-cross"])
    def test_residual_given_age_rows(self, tmp_path, capsys, experiment, spec, rows):
        # the estimates first (rows[0] is the estimate), then the plain mean of
        # R - E[R | age] per simulated t, z-checked against 0
        cfg = write_config(tmp_path, {"experiment": experiment, "spec": spec, "t": 20, "reps": 20000,
                                      "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        header, *lines = (tmp_path / "res" / f"{experiment}.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
        given_age = cells[rows // 2:]
        assert len(cells) == rows and [c["target"] for c in given_age] == ["0"] * (rows // 2)
        assert [c["t"] for c in given_age] == [c["t"] for c in cells[:rows // 2]]
        assert sum(line.startswith("PASS residual-given-age:") for line in out) == rows // 2

    @pytest.mark.parametrize("experiment", ["variance", "rm-cross"])
    @pytest.mark.parametrize("law", ["exponential", "gamma"])
    def test_wrong_sampler_fails_residual_given_age(self, tmp_path, capsys, monkeypatch, experiment, law):
        # an Exponential drawn at 1.1x its rate, or Gamma(k, k), k = 2/1.2 (1.2x the
        # variance), where the nominal law's moments are used: the conditioned
        # estimate sees the sampler only through N and the age (and not at all on
        # an Exponential law), the plain mean of R - E[R | age] does.  Each fault is
        # a function of the law, and the Poisson clock is hidden, so that the path
        # walks and every gap is a wrong draw
        if law == "exponential":
            draw = Exponential._draw
            monkeypatch.setattr(Exponential, "_draw", lambda self, rng, size: draw(Exponential(1.1 * self.rate), rng, size))
            monkeypatch.setattr(Exponential, "poisson_phases", lambda self: None)
            spec = EXP_SPEC
        else:
            draw = Gamma._draw
            monkeypatch.setattr(Gamma, "_draw",
                                lambda self, rng, size: draw(Gamma(self.shape / 1.2, self.rate / 1.2), rng, size))
            monkeypatch.setattr(Gamma, "poisson_phases", lambda self: None)
            spec = GAMMA_SPEC
        cfg = write_config(tmp_path, {"experiment": experiment, "spec": spec, "t": 20, "reps": 25000,
                                      "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 1
        assert "FAIL residual-given-age:" in capsys.readouterr().out

    def test_fast_clock_fails_residual_given_age(self, tmp_path, capsys, monkeypatch):
        # the Poisson clock of Exponential(1) run at 1.1x its rate: each path's
        # residual at t is its clock's overshoot, Exponential(1.1)
        monkeypatch.setattr(Exponential, "poisson_phases", lambda self: (1, 1.1 * self.rate))
        cfg = write_config(tmp_path, {"experiment": "rm-cross", "spec": EXP_SPEC, "t": 20, "reps": 25000,
                                      "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 1
        assert "FAIL residual-given-age:" in capsys.readouterr().out

    def test_window_rows(self, tmp_path, capsys):
        # the conditioned window first (perfbench reads rows[0]), then window-given-age against 0
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": GAMMA_SPEC, "t": 20, "h": 1,
                                      "reps": 5000, "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == ["PASS blackwell", "PASS window-given-age"]
        assert "solver error" in out[0] and "limit 1" in out[0] and "g error" in out[0]
        header, *lines = (tmp_path / "res" / "blackwell.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(cells) == 2 and cells[1]["target"] == "0"
        assert float(cells[0]["se"]) < float(cells[1]["se"]) / 4

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_heavy_tail_window_against_its_finite_t_value(self, tmp_path, capsys, alpha):
        # read against the limit rate * h these read z = 33 and 3.4; the finite-t values
        # are 0.570262 and 1.503673
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": pareto_spec(alpha), "t": 50, "h": 1,
                                      "reps": 25000, "seed": 3001, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS blackwell") and "PASS window-given-age" in out
        target = float(out.split("target=")[1].split()[0])
        assert target == pytest.approx({1.5: 0.570262, 2.5: 1.503673}[alpha], abs=1e-5)

    @pytest.mark.parametrize("spec,t", [
        (EXP_SPEC, 0.5), (EXP_SPEC, 5), (EXP_SPEC, 50), (GAMMA_SPEC, 50),
        ({"kind": "delayed", "delay": "equilibrium", "lifetime": EXP_SPEC["lifetime"]}, 0.5),
        ({"kind": "delayed", "delay": "equilibrium", "lifetime": EXP_SPEC["lifetime"]}, 5),
        ({"kind": "delayed", "delay": "equilibrium", "lifetime": EXP_SPEC["lifetime"]}, 50),
        ({"kind": "delayed", "delay": {"kind": "uniform", "low": 0.0, "high": 3.0},
          "lifetime": GAMMA_SPEC["lifetime"]}, 2),
    ], ids=["exp-0.5", "exp-5", "exp-50", "gamma-50", "exp-equilibrium-0.5", "exp-equilibrium-5",
            "exp-equilibrium-50", "gamma-uniform-delay-2"])
    def test_window_passes_and_a_target_1_percent_off_fails(self, tmp_path, capsys, monkeypatch, spec, t):
        # g is constant on an Exponential law, with an se of about 1e-18 on plain rows:
        # the check reads the estimate against its quadrature bound.  The equilibrium
        # delay's rows with no age at t = 0.5 leave an se near 1%.  The Uniform(0, 3) delay's
        # target, 1.08334, is read off the solver after the delay (z = 0.07; 7.50 at 1.01x)
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": spec, "t": t, "h": 1,
                                      "reps": 25000, "seed": 3001, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS blackwell") and "PASS window-given-age" in out
        if t == 0.5 and spec["kind"] == "delayed":
            return
        exact = countproc.cli._window_target
        monkeypatch.setattr(countproc.cli, "_window_target",
                            lambda spec, t, h: (1.01 * exact(spec, t, h)[0], exact(spec, t, h)[1]))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL blackwell")

    @pytest.mark.parametrize("law,failing", [("gamma", "blackwell"), ("exponential", "window-given-age")])
    def test_wrong_sampler_fails_the_window(self, tmp_path, capsys, monkeypatch, law, failing):
        # Gamma(k, k), k = 2/1.2 (1.2x the variance), drawn for Gamma(2, 2) moves the age
        # law and the conditioned window reads z = 6.7, while window-given-age reads -1.09;
        # an Exponential drawn at 1.1x its rate leaves g constant, so only the plain
        # window-given-age row sees it (z = 14.6).  The Poisson clock is hidden, so
        # that the path walks and every gap is a wrong draw
        if law == "exponential":
            draw = Exponential._draw
            monkeypatch.setattr(Exponential, "_draw", lambda self, rng, size: draw(Exponential(1.1 * self.rate), rng, size))
            monkeypatch.setattr(Exponential, "poisson_phases", lambda self: None)
            spec = EXP_SPEC
        else:
            draw = Gamma._draw
            monkeypatch.setattr(Gamma, "_draw",
                                lambda self, rng, size: draw(Gamma(self.shape / 1.2, self.rate / 1.2), rng, size))
            monkeypatch.setattr(Gamma, "poisson_phases", lambda self: None)
            spec = GAMMA_SPEC
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": spec, "t": 20, "h": 1, "reps": 25000,
                                      "seed": 7, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 1
        assert f"FAIL {failing}:" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_variance_order_bound_seeds(self, tmp_path, capsys, monkeypatch, seed):
        # these seeds read spreads 6.7, 10.5 and 21.5 before the estimator was
        # conditioned on the age; the exact spread is 1.03.  A normaliser with
        # the wrong power of t (t^2 in place of t) moves the spread by 4x and fails
        cfg = write_config(tmp_path, {"experiment": "variance", "spec": pareto_spec(2.5), "t": 40,
                                      "reps": 100000, "seed": seed, "out": str(tmp_path / "res")})
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("PASS variance-order-bound:")
        exact = countproc.renewal_solver.residual_second_generator
        monkeypatch.setattr(countproc.renewal_solver, "residual_second_generator",
                            lambda law, t: exact(law, t) * t**2)
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL variance-order-bound:")

    @pytest.mark.parametrize("experiment,spec", [
        ("variance", GAMMA_SPEC), ("rm-cross", GAMMA_SPEC), ("variance", pareto_spec(2.5)),
        ("blackwell", GAMMA_SPEC),
        ("blackwell", {"kind": "delayed", "delay": "equilibrium", "lifetime": GAMMA_SPEC["lifetime"]}),
    ], ids=["variance-drift", "rm-cross", "variance-order-bound", "blackwell", "blackwell-delayed-equilibrium"])
    def test_conditioned_thread_override_keeps_output(self, tmp_path, experiment, spec):
        # three chunks of paths, joined in chunk order at either thread count
        window = {"h": 1} if experiment == "blackwell" else {}
        cfg = write_config(tmp_path, {"experiment": experiment, "spec": spec, "t": 8, "reps": 40000, "seed": 7,
                                      **window})
        csvs = []
        for threads in ("1", "2"):
            main(["run", str(cfg), "--out", str(tmp_path / threads), "--threads", threads])
            header, *lines = (tmp_path / threads / f"{experiment}.csv").read_text().splitlines()
            col = header.split(",").index("threads")
            csvs.append([[c for i, c in enumerate(line.split(",")) if i != col] for line in lines])
        assert csvs[0] == csvs[1]

    def test_decompose_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "decompose", "spec": EXP_SPEC,
            "horizon": 10, "reps": 50, "v": 1.0, "seed": 3,
            "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS decompose-identity" in out
        assert "PASS decompose-truncated" in out
        header = (tmp_path / "res" / "decomposition.csv").read_text().splitlines()[0]
        assert "identity_residual" in header

    def test_decompose_in_chunks(self, tmp_path, capsys, monkeypatch):
        # 20 paths in chunks of 7, 7 and 6 rows; chunk i is seeded by
        # child_rng(seed, i) and the report is built from the first path
        monkeypatch.setattr(countproc.cli, "paths_per_chunk", lambda spec, horizon: 7)
        cfg = write_config(tmp_path, {
            "experiment": "decompose", "spec": EXP_SPEC,
            "horizon": 10, "reps": 20, "v": 1.0, "seed": 3,
            "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS decompose-identity" in out and "over 20 paths" in out
        first = simulate_paths(Plain(Exponential(1.0)), 10.0, 7, child_rng(3, 0))[0]
        buf = io.StringIO()
        reports_to_csv(build_reports(first, 1.0, 1.0, 1.0, np.linspace(0.1, 10.0, 100)), buf)
        assert (tmp_path / "res" / "decomposition.csv").read_text() == buf.getvalue()

    @pytest.mark.parametrize("spec", [GAMMA_SPEC, MA_SPEC], ids=["plain", "ma"])
    def test_decompose_query_slices(self, tmp_path, capsys, monkeypatch, spec):
        # 150 paths queried 1, 7 or the default number of rows at a time
        # give the same bytes: the CSVs and the printed maxima
        outputs = []
        for rows in (1, 7, countproc.cli._QUERY_ROWS):
            monkeypatch.setattr(countproc.cli, "_QUERY_ROWS", rows)
            res = tmp_path / f"res-{rows}"
            cfg = write_config(tmp_path, {"experiment": "decompose", "spec": spec, "horizon": 10,
                                          "reps": 150, "v": 1.0, "seed": 3, "out": str(res)})
            assert main(["run", str(cfg)]) == 0
            outputs.append([capsys.readouterr().out, (res / "decompose.csv").read_text(),
                            (res / "decomposition.csv").read_text()])
        assert "over 150 paths" in outputs[0][0]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_renewal_solve_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "renewal-solve", "spec": EXP_SPEC,
            "horizon": 5, "step": 0.001, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        assert "PASS renewal-solve" in capsys.readouterr().out
        # the solution file holds Z(t) = 1 + t, U(t) of Exponential(1), on the step's grid
        path = tmp_path / "res" / "renewal_solution.csv"
        assert path.read_text().startswith("t,value\n")
        grid = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(grid[:, 0], 0.001 * np.arange(5001))
        assert np.max(np.abs(grid[:, 1] - (1.0 + grid[:, 0]))) <= 5 * 0.001
        # every value reads back to the bit
        assert grid[:, 1].tolist() == renewal_function(Exponential(1.0), 5.0, 0.001)[0].tolist()

    def test_renewal_solve_grid_halving(self, tmp_path, capsys):
        # no closed form for Gamma(2, 2): the check reports the step-halving change
        cfg = write_config(tmp_path, {
            "experiment": "renewal-solve", "spec": GAMMA_SPEC,
            "horizon": 5, "step": 0.01, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS renewal-solve: grid halving changes solution by")
        # the number after "by " is the change the row records, ahead of its bound
        change, bound = out.split("by ")[1].split(maxsplit=1)
        assert 0 < float(change) <= 5 * 0.01  # the closed-form branch's tolerance
        assert bound.startswith("(bound ")
        header, row = (tmp_path / "res" / "renewal-solve.csv").read_text().splitlines()
        assert change == f"{float(dict(zip(header.split(','), row.split(',')))['estimate']):.3g}"

    def test_renewal_solve_checks_its_error(self, tmp_path, capsys, monkeypatch):
        # a half-step solve 1% off moves the solution by far more than 5e-3 max|Z|
        solve = countproc.renewal_solver.solve_renewal_equation

        def scaled(z, step, dist):
            return solve(z, step, dist) * (1.01 if step < 0.01 else 1.0)

        monkeypatch.setattr(countproc.renewal_solver, "solve_renewal_equation", scaled)
        cfg = write_config(tmp_path, {
            "experiment": "renewal-solve", "spec": GAMMA_SPEC,
            "horizon": 5, "step": 0.01, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().out.startswith("FAIL renewal-solve")

    @pytest.mark.parametrize("config, target", [
        ({"experiment": "decompose", "spec": GAMMA_SPEC, "horizon": 20, "reps": 50, "v": 1}, "0"),
        ({"experiment": "renewal-solve", "spec": EXP_SPEC, "horizon": 10, "step": 0.01}, "0"),
        ({"experiment": "sgibnev", "spec": {"kind": "plain", "lifetime": {"kind": "uniform", "low": 0.0,
                                                                          "high": 2.0}},
          "t": 100, "step": 0.01}, "1"),
    ], ids=["decompose", "renewal-solve-exponential", "sgibnev"])
    def test_bound_rows_write_no_z(self, tmp_path, capsys, config, target):
        # these checks bound their estimate and are no z-checks: the row keeps its
        # target and leaves z empty, where a zero se once wrote z = inf next to a PASS
        cfg = write_config(tmp_path, dict(config, out=str(tmp_path / "res")))
        assert main(["run", str(cfg)]) == 0
        header, *rows = (tmp_path / "res" / f"{config['experiment']}.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert len(cells) == (2 if config["experiment"] == "decompose" else 1)
        assert [(c["target"], c["z"]) for c in cells] == [(target, "")] * len(cells)

    def test_simulate_writes_ndjson(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "simulate", "spec": EXP_SPEC,
            "horizon": 5, "seed": 1, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        lines = (tmp_path / "res" / "path.ndjson").read_text().splitlines()
        assert json.loads(lines[0])["time"] == 0.0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": GAMMA_SPEC,
            "t": 30, "h": 1, "reps": 5000, "seed": 7,
        })
        main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "8"])
        row = (tmp_path / "a" / "blackwell.csv").read_text().splitlines()[1]
        assert row.rstrip().split(",")[-2] == "8"

    def test_env_var_default_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COUNTPROC_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, {
            "experiment": "simulate", "spec": EXP_SPEC, "horizon": 2, "seed": 1,
        })
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "path.ndjson").exists()

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "blackwell", "spec": GAMMA_SPEC})
        assert main(["run", str(cfg)]) == 2

    def test_event_cap_exit_3(self, tmp_path, capsys):
        # 2e8 events per path: over the cap, refused before anything is drawn
        cfg = write_config(tmp_path, {
            "experiment": "blackwell",
            "spec": {"kind": "plain", "lifetime": {"kind": "exponential", "rate": 1e6}},
            "t": 200, "h": 1, "reps": 1000, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 3
        assert "event cap" in capsys.readouterr().out

    def test_event_cap_on_drawn_events_decompose_exit_3(self, tmp_path, capsys, monkeypatch):
        # the per-path sampler reads the same cap as the batch one
        monkeypatch.setattr(countproc.processes, "DEFAULT_EVENT_CAP", 60)
        cfg = write_config(tmp_path, {
            "experiment": "decompose", "spec": EXP_SPEC,
            "horizon": 49, "reps": 200, "seed": 3, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 3
        assert "event cap" in capsys.readouterr().out

    def test_event_cap_on_drawn_events_exit_3(self, tmp_path, capsys, monkeypatch):
        # mean count 50 is under a cap of 60, but some paths need more events
        monkeypatch.setattr(countproc.processes, "DEFAULT_EVENT_CAP", 60)
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": EXP_SPEC,
            "t": 49, "h": 1, "reps": 1000, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 3
        assert "event cap" in capsys.readouterr().out


# one small config of each experiment, on both a whole and a non-whole Gamma shape
NO_SCIPY_CONFIGS = [
    {"experiment": "simulate", "spec": GAMMA_SPEC, "horizon": 20},
    {"experiment": "decompose", "spec": GAMMA_SPEC, "horizon": 20, "reps": 50, "v": 1},
    {"experiment": "blackwell", "spec": GAMMA_SPEC, "t": 10, "h": 1, "reps": 2000},
    {"experiment": "modulated", "spec": MODULATED_SPEC, "t": 10, "h": 1, "reps": 2000},
    {"experiment": "palm", "spec": MA_SPEC, "t": 10, "h": 1, "reps": 2000},
    {"experiment": "rate", "spec": GAMMA_25_SPEC, "t": 20, "reps": 2000},
    {"experiment": "residual-law", "spec": GAMMA_25_SPEC, "t": 20, "reps": 2000},
    {"experiment": "variance", "spec": GAMMA_25_SPEC, "t": 20, "reps": 2000},
    {"experiment": "rm-cross", "spec": GAMMA_SPEC, "t": 20, "reps": 2000},
    {"experiment": "diffusion", "spec": GAMMA_SPEC, "n": 100, "t": 1, "reps": 500},
    {"experiment": "renewal-solve", "spec": GAMMA_25_SPEC, "horizon": 10, "step": 0.01},
    {"experiment": "sgibnev", "spec": GAMMA_25_SPEC, "t": 20, "step": 0.01},
]


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every experiment
    # runs, and no scipy module is loaded, which would add start-up time and
    # resident memory to every run
    assert {cfg["experiment"] for cfg in NO_SCIPY_CONFIGS} == set(countproc.cli._EXPERIMENTS)
    paths = [write_config(tmp_path, dict(cfg, seed=7, out=str(tmp_path / f"out-{i}")), f"{i}.json")
             for i, cfg in enumerate(NO_SCIPY_CONFIGS)]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import countproc.cli\n"
        "codes = [countproc.cli.main(['run', path]) for path in sys.argv[1:]]\n"
        "del sys.modules['scipy']\n"
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "print(codes, loaded, file=sys.stderr)\n"
        "sys.exit(0 if codes == [0] * len(codes) and not loaded else 1)\n"
    )
    src = Path(countproc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def readme_experiments():
    """(experiment, required knobs, check names) per row of the README's experiment table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| Experiment | Required knobs | Spec kinds | Check(s) |") + 2
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        name, knobs, _, checks = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((name.strip("`"), re.findall(r"`(\w+)`", knobs.split("(optional")[0]),
                     [c for c in re.findall(r"`([\w-]+)`", checks) if c not in countproc.cli._POSITIVE_KNOBS]))
    return rows


def docstring_experiments():
    """(experiment, required knobs, check names) per row of the ``countproc.cli`` docstring table."""
    lines = countproc.cli.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["experiment", "knobs"]) + 1
    rows = []
    for line in itertools.takewhile(str.strip, lines[start:]):
        name, knobs, _, checks = re.split(r"\s{2,}", line.strip())
        rows.append((name, knobs.split(), checks))
    return rows


def check_names(name: str, cell) -> list[str]:
    """The check names of a docstring cell (``variance-drift, or -order-bound``),
    spelled out, or those of a README cell, already a list."""
    if isinstance(cell, list):
        return cell
    names = []
    for part in re.split(r"[,;]\s*(?:or\s+)?", re.sub(r"\s*\(\w+\)", "", cell)):
        names.append(names[0].rsplit("-", 1)[0] + part if part.startswith("-") else part)
    return names


@pytest.mark.parametrize("table", [readme_experiments, docstring_experiments], ids=["readme", "cli-docstring"])
def test_experiment_table_matches_the_runner(table):
    # each experiment once, with exactly the knobs validate_config requires
    rows = table()
    assert sorted(name for name, _, _ in rows) == sorted(countproc.cli._EXPERIMENTS)
    for name, knobs, _ in rows:
        assert sorted(knobs) == sorted(countproc.cli._EXPERIMENTS[name].knobs), name


def test_experiment_tables_name_the_same_checks():
    readme = {name: sorted(check_names(name, checks)) for name, _, checks in readme_experiments()}
    docstring = {name: sorted(check_names(name, checks)) for name, _, checks in docstring_experiments()}
    assert readme == docstring
    assert "residual-given-age" in readme["variance"] and "residual-given-age" in readme["rm-cross"]
