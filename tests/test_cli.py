"""Experiment runner: validation diagnostics, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import countproc
import countproc.asymptotics
from countproc.cli import main, validate_config


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


GAMMA_SPEC = {"kind": "plain", "lifetime": {"kind": "gamma", "shape": 2.0, "rate": 2.0}}
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
        ],
        ids=["sgibnev-modulated", "renewal-solve-ma", "residual-law-ma",
             "residual-law-arithmetic", "rm-cross-m3", "variance-m2", "diffusion-m2"],
    )
    def test_unrunnable_spec_rejected(self, tmp_path, capsys, obj):
        cfg = write_config(tmp_path, obj)
        assert main(["validate", str(cfg)]) == 2
        assert "invalid: spec:" in capsys.readouterr().err

    def test_variance_order_bound_config_valid(self):
        # finite E[T^2], infinite E[T^3]: the order-bound branch runs it
        cfg, errors = validate_config(
            {"experiment": "variance", "spec": pareto_spec(2.5), "t": 50, "reps": 1000}
        )
        assert cfg is not None and errors == []


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

    def test_renewal_solve_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "renewal-solve", "spec": EXP_SPEC,
            "horizon": 5, "step": 0.001, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 0
        assert "PASS renewal-solve" in capsys.readouterr().out
        assert (tmp_path / "res" / "renewal_solution.csv").exists()

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

    def test_event_cap_on_drawn_events_exit_3(self, tmp_path, capsys, monkeypatch):
        # mean count 50 is under a cap of 60, but some paths need more events
        monkeypatch.setattr(countproc.asymptotics, "DEFAULT_EVENT_CAP", 60)
        cfg = write_config(tmp_path, {
            "experiment": "blackwell", "spec": EXP_SPEC,
            "t": 49, "h": 1, "reps": 1000, "out": str(tmp_path / "res"),
        })
        assert main(["run", str(cfg)]) == 3
        assert "event cap" in capsys.readouterr().out


def test_cli_import_skips_quadrature():
    src = Path(countproc.__file__).resolve().parents[1]
    code = "import sys, countproc.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
