"""countproc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc-renewal --seed 0 --seconds 45 --trace 0

Run from anywhere; the checkout root is the parent of this directory and
countproc is imported from its ``src/``.  Workloads and their experiment
configs are in ``perfbench/workloads.json``; each runs in a fresh worker
process (``perfbench/worker.py``) at ``threads=1``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``setup_s``: median over five fresh processes of the time from process
  start until the first config is validated (countproc import included);
* ``wall_s``: sum over experiments of the median time of one
  ``validate_config`` + ``run``;
* ``reps_per_s``: Monte Carlo replications plus sample paths of one pass,
  divided by ``wall_s``;
* ``time_to_se_s``: sum over experiments of ``wall_i * mean(se_i^2) /
  se_ref_i^2``, the time to reach the reference standard error; an
  experiment without ``se_ref`` is deterministic and counts its wall time;
* ``peak_rss_mb``: peak resident memory of the worker process;
* ``pass_ratio``: passed checks over attempted checks (``1 - fail_ratio``;
  a ratio that is 0 on a clean workload cannot carry a relative bound).

``--trace 1`` alternates untraced and traced passes on the same seeds and
prints the per-layer metrics (per-pass medians over complete traced passes).
The last line of standard output is the JSON result.  A run is incorrect
when an experiment crashes, exits with an unexpected code, writes no valid
CSV, fails a deterministic check other than the documented criterion-07 red,
gives different CSVs at ``threads=1`` and ``threads=2`` or with and without
tracing, or when the traced self times do not add up to the run time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is also timed in fresh processes before and after the workload
# process, so that the median spans the whole run
SETUP_PROBES_EACH_SIDE = 2
SETUP_TIMEOUT_S = 60
EXIT_GRACE_S = 150
# One BLAS thread, so that the worker is single-threaded end to end: on a
# small machine OpenBLAS threads waking for the solver's dot products made
# the same solve take 0.1 s or 1 s.
SINGLE_THREAD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                         MKL_NUM_THREADS="1")

sys.path.insert(0, str(HERE))
import tracer as layers  # noqa: E402  (bucket names only; countproc is not imported here)


def start_worker(workload: str, seed: int, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process and
    the seconds from launch to ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=SINGLE_THREAD_ENV)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def paths_of(config: dict) -> int:
    """Sample paths one run of the config completes."""
    if config["experiment"] == "simulate":
        return 1
    return int(config.get("reps", 0))


def medians(records: list[dict]) -> dict[str, float]:
    """Median wall time per experiment."""
    groups = defaultdict(list)
    for rec in records:
        if "wall_s" in rec:
            groups[rec["name"]].append(rec["wall_s"])
    return {name: statistics.median(v) for name, v in groups.items()}


def end_to_end(records, experiments, peak_rss_mb, setup_times) -> dict:
    plain = [r for r in records if not r["traced"]]
    wall = medians(plain)
    wall_s = sum(wall.values())
    time_to_se = 0.0
    for exp in experiments:
        factor = 1.0
        if "se_ref" in exp:
            se2 = [r["se"] ** 2 for r in plain if r["name"] == exp["name"] and "se" in r]
            factor = statistics.fmean(se2) / exp["se_ref"] ** 2
        time_to_se += wall[exp["name"]] * factor
    # each experiment's share of passed checks, weighted by its checks per
    # run, so that where the deadline cut the last pass does not matter
    checks = fails = 0.0
    for exp in experiments:
        recs = [r for r in plain if r["name"] == exp["name"] and "checks" in r]
        checks += statistics.fmean(r["checks"] for r in recs)
        fails += statistics.fmean(len(r["fails"]) for r in recs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "reps_per_s": (sum(paths_of(e["config"]) for e in experiments) / wall_s, "1/s"),
        "time_to_se_s": (time_to_se, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": ((checks - fails) / checks, "ratio"),
    }, {"checks": checks, "fails": fails}


def per_layer(records, experiments, thread_check) -> tuple[dict, list[str]]:
    traced = [r for r in records if r["traced"]]
    by_pass = defaultdict(list)
    for rec in traced:
        by_pass[rec["pass_"]].append(rec)
    complete = [recs for recs in by_pass.values() if len(recs) == len(experiments)]
    rows = defaultdict(list)
    total = Counter()
    for recs in complete:
        self_s, incl, counters = Counter(), Counter(), Counter()
        for rec in recs:
            counters.update(rec.get("counters", {}))
            total.update(rec.get("counters", {}))
            for root in rec.get("layers", ()):
                self_s.update(root["self"])
                incl.update(root["inclusive"])
        pass_values = {
            "lifetimes.draw.calls": (counters["lifetimes.draw.calls"], "count"),
            "lifetimes.draw.s": (incl[layers.DRAW], "s"),
            "lifetimes.draw.values": (counters["lifetimes.draw.values"], "count"),
            "lifetimes.law.calls": (counters["lifetimes.law.calls"], "count"),
            "lifetimes.law.s": (incl[layers.LAW], "s"),
            "lifetimes.inverse_cdf.s": (incl[layers.INVERSE_CDF], "s"),
            "processes.simulate_path.calls": (counters["processes.simulate_path.calls"], "count"),
            "processes.simulate_path.self_s": (self_s["processes.simulate_path"], "s"),
            "processes.events": (counters["processes.events"], "count"),
            "asymptotics.path_statistics.s": (incl[layers.PATH_STATISTICS], "s"),
            "asymptotics.path_statistics.self_s": (self_s[layers.PATH_STATISTICS], "s"),
            "asymptotics.estimator.self_s": (self_s["asymptotics.estimator"], "s"),
            "decomposition.identity.s": (incl["decomposition.identity"], "s"),
            "decomposition.truncated.s": (incl["decomposition.truncated"], "s"),
            "decomposition.report.s": (incl["decomposition.report"], "s"),
            "renewal_solver.solve.calls": (counters["renewal_solver.solve.calls"], "count"),
            "renewal_solver.solve.s": (incl["renewal_solver.solve"], "s"),
            "renewal_solver.grid_points": (counters["renewal_solver.grid_points"], "count"),
            "renewal_solver.target.s": (incl["renewal_solver.target"], "s"),
            "cli.validate.s": (incl["cli.validate"], "s"),
            "cli.run.self_s": (self_s["cli.run"], "s"),
            "cli.bytes_written": (sum(r.get("bytes_written", 0) for r in recs), "bytes"),
        }
        for name, value in pass_values.items():
            rows[name].append(value)
    metrics = {name: (statistics.median(v for v, _ in vals), vals[0][1]) for name, vals in rows.items()}

    consumed = total["asymptotics.events_consumed"]
    metrics["asymptotics.overdraw_ratio"] = (
        total["asymptotics.values_drawn"] / consumed if consumed else 0.0, "ratio")
    metrics["asymptotics.pool_speedup"] = (thread_check["pool_speedup"], "ratio")
    untraced_wall = sum(medians([r for r in records if not r["traced"]]).values())
    metrics["tracing_overhead_s"] = (sum(medians(traced).values()) - untraced_wall, "s")

    problems = list(thread_check["problems"])
    sha = {}
    for rec in records:
        if "csv_sha256" in rec:
            key = (rec["name"], rec["sub"])
            if sha.setdefault(key, rec["csv_sha256"]) != rec["csv_sha256"]:
                problems.append(f"{rec['name']}: CSV differs with tracing on")
    for rec in traced:
        for root in rec.get("layers", ()):
            if root["name"] != "cli.run":
                continue
            unknown = set(root["self"]) - set(layers.RUN_BUCKETS)
            parts = sum(root["self"].values())
            if unknown or abs(parts - root["duration"]) > 1e-6 or \
                    abs(rec["run_s"] - parts) > max(1e-3, 0.01 * rec["run_s"]):
                problems.append(
                    f"{rec['name']}: self times {parts:.6f} s do not add up to the traced "
                    f"run {rec['run_s']:.6f} s (unknown buckets {sorted(unknown)})")
    return metrics, problems


def print_breakdown(records: list[dict]) -> None:
    """Self time per layer of each experiment of the first traced pass."""
    traced = [r for r in records if r["traced"]]
    if not traced:
        return
    first = traced[0]["pass_"]
    print("# traced self time per layer (first traced pass); the parts add up to run_s")
    for rec in traced:
        if rec["pass_"] != first:
            break
        for root in rec.get("layers", ()):
            if root["name"] != "cli.run":
                continue
            parts = " ".join(f"{b}={s:.4f}" for b, s in sorted(root["self"].items()) if s > 0)
            print(f"#   {rec['name']}: run_s={rec['run_s']:.4f} sum={sum(root['self'].values()):.4f}"
                  f" spans={root['spans']} {parts}")


def environment(result: dict) -> str:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    v = result["versions"]
    return (f"python {platform.python_version()} numpy {v['numpy']} scipy {v['scipy']}; "
            f"{platform.machine()} x{os.cpu_count()}; src/ {src_lines} lines")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "countproc" / "__init__.py").is_file():
        print(f"error: no countproc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    experiments = spec["workloads"][args.workload]["experiments"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    def probe_setup():
        for _ in range(0 if args.trace else SETUP_PROBES_EACH_SIDE):
            proc, ready = start_worker(args.workload, args.seed, ["--setup-only"])
            finish(proc, SETUP_TIMEOUT_S)
            setup_times.append(ready)

    try:
        setup_times = []
        probe_setup()
        proc, ready = start_worker(args.workload, args.seed,
                                   ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        setup_times.append(ready)
        result = json.loads(finish(proc, args.seconds + EXIT_GRACE_S).splitlines()[-1])
        probe_setup()
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    problems = [f"{r['name']} (seed {r['seed']}): {p}" for r in records for p in r["problems"]]
    ran = {r["name"] for r in records if not r["traced"] and "se" in r}
    missing = [e["name"] for e in experiments if e["name"] not in ran]
    if missing:
        print(f"error: no successful run of {missing}; problems: {problems}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}; "
          f"{len(records)} experiment runs; {environment(result)}")
    wall = medians([r for r in records if not r["traced"]])
    for exp in experiments:
        recs = [r for r in records if r["name"] == exp["name"] and not r["traced"]]
        fails = sorted({f for r in recs for f in r.get("fails", ())})
        print(f"# {exp['name']}: {len(recs)} runs, median {wall[exp['name']]:.4f} s, "
              f"se {recs[0].get('se')}, FAIL {fails or '-'}, csv sha256 {recs[0].get('csv_sha256')}")

    if args.trace:
        metrics, trace_problems = per_layer(records, experiments, result["thread_check"])
        problems += trace_problems
        print_breakdown(records)
    else:
        metrics, checks = end_to_end(records, experiments, result["peak_rss_mb"], setup_times)
        print("# setup probes (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"# fail_ratio = {checks['fails'] / checks['checks']:.6g} "
              f"({checks['fails']:g} FAIL of {checks['checks']:g} checks per pass)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"# PROBLEM {p}")

    attempted = len(records) + (2 if args.trace else 0)
    failed = sum(1 for r in records if r["problems"]) + (
        1 if args.trace and result["thread_check"]["problems"] else 0)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
