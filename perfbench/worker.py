"""One workload process of the countproc benchmark.

Imports countproc from ``<root>/src``, validates the workload's first
config, prints ``ready`` (the set-up point ``run.py`` times from process
start), then runs every experiment of the workload in passes until
``--seconds`` have elapsed, always finishing the first pass.  Each
experiment goes through ``countproc.cli.validate_config`` and
``countproc.cli.run`` exactly as ``countproc run`` does, single-process at
``threads=1``.  With ``--trace 1`` untraced and traced passes alternate on
the same seeds, a ``threads=1``/``threads=2`` check runs first, and the
spans are written to ``<root>/.perfbench/spans-<workload>.ndjson`` at the end.
The last line of standard output is one JSON object of raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as layers

HERE = Path(__file__).resolve().parent


def experiment_seed(exp: dict, seed: int, sub: int) -> int:
    return exp["seed"] + 1000 * seed + sub


def make_config(exp: dict, seed: int, out: Path, threads: int = 1) -> dict:
    return dict(exp["config"], seed=seed, out=str(out), threads=threads)


def read_csv(path: Path) -> tuple[list[dict], str]:
    data = path.read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return rows, hashlib.sha256(data).hexdigest()


def run_experiment(cli, exp: dict, seed: int, out: Path, threads: int = 1) -> dict:
    """Validate and run one config; returns the measurements and a list of
    problems that make the run incorrect (empty when it is sound)."""
    shutil.rmtree(out, ignore_errors=True)
    rec = {"name": exp["name"], "seed": seed, "problems": []}
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        cfg, errors = cli.validate_config(make_config(exp, seed, out, threads))
        t1 = perf_counter()
        if errors:
            rec["problems"].append(f"invalid config: {errors}")
            return rec
        with contextlib.redirect_stdout(buf):
            rc = cli.run(cfg)
        t2 = perf_counter()
    except Exception:  # the benchmark must report a crash, not die of it
        traceback.print_exc(file=sys.stderr)
        rec["problems"].append("exception in countproc.cli")
        return rec
    rec.update(wall_s=t2 - t0, run_s=t2 - t1, rc=rc)

    heads = [line.split(":", 1)[0].split(" ", 1) for line in buf.getvalue().splitlines()]
    checks = [h for h in heads if len(h) == 2 and h[0] in ("PASS", "FAIL")]
    rec["checks"] = len(checks)
    rec["fails"] = [name for status, name in checks if status == "FAIL"]
    if not checks:
        rec["problems"].append("no PASS/FAIL line")
    if rc != (1 if rec["fails"] else 0):
        rec["problems"].append(f"exit code {rc} with FAIL lines {rec['fails']}")
    for name in rec["fails"]:
        if not exp["statistical"] and name != exp.get("known_red"):
            rec["problems"].append(f"deterministic check {name} failed")

    csv_path = out / f"{exp['config']['experiment']}.csv"
    try:
        rows, rec["csv_sha256"] = read_csv(csv_path)
    except OSError as exc:
        rec["problems"].append(f"missing CSV: {exc}")
        return rec
    if not rows or not all(math.isfinite(float(r["estimate"])) for r in rows):
        rec["problems"].append("CSV has no rows or a non-finite estimate")
        return rec
    rec["csv_rows"] = rows
    rec["se"] = float(rows[0]["se"])
    rec["bytes_written"] = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    return rec


def strip_threads(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "threads"} for r in rows]


def thread_check(cli, spec: dict, seed: int, work: Path) -> dict:
    """Run one mc-renewal config at threads=1 and 2; CSVs must agree apart
    from the threads column.  Returns the path_statistics wall time ratio."""
    exp = dict(spec, statistical=True)
    times, rows = {}, {}
    problems = []
    for threads in (1, 2):
        tracer = layers.Tracer()
        with layers.traced(tracer):
            rec = run_experiment(cli, exp, seed, work / f"threads{threads}", threads)
        problems += rec["problems"]
        times[threads] = sum(
            end - start
            for _, _, _, bucket, start, end in tracer.spans
            if bucket == layers.PATH_STATISTICS
        )
        rows[threads] = strip_threads(rec.get("csv_rows", []))
    if rows[1] != rows[2]:
        problems.append("threads=1 and threads=2 CSVs differ")
    return {"pool_speedup": times[1] / times[2] if times[2] > 0 else 0.0, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    from countproc import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"countproc imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    experiments = spec["workloads"][args.workload]["experiments"]
    work = args.root / ".perfbench" / "work" / args.workload
    first = experiments[0]
    _, errors = cli.validate_config(make_config(first, experiment_seed(first, args.seed, 0), work))
    if errors:
        print(f"first config invalid: {errors}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"records": []}
    tracer = layers.Tracer()
    if args.trace:
        result["thread_check"] = thread_check(
            cli, spec["thread_check"], spec["thread_check"]["seed"] + 1000 * args.seed, work)

    deadline = perf_counter() + args.seconds
    passes_required = 2 if args.trace else 1
    p = 0
    stop = False
    while not stop:
        traced = bool(args.trace) and p % 2 == 1
        sub = p // 2 if args.trace else p
        for exp in experiments:
            if p >= passes_required and perf_counter() >= deadline:
                stop = True
                break
            seed = experiment_seed(exp, args.seed, sub)
            out = work / exp["name"]
            if traced:
                first_span = len(tracer.spans)
                before = tracer.counters.copy()
                with layers.traced(tracer):
                    rec = run_experiment(cli, exp, seed, out)
                rec["span_range"] = [first_span, len(tracer.spans)]
                rec["counters"] = dict(tracer.counters - before)
            else:
                rec = run_experiment(cli, exp, seed, out)
            rec.update(pass_=p, sub=sub, traced=traced)
            rec.pop("csv_rows", None)
            result["records"].append(rec)
        p += 1
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        roots = layers.summarize(tracer.spans)
        for rec in result["records"]:
            if not rec["traced"]:
                continue
            lo, hi = rec.pop("span_range")
            rec["layers"] = [
                {"name": r["name"], "duration": r["duration"], "spans": r["spans"],
                 "self": dict(r["self"]), "inclusive": dict(r["inclusive"])}
                for root_id, r in roots.items() if lo <= root_id < hi
            ]
        spans_path = args.root / ".perfbench" / f"spans-{args.workload}.ndjson"
        with open(spans_path, "w") as fp:
            for span in tracer.spans:
                fp.write(json.dumps(span) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
