"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workloads exact mc-modulated] [--out FILE]

For every workload and end-to-end metric, prints the median of the runs and
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound ("ok" when the spread is below a third of it).  Seeds are
1..N.  ``--out`` writes the runs, the summary and the machine description
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary, header = {}, {}, None
    for workload in workloads:
        runs[workload] = []
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            header = lines[0]
            result = json.loads(lines[-1])
            runs[workload].append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 5)
                                              for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            med = statistics.median(values)
            spread = None
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None or spread is None else (
                "ok" if spread < bound / 3 else "WIDE")
            print(f"  {workload:14s} {name:36s} median {med:12.6g}  spread {spread}"
                  f"  bound {bound}  {flag}", flush=True)
    if args.out:
        with open("/proc/cpuinfo") as fp:
            cpu = next((l.split(":", 1)[1].strip() for l in fp if l.startswith("model name")), "")
        args.out.write_text(json.dumps(
            {"machine": header, "cpu": cpu, "seeds": list(range(1, args.seeds + 1)),
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
