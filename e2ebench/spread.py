"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 e2ebench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs each workload once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and reports, per end-to-end metric, the median and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median --
the figure each metric's bound in ``BENCHMARK.json`` must cover.
``latency_p99_ms`` (report only, no bound) is shown too.  Results go to
``e2ebench/results/spread.json``.
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
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            report = json.loads(lines[-2]) if len(lines) > 1 else {}
            runs.append(
                {
                    "seed": seed,
                    "exit": proc.returncode,
                    "correct": result.get("correct"),
                    "metrics": {
                        **{k: v["value"] for k, v in result.get("metrics", {}).items()},
                        "latency_p99_ms": report.get("latency_p99_ms"),
                    },
                    "capacity_rps": report.get("capacity_rps"),
                    "freshness_s": report.get("freshness_s"),
                    "late_p99_ms": report.get("loadgen.late_p99_ms"),
                }
            )
            print(workload, seed, proc.returncode, runs[-1]["metrics"], flush=True)
        summary = {}
        for metric, bound in {**bounds, "latency_p99_ms": bounds.get("latency_p99_ms")}.items():
            values = [r["metrics"][metric] for r in runs if r["metrics"].get(metric) is not None]
            if len(values) < 4:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "spread": spread, "bound": bound}
            ok = ok and (metric == "setup_s" or bound is None or spread <= bound)
            print(f"  {metric}: median {median:.4f} spread {spread:.3f} (bound {bound})")
        ok = ok and all(r["exit"] == 0 for r in runs)
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "spread.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
