"""Gate self-test: the benchmark's comparison must be able to fail.

    python3 e2ebench/selftest.py [--seeds 5] [--seconds 20]

Runs the benchmark on the parent configuration and on deliberately
degraded servers, using only existing server flags, and applies the
regression rule of ``BENCHMARK.json`` to each pairing of bounded
end-to-end metric and workload: a
variant is *worse* when its median is worse than the baseline median by
more than the metric's bound in ``BENCHMARK.json`` (``setup_s`` aside:
no variant touches set-up).  ``latency_p99_ms`` and ``capacity_rps``
from the run report are shown beside them; they have no bound and take
no part in the verdict.  ``hot-repeat`` is not a ``BENCHMARK.json``
workload but stays runnable for this test: it is where the result cache works.
Expected verdicts:

* ``--no-result-cache`` reads worse on ``hot-repeat`` and within bounds
  on ``wide-unique``, whose volleys never repeat;
* ``--max-batch 1`` reads worse on ``wide-unique``.

Baseline and variant runs alternate, seed by seed.  The verdict table
is printed and written to ``e2ebench/results/selftest.json``; the exit
status is 0 only when every expectation holds.
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

#: Report figures shown beside the bounded metrics, outside the verdict.
UNBOUNDED = ("latency_p99_ms", "capacity_rps")

#: (variant name, server flags, workload, expected verdict).
CASES = (
    ("no-result-cache", ["--no-result-cache"], "hot-repeat", "worse"),
    ("no-result-cache", ["--no-result-cache"], "wide-unique", "within"),
    ("max-batch-1", ["--max-batch", "1"], "wide-unique", "worse"),
)


def run_once(workload: str, seed: int, seconds: int, flags: list[str]) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
        *[f"--serve-arg={flag}" for flag in flags],
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"no result from {cmd}:\n{proc.stderr[-3000:]}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["capacity_rps"] = report.get("capacity_rps") or 0.0
    values["latency_p99_ms"] = report["latency_p99_ms"]
    values["correct"] = result["correct"]
    values["wrong_answers"] = report["wrong_answers"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.pop("setup_s", None)
    seeds = list(range(101, 101 + args.seeds))
    runs: dict = {}
    for seed in seeds:
        for variant, flags, workload, _expect in CASES:
            order = [("baseline", []), (variant, flags)]
            if seed % 2:
                order.reverse()
            for name, fl in order:
                if (workload, name, seed) not in runs:
                    runs[(workload, name, seed)] = run_once(workload, seed, args.seconds, fl)
    table = []
    ok = True
    for variant, _flags, workload, expect in CASES:
        base = [runs[(workload, "baseline", seed)] for seed in seeds]
        var = [runs[(workload, variant, seed)] for seed in seeds]
        verdicts = {
            metric: {
                "baseline": statistics.median(r[metric] for r in base),
                "variant": statistics.median(r[metric] for r in var),
            }
            for metric in UNBOUNDED
        }
        for metric, (better, bound) in rules.items():
            b = statistics.median(r[metric] for r in base)
            v = statistics.median(r[metric] for r in var)
            change = (v - b) / b if b else 0.0
            worse = change > bound if better == "lower" else change < -bound
            verdicts[metric] = {"baseline": b, "variant": v, "change": change, "worse": worse}
        any_worse = any(entry.get("worse") for entry in verdicts.values())
        got = "worse" if any_worse else "within"
        passed = got == expect and all(r["wrong_answers"] == 0 for r in base + var)
        ok = ok and passed
        table.append(
            {"variant": variant, "workload": workload, "expect": expect,
             "got": got, "pass": passed, "metrics": verdicts}
        )
        print(f"{variant:16s} {workload:12s} expect {expect:6s} got {got:6s} "
              + ("PASS" if passed else "FAIL"))
        for metric, entry in verdicts.items():
            change = f"{entry['change']:+7.1%}" if "change" in entry else "(no bound)"
            print(f"    {metric:16s} {entry['baseline']:10.3f} -> {entry['variant']:10.3f}"
                  f"  {change}{'  worse' if entry.get('worse') else ''}")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "selftest.json").write_text(
        json.dumps({"seeds": seeds, "seconds": args.seconds, "cases": table}, indent=1,
                   default=str) + "\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
