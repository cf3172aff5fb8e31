"""Render traced-run reports as markdown tables.

    python3 e2ebench/tables.py e2ebench/results/traced-*.json

For each ``--trace 1`` report: the environment stamp, the stage
self-time table with its tiling check, and every per-layer metric.
"""

from __future__ import annotations

import json
import sys


def render(path: str) -> str:
    report = json.loads(open(path, encoding="utf-8").read())
    env = report["env"]
    base, traced = report["untraced"], report["traced"]
    check = report["stage_table"]["check"]
    lines = [
        f"### {report['workload']} (seed {report['seed']}, "
        f"{base['offered_rps']:.0f} rps offered)",
        "",
        f"Python {env['python']}, NumPy {env['numpy']}, nproc {env['nproc']}, "
        f"engine auto={env['engine_auto']}, numba {env['numba']}, "
        f"git {str(env['git_sha'])[:12]}, server flags `{' '.join(env['server_flags'])}`.",
        "",
        f"Untraced p50 {base['p50_ms']:.3f} ms, p99 {base['p99_ms']:.3f} ms; "
        f"traced p50 {traced['p50_ms']:.3f} ms, p99 {traced['p99_ms']:.3f} ms "
        f"(tracing overhead on p50 {report['layers']['trace.overhead_p50_frac']:+.1%}).",
        "",
        "| stage | layer | mean self time (ms) | share of e2e |",
        "|---|---|---:|---:|",
    ]
    for name, stage in report["stage_table"]["stages"].items():
        lines.append(
            f"| `{name}` | `{stage['layer']}` | {stage['mean_ms']:.3f} | {stage['share']:.1%} |"
        )
    lines += [
        f"| **sum** | | **{check['sum_ms']:.3f}** | e2e mean {check['e2e_mean_ms']:.3f} ms, "
        f"ratio {check['ratio']:.3f}, {check['requests']}/{check['ok_evals']} timelines, "
        f"check {'ok' if check['ok'] else 'FAILED'} |",
        "",
        "| per-layer metric | value |",
        "|---|---:|",
    ]
    for name, value in sorted(report["layers"].items()):
        lines.append(f"| `{name}` | {value:.4g} |")
    fresh = report.get("freshness_s") or {}
    if fresh.get("untraced") is not None:
        lines.append(f"| `freshness_s` (untraced) | {fresh['untraced']:.4g} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    for path in argv:
        print(render(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
