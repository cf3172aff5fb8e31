"""Per-layer numbers from a traced run: stage self times and layer metrics.

One eval request's life, as timeline points on the monotonic clock the
client and the server share (``client`` = the generator; the rest are
stamped by ``launch.py``'s wrappers or copied off rtrace spans)::

    due -> sent -> p0 -> p1 -> s0 [g0 g1] s1 -> a0 -> a1 -> e0 -> e1 -> x0 -> recv
     client  inbound parse sched submit(cache) queue attempt resume encode write outbound

Each stage's self time is the gap between its two points minus the
child spans inside it (the cache probe inside submit, the engine inside
the pool attempt), so the stages of one request tile its end-to-end
latency.  The self-time check in :func:`stage_table` holds that tiling
to account for the latency the client measured.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Stage name -> (layer it belongs to, one-line meaning).
STAGES = {
    "client.late": ("generator", "due time to send (generator lateness)"),
    "front.inbound": ("serve.server", "send to parse start: socket + front read backlog"),
    "protocol.parse": ("serve.protocol", "parse_request"),
    "front.schedule": ("serve.server", "parse end to submit: eval task scheduling"),
    "service.submit": ("serve.service", "submit self time: validate, admit, enqueue"),
    "result_cache.get": ("runtime.result_cache", "cache probe"),
    "batcher.queue": ("serve.batcher", "submit end to dispatch: micro-batch wait"),
    "pool.ipc": ("serve.pool", "dispatch to completion minus engine: pipes, pickling, worker busy elsewhere, collector"),
    "engine": ("runtime.engines", "worker-side evaluate of the batch"),
    "front.resume": ("serve.server", "completion (or submit end on a hit) to encode: loop wake-up"),
    "protocol.encode": ("serve.protocol", "encode_line"),
    "front.write": ("serve.server", "encode end to socket send: connection write lock"),
    "front.outbound": ("serve.server", "socket send to client receive: kernel + client read"),
}


def load_spans(spans_dir: Path) -> tuple[dict, list[dict]]:
    front = json.loads((spans_dir / "front.json").read_text())
    workers = [
        json.loads(path.read_text()) for path in sorted(spans_dir.glob("worker-*.json"))
    ]
    return front, workers


def request_stages(phase, requests: dict) -> tuple[list[dict], list[float]]:
    """Stage durations (s) per ok eval of *phase* with a complete timeline.

    Returns the per-request stage dicts and the end-to-end latencies of
    every ok eval (complete or not), both in seconds.
    """
    rows, e2e = [], []
    for k in phase.indices("eval"):
        if phase.reply[k] is not True:
            continue
        total = phase.recv[k] - phase.due[k]
        e2e.append(total)
        rec = requests.get(str(phase.wire_id(k)))
        if rec is None or not all(key in rec for key in ("p0", "s0", "s1", "e0", "x0")):
            continue
        get = rec.get("g1", 0.0) - rec.get("g0", 0.0)
        row = {
            "client.late": phase.sent[k] - phase.due[k],
            "front.inbound": rec["p0"] - phase.sent[k],
            "protocol.parse": rec["p1"] - rec["p0"],
            "front.schedule": rec["s0"] - rec["p1"],
            "service.submit": rec["s1"] - rec["s0"] - get,
            "result_cache.get": get,
            "protocol.encode": rec["e1"] - rec["e0"],
            "front.write": rec["x0"] - rec["e1"],
            "front.outbound": phase.recv[k] - rec["x0"],
            "miss": "a0" in rec,
        }
        if "a0" in rec:
            row["batcher.queue"] = rec["a0"] - rec["s1"]
            row["engine"] = rec["engine"]
            row["pool.ipc"] = rec["a1"] - rec["a0"] - rec["engine"]
            row["front.resume"] = rec["e0"] - rec["a1"]
        else:
            row["batcher.queue"] = row["engine"] = row["pool.ipc"] = 0.0
            row["front.resume"] = rec["e0"] - rec["s1"]
        rows.append(row)
    return rows, e2e


def stage_table(rows: list[dict], e2e: list[float]) -> dict:
    """Mean self time per stage (ms) and the tiling check.

    ``check.ok`` holds when the stage means sum to the mean end-to-end
    latency of the traced phase's ok evals within 10%, at least 90% of
    those evals have a complete timeline, and no stage mean is negative
    (which would mean points were matched to the wrong request).
    """
    if not rows:
        return {"stages": {}, "check": {"ok": False, "requests": 0}}
    n = len(rows)
    stages = {}
    for name, (layer, meaning) in STAGES.items():
        mean = sum(row[name] for row in rows) / n * 1e3
        stages[name] = {"layer": layer, "mean_ms": mean, "meaning": meaning}
    total = sum(stage["mean_ms"] for stage in stages.values())
    measured = statistics.fmean(e2e) * 1e3
    for stage in stages.values():
        stage["share"] = stage["mean_ms"] / measured if measured else 0.0
    return {
        "stages": stages,
        "check": {
            "sum_ms": total,
            "e2e_mean_ms": measured,
            "ratio": total / measured if measured else 0.0,
            "ok": abs(total - measured) <= 0.1 * measured
            and n >= 0.9 * len(e2e)
            and all(stage["mean_ms"] >= 0.0 for stage in stages.values()),
            "requests": n,
            "ok_evals": len(e2e),
        },
    }


def _in(rows, start: float, end: float) -> list:
    return [row for row in rows if start <= row[0] <= end]


def _mean(values, scale: float = 1.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(phase, front: dict, workers: list[dict], rows: list[dict]) -> dict:
    """Per-layer metrics over the traced phase window (units in names)."""
    calls = front["calls"]
    start, end = phase.start, phase.end
    window = max(end - start, 1e-9)
    misses = [r for r in rows if r["miss"]]
    jobs = [j for j in _in(calls.get("pool.job", []), start, end) if j[1] is not None]
    volleys = sum(j[2] for j in jobs)
    engine_s = sum(j[3] or 0.0 for j in jobs)
    out = {
        "protocol.parse_us": _mean([r["protocol.parse"] for r in rows], 1e6),
        "protocol.encode_us": _mean([r["protocol.encode"] for r in rows], 1e6),
        "result_cache.get_us": _mean([r["result_cache.get"] for r in rows], 1e6),
        "result_cache.hit_ratio": 1.0 - len(misses) / len(rows) if rows else 0.0,
        "service.submit_us": _mean(
            [r["service.submit"] + r["result_cache.get"] for r in rows], 1e6
        ),
        "batcher.queue_wait_ms": _mean([r["batcher.queue"] for r in misses], 1e3),
        "batcher.batch_size_mean": volleys / len(jobs) if jobs else 0.0,
        "batcher.batches_per_s": len(jobs) / window,
        "pool.roundtrip_ms": _mean([j[1] for j in jobs], 1e3),
        "pool.ipc_ms": _mean([j[1] - (j[3] or 0.0) for j in jobs], 1e3),
        "engine.batch_ms": _mean([j[3] for j in jobs], 1e3),
        "engine.us_per_volley": engine_s / volleys * 1e6 if volleys else 0.0,
    }
    # Set-up layers: every model load in the workers (start-up and
    # promotions), and every registration in the front.
    lower_opt = [
        sum(row[1] for row in w["calls"].get(name, []))
        for w in workers
        for name in ("worker.lower", "worker.optimize")
    ]
    loads = sum(len(w["calls"].get("worker.lower", [])) for w in workers)
    warm = sum(
        row[1]
        for w in workers
        for name, rows_ in w["calls"].items()
        if name.startswith("worker.warm.")
        for row in rows_
    )
    out["ir.lower_optimize_ms"] = sum(lower_opt) / loads * 1e3 if loads else 0.0
    out["plan.warm_ms"] = warm / loads * 1e3 if loads else 0.0
    out["plan_cache.misses"] = sum(
        value
        for w in workers
        for name, value in w.get("counters", {}).items()
        if name.endswith("plan_cache.miss")
    )
    out["registry.register_ms"] = _mean(
        [row[1] for row in calls.get("registry.register", [])], 1e3
    )
    front_lower = calls.get("front.lower", [])
    out["ir.front_lower_optimize_ms"] = (
        sum(row[1] for name in ("front.lower", "front.optimize") for row in calls.get(name, []))
        / len(front_lower) * 1e3
        if front_lower
        else 0.0
    )
    # Training plane (zero where no plane runs).
    out["train.step_ms"] = _mean([row[1] for row in calls.get("train.step", [])], 1e3)
    out["train.snapshot_ms"] = _mean(
        [row[1] for row in _in(calls.get("train.snapshot", []), start, end)], 1e3
    )
    out["train.compile_snapshot_ms"] = _mean(
        [row[1] for row in _in(calls.get("train.compile_snapshot", []), start, end)], 1e3
    )
    out["train.probe_ms"] = _mean(
        [row[1] for row in _in(calls.get("train.probe", []), start, end)], 1e3
    )
    out["service.register_ms"] = _mean(
        [row[1] for row in _in(calls.get("service.register", []), start, end)], 1e3
    )
    out["service.promote_ms"] = _mean(
        [row[1] for row in _in(calls.get("service.promote", []), start, end)], 1e3
    )
    busy = sum(
        row[1] for row in _in(calls.get("train.train_step", []), start, end)
    )
    out["train.busy_frac"] = busy / window
    collections = _in(calls.get("gc", []), start, end)
    out["front.gc_frac"] = sum(row[1] for row in collections) / window
    out["front.gc_max_ms"] = max((row[1] for row in collections), default=0.0) * 1e3
    out["front.gc_full_per_s"] = sum(1 for row in collections if row[2] == 2) / window
    return out
