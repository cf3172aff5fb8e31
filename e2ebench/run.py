"""End-to-end serving benchmark: one workload, one seed, one run.

    python3 e2ebench/run.py --workload hot-repeat --seed 1 --seconds 20 --trace 0

Spawns a real ``python -m repro serve`` subprocess from the checkout's
``src/`` (``--workers 1``), drives it open loop over at most two NDJSON
connections, byte-checks every ok reply against direct
``evaluate_batch`` of the fingerprint that served it, and prints one
JSON result as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs an untraced and then a traced
server (``e2ebench/launch.py`` wraps the serving layers) and reports
the per-layer metrics.  The full report, with the environment stamp,
is the line before the result and is also written under
``.e2ebench/out/``.  Exit status 0 means the run was correct and
valid; any wrong answer exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import SNAPSHOT_EVERY

HERE = Path(__file__).resolve().parent
COMMON = ["--workers", "1"]
ROOT = HERE.parent
#: The metric lists the result line reports (``end_to_end`` for
#: ``--trace 0``, ``per_layer`` for ``--trace 1``).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Spawns per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A run (or a ladder rung) is invalid when the generator's p99
#: lateness exceeds this share of the workload's latency limit.
LATE_SHARE = 0.5
#: Capacity ladder: seconds per rung and the rung cap.  The ladder runs
#: after the ``--seconds`` nominal phase, in untraced runs only.
RUNG_S = 1.5
MAX_RUNGS = 7
#: Seconds a control op (metrics, lineage, shutdown) may take.
CONTROL_TIMEOUT_S = 10.0
#: Window length (s) of the windowed latency percentiles (see summarize).
WINDOW_S = 0.5


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (``inf`` counts)."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _windowed(offsets, values, seconds: float, window_s: float, q: float) -> list[float]:
    """Quantile *q* of *values* within each *window_s* span of *offsets*."""
    n = max(1, round(seconds / window_s))
    buckets: list[list[float]] = [[] for _ in range(n)]
    for offset, value in zip(offsets, values):
        buckets[min(n - 1, int(offset / window_s))].append(value)
    return [_quantile(sorted(b), q) for b in buckets if b]


def environment(server_args: list[str]) -> dict:
    import numpy

    from repro.runtime.registry import ENGINES

    sha = None
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            sha = ref
    except OSError:
        pass
    try:
        import importlib.util

        numba = importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        numba = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "engine_auto": ENGINES.resolve("auto").key,
        "numba": numba,
        "server_flags": server_args,
    }


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace):
        from workloads import WORKLOADS, Traffic

        self.args = args
        self.workload = WORKLOADS[args.workload]
        scratch = ROOT / ".e2ebench"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.traffic = Traffic(self.workload, args.seed, self.workdir)
        self.rng = random.Random(f"{args.workload}/{args.seed}/schedule")
        self.next_id = 0
        self.servers: list = []
        self.expected: dict[int, bytes] = {}
        self.wrong = 0
        self.first_wrong = None
        self.train_sent = 0
        self.unresponsive = False

    # -- servers -------------------------------------------------------------
    def serve_args(self) -> list[str]:
        return [*self.traffic.serve_args(ROOT), *self.args.serve_arg]

    def spawn(self, tag: str, traced: bool = False):
        from proc import Server

        launcher = None
        if traced:
            spans = self.workdir / f"spans-{tag}"
            spans.mkdir()
            launcher = [str(HERE / "launch.py"), str(spans)]
        server = Server(
            ROOT, self.workdir, self.serve_args(), tag=tag, launcher=launcher
        )
        self.servers.append(server)
        return server

    def probe(self) -> dict:
        volley = self.traffic.volleys(1)[0]
        return {**self.eval_message(volley), "id": "setup"}

    def eval_message(self, volley) -> dict:
        from repro.serve.protocol import volley_to_wire

        message = {"op": "eval", "model": self.traffic.model, "volley": volley_to_wire(volley)}
        if self.train_mode:
            message["want_model_id"] = True
        return message

    @property
    def train_mode(self) -> bool:
        return self.workload.train_rps > 0

    def setup(self, reps: int, *, traced: bool = False, tag: str = "s"):
        """Spawn *reps* servers, keep the last; returns (server, times)."""
        times = []
        server = None
        for rep in range(reps):
            if server is not None:
                server.stop()
            server = self.spawn(f"{tag}{rep}", traced=traced)
            times.append(server.first_ok(self.probe()))
        return server, times

    # -- phases --------------------------------------------------------------
    def phase(self, name: str, rate: float, duration: float, *, train: bool):
        from gen import Phase, fixed_offsets, poisson_offsets
        from repro.serve.protocol import canonical, ok_response, volley_to_wire

        phase = Phase(name, self.next_id)
        offsets = poisson_offsets(rate, duration, self.rng)
        volleys = self.traffic.volleys(len(offsets))
        fixed_model = not self.train_mode
        outputs = self.traffic.expected(volleys) if fixed_model else None
        for n, (offset, volley) in enumerate(zip(offsets, volleys)):
            conn = 0 if self.train_mode else n % 2
            k = phase.add(offset, conn, "eval", self.eval_message(volley), volley)
            if fixed_model:
                self.expected[phase.base_id + k] = canonical(
                    ok_response(phase.base_id + k, outputs[n])
                ).encode()
        if train:
            train_offsets = fixed_offsets(self.workload.train_rps, duration)
            items = self.traffic.train_items(self.train_sent + len(train_offsets))
            for offset, item in zip(train_offsets, items[self.train_sent:]):
                message = {"op": "train", "volley": volley_to_wire(item.volley)}
                if item.label is not None:
                    message["label"] = item.label
                phase.add(offset, 1, "train", message, item)
            self.train_sent += len(train_offsets)
        self.next_id += len(phase.offsets)
        phase.finalize()
        return phase

    def drive(self, server, phase, *, abort_after_s: float = 0.0):
        from gen import Conn

        conns = [Conn(server.port), Conn(server.port)]
        cpu0 = server.cpu_s()
        try:
            phase.run(conns, abort_after_s=abort_after_s)
        finally:
            for conn in conns:
                conn.close()
        cpu1 = server.cpu_s()
        phase.cpu = {role: cpu1[role] - cpu0.get(role, 0.0) for role in cpu1}
        return phase

    # -- checks and numbers --------------------------------------------------
    def check_fixed(self, phase) -> dict:
        """Byte-check a fixed-model phase's replies; returns outcome counts."""
        phase.codes = {}
        for k in phase.indices("eval"):
            line = phase.reply[k]
            rid = phase.wire_id(k)
            if line is None or line == self.expected[rid]:
                phase.reply[k] = line is not None
                continue
            message = json.loads(line)
            if message.get("ok"):
                self.note_wrong({"id": rid, "got": line.decode(), "want": self.expected[rid].decode()})
            else:
                phase.codes[k] = message.get("code")
            phase.reply[k] = False
        return self.outcomes(phase)

    def note_wrong(self, detail: dict) -> None:
        self.wrong += 1
        self.first_wrong = self.first_wrong or detail

    def summarize(self, phase, seconds: float = 0.0) -> dict:
        """Latency and lateness of a phase's evals (failures count as inf).

        ``phase_p50_ms``/``phase_p99_ms`` are plain percentiles over the
        phase.  With *seconds* (the nominal phase), the reported
        ``p50_ms``/``p99_ms`` are windowed, because interference from
        outside the system under test arrives in bursts of a few
        seconds on a small shared machine:

        * ``p50_ms``: median over ``WINDOW_S`` windows of each window's p50;
        * ``p99_ms``: lower quartile over ``WINDOW_S`` windows of each
          window's p99 -- the tail of a typical undisturbed half-second;
        * on ``train-beside-serve`` the p99 windows are snapshot cycles
          (``SNAPSHOT_EVERY`` train ops each, one promotion per window)
          and the median is taken: the tail there is the promotion stall.
        """
        evals = phase.indices("eval")
        lat = []
        for k in evals:
            good = phase.reply[k] is True
            lat.append((phase.recv[k] - phase.due[k]) * 1e3 if good else math.inf)
        out = {
            "phase": phase.name,
            "sent": len(evals),
            "ok": sum(1 for k in evals if phase.reply[k] is True),
            "phase_p50_ms": _quantile(sorted(lat), 0.5),
            "phase_p99_ms": _quantile(sorted(lat), 0.99),
        }
        out["p50_ms"], out["p99_ms"] = out["phase_p50_ms"], out["phase_p99_ms"]
        if seconds:
            offsets = [phase.offsets[k] for k in evals]
            p50s = _windowed(offsets, lat, seconds, WINDOW_S, 0.5)
            out["p50_ms"] = statistics.median(p50s)
            if self.train_mode:
                cycle_s = SNAPSHOT_EVERY / self.workload.train_rps
                p99s = _windowed(offsets, lat, seconds, cycle_s, 0.99)
                out["p99_ms"] = statistics.median(p99s)
            else:
                p99s = _windowed(offsets, lat, seconds, WINDOW_S, 0.99)
                out["p99_ms"] = statistics.quantiles(p99s, n=4)[0]
            out["window_p99_ms"] = p99s
        span = (phase.due[-1] - phase.start) if phase.due else 0.0
        late = sorted(
            (phase.sent[k] - phase.due[k]) * 1e3
            for k in range(len(phase.due))
            if phase.sent[k] == phase.sent[k]
        )
        done = [phase.recv[k] for k in evals if phase.reply[k] is True]
        out.update(
            {
                "late_p99_ms": _quantile(late, 0.99),
                "offered_rps": len(evals) / span if span > 0 else 0.0,
                "done_rps": len(done) / (max(done) - phase.start) if done else 0.0,
                "aborted": phase.aborted,
                "cpu_s": getattr(phase, "cpu", {}),
                "seconds": phase.end - phase.start,
            }
        )
        return out

    def run_fixed(self, server, *, ladder: bool) -> dict:
        w = self.workload
        rate = self.args.rate or w.nominal_rps
        limit = w.latency_limit_ms
        self.check_fixed(self.drive(server, self.phase("warmup", rate, w.warmup_s, train=False)))
        seconds = self.args.seconds
        before = self.counters(server)
        nominal = self.drive(server, self.phase("nominal", rate, seconds, train=False))
        counters = (before, self.counters(server))
        counts = self.check_fixed(nominal)
        out = {
            "nominal": {
                **self.summarize(nominal, seconds), **counts, "counters": counters
            },
            "phases": {"nominal": nominal},
        }
        if not (ladder and w.ladder_start):
            return out
        rungs = []
        capacity = None
        for step in range(MAX_RUNGS):
            rung_rate = w.ladder_start * w.ladder_ratio ** step
            phase = self.drive(
                server,
                self.phase(f"rung{step}", rung_rate, RUNG_S, train=False),
                abort_after_s=4 * limit / 1e3,
            )
            counts = self.check_fixed(phase)
            summary = {**self.summarize(phase), **counts, "rate": rung_rate}
            summary["pass"] = (
                not phase.aborted
                and summary["refused"] == 0
                and summary["failed"] == 0
                and summary["p99_ms"] <= limit
                and summary["late_p99_ms"] <= LATE_SHARE * limit
            )
            rungs.append(summary)
            if not summary["pass"]:
                break
            capacity = summary["offered_rps"]
        out["ladder"] = rungs
        out["capacity_rps"] = capacity
        # Every rung passed: the capacity is at least the top rung.
        out["capacity_censored"] = rungs[-1]["pass"]
        return out

    def run_train(self, server) -> dict:
        """Evals on the training alias beside a fixed-rate train stream."""
        from gen import Conn

        w = self.workload
        rate = self.args.rate or w.nominal_rps
        self.train_sent = 0  # a fresh server's plane starts from the seed column
        warmup = self.drive(server, self.phase("warmup", rate, w.warmup_s, train=False))
        before = self.counters(server)
        nominal = self.drive(
            server, self.phase("nominal", rate, self.args.seconds, train=True)
        )
        replayed = replay_lineage(self.traffic.train_items(self.train_sent))
        ctl = Conn(server.port)
        try:
            lineage, training = self.await_training(ctl, len(replayed))
            counters = (before, self.counters(server))
            self.check_train([warmup, nominal], ctl)
        finally:
            ctl.close()
        counts = self.outcomes(nominal)
        acks = [nominal.reply[k] for k in nominal.indices("train")]
        dropped = sum(1 for line in acks if line is not None and not json.loads(line).get("accepted"))
        counts["train_failed"] = sum(
            1 for line in acks if line is None or not json.loads(line).get("ok")
        )
        promoted = [record["child"] for record in lineage["records"]]
        if promoted != replayed:
            self.note_wrong({"lineage": promoted, "replayed": replayed})
        return {
            "nominal": {
                **self.summarize(nominal, self.args.seconds), **counts, "counters": counters
            },
            "phases": {"nominal": nominal},
            "freshness_s": self.freshness(nominal),
            "promoted": promoted,
            "train_dropped": dropped,
            "training": training,
        }

    def await_training(self, ctl, snapshots: int, timeout: float = 60.0):
        """Wait until the plane has trained every op sent and promoted
        *snapshots* models; returns the lineage and training stats."""
        deadline = time.perf_counter() + timeout
        while True:
            training = ctl.request({"op": "metrics", "id": "m"})["serve"]["training"]
            lineage = ctl.request({"op": "lineage", "id": "lineage"})["lineage"]
            done = (
                training["presented"] >= self.train_sent
                and len(lineage["records"]) >= snapshots
            )
            if done or time.perf_counter() > deadline:
                return lineage, training
            time.sleep(0.05)

    def check_train(self, phases, ctl) -> None:
        """Byte-check every ok eval against the fingerprint that served it."""
        from repro.network import serialize
        from repro.network.compile_plan import decode_matrix, evaluate_batch
        from repro.serve.protocol import canonical, ok_response

        by_model: dict[str, list] = {}
        for phase in phases:
            phase.codes, phase.served = {}, {}
            for k in phase.indices("eval"):
                line = phase.reply[k]
                phase.reply[k] = False
                if line is None:
                    continue
                message = json.loads(line)
                if message.get("ok"):
                    by_model.setdefault(message["model"], []).append((phase, k, line))
                else:
                    phase.codes[k] = message.get("code")
        for fingerprint, rows in by_model.items():
            doc = ctl.request({"op": "model_doc", "id": "doc", "model": fingerprint})
            network = serialize.loads(doc["document"])
            if network.fingerprint() != fingerprint:
                raise RuntimeError(f"model_doc for {fingerprint[:12]} does not rebuild it")
            outputs = decode_matrix(
                evaluate_batch(network, [phase.meta[k] for phase, k, _ in rows])
            )
            for (phase, k, line), out in zip(rows, outputs):
                want = canonical(
                    ok_response(phase.wire_id(k), tuple(out), model=fingerprint)
                ).encode()
                if line == want:
                    phase.reply[k] = True
                    phase.served[k] = fingerprint
                else:
                    self.note_wrong({"got": line.decode(), "want": want.decode()})

    def freshness(self, phase) -> "float | None":
        """Median seconds from a window-closing train ack to the new model.

        A snapshot window closes with every ``SNAPSHOT_EVERY``-th train
        op; each fingerprint first served after an ack is paired with the
        latest such ack before it.
        """
        trains = phase.indices("train")
        acks = [
            phase.recv[k]
            for j, k in enumerate(trains)
            if (j + 1) % SNAPSHOT_EVERY == 0 and phase.recv[k] == phase.recv[k]
        ]
        first: dict[str, float] = {}
        for k, fingerprint in phase.served.items():
            first[fingerprint] = min(first.get(fingerprint, math.inf), phase.recv[k])
        lags = []
        for seen in first.values():
            before = [ack for ack in acks if ack <= seen]
            if before:
                lags.append(seen - max(before))
        return statistics.median(lags) if lags else None

    def outcomes(self, phase) -> dict:
        evals = phase.indices("eval")
        ok = sum(1 for k in evals if phase.reply[k] is True)
        codes = phase.codes
        refused = sum(1 for k in evals if codes.get(k) == "overloaded")
        return {"ok": ok, "refused": refused, "failed": len(evals) - ok - refused}

    def counters(self, server) -> "dict | None":
        """Cumulative server counters the per-layer table differences.

        ``None`` when the server does not answer a ``metrics`` op within
        ``CONTROL_TIMEOUT_S`` (a wedged server); the run is then invalid.
        """
        from gen import Conn

        conn = Conn(server.port)
        try:
            payload = conn.request({"op": "metrics", "id": "counters"}, timeout=CONTROL_TIMEOUT_S)
        except OSError:
            self.unresponsive = True
            return None
        finally:
            conn.close()
        metrics = payload["metrics"]
        training = payload["serve"].get("training") or {}
        return {
            "evictions": payload["cache"]["result"]["evictions"],
            "retries": metrics["counters"].get("serve.retries", 0),
            "rejected": metrics["counters"].get("serve.rejected.overloaded", 0),
            "pending_peak": metrics["maxima"].get("serve.queue.peak", 0),
            "snapshots": training.get("snapshots", 0),
            "dropped": training.get("queue", {}).get("dropped", 0),
        }

    def body(self, server, *, ladder: bool) -> dict:
        if self.train_mode:
            return self.run_train(server)
        return self.run_fixed(server, ladder=ladder)

    def execute(self) -> int:
        env = environment([*COMMON, *self.serve_args()])
        if self.args.trace:
            return self.execute_traced(env)
        server, setups = self.setup(SETUP_REPS)
        body = self.body(server, ladder=True)
        server.stop()
        nominal = body.pop("nominal")
        body.pop("phases", None)
        limit = self.workload.latency_limit_ms
        valid = nominal["late_p99_ms"] <= LATE_SHARE * limit and not self.unresponsive
        attempted = nominal["sent"] + self.train_sent
        failed = nominal["failed"] + nominal["refused"] + nominal.get("train_failed", 0)
        report = {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": 0,
            "env": env,
            "valid": valid,
            "server_unresponsive": self.unresponsive,
            "wrong_answers": self.wrong,
            "first_wrong": self.first_wrong,
            "setup_s_each": setups,
            "failed_frac": failed / attempted,
            "loadgen.late_p99_ms": nominal["late_p99_ms"],
            "nominal": nominal,
            **body,
        }
        measured = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": nominal["p50_ms"],
            "latency_p99_ms": nominal["p99_ms"],
        }
        report.update(measured)
        metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
        return self.finish(report, metrics, valid, attempted, failed)

    def execute_traced(self, env: dict) -> int:
        """An untraced then a traced server, same schedule shape; per-layer."""
        from layers import layer_metrics, load_spans, request_stages, stage_table

        base_server, _ = self.setup(1, tag="u")
        base = self.body(base_server, ladder=False)
        base_server.stop()
        server, setups = self.setup(1, traced=True, tag="t")
        traced = self.body(server, ladder=False)
        server.stop()
        front, workers = load_spans(self.workdir / "spans-t0")
        phase = traced["phases"]["nominal"]
        rows, e2e = request_stages(phase, front["requests"])
        table = stage_table(rows, e2e)
        layers = layer_metrics(phase, front, workers, rows)
        b, t = base["nominal"], traced["nominal"]
        before, after = b["counters"]
        requests = max(b["sent"], 1)
        misses = max(round(requests * (1.0 - layers["result_cache.hit_ratio"])), 1)
        layers.update(
            {
                "front.cpu_us_per_req": b["cpu_s"]["front"] / requests * 1e6,
                "front.busy_frac": b["cpu_s"]["front"] / b["seconds"],
                "worker.cpu_us_per_req": b["cpu_s"]["workers"] / misses * 1e6,
                "result_cache.evictions": after["evictions"] - before["evictions"],
                "service.rejected_frac": (after["rejected"] - before["rejected"]) / requests,
                "service.pending_peak": after["pending_peak"],
                "pool.retries": after["retries"] - before["retries"],
                "train.snapshots": after["snapshots"] - before["snapshots"],
                "train.queue_dropped": after["dropped"] - before["dropped"],
                "loadgen.late_p99_ms": b["late_p99_ms"],
                "trace.overhead_p50_frac": t["p50_ms"] / b["p50_ms"] - 1.0,
                "trace.stage_sum_ratio": table["check"].get("ratio", 0.0),
            }
        )
        report = {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": 1,
            "env": env,
            "wrong_answers": self.wrong,
            "first_wrong": self.first_wrong,
            "untraced": b,
            "traced": t,
            "traced_setup_s": setups[0],
            "stage_table": table,
            "layers": layers,
            "freshness_s": {"untraced": base.get("freshness_s"), "traced": traced.get("freshness_s")},
        }
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        attempted = b["sent"] + t["sent"]
        failed = sum(x["failed"] + x["refused"] for x in (b, t))
        return self.finish(report, metrics, table["check"]["ok"], attempted, failed)

    def finish(self, report, metrics, valid, attempted, failed) -> int:
        correct = self.wrong == 0 and bool(valid)
        report["correct"] = correct
        out = ROOT / ".e2ebench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        name = f"{self.workload.name}-seed{self.args.seed}-trace{self.args.trace}.json"
        text = json.dumps(report, default=str, sort_keys=True)
        (out / name).write_text(text + "\n")
        print(text)
        result = {
            "correct": correct,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                key: {"value": float(value), "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        }
        print(json.dumps(result), flush=True)
        return 0 if correct else 1


def replay_lineage(items) -> list[str]:
    """The fingerprints a server-side plane must promote for *items*.

    Runs the real :class:`~repro.train.plane.TrainingPlane` synchronously
    against a stub service, from the same scenario seed the server uses.
    """
    from repro.train import TrainingPlane, classification_scenario
    from workloads import TRAIN_ALIAS, TRAIN_SERVER_SEED

    class _Stub:
        def register(self, network):
            return None

        def promote(self, alias, fingerprint):
            return {"model": fingerprint}

    scenario = classification_scenario(seed=TRAIN_SERVER_SEED)
    plane = TrainingPlane(
        _Stub(),
        scenario.column,
        alias=TRAIN_ALIAS,
        trainer=scenario.make_trainer(),
        snapshot_every=SNAPSHOT_EVERY,
        model_name=scenario.name,
    )
    plane.bootstrap()
    for item in items:
        plane.train_step(item)
    return [record.child for record in plane.lineage.records()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--serve-arg", action="append", default=[],
        help="extra server flag (repeatable), e.g. --serve-arg=--no-result-cache",
    )
    parser.add_argument("--rate", type=float, default=0.0, help="override the nominal eval rate")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        result = run.execute()
    except Exception:  # noqa: BLE001 - any failure is a failed run
        traceback.print_exc()
        return 1
    finally:
        for server in run.servers:
            server.kill()
        shutil.rmtree(run.workdir, ignore_errors=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
