"""Traced server launcher: wraps the serving layers, then runs ``serve``.

    python3 e2ebench/launch.py SPANS_DIR [serve flags...]

Installs timing wrappers around public calls of each layer, patched
where the caller looks them up, then calls
:func:`repro.serve.server.serve_main` with request tracing on
(``--rtrace``, whose ``queue``/``attempt``/``engine`` spans give the
batcher, pool and worker-side engine times).  Spans live in memory and
are written to ``SPANS_DIR`` when the server exits: ``front.json`` from
this process and ``worker-<pid>.json`` from each worker (the worker
body is wrapped too, and workers are forked, so they inherit the
wrappers).  Nothing in ``src/`` records a span.

Per eval request (keyed by wire id) the front records, on the shared
monotonic clock the client also uses: parse start/end, submit
start/end, the result-cache probe, dispatch and completion (from
rtrace), encode, and the socket write.  A contextvar set by a wrapper
around ``_finish_eval`` (one asyncio task per eval) tells the inner
wrappers which request they are timing.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Per-request timeline points, keyed by wire id.
REQUESTS: dict = {}
#: Per-call records ``[start, duration, ...]`` by layer call name.
CALLS: dict = {}
#: The timeline of the eval request the current asyncio task serves.
CURRENT: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
#: That request's rtrace, kept out of the timeline dict so the dict holds
#: only floats and stays invisible to the cyclic GC.
TRACE: contextvars.ContextVar = contextvars.ContextVar("rtrace", default=None)


def timed(name: str, fn):
    """Wrap *fn* to append ``[start, duration]`` to ``CALLS[name]``."""
    sink = CALLS.setdefault(name, [])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append([start, clock() - start])

    return wrapper


def point(key: str, fn):
    """Wrap *fn* to stamp ``<key>0``/``<key>1`` on the current request."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = CURRENT.get()
        if rec is None:
            return fn(*args, **kwargs)
        rec[key + "0"] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[key + "1"] = clock()

    return wrapper


def _rtrace_points(rec: dict, trace) -> None:
    """Copy dispatch/completion and engine time off a finished rtrace."""
    queue = attempt = engine = 0.0
    for name, _parent, start, end, _attrs in trace._events:
        if end is None:
            continue
        if name == "queue":
            queue += end - start
        elif name == "attempt":
            attempt += end - start
            rec.setdefault("a0", start)
            rec["a1"] = end
        elif name == "engine":
            engine += end - start
    if "a0" in rec:
        rec["queue"], rec["attempt"], rec["engine"] = queue, attempt, engine


def install_gc_probe() -> None:
    """Record every cyclic-GC pass: ``[start, duration, generation]``."""
    import gc

    sink = CALLS.setdefault("gc", [])
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = clock()
        else:
            sink.append([started[0], clock() - started[0], info["generation"]])

    gc.callbacks.append(on_gc)


def install_front() -> None:
    from repro.runtime import RESULT_CACHE
    from repro.serve import pool as pool_mod
    from repro.serve import registry as registry_mod
    from repro.serve import server as server_mod
    from repro.serve.pool import ProcessWorkerPool
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import TNNService
    from repro.train import plane as plane_mod
    from repro.train import scenario as scenario_mod

    parse = server_mod.parse_request

    def parse_request(line):
        start = clock()
        message = parse(line)
        if message.get("op") == "eval":
            REQUESTS[message.get("id")] = {"p0": start, "p1": clock()}
        return message

    server_mod.parse_request = parse_request

    finish = server_mod._finish_eval

    async def _finish_eval(service, message, writer, lock):
        rec = REQUESTS.setdefault(message.get("id"), {})
        token = CURRENT.set(rec)
        try:
            await finish(service, message, writer, lock)
        finally:
            CURRENT.reset(token)
            trace = TRACE.get()
            if trace is not None:
                _rtrace_points(rec, trace)

    server_mod._finish_eval = _finish_eval
    server_mod.encode_line = point("e", server_mod.encode_line)
    # The socket send itself: after it the reply is the kernel's and the
    # client's, whenever the writing task gets to resume.
    asyncio.StreamWriter.write = point("x", asyncio.StreamWriter.write)

    submit = TNNService.submit

    def service_submit(self, *args, **kwargs):
        rec = CURRENT.get()
        start = clock()
        try:
            future = submit(self, *args, **kwargs)
        finally:
            if rec is not None:
                rec["s0"], rec["s1"] = start, clock()
        if rec is not None:
            TRACE.set(getattr(future, "rtrace", None))
        return future

    TNNService.submit = service_submit
    TNNService.register = timed("service.register", TNNService.register)
    TNNService.promote = timed("service.promote", TNNService.promote)
    ModelRegistry.register = timed("registry.register", ModelRegistry.register)

    get = RESULT_CACHE.get

    def cache_get(fingerprint, digest):
        rec = CURRENT.get()
        start = clock()
        row = get(fingerprint, digest)
        if rec is not None:
            rec["g0"], rec["g1"], rec["hit"] = start, clock(), row is not None
        return row

    RESULT_CACHE.get = cache_get
    RESULT_CACHE.put = timed("result_cache.put", RESULT_CACHE.put)

    pool_submit = ProcessWorkerPool.submit
    jobs = CALLS.setdefault("pool.job", [])

    def submit_job(self, job):
        row = [clock(), None, len(job.matrix), None]
        done, extras = job.on_done, job.on_extras

        def on_done(result):
            row[1] = clock() - row[0]
            return done(result)

        def on_extras(payload):
            row[3] = payload.get("eval_s")
            return extras(payload) if extras is not None else None

        job.on_done, job.on_extras = on_done, on_extras
        jobs.append(row)
        return pool_submit(self, job)

    ProcessWorkerPool.submit = submit_job

    registry_mod.lower = timed("front.lower", registry_mod.lower)
    registry_mod.optimize_program = timed(
        "front.optimize", registry_mod.optimize_program
    )
    plane_mod.TrainingPlane.train_step = timed(
        "train.train_step", plane_mod.TrainingPlane.train_step
    )
    plane_mod.TrainingPlane.snapshot = timed(
        "train.snapshot", plane_mod.TrainingPlane.snapshot
    )
    plane_mod.IncrementalTrainer.step = timed(
        "train.step", plane_mod.IncrementalTrainer.step
    )
    plane_mod.IncrementalTrainer.compile_snapshot = timed(
        "train.compile_snapshot", plane_mod.IncrementalTrainer.compile_snapshot
    )
    scenario_mod.TrainingScenario.probe = timed(
        "train.probe", scenario_mod.TrainingScenario.probe
    )

    worker_main = pool_mod._worker_main

    def traced_worker_main(conn, documents, optimize, engine="auto"):
        CALLS.clear()
        REQUESTS.clear()
        install_worker()
        try:
            worker_main(conn, documents, optimize, engine)
        finally:
            from repro.obs.metrics import METRICS

            dump(f"worker-{os.getpid()}.json", counters=METRICS.snapshot()["counters"])

    pool_mod._worker_main = traced_worker_main


def install_worker() -> None:
    """Wrap what ``_worker_main`` looks up at call time (in the child)."""
    from repro.ir import passes, program
    from repro.runtime.registry import ENGINES

    program.lower = timed("worker.lower", program.lower)
    passes.optimize_program = timed("worker.optimize", passes.optimize_program)
    for engine in ENGINES.serving_engines():
        cls = type(engine)
        if "warm" in vars(cls):
            cls.warm = timed(f"worker.warm.{engine.key}", cls.warm)


SPANS_DIR: Path = Path(".")


def dump(name: str, **extra) -> None:
    payload = {"calls": CALLS, "requests": REQUESTS, **extra}
    (SPANS_DIR / name).write_text(json.dumps(payload))


def main() -> int:
    global SPANS_DIR
    SPANS_DIR = Path(sys.argv[1])
    install_front()
    install_gc_probe()
    from repro.serve.server import serve_main

    try:
        return serve_main(["--rtrace", *sys.argv[2:]])
    finally:
        dump("front.json")


if __name__ == "__main__":
    sys.exit(main())
