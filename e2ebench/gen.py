"""Open-loop request generator over raw non-blocking sockets.

Every request line is encoded before a phase starts.  Sends follow a
precomputed schedule of due times (Poisson arrivals for evals, a fixed
period for train ops), whatever the server is doing, so a stall queues
the requests behind it instead of slowing the client down.  Latency is
measured from the due time, which charges that queueing, and the
generator's own lateness (send time minus due time) is recorded so a
run whose client fell behind can be marked invalid.

One thread, one ``selectors`` loop, at most two connections.
"""

from __future__ import annotations

import gc
import json
import math
import random
import selectors
import socket
from time import perf_counter

NAN = float("nan")


def poisson_offsets(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Arrival offsets in ``[0, duration)`` of a Poisson process."""
    out = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def fixed_offsets(rate: float, duration: float) -> list[float]:
    """Arrival offsets of a fixed-rate stream (first op after one period)."""
    period = 1.0 / rate
    return [period * (k + 1) for k in range(int(math.floor(duration * rate + 1e-9)))]


class Conn:
    """One pipelined NDJSON connection."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.out = bytearray()
        self.buf = b""

    def request(self, message: dict, timeout: float = 60.0) -> dict:
        """One blocking in-order exchange (control ops between phases)."""
        self.sock.setblocking(True)
        self.sock.settimeout(timeout)
        self.sock.sendall(json.dumps(message).encode() + b"\n")
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the connection")
            self.buf += data
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Phase:
    """A schedule of requests and what happened to each.

    ``due``/``sent``/``recv`` are absolute ``perf_counter`` seconds
    (``recv`` is NaN for a request that never got a reply); ``reply`` is
    the raw reply line.  Request *k* carries wire id ``base_id + k``.
    """

    def __init__(self, name: str, base_id: int):
        self.name = name
        self.base_id = base_id
        self.offsets: list[float] = []
        self.conn: list[int] = []
        self.lines: list[bytes] = []
        self.kind: list[str] = []
        self.meta: list = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.recv: list[float] = []
        self.reply: list = []
        self.start = NAN
        self.end = NAN
        self.aborted = False

    def add(
        self, offset: float, conn: int, kind: str, message: dict, meta=None
    ) -> int:
        k = len(self.offsets)
        self.meta.append(meta)
        message["id"] = self.base_id + k
        self.offsets.append(offset)
        self.conn.append(conn)
        self.kind.append(kind)
        self.lines.append(
            json.dumps(message, separators=(",", ":")).encode() + b"\n"
        )
        return k

    def finalize(self) -> None:
        """Sort by due offset (ids stay attached to their lines)."""
        order = sorted(range(len(self.offsets)), key=self.offsets.__getitem__)
        for attr in ("offsets", "conn", "lines", "kind", "meta"):
            seq = getattr(self, attr)
            setattr(self, attr, [seq[k] for k in order])
        self._ids = [self.base_id + k for k in order]
        n = len(order)
        self.sent = [NAN] * n
        self.recv = [NAN] * n
        self.reply = [None] * n

    def run(
        self,
        conns: list[Conn],
        *,
        drain_s: float = 5.0,
        abort_after_s: float = 0.0,
    ) -> None:
        """Send on schedule until done, then wait up to *drain_s* for replies.

        With *abort_after_s*, stop sending once the oldest unanswered
        request is that old (an overloaded ladder rung), then drain.
        """
        # The client's own garbage collector must not stall the schedule:
        # nothing allocated in the loop is cyclic, so refcounting frees it.
        gc.collect()
        gc.disable()
        try:
            self._run(conns, drain_s, abort_after_s)
        finally:
            gc.enable()

    def _run(self, conns, drain_s: float, abort_after_s: float) -> None:
        n = len(self.lines)
        slot = {rid: k for k, rid in enumerate(self._ids)}
        sel = selectors.DefaultSelector()
        for index, conn in enumerate(conns):
            conn.sock.setblocking(False)
            sel.register(conn.sock, selectors.EVENT_READ, index)
        lines, conn_of, sent, recv, reply = (
            self.lines, self.conn, self.sent, self.recv, self.reply,
        )
        t0 = perf_counter() + 0.002
        due = [t0 + off for off in self.offsets]
        self.due = due
        self.start = t0
        i = 0
        answered = 0
        oldest = 0  # first request (in schedule order) still unanswered
        last_due = due[-1] if due else t0
        hard_end = last_due + drain_s
        while answered < n:
            now = perf_counter()
            while i < n and due[i] <= now:
                conns[conn_of[i]].out += lines[i]
                sent[i] = now
                i += 1
            pending_out = False
            for conn in conns:
                if conn.out:
                    try:
                        k = conn.sock.send(conn.out)
                        del conn.out[:k]
                    except BlockingIOError:
                        pass
                    pending_out = pending_out or bool(conn.out)
            if now > hard_end:
                break
            if abort_after_s and i < n:
                while oldest < i and recv[oldest] == recv[oldest]:
                    oldest += 1
                if oldest < i and now - due[oldest] > abort_after_s:
                    self.aborted = True
                    n_sent = i
                    for k in range(i, n):
                        sent[k] = NAN
                    n = n_sent
                    hard_end = now + drain_s
                    if answered >= n:
                        break
            if pending_out:
                wait = 0.0
            elif i < n:
                wait = max(0.0, due[i] - now)
            else:
                wait = 0.05
            for key, _events in sel.select(wait):
                conn = conns[key.data]
                try:
                    data = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                t = perf_counter()
                if not data:
                    raise ConnectionError("server closed a benchmark connection")
                parts = (conn.buf + data).split(b"\n")
                conn.buf = parts.pop()
                for line in parts:
                    if line.startswith(b'{"id":'):
                        rid = int(line[6:line.index(b",", 6)])
                    else:
                        rid = json.loads(line).get("id")
                    k = slot.get(rid)
                    if k is None or recv[k] == recv[k]:
                        continue
                    recv[k] = t
                    reply[k] = line
                    answered += 1
        self.end = perf_counter()
        for conn in conns:
            sel.unregister(conn.sock)
        sel.close()

    def indices(self, kind: str) -> list[int]:
        return [k for k, kd in enumerate(self.kind) if kd == kind and self.sent[k] == self.sent[k]]

    def wire_id(self, k: int) -> int:
        return self._ids[k]
