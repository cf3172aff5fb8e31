"""The benchmark's three workloads: models, traffic and server flags.

Each workload is a pure function of the run seed: the same seed yields
the same request lines, the same train stream and the same expected
replies.  The server only ever sees the generated lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: Server flags beyond the common ones (``--workers 1 --port 0``).
    serve_args: tuple = ()
    #: Offered eval rate (requests/s) of the nominal phase.
    nominal_rps: float = 1000.0
    #: Limit on the phase p99 latency (ms), used by the capacity ladder.
    latency_limit_ms: float = 25.0
    #: Capacity ladder: rungs ``ladder_start * ladder_ratio**k``.
    ladder_start: float = 0.0
    ladder_ratio: float = 1.2
    #: Fixed-rate train ops/s beside the evals (train-beside-serve only).
    train_rps: float = 0.0
    #: Seconds of untimed traffic before measuring (cache and plan warm-up).
    warmup_s: float = 1.0


#: Alias the training plane promotes (the server's default).
TRAIN_ALIAS = "digits@live"
#: Seed of the server-side training scenario (fixed server flag default).
TRAIN_SERVER_SEED = 0
SNAPSHOT_EVERY = 25


#: Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot-repeat",
            nominal_rps=2000.0,
            ladder_start=4000.0,
            warmup_s=2.0,
        ),
        Workload(
            name="wide-unique",
            serve_args=("--model-file", "{model_file}"),
            nominal_rps=2000.0,
            ladder_start=2400.0,
        ),
        Workload(
            name="train-beside-serve",
            serve_args=("--train", "--snapshot-every", str(SNAPSHOT_EVERY)),
            nominal_rps=300.0,
            train_rps=10.0,
        ),
    )
}


def wide_column(n_inputs: int = 10, seed: int = 0):
    """The 10-input SRM0 column of the serving benchmark (same recipe)."""
    from repro.neuron.response import ResponseFunction
    from repro.neuron.srm0 import SRM0Neuron
    from repro.neuron.srm0_network import build_srm0_network

    rng = random.Random(seed)
    base = ResponseFunction.piecewise_linear(amplitude=2, rise=1, fall=3)
    weights = [rng.randint(1, 3) for _ in range(n_inputs)]
    neuron = SRM0Neuron.homogeneous(
        n_inputs, weights, base_response=base, threshold=3
    )
    return build_srm0_network(neuron, name=f"bench-col-{n_inputs}in-seed{seed}")


class Traffic:
    """Model, volley source and reply oracle of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from repro.serve.demo import demo_column

        self.workload = workload
        self.seed = seed
        self.model_file: Optional[Path] = None
        self.network = None
        if workload.name == "hot-repeat":
            self.network, _ = demo_column(0, smoke=False)
            self.model = "demo"
            self.arity = 3
        elif workload.name == "wide-unique":
            from repro.network import serialize

            self.network = wide_column()
            self.model_file = workdir / "wide-unique.json"
            serialize.save(self.network, self.model_file)
            # Served by fingerprint: --model-file registers no alias.
            self.model = self.network.fingerprint()
            self.arity = 10
        else:
            self.model = TRAIN_ALIAS
            self.arity = 12
        self._calls = 0
        self._seen: set = set()

    def serve_args(self, root: Path) -> list[str]:
        """Workload flags; paths relative to *root*, the server's cwd."""
        fill = {"model_file": str(self.model_file and self.model_file.relative_to(root))}
        return [arg.format(**fill) for arg in self.workload.serve_args]

    def volleys(self, count: int) -> list[tuple]:
        """The next *count* eval volleys of this run's stream.

        ``hot-repeat`` draws from the demo distribution (repeats are the
        point); the other two never repeat a volley within a run.
        """
        from repro.serve.demo import demo_volleys

        out: list[tuple] = []
        while len(out) < count:
            self._calls += 1
            drawn = demo_volleys(
                self.arity,
                count - len(out),
                seed=self.seed * 1_000_003 + self._calls,
            )
            if self.workload.name == "hot-repeat":
                out.extend(drawn)
                continue
            for volley in drawn:
                if volley not in self._seen:
                    self._seen.add(volley)
                    out.append(volley)
        return out

    def expected(self, volleys: list[tuple]) -> list[tuple]:
        """Direct ``evaluate_batch`` outputs (fixed-model workloads)."""
        from repro.network.compile_plan import decode_matrix, evaluate_batch

        if not volleys:
            return []
        distinct = list(dict.fromkeys(volleys))
        rows = decode_matrix(evaluate_batch(self.network, distinct))
        table = {v: tuple(r) for v, r in zip(distinct, rows)}
        return [table[v] for v in volleys]

    def train_items(self, count: int) -> list:
        """Train ops: the server scenario's training split, cycled in order.

        The split is the one the served column was built for, the same
        for every run seed, so every seed trains the same sequence of
        model versions (their sizes, and so the cost of each snapshot,
        vary widely from one training stream to another).  The seed
        varies the eval volleys and the arrival schedule.
        """
        from repro.train import classification_scenario

        items = classification_scenario(seed=TRAIN_SERVER_SEED).items()
        return [items[k % len(items)] for k in range(count)]
