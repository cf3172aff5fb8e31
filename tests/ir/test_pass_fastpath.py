"""No-op fast paths of ``fold-consts`` and ``fuse-inc``.

Each pass pre-scans its input and returns it unchanged when it has
nothing to rewrite.  The fast path must be invisible: on every input it
takes, the full rewrite would have produced the same node table (tags
included), outputs, provenance and fingerprint — run alone or inside
the pipeline, with the same ``PipelineReport`` stats.
"""

import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.table import NormalizedTable
from repro.core.synthesis import synthesize
from repro.core.value import INF
from repro.ir import PASSES, Program, lower, optimize_program
from repro.ir import passes as passes_mod
from repro.network.blocks import Node
from repro.neuron.response import ResponseFunction
from repro.neuron.srm0 import SRM0Neuron
from repro.neuron.srm0_network import build_srm0_network
from repro.testing.generators import FAMILIES, generate_case

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAST_PASSES = ("fold-consts", "fuse-inc")


@contextmanager
def full_rewrites():
    """Disable both pre-scans: every pass re-emits its whole input."""
    with mock.patch.object(
        passes_mod, "_folds_nothing", lambda *a: False
    ), mock.patch.object(passes_mod, "_fuses_nothing", lambda *a: False):
        yield


def snapshot(program):
    return (
        [
            (n.id, n.kind, n.sources, n.amount, n.name, n.tags)
            for n in program.nodes
        ],
        list(program.outputs.items()),
        program.provenance,
        program.fingerprint(),
        program.name,
    )


def report_stats(report):
    return (
        [(s.name, s.iteration, s.before_nodes, s.after_nodes) for s in report.stats],
        report.iterations,
    )


def outcome(fn):
    """``fn()``'s snapshot, or the exception type it raised."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - compared across paths
        return type(exc)
    if isinstance(result, tuple):
        program, report = result
        return snapshot(program), report_stats(report)
    return snapshot(result)


def assert_fast_equals_full(program, params=None):
    """Every fast pass, alone and in the pipeline, equals its full rewrite."""
    canonical = PASSES["canonicalize"](program)
    for name in FAST_PASSES:
        for source in (program, canonical):
            fast = outcome(lambda: PASSES[name](source, params=params))
            with full_rewrites():
                full = outcome(lambda: PASSES[name](source, params=params))
            assert fast == full, name
    fast = outcome(lambda: optimize_program(program, params=params))
    with full_rewrites():
        full = outcome(lambda: optimize_program(program, params=params))
    assert fast == full


# ---------------------------------------------------------------------------
# Hand-built programs: the shapes each pre-scan must refuse
# ---------------------------------------------------------------------------

@st.composite
def raw_programs(draw):
    """Programs straight from Node tuples (the builder normalizes away
    zero-amount incs and single-source min/max, so it cannot build them).
    Every shape a pre-scan must catch is drawable: const0 (zero-source
    max), the empty min, single-source min/max, zero-amount and chained
    incs, params (pinned or not), tagged nodes."""
    nodes = []
    for i in range(draw(st.integers(1, 3))):
        nodes.append(Node(len(nodes), "input", name=f"x{i}"))
    n_params = draw(st.integers(0, 2))
    for i in range(n_params):
        nodes.append(Node(len(nodes), "param", name=f"p{i}"))
    for _ in range(draw(st.integers(1, 12))):
        nid = len(nodes)
        upstream = st.integers(0, nid - 1)
        kind = draw(st.sampled_from(("inc", "min", "max", "lt")))
        tags = draw(st.sampled_from(((), ("k:a",))))
        if kind == "inc":
            node = Node(
                nid, "inc", sources=(draw(upstream),),
                amount=draw(st.integers(0, 3)), tags=tags,
            )
        elif kind == "lt":
            node = Node(
                nid, "lt", sources=(draw(upstream), draw(upstream)), tags=tags
            )
        else:
            sources = tuple(draw(st.lists(upstream, min_size=0, max_size=3)))
            node = Node(nid, kind, sources=sources, tags=tags)
        nodes.append(node)
    outputs = {
        f"y{i}": nid
        for i, nid in enumerate(
            draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
        )
    }
    params = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {},
                optional={
                    f"p{i}": st.sampled_from((0, INF, 2)) for i in range(n_params)
                },
            ),
        )
    )
    return Program(tuple(nodes), outputs, name="raw"), params


class TestFastPathEqualsFullRewrite:
    @SETTINGS
    @given(case=raw_programs())
    def test_hand_built_programs(self, case):
        program, params = case
        assert_fast_equals_full(program, params)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        family=st.sampled_from([name for name, _weight in FAMILIES]),
        smoke=st.booleans(),
    )
    def test_generator_families(self, seed, family, smoke):
        case = generate_case(seed, family=family, smoke=smoke)
        program = lower(case.network)
        assert_fast_equals_full(program)
        if case.params:
            assert_fast_equals_full(program, case.params)

    def test_every_family_covered(self):
        for family, _weight in FAMILIES:
            for seed in range(3):
                case = generate_case(seed, family=family)
                assert_fast_equals_full(lower(case.network), case.params or None)


class TestPreScans:
    def _node_table(self, *compute):
        x = Node(0, "input", name="x")
        return (x, *compute)

    def test_nothing_to_rewrite_returns_input(self):
        nodes = self._node_table(
            Node(1, "inc", sources=(0,), amount=2),
            Node(2, "min", sources=(0, 1)),
            Node(3, "min", sources=()),  # the empty min folds nothing
            Node(4, "lt", sources=(2, 3)),
        )
        program = Program(nodes, {"y": 4})
        for name in FAST_PASSES:
            assert PASSES[name](program) is program

    def test_const0_and_single_source_are_folded(self):
        const0 = Program(self._node_table(Node(1, "max", sources=())), {"y": 1})
        wire = Program(self._node_table(Node(1, "min", sources=(0,))), {"y": 1})
        for program in (const0, wire):
            assert PASSES["fold-consts"](program) is not program

    def test_pinned_param_is_folded(self):
        nodes = (
            Node(0, "input", name="x"),
            Node(1, "param", name="p"),
            Node(2, "min", sources=(0, 1)),
        )
        program = Program(nodes, {"y": 2})
        fold = PASSES["fold-consts"]
        assert fold(program) is program
        assert fold(program, params={"p": 2}) is program
        for pinned in (0, INF):
            assert fold(program, params={"p": pinned}) is not program

    def test_zero_and_chained_incs_are_fused(self):
        zero = Program(
            self._node_table(Node(1, "inc", sources=(0,), amount=0)), {"y": 1}
        )
        chain = Program(
            self._node_table(
                Node(1, "inc", sources=(0,)), Node(2, "inc", sources=(1,))
            ),
            {"y": 2},
        )
        for program in (zero, chain):
            assert PASSES["fuse-inc"](program) is not program

    def test_non_canonical_form_takes_the_full_rewrite(self):
        # Re-emission drops compute-node names and sorts provenance, so
        # a program carrying either is not returned as is.
        named = Program(
            self._node_table(Node(1, "inc", sources=(0,), name="d")), {"y": 1}
        )
        shuffled = Program(
            self._node_table(Node(1, "inc", sources=(0,))),
            {"y": 1},
            provenance={0: (0,), 1: (3, 1)},
        )
        for program in (named, shuffled):
            for name in FAST_PASSES:
                assert PASSES[name](program) is not program


def test_bench_ir_passes_node_counts():
    """The BENCH_ir_passes redundant rows keep their node counts."""
    table = NormalizedTable.random(3, window=3, n_rows=12, rng=random.Random(7))
    neuron = SRM0Neuron.homogeneous(
        3,
        [2, 1, 3],
        base_response=ResponseFunction.piecewise_linear(
            amplitude=2, rise=1, fall=3
        ),
        threshold=4,
    )
    for network, before, after in (
        (synthesize(table), 86, 56),
        (build_srm0_network(neuron), 253, 134),
    ):
        program, _report = optimize_program(network)
        assert len(lower(network).nodes) == before
        assert len(program.nodes) == after
