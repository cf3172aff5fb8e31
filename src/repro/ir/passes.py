"""The shared optimizer: named, individually-toggleable passes over IR.

Every backend consumes the same :class:`~repro.ir.program.Program`, so
an optimization implemented here — once — speeds up the compiled batch
engine, the interpreted walk, the event simulator, and the GRL netlist
alike.  The :class:`PassManager` runs a configurable pipeline of named
passes to a fingerprint fixpoint and reports pass-by-pass node counts.

Passes (registry order is the default pipeline order):

* ``canonicalize`` — zero-source ``min`` (the lattice top ``∞``) and
  ``lt(x, x)`` fold to *never*, which consumers absorb by the lattice
  identities (``min(x, never) = x``, ``max(x, never) = never``,
  ``lt(never, y) = never``, ``lt(x, never) = x``, ``inc(never) =
  never``); duplicate min/max sources deduplicate (idempotence) and
  single-source min/max collapse to wires.  The single owner of the
  zero-source identity rule — no backend re-derives it.
* ``fold-consts`` — constant folding of cones rooted at ``const0``
  (zero-source ``max``) and, when a parameter binding is supplied,
  at pinned ``param`` lines: a node whose value is provably known
  aliases to the node carrying that value (``min`` with a 0 source is
  0; ``max`` drops 0 sources; ``lt`` against 0 never fires; fully
  known ``min``/``max``/``lt`` fold outright).
* ``fuse-inc`` — ``inc(inc(x, a), b)`` → ``inc(x, a + b)``; a fused
  amount of 0 collapses to a wire.
* ``cse`` — common-subexpression elimination: nodes with the same kind
  and (order-normalized, for min/max) sources merge.
* ``dce`` — dead-node elimination: compute nodes feeding no output are
  dropped (terminals always survive — the interface is frozen).

Every pass preserves the program interface (input/param/output names)
and the denotational semantics, and composes the **provenance map**:
each output node of a pass represents a set of original-network nodes
whose fire times it reproduces exactly.  That invariant is what keeps
optimized and unoptimized spike traces comparable
(:func:`repro.obs.trace.project_events`) and is property-checked by the
conformance suite.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..core.value import Infinity, Time
from ..network.blocks import Node
from .program import Program, ProgramLike, ensure_program

#: Sentinel for a wire that provably never spikes.
_NEVER = -1


# ---------------------------------------------------------------------------
# The rewrite engine shared by every pass
# ---------------------------------------------------------------------------

class _Rewriter:
    """Accumulates a rewritten node table plus the old→new mapping."""

    def __init__(self, program: Program):
        self.program = program
        self.nodes: list[Node] = []
        self.result: dict[int, int] = {}  # old id -> new id, or _NEVER
        self.seen: dict[tuple, int] = {}
        self._never_wire: Optional[int] = None

    def emit(
        self,
        kind: str,
        sources: tuple[int, ...] = (),
        *,
        amount: int = 1,
        name: Optional[str] = None,
        tags: tuple[str, ...] = (),
    ) -> int:
        node = Node(
            len(self.nodes), kind, sources=sources, amount=amount,
            name=name, tags=tags,
        )
        self.nodes.append(node)
        return node.id

    def get_or_emit(
        self,
        key: tuple,
        kind: str,
        sources: tuple[int, ...],
        *,
        amount: int = 1,
        tags: tuple[str, ...] = (),
    ) -> int:
        if key not in self.seen:
            self.seen[key] = self.emit(kind, sources, amount=amount, tags=tags)
        return self.seen[key]

    def copy(self, node: Node) -> int:
        """Re-emit *node* with its sources mapped through ``result``."""
        if node.is_terminal:
            new = self.emit(node.kind, name=node.name)
        else:
            new = self.emit(
                node.kind,
                tuple(self.result[s] for s in node.sources),
                amount=node.amount,
                tags=node.tags,
            )
        self.result[node.id] = new
        return new

    def never_wire(self) -> int:
        """A (shared) wire that is identically ``∞``: ``lt(w, w)``.

        Anchored on the first emitted node — every program has at least
        one terminal, and terminals are always re-emitted.
        """
        if self._never_wire is None:
            self._never_wire = self.emit("lt", (0, 0), tags=("never",))
        return self._never_wire

    def finish(self) -> Program:
        """Close the rewrite: outputs, provenance composition, Program."""
        outputs: dict[str, int] = {}
        never_roots: set[int] = set()
        for out_name, old in self.program.outputs.items():
            new = self.result[old]
            if new == _NEVER:
                new = self.never_wire()
                never_roots.update(self.program.provenance[old])
            outputs[out_name] = new
        prov_sets: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for old, new in self.result.items():
            if new != _NEVER:
                prov_sets[new].update(self.program.provenance[old])
        if self._never_wire is not None:
            prov_sets[self._never_wire].update(never_roots)
        provenance = {
            nid: tuple(sorted(roots)) for nid, roots in prov_sets.items()
        }
        return Program(
            tuple(self.nodes),
            outputs,
            name=self.program.name,
            provenance=provenance,
        )


def _reemits_unchanged(program: Program) -> bool:
    """True when re-emitting every node 1:1 reproduces *program* exactly.

    A :class:`_Rewriter` copy drops terminal tags, compute-node names
    and terminal amounts, and rebuilds provenance as sorted,
    duplicate-free root tuples.  A program already in that form — every
    pass output is — comes back identical, so a pass whose pre-scan
    finds nothing to rewrite may return it as is.
    """
    provenance = program.provenance
    if len(provenance) != len(program.nodes):
        return False
    for node in program.nodes:
        roots = provenance.get(node.id)
        if roots is None or roots != tuple(sorted(set(roots))):
            return False
        if node.is_terminal:
            if node.tags or node.amount != 1:
                return False
        elif node.name is not None:
            return False
    return True


def _strip_dead(program: Program) -> Program:
    """Drop unreferenced compute nodes (rewrites leave orphans behind).

    Terminals are kept even when dead — the program interface (input
    and parameter declaration order) is frozen across passes.
    """
    live: set[int] = set(program.outputs.values())
    stack = list(live)
    while stack:
        nid = stack.pop()
        for src in program.nodes[nid].sources:
            if src not in live:
                live.add(src)
                stack.append(src)
    keep = [n for n in program.nodes if n.is_terminal or n.id in live]
    if len(keep) == len(program.nodes):
        return program
    remap = {node.id: i for i, node in enumerate(keep)}
    moved = tuple(
        Node(
            remap[n.id],
            n.kind,
            sources=tuple(remap[s] for s in n.sources),
            amount=n.amount,
            name=n.name,
            tags=n.tags,
        )
        for n in keep
    )
    outputs = {name: remap[nid] for name, nid in program.outputs.items()}
    provenance = {
        remap[nid]: program.provenance[nid]
        for nid in remap
    }
    return Program(
        moved, outputs, name=program.name, provenance=provenance
    )


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------

def pass_dce(program: Program, *, params=None) -> Program:
    """Dead-node elimination (terminals always survive)."""
    return _strip_dead(program)


def pass_canonicalize(program: Program, *, params=None) -> Program:
    """Zero-source/lattice-identity canonicalization (see module doc)."""
    rw = _Rewriter(program)
    for node in program.nodes:
        if node.is_terminal:
            rw.copy(node)
            continue
        sources = tuple(rw.result[s] for s in node.sources)
        if node.kind == "inc":
            if sources[0] == _NEVER:
                rw.result[node.id] = _NEVER
            else:
                rw.result[node.id] = rw.emit(
                    "inc", sources, amount=node.amount, tags=node.tags
                )
        elif node.kind in ("min", "max"):
            if node.kind == "min" and not sources:
                # The empty min is the lattice top: it never fires.
                rw.result[node.id] = _NEVER
                continue
            if node.kind == "max" and _NEVER in sources:
                rw.result[node.id] = _NEVER
                continue
            if node.kind == "max" and not sources:
                # The empty max is the constant 0 — a real value; keep it.
                rw.result[node.id] = rw.emit("max", (), tags=node.tags)
                continue
            kept = tuple(sorted({s for s in sources if s != _NEVER}))
            if not kept:
                rw.result[node.id] = _NEVER
            elif len(kept) == 1:
                rw.result[node.id] = kept[0]
            else:
                rw.result[node.id] = rw.emit(node.kind, kept, tags=node.tags)
        else:  # lt
            a, b = sources
            if a == _NEVER or a == b:
                rw.result[node.id] = _NEVER
            elif b == _NEVER:
                rw.result[node.id] = a
            else:
                rw.result[node.id] = rw.emit("lt", (a, b), tags=node.tags)
    return rw.finish()


def pass_fold_consts(
    program: Program, *, params: Optional[Mapping[str, Time]] = None
) -> Program:
    """Constant folding of ``const0`` (and known-``param``) cones.

    Tracks, per rewritten node, a *known* value: ``const0`` is 0, a
    pinned param (when a binding is supplied) is 0 or ``∞``, ``inc``
    propagates through addition, and min/max/lt fold when their
    arguments are known.  Folds are expressed as aliases to the node
    already carrying the value, so fire times are preserved exactly
    (the provenance invariant).  With no ``const0``, no pinned param
    and no single-source min/max there is nothing to fold, and the
    input comes back as is.
    """
    if _folds_nothing(program, params):
        return program
    rw = _Rewriter(program)
    known: dict[int, Time] = {}  # new id -> provably constant value

    def value_of(new_id: int) -> Optional[Time]:
        return known.get(new_id)

    for node in program.nodes:
        if node.is_terminal:
            new = rw.copy(node)
            if (
                node.kind == "param"
                and params is not None
                and node.name in params
            ):
                pinned = params[node.name]
                if isinstance(pinned, Infinity):
                    known[new] = pinned
                elif pinned == 0:
                    known[new] = 0
            continue
        sources = tuple(rw.result[s] for s in node.sources)
        values = [value_of(s) for s in sources]

        if node.kind == "inc":
            new = rw.emit("inc", sources, amount=node.amount, tags=node.tags)
            rw.result[node.id] = new
            if values[0] is not None:
                v = values[0]
                known[new] = v if isinstance(v, Infinity) else v + node.amount
            continue

        if node.kind in ("min", "max"):
            if not sources:
                new = rw.emit(node.kind, (), tags=node.tags)
                rw.result[node.id] = new
                if node.kind == "max":
                    known[new] = 0  # const0: the lattice bottom
                continue
            if node.kind == "min":
                zeros = [s for s, v in zip(sources, values) if v == 0]
                if zeros:
                    # min(x, 0) = 0: alias the 0-valued source.
                    rw.result[node.id] = zeros[0]
                    continue
                kept = [
                    s for s, v in zip(sources, values)
                    if not isinstance(v, Infinity)
                ]
                if not kept:
                    rw.result[node.id] = _NEVER
                    continue
                if all(value_of(s) is not None for s in kept):
                    winner = min(kept, key=lambda s: (value_of(s), s))
                    rw.result[node.id] = winner
                    known.setdefault(winner, value_of(winner))
                    continue
                if len(kept) == 1:
                    rw.result[node.id] = kept[0]
                    continue
                rw.result[node.id] = rw.emit(
                    "min", tuple(kept), tags=node.tags
                )
                continue
            # max
            if any(isinstance(v, Infinity) for v in values):
                rw.result[node.id] = _NEVER
                continue
            kept = [s for s, v in zip(sources, values) if v != 0]
            if not kept:
                # max of all-0 sources is 0: alias any of them.
                rw.result[node.id] = sources[0]
                continue
            if all(value_of(s) is not None for s in kept):
                winner = max(kept, key=lambda s: (value_of(s), -s))
                rw.result[node.id] = winner
                continue
            if len(kept) == 1:
                rw.result[node.id] = kept[0]
                continue
            rw.result[node.id] = rw.emit("max", tuple(kept), tags=node.tags)
            continue

        # lt
        a, b = sources
        va, vb = values
        if vb == 0 or isinstance(va, Infinity):
            # Nothing strictly precedes 0; ∞ precedes nothing.
            rw.result[node.id] = _NEVER
        elif isinstance(vb, Infinity):
            rw.result[node.id] = a
        elif va is not None and vb is not None:
            rw.result[node.id] = a if va < vb else _NEVER
        else:
            rw.result[node.id] = rw.emit("lt", (a, b), tags=node.tags)
    return rw.finish()


def _folds_nothing(
    program: Program, params: Optional[Mapping[str, Time]]
) -> bool:
    """Pre-scan: would :func:`pass_fold_consts` re-emit *program* as is?

    Folding starts only at a ``const0`` (zero-source ``max``) or a
    param pinned to 0 or ``∞``; without either, the one rewrite left is
    a single-source min/max collapsing to a wire.  (Re-emitted min/max/
    lt nodes also take the default ``amount``.)
    """
    for node in program.nodes:
        kind = node.kind
        if kind == "param":
            if params is not None and node.name in params:
                pinned = params[node.name]
                if isinstance(pinned, Infinity) or pinned == 0:
                    return False
        elif kind in ("min", "max"):
            arity = len(node.sources)
            if arity == 1 or (arity == 0 and kind == "max"):
                return False
            if node.amount != 1:
                return False
        elif kind == "lt" and node.amount != 1:
            return False
    return _reemits_unchanged(program)


def _fuses_nothing(program: Program) -> bool:
    """Pre-scan: would :func:`pass_fuse_inc` re-emit *program* as is?"""
    nodes = program.nodes
    for node in nodes:
        if node.kind == "inc" and (
            node.amount == 0 or nodes[node.sources[0]].kind == "inc"
        ):
            return False
    return _reemits_unchanged(program)


def pass_fuse_inc(program: Program, *, params=None) -> Program:
    """Coalesce ``inc`` chains; a total delay of 0 collapses to a wire."""
    if _fuses_nothing(program):
        return program
    rw = _Rewriter(program)
    for node in program.nodes:
        if node.kind != "inc":
            rw.copy(node)
            continue
        src = rw.result[node.sources[0]]
        amount = node.amount
        if rw.nodes[src].kind == "inc":
            amount += rw.nodes[src].amount
            src = rw.nodes[src].sources[0]
        if amount == 0:
            rw.result[node.id] = src
        else:
            rw.result[node.id] = rw.emit(
                "inc", (src,), amount=amount, tags=node.tags
            )
    return rw.finish()


def pass_cse(program: Program, *, params=None) -> Program:
    """Merge structurally identical compute nodes.

    min/max keys normalize source order and multiplicity (both ops are
    commutative and idempotent); ``lt`` is neither, so its key is
    positional.  Terminals never merge — their names are binding keys.
    """
    rw = _Rewriter(program)
    for node in program.nodes:
        if node.is_terminal:
            rw.copy(node)
            continue
        sources = tuple(rw.result[s] for s in node.sources)
        if node.kind == "inc":
            key = ("inc", sources[0], node.amount)
        elif node.kind in ("min", "max"):
            key = (node.kind, tuple(sorted(set(sources))))
        else:
            key = ("lt", sources)
        rw.result[node.id] = rw.get_or_emit(
            key, node.kind, sources, amount=node.amount, tags=node.tags
        )
    return rw.finish()


#: Registered passes, in default pipeline order.
PASSES: "OrderedDict[str, Callable[..., Program]]" = OrderedDict(
    (
        ("canonicalize", pass_canonicalize),
        ("fold-consts", pass_fold_consts),
        ("fuse-inc", pass_fuse_inc),
        ("cse", pass_cse),
        ("dce", pass_dce),
    )
)

#: The default pipeline: every registered pass, registry order.
DEFAULT_PIPELINE: tuple[str, ...] = tuple(PASSES)


def pass_names() -> list[str]:
    """Registered pass names, in default pipeline order."""
    return list(PASSES)


# ---------------------------------------------------------------------------
# The pass manager
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassStats:
    """Node accounting for one pass application."""

    name: str
    iteration: int
    before_nodes: int
    after_nodes: int

    @property
    def removed(self) -> int:
        return self.before_nodes - self.after_nodes


@dataclass
class PipelineReport:
    """Pass-by-pass node counts for one :meth:`PassManager.run`."""

    stats: list[PassStats] = field(default_factory=list)
    iterations: int = 0

    @property
    def before_nodes(self) -> int:
        return self.stats[0].before_nodes if self.stats else 0

    @property
    def after_nodes(self) -> int:
        return self.stats[-1].after_nodes if self.stats else 0

    @property
    def removed(self) -> int:
        return self.before_nodes - self.after_nodes

    def by_pass(self) -> dict[str, int]:
        """Total nodes removed, per pass name, across all iterations."""
        totals: dict[str, int] = {}
        for entry in self.stats:
            totals[entry.name] = totals.get(entry.name, 0) + entry.removed
        return totals

    def describe(self) -> str:
        """The pass-by-pass node-count report (CLI and bench surface)."""
        lines = [
            f"pipeline: {self.before_nodes} -> {self.after_nodes} nodes "
            f"in {self.iterations} iteration(s)"
        ]
        for entry in self.stats:
            marker = f"-{entry.removed}" if entry.removed else "·"
            lines.append(
                f"  [{entry.iteration}] {entry.name:<14} "
                f"{entry.before_nodes:>5} -> {entry.after_nodes:<5} ({marker})"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class PassManager:
    """Runs a named pass pipeline over a Program to a fixpoint.

    *passes* selects and orders the pipeline (default: every registered
    pass); *params*, when given, additionally specializes ``param``
    cones in ``fold-consts`` to that binding — only sound when the
    resulting program is run under the same binding.  The pipeline
    repeats until the program fingerprint stops changing (or
    *max_iterations*), which is what makes optimization idempotent:
    re-running the manager on its own output is a no-op.
    """

    def __init__(
        self,
        passes: Optional[Sequence[str]] = None,
        *,
        params: Optional[Mapping[str, Time]] = None,
        max_iterations: int = 10,
    ):
        names = list(passes) if passes is not None else list(DEFAULT_PIPELINE)
        unknown = [n for n in names if n not in PASSES]
        if unknown:
            raise ValueError(
                f"unknown pass(es) {unknown}; registered: {pass_names()}"
            )
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.passes = tuple(names)
        self.params = dict(params) if params else None
        self.max_iterations = max_iterations

    def run(self, source: ProgramLike) -> tuple[Program, PipelineReport]:
        """Optimize *source*, returning ``(program, report)``."""
        program = ensure_program(source)
        report = PipelineReport()
        for iteration in range(1, self.max_iterations + 1):
            fingerprint = program.fingerprint()
            for name in self.passes:
                before = len(program)
                program = PASSES[name](program, params=self.params)
                report.stats.append(
                    PassStats(
                        name=name,
                        iteration=iteration,
                        before_nodes=before,
                        after_nodes=len(program),
                    )
                )
            report.iterations = iteration
            if program.fingerprint() == fingerprint:
                break
        return program, report


def optimize_program(
    source: ProgramLike,
    *,
    passes: Optional[Sequence[str]] = None,
    params: Optional[Mapping[str, Time]] = None,
    max_iterations: int = 10,
) -> tuple[Program, PipelineReport]:
    """One-shot :class:`PassManager` run with the default pipeline."""
    manager = PassManager(passes, params=params, max_iterations=max_iterations)
    return manager.run(source)
