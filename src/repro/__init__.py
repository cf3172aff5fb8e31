"""repro — Space-Time Algebra: A Model for Neocortical Computation.

A full reimplementation of the computing model of J. E. Smith's ISCA 2018
paper: the space-time algebra over ``N0∞``, feedforward space-time
computing networks, constructive functional completeness (min/lt/inc),
temporal neural network components (SRM0 neurons via sorting networks,
micro-weight synapses, winner-take-all inhibition), STDP and tempotron
learning, temporal coding, and generalized race logic with a gate-level
digital simulator.

Quickstart::

    from repro.core import INF, NormalizedTable, synthesize
    from repro.network import evaluate_vector

    table = NormalizedTable({(0, 1, 2): 3, (1, 0, INF): 2, (2, 2, 0): 2})
    net = synthesize(table)
    evaluate_vector(net, (3, 4, 5))   # {'y': 6}
"""

import importlib

# ``core`` first, then ``network``: ``core/__init__`` reaches into
# ``repro.network`` (through ``core.synthesis``), and the import cycles
# between ``network`` and ``obs`` / ``runtime`` / ``ir`` resolve only
# when ``network`` is entered that way.  Every other subpackage loads
# on first attribute access (``repro.serve``, ``repro.testing``, ...),
# so a process that serves models never pays for the analysis, testing
# or race-logic code.
from . import core, network

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "coding",
    "core",
    "ir",
    "kernels",
    "learning",
    "network",
    "neuron",
    "obs",
    "racelogic",
    "runtime",
    "serve",
    "testing",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__ and not name.startswith("__"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
