"""The model registry serializes and verifies; it never compiles.

Lowering, optimizing and warming a served model happen in the worker
pool only (process or inline), once per worker.
"""

import asyncio
from unittest import mock

import pytest

from repro.ir import passes as ir_passes
from repro.ir import program as ir_program
from repro.network import serialize
from repro.network.graph import Network, NetworkError
from repro.serve import registry as registry_mod
from repro.serve.batcher import BatchPolicy
from repro.serve.demo import demo_column, demo_volleys
from repro.serve.pool import InlineWorkerPool
from repro.serve.protocol import encode_line
from repro.serve.registry import ModelRegistry
from repro.serve.server import run_server_async
from repro.serve.service import TNNService
from repro.testing.served import check_served


def _refuse(*_args, **_kwargs):
    raise AssertionError("the registry must not compile models")


@pytest.fixture()
def no_compiling():
    """``lower`` and ``optimize_program`` raise, wherever looked up."""
    with mock.patch.object(registry_mod, "lower", _refuse), mock.patch.object(
        registry_mod, "optimize_program", _refuse
    ), mock.patch.object(ir_program, "lower", _refuse), mock.patch.object(
        ir_passes, "optimize_program", _refuse
    ):
        yield


class TestRegisterDoesNotCompile:
    def test_register_never_lowers_or_optimizes(self, no_compiling):
        registry = ModelRegistry()
        network, _volley = demo_column(0, smoke=True)
        entry = registry.register(network, name="demo")
        assert entry.model_id == network.fingerprint()
        assert serialize.loads(entry.document).fingerprint() == entry.model_id
        assert not hasattr(entry, "program")

    def test_structural_twins_dedup(self, no_compiling):
        registry = ModelRegistry()
        network, _volley = demo_column(0, smoke=True)
        twin = Network(network.nodes, network.outputs, name="another-name")
        assert twin.fingerprint() == network.fingerprint()
        first = registry.register(network, name="a")
        second = registry.register(twin, name="b")
        assert second is first
        assert len(registry) == 1
        assert registry.aliases() == {"a": first.model_id, "b": first.model_id}

    def test_fingerprint_that_does_not_round_trip_fails_loudly(self):
        registry = ModelRegistry()
        network, _volley = demo_column(0, smoke=True)
        other, _volley = demo_column(1, smoke=True)
        with mock.patch.object(
            registry_mod.serialize, "loads", lambda _document: other
        ):
            with pytest.raises(NetworkError, match="round-trip"):
                registry.register(network)
        assert len(registry) == 0


#: The ``models`` reply for the demo column (seed 0) aliased ``demo``
#: plus the unaliased seed-1 column — byte for byte what the server
#: answered when the registry still compiled each model itself.
MODELS_REPLY = (
    b'{"aliases":{"demo":"6490e84a42926e023b1c00e0ef1d1fc67cde2a832ec5b217'
    b'18c76417d4321d17"},"models":[{"id":"6490e84a42926e023b1c00e0ef1d1fc6'
    b'7cde2a832ec5b21718c76417d4321d17","inputs":["x1","x2"],"name":"demo"'
    b',"nodes":122,"optimized":true,"outputs":["y"],"params":[]},{"id":"28'
    b'b12e02b3e6791138660f7c49b9459d477380a75a4714386e35c9a4124ae1bb","inp'
    b'uts":["x1","x2"],"name":"srm0-col-seed1","nodes":122,"optimized":tru'
    b'e,"outputs":["y"],"params":[]}],"ok":true}\n'
)


def _models_reply(pool_factory) -> bytes:
    async def main():
        registry = ModelRegistry()
        registry.register(demo_column(0, smoke=True)[0], name="demo")
        registry.register(demo_column(1, smoke=True)[0])
        service = TNNService(
            registry,
            pool_factory(registry.documents()),
            policy=BatchPolicy(max_batch=8, max_wait_s=0.001),
        )
        ready = asyncio.get_running_loop().create_future()
        task = asyncio.ensure_future(
            run_server_async(service, port=0, ready=ready)
        )
        reader, writer = await asyncio.open_connection("127.0.0.1", await ready)
        try:
            writer.write(encode_line({"op": "models", "id": 7}))
            await writer.drain()
            return await reader.readline()
        finally:
            writer.write(encode_line({"op": "shutdown"}))
            await writer.drain()
            await reader.readline()
            writer.close()
            await asyncio.wait_for(task, timeout=15)

    return asyncio.run(main())


class TestModelsOp:
    def test_reply_is_byte_unchanged(self):
        assert _models_reply(InlineWorkerPool) == MODELS_REPLY

    def test_optimized_reports_the_pool_setting(self):
        reply = _models_reply(
            lambda documents: InlineWorkerPool(documents, optimize=False)
        )
        assert reply == MODELS_REPLY.replace(
            b'"optimized":true', b'"optimized":false'
        )


class TestServedStaysByteIdentical:
    """Worker crashes and retries are covered by test_conformance_served."""

    @pytest.mark.parametrize("optimize", [True, False])
    def test_inline_pool(self, optimize):
        network, _volley = demo_column(0, smoke=True)
        registry = ModelRegistry()
        registry.register(network, name="demo")
        service = TNNService(
            registry,
            InlineWorkerPool(registry.documents(), optimize=optimize),
            policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
        )
        try:
            volleys = demo_volleys(len(network.input_ids), 40, seed=4)
            report = check_served(service, "demo", volleys)
            assert report.byte_identical and report.ok == 40, report.summary()
        finally:
            service.close()

    def test_inline_pool_verifies_the_fingerprint(self):
        network, _volley = demo_column(0, smoke=True)
        document = serialize.dumps(network, indent=None)
        with pytest.raises(ValueError, match="does not match"):
            InlineWorkerPool({"0" * 64: document})
