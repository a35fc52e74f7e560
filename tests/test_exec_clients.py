"""Tests for the execution-client layer (repro.exec).

Covers the client registry, the in-process and multiprocessing
backends, the pipelined :class:`BatchScheduler`, the engine running
bit-identically through every client, and the ``parallel_map``
migration.
"""

from __future__ import annotations

import time

import pytest

from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.exec import (
    BatchScheduler,
    InProcessClient,
    MultiprocessingClient,
    available_clients,
    create_client,
    parallel_map,
    usable_cpu_count,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(8)]


@pytest.fixture(scope="module")
def serial_ufc(problems):
    return [o.result.ufc for o in HorizonEngine("centralized").run(problems)]


def _square(x):
    return x * x


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _boom():
    raise ValueError("task exploded")


def _maybe_boom(x):
    if x == 1:
        raise ValueError("poisoned")
    return x


class _LossyClient:
    """Synchronous fake whose failed tasks raise *at harvest*, with the
    exception attributed to its task id — the shape worker loss takes
    on the socket client."""

    name = "lossy"
    asynchronous = False
    workers = 1

    def __init__(self):
        self._next_id = 0
        self._done = []

    def submit(self, fn, /, *args):
        task_id = self._next_id
        self._next_id += 1
        try:
            self._done.append((task_id, fn(*args), None))
        except Exception as exc:
            self._done.append((task_id, None, exc))
        return task_id

    def wait_next(self, timeout_s=None):
        if not self._done:
            return None
        task_id, value, exc = self._done.pop(0)
        if exc is not None:
            exc.task_id = task_id
            raise exc
        return task_id, value

    def discard(self, task_id):
        self._done = [item for item in self._done if item[0] != task_id]

    def num_pending(self):
        return len(self._done)

    def close(self):
        self._done.clear()


class TestRegistry:
    def test_builtins_registered(self):
        names = available_clients()
        assert {"in-process", "mp", "socket"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown execution client"):
            create_client("does-not-exist")

    def test_instance_passthrough(self):
        client = InProcessClient()
        assert create_client(client) is client

    def test_bad_spec_type(self):
        with pytest.raises(TypeError):
            create_client(42)


class TestInProcessClient:
    def test_runs_at_submit_and_delivers_in_order(self):
        client = InProcessClient()
        ids = [client.submit(_square, x) for x in (2, 3, 4)]
        assert client.num_pending() == 3
        got = [client.wait_next() for _ in range(3)]
        assert got == [(ids[0], 4), (ids[1], 9), (ids[2], 16)]
        assert client.wait_next() is None

    def test_exceptions_propagate_from_submit(self):
        client = InProcessClient()
        with pytest.raises(ValueError, match="task exploded"):
            client.submit(_boom)

    def test_discard_and_close(self):
        client = InProcessClient()
        first = client.submit(_square, 1)
        client.submit(_square, 2)
        client.discard(first)
        assert client.num_pending() == 1
        client.close()
        assert client.num_pending() == 0


class TestMultiprocessingClient:
    def test_parity_and_completion_harvest(self):
        client = MultiprocessingClient(workers=2, oversubscribe=True)
        try:
            ids = [client.submit(_square, x) for x in range(6)]
            results = {}
            while client.num_pending():
                task_id, value = client.wait_next()
                results[task_id] = value
            assert [results[i] for i in ids] == [x * x for x in range(6)]
        finally:
            client.close()

    def test_clamps_to_usable_cpus(self):
        client = MultiprocessingClient(workers=usable_cpu_count() + 7)
        try:
            assert client.workers <= usable_cpu_count()
        finally:
            client.close()

    def test_wait_timeout_returns_none(self):
        client = MultiprocessingClient(workers=1, oversubscribe=True)
        try:
            task_id = client.submit(_sleepy, 0.5)
            assert client.wait_next(timeout_s=0.01) is None
            client.discard(task_id)
        finally:
            client.close()


class TestBatchScheduler:
    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(InProcessClient(), max_pending=0)

    def test_pipelined_order_and_depth(self):
        client = MultiprocessingClient(workers=2, oversubscribe=True)
        try:
            scheduler = BatchScheduler(client, max_pending=2)
            results = scheduler.map(_square, [(x,) for x in range(9)])
            assert results == [x * x for x in range(9)]
            assert 1 <= scheduler.pending_max_observed <= 2
        finally:
            client.close()

    def test_emits_telemetry_and_metrics(self):
        # Every submit and every harvest lands in the registry: one
        # batch count per submit, the peak depth, and the live depth
        # back at zero once both batches are harvested.
        metrics = MetricsRegistry()
        scheduler = BatchScheduler(InProcessClient(), metrics=metrics)
        scheduler.map(_square, [(1,), (2,)])
        counter = metrics.counter(
            "repro_exec_batches_total", client="in-process"
        )
        assert counter.value == 2
        peak = metrics.gauge(
            "repro_exec_pending_batches_peak", client="in-process"
        )
        assert peak.value == scheduler.pending_max_observed == 2
        live = metrics.gauge("repro_exec_pending_batches", client="in-process")
        assert live.value == 0

    def test_pending_gauge_walks_back_to_zero_on_harvest(self):
        # The live depth gauge must be updated on the harvest path too,
        # not just at submit: after map() returns, every batch has been
        # harvested and the gauge reads 0 while the peak gauge keeps the
        # high-water mark.
        metrics = MetricsRegistry()
        client = MultiprocessingClient(workers=2, oversubscribe=True)
        try:
            scheduler = BatchScheduler(client, max_pending=2, metrics=metrics)
            scheduler.map(_square, [(x,) for x in range(6)])
        finally:
            client.close()
        live = metrics.gauge("repro_exec_pending_batches", client=client.name)
        peak = metrics.gauge(
            "repro_exec_pending_batches_peak", client=client.name
        )
        assert live.value == 0
        assert 1 <= peak.value <= 2
        assert peak.value == scheduler.pending_max_observed

    def test_metrics_attribute_accepts_none(self):
        # BatchScheduler.metrics is typed MetricsRegistry | None; the
        # None default must keep the whole metrics path inert.
        scheduler = BatchScheduler(InProcessClient())
        assert scheduler.metrics is None
        assert scheduler.map(_square, [(3,)]) == [9]

    def test_on_result_sees_every_harvest_in_harvest_order(self):
        seen = []
        scheduler = BatchScheduler(InProcessClient())
        results = scheduler.map(
            _square,
            [(x,) for x in range(4)],
            on_result=lambda task, result, depth: seen.append(
                (task[0], result, depth)
            ),
        )
        assert results == [0, 1, 4, 9]
        assert [(t, r) for t, r, _ in seen] == [(x, x * x) for x in range(4)]
        assert all(depth >= 0 for _, _, depth in seen)

    def test_on_error_absorbs_attributed_failures(self):
        # A harvest exception that carries a task_id can be absorbed
        # into a stand-in result instead of killing the run.
        metrics = MetricsRegistry()
        seen = []
        scheduler = BatchScheduler(_LossyClient(), metrics=metrics)
        results = scheduler.map(
            _maybe_boom,
            [(0,), (1,), (2,)],
            on_result=lambda task, result, depth: seen.append(result),
            on_error=lambda task, exc: f"lost:{task[0]}",
        )
        assert results == [0, "lost:1", 2]
        assert scheduler.errored_batches == 1
        # The stand-in rode the on_result hook like any other harvest.
        assert "lost:1" in seen
        assert (
            metrics.counter(
                "repro_exec_batch_errors_total", client="lossy"
            ).value
            == 1
        )

    def test_on_error_absent_reraises(self):
        scheduler = BatchScheduler(_LossyClient())
        with pytest.raises(ValueError, match="poisoned"):
            scheduler.map(_maybe_boom, [(1,)])


class TestEngineThroughClients:
    def test_bit_identical_across_clients(self, problems, serial_ufc):
        for spec in ("in-process", "mp"):
            engine = HorizonEngine("centralized", workers=2, client=spec)
            outcomes = engine.run(problems)
            assert [o.result.ufc for o in outcomes] == serial_ufc
            summary = engine.last_summary
            assert summary.client == spec
            assert summary.executor == spec
            assert summary.decision == f"client:{spec}"

    def test_instance_client_stays_open(self, problems, serial_ufc):
        client = MultiprocessingClient(workers=2, oversubscribe=True)
        try:
            engine = HorizonEngine("centralized", client=client, max_pending=2)
            assert [
                o.result.ufc for o in engine.run(problems)
            ] == serial_ufc
            # The engine must not close a caller-owned client.
            assert client.submit(_square, 3) is not None
            assert client.wait_next()[1] == 9
            assert engine.last_summary.max_pending_observed <= 2
        finally:
            client.close()

    def test_default_lanes_keep_legacy_names(self, problems):
        serial = HorizonEngine("centralized")
        serial.run(problems)
        assert serial.last_summary.executor == "serial"
        assert serial.last_summary.client == "in-process"
        pool = HorizonEngine("centralized", workers=2, oversubscribe=True)
        pool.run(problems)
        assert pool.last_summary.executor == "pool"
        assert pool.last_summary.client == "mp"

    def test_max_pending_validation(self):
        with pytest.raises(ValueError):
            HorizonEngine("centralized", max_pending=0)

    def test_warm_start_runs_through_client_and_store(self, problems, tmp_path):
        # Slots chain inside the solver, so a warm run goes through a
        # client and a store like any batched run; the re-run resolves
        # every slot from disk.
        engine = HorizonEngine("centralized-warm", client="in-process", store=tmp_path)
        outcomes = engine.run(problems[:2], warm_start=True)
        assert all(o.ok for o in outcomes)
        assert engine.last_summary.executor == "in-process-batch"
        assert engine.last_summary.decision == "client:in-process"
        again = engine.run(problems[:2], warm_start=True)
        assert engine.last_summary.store_hits == 2
        assert [o.result.ufc for o in again] == [o.result.ufc for o in outcomes]


class TestParallelMapMigration:
    def test_exec_parallel_map_parity(self):
        items = list(range(7))
        assert parallel_map(_square, items, workers=2) == [
            x * x for x in items
        ]
        assert parallel_map(
            _square, items, workers=2, client="mp", max_pending=2
        ) == [x * x for x in items]

    def test_named_client_is_closed_instance_stays_open(self):
        client = InProcessClient()
        assert parallel_map(_square, [1, 2], client=client) == [1, 4]
        assert client.submit(_square, 5) is not None  # still usable
        client.close()

    def test_engine_reexport_is_the_exec_map(self):
        from repro.engine import parallel_map as engine_map

        assert engine_map is parallel_map
