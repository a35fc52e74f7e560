"""Socket/RPC client loopback smoke tests.

Spawns real worker processes that connect back over TCP, solves a
24-slot horizon through them, and checks bit-exact parity with the
serial engine — the same flow CI runs as its multi-node smoke.  Also
covers remote exception propagation, externally launched workers
(``serve_worker`` — what ``repro exec-worker`` calls), and clean
shutdown.
"""

from __future__ import annotations

import os
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.exec import SocketClient, serve_worker
from repro.exec.store import problem_digest
from repro.obs import MetricsRegistry
from repro.obs.ledger import load_run
from repro.sim.simulator import Simulator

SLOTS = 24


def _free_port() -> int:
    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(SLOTS)]


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("remote kaboom")


class TestSocketLoopback:
    def test_24_slot_horizon_matches_serial(self, problems):
        serial = [
            o.result.ufc for o in HorizonEngine("centralized").run(problems)
        ]
        client = SocketClient(workers=2)
        try:
            engine = HorizonEngine("centralized", client=client, max_pending=4)
            outcomes = engine.run(problems)
            assert [o.result.ufc for o in outcomes] == serial
            summary = engine.last_summary
            assert summary.executor == "socket"
            assert summary.client == "socket"
            assert summary.decision == "client:socket"
            assert summary.failed_slots == 0
        finally:
            client.close()

    def test_remote_exception_propagates_with_traceback_note(self):
        client = SocketClient(workers=1)
        try:
            client.submit(_boom)
            with pytest.raises(RuntimeError, match="remote kaboom") as info:
                client.wait_next()
            notes = getattr(info.value, "__notes__", [])
            assert any("remote worker traceback" in n for n in notes)
            # The worker survives a task failure and keeps serving.
            client.submit(_square, 6)
            assert client.wait_next()[1] == 36
        finally:
            client.close()

    def test_queueing_beyond_worker_count(self):
        client = SocketClient(workers=1)
        try:
            ids = [client.submit(_square, x) for x in range(5)]
            results = {}
            while client.num_pending():
                got = client.wait_next(timeout_s=10.0)
                assert got is not None
                results[got[0]] = got[1]
            assert [results[i] for i in ids] == [x * x for x in range(5)]
        finally:
            client.close()

    def test_close_is_idempotent_and_joins_workers(self):
        client = SocketClient(workers=2)
        procs = list(client._procs)
        client.close()
        client.close()
        assert all(not p.is_alive() for p in procs)


class TestExternalWorkers:
    def test_serve_worker_joins_an_external_fleet(self):
        # Pick a port up front so the worker thread can retry-connect
        # while the client's constructor blocks in accept().
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        def worker():
            for _ in range(100):
                try:
                    serve_worker("127.0.0.1", port)
                    return
                except OSError:
                    time.sleep(0.05)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        client = SocketClient(
            workers=0, external=1, port=port, accept_timeout_s=10.0
        )
        try:
            assert client.workers == 1
            assert client.submit(_square, 7) is not None
            assert client.wait_next(timeout_s=10.0)[1] == 49
        finally:
            client.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_fleet_timeout_raises(self):
        with pytest.raises(TimeoutError, match="workers connected"):
            SocketClient(workers=0, external=1, accept_timeout_s=0.2)

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            SocketClient(workers=0, external=0)


class _KamikazeSolver:
    """Delegates to the centralized solver, but hard-kills its own
    process (``os._exit``, no cleanup, no result) on one poisoned slot
    — a deterministic stand-in for a worker machine dying mid-batch."""

    supports_warm_start = False
    name = "kamikaze"

    def __init__(self, die_digest: str) -> None:
        self.die_digest = die_digest

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None, warm=None):
        if problem_digest(problem, self.name) == self.die_digest:
            os._exit(1)
        from repro.engine.registry import create_solver

        return create_solver("centralized").solve(problem)


class TestWorkerDeathTelemetry:
    def test_lost_batch_is_structured_and_survivor_telemetry_merges(
        self, problems, tmp_path
    ):
        # Chunks of 6 over 24 slots: the worker holding slots 6-11 dies
        # at slot 8.  The run must finish on the surviving worker, the
        # lost batch must come back as per-slot WorkerLostError
        # outcomes, and every completed slot's worker metrics must still
        # be derived in the parent from its telemetry.
        solver = _KamikazeSolver(problem_digest(problems[8], "kamikaze"))
        metrics = MetricsRegistry()
        client = SocketClient(workers=2)
        try:
            engine = HorizonEngine(
                solver,
                client=client,
                chunk_size=6,
                metrics=metrics,
                ledger=tmp_path,
            )
            outcomes = engine.run(problems)
        finally:
            client.close()

        lost = [o for o in outcomes if o.error is not None]
        assert [o.index for o in lost] == list(range(6, 12))
        assert all(o.error_type == "WorkerLostError" for o in lost)
        assert all(o.result is None for o in lost)
        completed = [o for o in outcomes if o.error is None]
        assert len(completed) == 18
        assert all(o.telemetry.host is not None for o in completed)
        assert all(o.telemetry.host is None for o in lost)
        assert engine.last_summary.failed_slots == 6
        # The fleet shrank but kept serving.
        assert client.workers == 1

        # Worker metrics cover exactly the completed slots: the
        # parent's stand-ins for the lost batch name no host.
        slots_total = sum(
            value
            for name, _, value in metrics.samples()
            if name == "repro_worker_slots_total"
        )
        assert slots_total == 18

        # The ledger recorded the whole story, structured.
        run = load_run(engine.last_ledger_path)
        assert run.finalized
        assert len(run.slots) == SLOTS
        failed = run.failed
        assert sorted(s["index"] for s in failed) == list(range(6, 12))
        assert all(s["error_type"] == "WorkerLostError" for s in failed)


class TestWeekAcceptance:
    def test_week_over_external_workers_ledger_accounts_solve_wall(
        self, small_model, tmp_path
    ):
        # The PR's acceptance run: a 168-slot week through the socket
        # client backed by two external `repro exec-worker` processes.
        # The finalized ledger's merged worker metrics must account for
        # >= 90% of each worker's solve wall time, and `repro top
        # --replay` must render the run from the manifest alone.
        from repro.traces.datasets import default_bundle

        bundle = default_bundle(hours=168, seed=2014)
        sim = Simulator(small_model, bundle)
        problems = [sim.problem_for_slot(t, HYBRID) for t in range(168)]

        port = _free_port()
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # `repro exec-worker` connects once; retry until the parent's
        # listener is up (the SocketClient constructor blocks in accept).
        wrapper = (
            "import sys, time\n"
            "from repro.cli import main\n"
            "for _ in range(200):\n"
            f"    try:\n"
            f"        sys.exit(main(['exec-worker', '--connect', "
            f"'127.0.0.1:{port}']))\n"
            "    except OSError:\n"
            "        time.sleep(0.1)\n"
            "sys.exit(3)\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", wrapper], env=env)
            for _ in range(2)
        ]
        metrics = MetricsRegistry()
        client = SocketClient(
            workers=0, external=2, port=port, accept_timeout_s=60.0
        )
        try:
            engine = HorizonEngine(
                "centralized",
                client=client,
                chunk_size=7,
                max_pending=4,
                metrics=metrics,
                ledger=tmp_path,
            )
            outcomes = engine.run(problems)
        finally:
            client.close()
        for proc in procs:
            assert proc.wait(timeout=20.0) == 0

        assert len(outcomes) == 168
        assert engine.last_summary.failed_slots == 0
        run = load_run(engine.last_ledger_path)
        assert run.finalized
        assert len(run.slots) == 168

        # Per-worker accounting: merged `repro_worker_slot_solve_seconds`
        # sums vs the ledger's per-worker solve wall.
        merged: dict[str, float] = {}
        for name, labels, value in metrics.samples():
            if name == "repro_worker_slot_solve_seconds_sum":
                merged[dict(labels)["worker"]] = value
        ledger_wall: dict[str, float] = {}
        for slot in run.slots:
            worker = str(slot["worker"])
            ledger_wall[worker] = ledger_wall.get(worker, 0.0) + slot["wall_s"]
        assert len(ledger_wall) == 2, "both external workers solved slots"
        assert str(os.getpid()) not in ledger_wall
        for worker, wall in ledger_wall.items():
            assert merged.get(worker, 0.0) >= 0.9 * wall

        # The dashboard replays the run from the manifest alone.
        assert (
            main(
                [
                    "top",
                    run.run_id,
                    "--ledger-dir",
                    str(tmp_path),
                    "--replay",
                    "--frames",
                    "4",
                ]
            )
            == 0
        )


class TestExecWorkerCli:
    def test_bad_connect_spec_is_rejected(self, capsys):
        from repro.cli import main

        assert main(["exec-worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
