"""Pluggable execution clients for elastic horizon solving.

The engine's question — "run these picklable tasks, give me results as
they finish" — is independent of *where* the tasks run.  An
:class:`ExecutionClient` answers it behind a four-method surface
modeled on ELFI's client architecture:

- :meth:`~ExecutionClient.submit` hands a task over and returns
  immediately with a task id (asynchronous clients start it in the
  background; the in-process client runs it on the spot);
- :meth:`~ExecutionClient.wait_next` blocks until *some* submitted
  task completes and returns ``(task_id, result)`` — completion order,
  not submission order, which is what lets a scheduler keep a window
  of pending batches in flight and harvest them as they land;
- :meth:`~ExecutionClient.discard` abandons a task whose result is no
  longer wanted (e.g. it blew its harvest deadline) — a late result is
  dropped on arrival instead of being delivered;
- :meth:`~ExecutionClient.close` releases workers.

Three clients ship, behind a string registry
(:func:`create_client` / :func:`register_client`):

- ``"in-process"`` — runs each task synchronously at submit time; the
  zero-overhead serial backend.
- ``"mp"`` — a process pool (pinned multiprocessing context, worker
  count clamped to usable CPUs) wrapped in the async surface; the
  single-node parallel backend.
- ``"socket"`` — length-prefixed pickle RPC over TCP.  By default it
  spawns loopback worker processes, but any machine that can reach the
  client's listen address can contribute workers
  (``python -m repro exec-worker --connect HOST:PORT``), which is the
  multi-node sharding path.

Every client is *deterministic where it matters*: task results are
keyed by id, so callers reassemble submission order regardless of
completion order, and when several results are ready the lowest task
id is delivered first.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import socket
import struct
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Callable, Protocol, runtime_checkable

__all__ = [
    "ExecutionClient",
    "InProcessClient",
    "MultiprocessingClient",
    "SocketClient",
    "WorkerLostError",
    "available_clients",
    "create_client",
    "register_client",
    "serve_worker",
    "mp_context",
    "usable_cpu_count",
]


class WorkerLostError(ConnectionError):
    """A worker died (or its connection broke) while holding a task.

    Raised from :meth:`SocketClient.wait_next` for each task whose
    worker vanished mid-flight.  The exception carries ``task_id`` so a
    scheduler can attribute the loss to a specific batch and substitute
    a structured per-slot failure instead of killing the run; surviving
    workers keep serving.
    """

    def __init__(self, message: str, task_id: int | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    Containers and batch schedulers routinely hand out fewer cores
    than ``os.cpu_count()`` reports; the scheduling affinity mask is
    the honest number where the platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def mp_context() -> multiprocessing.context.BaseContext:
    """The pinned multiprocessing context for every pool in the library.

    ``fork`` where the platform offers it (workers inherit the loaded
    modules, so startup is cheap and deterministic); ``spawn``
    elsewhere.  Pinning keeps behavior stable across Python versions
    instead of drifting with the platform default.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@runtime_checkable
class ExecutionClient(Protocol):
    """The pluggable task-execution interface.

    Attributes:
        name: registry/display name.
        asynchronous: True when :meth:`submit` returns before the task
            runs (so a fleet supervisor can resubmit or hedge it); the
            in-process client is synchronous and reports False.
        workers: parallel task capacity (1 for in-process).
    """

    name: str
    asynchronous: bool
    workers: int

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> int:
        """Start ``fn(*args)`` and return its task id immediately."""
        ...

    def wait_next(self, timeout_s: float | None = None) -> tuple[int, Any] | None:
        """Block until a submitted task completes; ``(task_id, result)``.

        Returns None if ``timeout_s`` elapses first or nothing is
        pending.  A task that raised re-raises here.
        """
        ...

    def discard(self, task_id: int) -> None:
        """Abandon a pending task; its eventual result is dropped."""
        ...

    def num_pending(self) -> int:
        """Tasks submitted but not yet harvested (or discarded)."""
        ...

    def close(self) -> None:
        """Release workers.  Idempotent."""
        ...


class InProcessClient:
    """Synchronous client: each task runs at submit time, in-process.

    The serial backend.  ``wait_next`` never blocks — results are
    buffered at submission and delivered in task-id (= submission)
    order, so a scheduler drains them exactly as a plain loop would.
    Exceptions raised by a task propagate from :meth:`submit` itself
    (there is no later point to surface them).
    """

    name = "in-process"
    asynchronous = False
    workers = 1
    start_method: str | None = None

    def __init__(self, workers: int = 1, oversubscribe: bool = False) -> None:
        # Accepted for registry-signature uniformity; an in-process
        # client is single-worker by construction.
        del workers, oversubscribe
        self._next_id = 0
        self._done: deque[tuple[int, Any]] = deque()

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> int:
        """Run ``fn(*args)`` now; its result waits in the done queue."""
        task_id = self._next_id
        self._next_id += 1
        self._done.append((task_id, fn(*args)))
        return task_id

    def wait_next(self, timeout_s: float | None = None) -> tuple[int, Any] | None:
        """The oldest buffered ``(task_id, result)``, or None."""
        del timeout_s
        return self._done.popleft() if self._done else None

    def discard(self, task_id: int) -> None:
        """Drop a buffered result (already computed; just unqueued)."""
        self._done = deque(item for item in self._done if item[0] != task_id)

    def num_pending(self) -> int:
        """Buffered results not yet delivered."""
        return len(self._done)

    def close(self) -> None:
        """Drop any undelivered results.  Idempotent."""
        self._done.clear()


class MultiprocessingClient:
    """Process-pool client with the library's pinned pool policy.

    One place owns the knobs every pool in the library used to copy:
    the multiprocessing start method is pinned (:func:`mp_context`)
    and the worker count is clamped to the CPUs this process may use
    (``oversubscribe=True`` disables the clamp — benchmarks measure
    the penalty with it, tests exercise real pools on 1-CPU CI).
    """

    name = "mp"
    asynchronous = True

    def __init__(self, workers: int | None = None, oversubscribe: bool = False) -> None:
        usable = usable_cpu_count()
        requested = usable if workers is None else int(workers)
        if requested < 1:
            raise ValueError(f"workers must be >= 1, got {requested}")
        self.workers = requested if oversubscribe else max(1, min(requested, usable))
        ctx = mp_context()
        self.start_method: str | None = ctx.get_start_method()
        self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)
        self._futures: dict[int, Future] = {}
        self._next_id = 0
        self._closed = False

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> int:
        """Queue ``fn(*args)`` on the pool; returns its task id."""
        task_id = self._next_id
        self._next_id += 1
        self._futures[task_id] = self._pool.submit(fn, *args)
        return task_id

    def wait_next(self, timeout_s: float | None = None) -> tuple[int, Any] | None:
        """Block up to ``timeout_s`` for a completion; None on timeout.

        A task that raised re-raises here, exactly as its future
        would.
        """
        if not self._futures:
            return None
        done, _ = wait(
            self._futures.values(), timeout=timeout_s, return_when=FIRST_COMPLETED
        )
        if not done:
            return None
        # Deliver the lowest ready task id so same-instant completions
        # drain deterministically.
        ready = min(tid for tid, fut in self._futures.items() if fut in done)
        future = self._futures.pop(ready)
        try:
            return ready, future.result()
        except BaseException as exc:
            # Attribute the failure so schedulers can absorb it per-task
            # (a BrokenProcessPool fails every future; each re-raise
            # names the task it belonged to).
            exc.task_id = ready
            raise

    def discard(self, task_id: int) -> None:
        """Abandon a pending task; a late result is dropped on arrival."""
        future = self._futures.pop(task_id, None)
        if future is not None:
            # A running task cannot be preempted; dropping the handle
            # means its late result is garbage-collected on arrival.
            future.cancel()

    def num_pending(self) -> int:
        """Submitted tasks not yet harvested."""
        return len(self._futures)

    def close(self) -> None:
        """Shut the pool down (waits for running tasks).  Idempotent."""
        if not self._closed:
            self._closed = True
            self._futures.clear()
            self._pool.shutdown(wait=True, cancel_futures=True)


# -- socket/RPC client --------------------------------------------------------

_FRAME = struct.Struct(">Q")


def _send_msg(conn: socket.socket, payload: Any) -> None:
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    conn.sendall(_FRAME.pack(len(data)) + data)


def _recv_exactly(conn: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def _recv_msg(conn: socket.socket) -> Any:
    (length,) = _FRAME.unpack(_recv_exactly(conn, _FRAME.size))
    return pickle.loads(_recv_exactly(conn, length))


def _picklable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def serve_worker(host: str, port: int) -> None:
    """Connect to a :class:`SocketClient` and serve tasks until told to stop.

    The remote-worker entry point: run it on any machine that can
    reach the client's listen address (``python -m repro exec-worker
    --connect HOST:PORT``) and the client shards batches onto it
    exactly as onto its loopback workers.  Returns when the client
    sends a stop message or closes the connection.
    """
    with socket.create_connection((host, port)) as conn:
        while True:
            try:
                message = _recv_msg(conn)
            except (ConnectionError, EOFError):
                return
            if message[0] == "stop":
                return
            if message[0] == "ping":
                # Liveness probe: answered between tasks (the loop is
                # serial, so a busy worker's pong waits — which is why
                # the client only pings idle connections).
                _send_msg(conn, ("pong",))
                continue
            _, task_id, fn, args = message
            try:
                _send_msg(conn, ("ok", task_id, fn(*args)))
            except Exception as exc:  # noqa: BLE001 - shipped to the client
                _send_msg(
                    conn,
                    (
                        "err",
                        task_id,
                        _picklable_exception(exc),
                        traceback.format_exc(),
                    ),
                )


def _spawned_worker(host: str, port: int) -> None:  # pragma: no cover - subprocess
    serve_worker(host, port)


class SocketClient:
    """Length-prefixed pickle RPC over TCP, one task per worker in flight.

    Args:
        workers: loopback worker processes to spawn (each connects
            back over TCP, so the full RPC path is exercised even
            locally).  Unlike the mp client this is *not* clamped to
            usable CPUs — worker processes may live on other machines,
            so the operator sizes the fleet.
        external: additional connections to wait for from externally
            launched workers (``serve_worker`` /
            ``repro exec-worker``); the client blocks at construction
            until all have joined.
        host / port: listen address (port 0 picks a free port; the
            bound address is exposed as :attr:`address`).
        accept_timeout_s: how long to wait for the full fleet.
        oversubscribe: accepted for registry-signature uniformity
            (socket fleets are explicitly sized); ignored.
    """

    name = "socket"
    asynchronous = True

    def __init__(
        self,
        workers: int = 2,
        external: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        accept_timeout_s: float = 30.0,
        oversubscribe: bool = False,
    ) -> None:
        del oversubscribe
        if workers < 0 or external < 0 or workers + external < 1:
            raise ValueError(
                f"need at least one worker, got workers={workers} "
                f"external={external}"
            )
        self._listener = socket.create_server((host, port), backlog=workers + external)
        self._listener.settimeout(accept_timeout_s)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        ctx = mp_context()
        self.start_method: str | None = ctx.get_start_method()
        self._procs = [
            ctx.Process(target=_spawned_worker, args=self.address, daemon=True)
            for _ in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._conns: list[socket.socket] = []
        self._closed = False
        self._worker_ids: dict[socket.socket, str] = {}
        self._worker_seq = 0
        try:
            for _ in range(workers + external):
                conn, _addr = self._listener.accept()
                self._register_conn(conn)
        except TimeoutError:
            self.close()
            raise TimeoutError(
                f"socket client: only {len(self._conns)} of "
                f"{workers + external} workers connected within "
                f"{accept_timeout_s:.0f}s"
            ) from None
        self.workers = len(self._conns)
        self._idle: deque[socket.socket] = deque(self._conns)
        self._busy: dict[socket.socket, int] = {}
        self._queue: deque[tuple[int, Callable[..., Any], tuple[Any, ...]]] = deque()
        self._results: dict[int, tuple[str, Any, str | None]] = {}
        self._discarded: set[int] = set()
        self._task_worker: dict[int, str] = {}
        self._quarantined: set[socket.socket] = set()
        self._next_id = 0

    def _register_conn(self, conn: socket.socket) -> str:
        """Admit a connection to the fleet under a stable worker id."""
        worker_id = f"w{self._worker_seq}"
        self._worker_seq += 1
        self._conns.append(conn)
        self._worker_ids[conn] = worker_id
        return worker_id

    def _dispatch(self, conn: socket.socket, task_id: int, fn: Any, args: tuple) -> None:
        _send_msg(conn, ("task", task_id, fn, args))
        self._busy[conn] = task_id
        worker_id = self._worker_ids.get(conn)
        if worker_id is not None:
            self._task_worker[task_id] = worker_id

    def _fail_task(self, task_id: int, reason: str) -> None:
        if task_id in self._discarded:
            self._discarded.discard(task_id)
            return
        self._results[task_id] = (
            "err",
            WorkerLostError(reason, task_id=task_id),
            None,
        )

    def _drop_worker(self, conn: socket.socket, reason: str) -> None:
        """Remove a dead connection, failing its in-flight task.

        The fleet shrinks and the run continues on survivors; only when
        the *last* worker dies do queued tasks fail too (nothing is
        left to run them).
        """
        task_id = self._busy.pop(conn, None)
        if conn in self._conns:
            self._conns.remove(conn)
        self._worker_ids.pop(conn, None)
        self._quarantined.discard(conn)
        try:
            self._idle.remove(conn)
        except ValueError:
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.workers = len(self._conns)
        if task_id is not None:
            self._fail_task(task_id, f"worker died mid-task ({reason})")
        if not self._conns:
            while self._queue:
                queued_id, _fn, _args = self._queue.popleft()
                self._fail_task(
                    queued_id, f"all socket workers lost ({reason}); task never ran"
                )

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> int:
        """Ship ``fn(*args)`` to an idle worker (or queue for one)."""
        task_id = self._next_id
        self._next_id += 1
        if not self._conns:
            self._fail_task(task_id, "all socket workers lost; task never ran")
            return task_id
        while self._idle:
            conn = self._idle.popleft()
            try:
                self._dispatch(conn, task_id, fn, args)
                return task_id
            except OSError as exc:
                # This task was neither busy nor queued, so _drop_worker
                # could not have failed it; do so here if nothing is left.
                self._drop_worker(conn, f"send failed: {exc}")
                if not self._conns:
                    self._fail_task(
                        task_id, "all socket workers lost; task never ran"
                    )
                    return task_id
        self._queue.append((task_id, fn, args))
        return task_id

    def _pump(self, timeout_s: float | None) -> bool:
        """Receive at least one worker reply; True if any progress was made.

        A connection that errors mid-receive counts as progress: its
        in-flight task lands in the result map as a
        :class:`WorkerLostError` and the worker leaves the fleet.
        """
        if not self._busy:
            return False
        ready, _, _ = select.select(list(self._busy), [], [], timeout_s)
        for conn in ready:
            try:
                message = _recv_msg(conn)
                kind, task_id, *rest = message
            except (ConnectionError, EOFError, OSError, pickle.UnpicklingError) as exc:
                self._drop_worker(conn, f"recv failed: {exc}")
                continue
            del self._busy[conn]
            if conn in self._quarantined:
                # Retired from the rotation: its last in-flight reply
                # was honored, but it gets no further work.
                self._retire_conn(conn)
            elif self._queue:
                queued = self._queue.popleft()
                try:
                    self._dispatch(conn, *queued)
                except OSError as exc:
                    # Requeue at the front, then retire the connection.
                    self._queue.appendleft(queued)
                    self._drop_worker(conn, f"send failed: {exc}")
            else:
                self._idle.append(conn)
            if task_id in self._discarded:
                self._discarded.remove(task_id)
                continue
            if kind == "ok":
                self._results[task_id] = ("ok", rest[0], None)
            else:
                self._results[task_id] = ("err", rest[0], rest[1])
        return bool(ready)

    def wait_next(self, timeout_s: float | None = None) -> tuple[int, Any] | None:
        """Block up to ``timeout_s`` for a reply; None on timeout.

        Delivers the lowest ready task id; a task that raised on its
        worker re-raises here with the remote traceback attached as a
        note and ``task_id`` set for scheduler attribution.  A task
        whose worker died raises :class:`WorkerLostError` the same way.
        """
        while not self._results:
            if not self._busy and not self._queue:
                return None
            if not self._pump(timeout_s):
                return None
        task_id = min(self._results)
        kind, value, remote_tb = self._results.pop(task_id)
        if kind == "err":
            if remote_tb:
                value.__notes__ = getattr(value, "__notes__", [])
                value.__notes__.append(f"remote worker traceback:\n{remote_tb}")
            value.task_id = task_id
            raise value
        return task_id, value

    def discard(self, task_id: int) -> None:
        """Abandon a task wherever it is: done, queued or in flight.

        An in-flight task's worker keeps running; its eventual reply
        is swallowed, not delivered.
        """
        if task_id in self._results:
            del self._results[task_id]
            return
        for i, (tid, _fn, _args) in enumerate(self._queue):
            if tid == task_id:
                del self._queue[i]
                return
        if task_id in self._busy.values():
            self._discarded.add(task_id)

    # -- fleet-health surface (used by FleetSupervisor, duck-typed) ----------

    def _retire_conn(self, conn: socket.socket) -> None:
        """Politely remove an idle connection from the fleet."""
        try:
            _send_msg(conn, ("stop",))
        except OSError:
            pass
        self._drop_worker(conn, "retired")

    def worker_for_task(self, task_id: int) -> str | None:
        """The worker id a task was dispatched to (None while queued).

        Attribution entries live for the client's lifetime — one
        horizon run — so retry lineage can name every worker a slot
        visited even after the task completed.
        """
        return self._task_worker.get(task_id)

    def alive_workers(self) -> tuple[str, ...]:
        """Stable ids of every connected worker, in admission order."""
        return tuple(self._worker_ids[c] for c in self._conns)

    def idle_workers(self) -> int:
        """Connections with no task in flight."""
        return len(self._idle)

    def check_liveness(self, timeout_s: float = 1.0) -> list[str]:
        """Ping idle workers; drop the unresponsive, return their ids.

        Busy workers are *not* pinged — their liveness is established
        by the reply (or connection error) :meth:`wait_next` is already
        waiting on; a ping would just queue behind the running task.
        """
        if self._closed or not self._idle:
            return []
        dropped: list[str] = []
        waiting: set[socket.socket] = set()
        for conn in list(self._idle):
            try:
                _send_msg(conn, ("ping",))
                waiting.add(conn)
            except OSError as exc:
                dropped.append(self._worker_ids.get(conn, "?"))
                self._drop_worker(conn, f"ping send failed: {exc}")
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while waiting:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select(list(waiting), [], [], remaining)
            if not ready:
                break
            for conn in ready:
                waiting.discard(conn)
                try:
                    message = _recv_msg(conn)
                except (ConnectionError, EOFError, OSError, pickle.UnpicklingError) as exc:
                    dropped.append(self._worker_ids.get(conn, "?"))
                    self._drop_worker(conn, f"heartbeat recv failed: {exc}")
                    continue
                if message[0] != "pong":  # pragma: no cover - protocol breach
                    dropped.append(self._worker_ids.get(conn, "?"))
                    self._drop_worker(conn, f"unexpected heartbeat reply: {message[0]!r}")
        for conn in waiting:
            dropped.append(self._worker_ids.get(conn, "?"))
            self._drop_worker(conn, "heartbeat timed out")
        return dropped

    def quarantine_worker(self, worker_id: str) -> bool:
        """Retire a worker from the dispatch rotation; True if found.

        An idle worker leaves immediately; a busy one finishes its
        current task (the reply is still honored) and is retired at
        harvest.  Refuses to quarantine the last worker — a fleet of
        zero helps nobody.
        """
        conn = next(
            (c for c, wid in self._worker_ids.items() if wid == worker_id), None
        )
        if conn is None or len(self._conns) <= 1:
            return False
        if conn in self._busy:
            self._quarantined.add(conn)
        else:
            self._retire_conn(conn)
        return True

    def respawn_workers(self, count: int = 1, accept_timeout_s: float = 10.0) -> int:
        """Spawn replacement loopback workers; returns how many joined.

        The listener stays open for the client's lifetime precisely so
        the fleet can grow back after losses.  Only loopback processes
        are respawnable — externally launched workers are the
        operator's to restart.
        """
        if self._closed or count < 1:
            return 0
        ctx = mp_context()
        procs = [
            ctx.Process(target=_spawned_worker, args=self.address, daemon=True)
            for _ in range(count)
        ]
        for proc in procs:
            proc.start()
        self._procs.extend(procs)
        self._listener.settimeout(accept_timeout_s)
        joined = 0
        for _ in range(count):
            try:
                conn, _addr = self._listener.accept()
            except (TimeoutError, OSError):  # pragma: no cover - slow spawn
                break
            self._register_conn(conn)
            self._idle.append(conn)
            joined += 1
        self.workers = len(self._conns)
        # Put the new capacity to work immediately.
        while self._queue and self._idle:
            conn = self._idle.popleft()
            queued = self._queue.popleft()
            try:
                self._dispatch(conn, *queued)
            except OSError as exc:  # pragma: no cover - instant death
                self._queue.appendleft(queued)
                self._drop_worker(conn, f"send failed: {exc}")
        return joined

    def num_pending(self) -> int:
        """Tasks in flight, queued, or completed but undelivered."""
        return len(self._busy) + len(self._queue) + len(self._results)

    def close(self) -> None:
        """Stop every worker and close all sockets.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                _send_msg(conn, ("stop",))
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already dead
                pass
        self._listener.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# -- registry -----------------------------------------------------------------

_CLIENTS: dict[str, Callable[..., ExecutionClient]] = {}


def register_client(name: str, factory: Callable[..., ExecutionClient]) -> None:
    """Register a client factory under ``name``.

    The factory receives :func:`create_client`'s keyword arguments
    (``workers=``, ``oversubscribe=``, ...) and must return an
    :class:`ExecutionClient`.  Re-registering a name overwrites it.
    """
    if not name:
        raise ValueError("client name must be non-empty")
    _CLIENTS[name] = factory


def available_clients() -> tuple[str, ...]:
    """Registered client names, sorted."""
    return tuple(sorted(_CLIENTS))


def create_client(
    spec: str | ExecutionClient = "in-process", **kwargs: Any
) -> ExecutionClient:
    """Resolve a client specification into an :class:`ExecutionClient`.

    Args:
        spec: a registry name (see :func:`available_clients`) or an
            object already implementing the client surface (returned
            as-is; the caller keeps ownership of its lifecycle).
        **kwargs: forwarded to the registered factory.

    Raises:
        KeyError: for an unknown registry name.
        TypeError: for a specification of an unsupported type.
    """
    if isinstance(spec, str):
        try:
            factory = _CLIENTS[spec]
        except KeyError:
            raise KeyError(
                f"unknown execution client {spec!r}; available: "
                f"{', '.join(available_clients())}"
            ) from None
        return factory(**kwargs)
    if isinstance(spec, ExecutionClient):
        return spec
    raise TypeError(
        f"cannot build an execution client from {type(spec).__name__!r}; "
        "pass a registry name or an ExecutionClient"
    )


register_client("in-process", InProcessClient)
register_client("mp", MultiprocessingClient)
register_client("socket", SocketClient)
