"""Elastic execution layer: pluggable clients, pipelining, result store.

``repro.exec`` owns *where and when* work runs, so the engine above it
can stay a policy layer:

- :mod:`repro.exec.clients` — the :class:`ExecutionClient` surface
  and registry: in-process, multiprocessing, and socket/RPC backends
  (the latter shards across machines via
  ``python -m repro exec-worker``);
- :mod:`repro.exec.pipeline` — :class:`BatchScheduler`, pipelined
  pending-batch completion;
- :mod:`repro.exec.store` — :class:`ResultStore`, the persistent
  (model digest, strategy, solver, slot) -> result store that lets
  sweeps and chaos runs warm-start from disk;
- :mod:`repro.exec.supervisor` — :class:`FleetSupervisor`, the
  self-healing wrapper: lost/straggling tasks are resubmitted or
  hedged under a bounded retry budget, faulty workers quarantined,
  lost loopback workers respawned;
- :mod:`repro.exec.pmap` — :func:`parallel_map`, the sweep drivers'
  order-preserving map over the same clients.
"""

from repro.exec.clients import (
    ExecutionClient,
    InProcessClient,
    MultiprocessingClient,
    SocketClient,
    WorkerLostError,
    available_clients,
    create_client,
    mp_context,
    register_client,
    serve_worker,
    usable_cpu_count,
)
from repro.exec.pipeline import BatchScheduler
from repro.exec.pmap import parallel_map
from repro.exec.store import ResultStore, problem_digest, problem_digests
from repro.exec.supervisor import (
    FleetStats,
    FleetSupervisor,
    SupervisorConfig,
)

__all__ = [
    "ExecutionClient",
    "FleetStats",
    "FleetSupervisor",
    "InProcessClient",
    "MultiprocessingClient",
    "SocketClient",
    "SupervisorConfig",
    "BatchScheduler",
    "ResultStore",
    "WorkerLostError",
    "available_clients",
    "create_client",
    "mp_context",
    "parallel_map",
    "problem_digest",
    "problem_digests",
    "register_client",
    "serve_worker",
    "usable_cpu_count",
]
