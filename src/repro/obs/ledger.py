"""The run ledger: an append-then-finalize JSONL manifest per run.

Every engine/simulator run can persist itself as one JSONL file in a
ledger directory:

- line 1 is a ``header`` record — run id, creation time, solver,
  engine configuration, content digests of the inputs, and the host
  environment;
- one ``slot`` record per harvested slot, in harvest order, carrying
  the outcome stream a live dashboard needs (index, ok/error, wall and
  compile seconds, worker pid and host, store hit, pending depth at
  harvest, seconds since run start);
- a final ``summary`` record (the
  :class:`~repro.obs.summary.HorizonSummary` dict) written by
  :meth:`RunLedger.finalize`.

Atomicity: the ledger appends to ``<run_id>.jsonl.part`` (flushing
every record so ``repro top --follow`` can tail a live run) and
``finalize`` fsyncs then ``os.replace``-renames to ``<run_id>.jsonl``.
A finalized file is therefore always complete; a ``.part`` file is a
live or crashed run, and its trailing line may be torn —
:func:`load_run` tolerates exactly that.

The ledger is the data source for ``repro top RUN`` (live/replay
dashboard) and ``repro runs list/show/diff``.  Stdlib-only, like the
rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "RunLedger",
    "LedgerRun",
    "new_run_id",
    "ledger_path",
    "list_runs",
    "load_run",
    "resolve_run",
    "diff_runs",
    "interrupt_guard",
]

_PART_SUFFIX = ".jsonl.part"
_FINAL_SUFFIX = ".jsonl"

#: Ledger format version, stamped into every header.
LEDGER_VERSION = 1


def new_run_id(now: float | None = None) -> str:
    """A sortable, collision-resistant run id (utc timestamp + entropy)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(time.time() if now is None else now))
    return f"{stamp}-{secrets.token_hex(3)}"


def ledger_path(root: str | os.PathLike[str], run_id: str) -> Path:
    """The finalized ledger path for ``run_id`` under ``root``."""
    return Path(root) / f"{run_id}{_FINAL_SUFFIX}"


class RunLedger:
    """Writer for one run's ledger file.

    Args:
        root: ledger directory (created if missing).
        run_id: explicit run id; autogenerated when omitted.
        context: optional run-recipe mapping folded into the header —
            the coordinates (hours, seed, strategy, solver, store, ...)
            ``repro resume`` needs to rebuild an interrupted run's
            problem set from its torn ``.part`` ledger.

    Use :meth:`write_header` once, :meth:`record_slot` per harvested
    slot, then :meth:`finalize` with the run summary.  ``finalize`` is
    what promotes the ``.part`` file to its durable name; a ledger that
    is never finalized stays a ``.part`` — deliberately, so crashed
    runs are distinguishable from complete ones.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        run_id: str | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or new_run_id()
        self.context = dict(context or {})
        self.part_path = self.root / f"{self.run_id}{_PART_SUFFIX}"
        self.path = ledger_path(self.root, self.run_id)
        self._fh = open(self.part_path, "w", encoding="utf-8")
        self._t0 = time.perf_counter()
        self._slots = 0
        self.finalized = False

    # -- writing --------------------------------------------------------------

    def _write(self, record: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise RuntimeError(f"ledger {self.run_id} is closed")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()

    def write_header(
        self,
        *,
        solver: str,
        config: Mapping[str, Any] | None = None,
        digests: Mapping[str, str] | None = None,
        environment: Mapping[str, Any] | None = None,
        slots_expected: int | None = None,
    ) -> None:
        """Write the run header (first line of the ledger)."""
        record = {
            "kind": "header",
            "version": LEDGER_VERSION,
            "run_id": self.run_id,
            "created_unix": time.time(),
            "solver": solver,
            "slots_expected": slots_expected,
            "config": dict(config or {}),
            "digests": dict(digests or {}),
            "environment": dict(environment or {}),
        }
        if self.context:
            record["context"] = dict(self.context)
        self._write(record)

    def record_slot(self, outcome: Any, *, pending: int | None = None) -> None:
        """Append one harvested :class:`SlotOutcome` (duck-typed)."""
        tele = getattr(outcome, "telemetry", None)
        record: dict[str, Any] = {
            "kind": "slot",
            "index": outcome.index,
            "ok": outcome.error is None,
            "t_rel_s": time.perf_counter() - self._t0,
        }
        if pending is not None:
            record["pending"] = pending
        if outcome.error is not None:
            record["error_type"] = outcome.error_type
        if getattr(outcome, "attempts", 1) != 1:
            record["attempts"] = outcome.attempts
        if getattr(outcome, "degraded", False):
            record["degraded"] = True
        if getattr(outcome, "fallback_solver", None) is not None:
            record["fallback_solver"] = outcome.fallback_solver
        if getattr(outcome, "lineage", None) is not None:
            record["lineage"] = dict(outcome.lineage)
        if tele is not None:
            record.update(
                solver=tele.solver,
                wall_s=tele.wall_s,
                compile_s=tele.compile_s,
                certify_s=tele.certify_s,
                iterations=tele.iterations,
                converged=tele.converged,
                cache_hit=tele.cache_hit,
                worker=tele.worker,
                worker_host=tele.host,
                store_hit=tele.store_hit,
            )
        extras = getattr(getattr(outcome, "result", None), "extras", None)
        if extras and extras.get("warm_mechanism") is not None:
            record["warm_mechanism"] = extras["warm_mechanism"]
        self._write(record)
        self._slots += 1

    def record(self, record: Mapping[str, Any]) -> None:
        """Append an arbitrary extra record (must carry its own ``kind``)."""
        self._write(dict(record))

    # -- lifecycle ------------------------------------------------------------

    def finalize(self, summary: Mapping[str, Any] | None = None) -> Path:
        """Write the summary record, fsync, and atomically promote the file."""
        if self.finalized:
            return self.path
        self._write({"kind": "summary", "slots": self._slots, **dict(summary or {})})
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        os.replace(self.part_path, self.path)
        self.finalized = True
        return self.path

    def abandon(self) -> None:
        """Close the file handle, leaving the ``.part`` behind as evidence."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self.finalized:
            self.abandon()
        elif exc_type is not None:
            self.abandon()


@contextmanager
def interrupt_guard(ledger: RunLedger) -> Iterator[RunLedger]:
    """Flush-and-close the ledger if the run is interrupted.

    Every record is already flushed as it is written (so even a
    ``kill -9`` leaves a consistent, resumable ``.part`` prefix); this
    guard covers the softer exits — SIGINT, SIGTERM and interpreter
    shutdown — by :meth:`RunLedger.abandon`-ing the ledger (close the
    handle, leave the ``.part`` behind as evidence) before the process
    dies, then chaining to the previous signal disposition.  Signal
    handlers are only installed from the main thread; elsewhere the
    guard degrades to the atexit hook alone.
    """
    atexit.register(ledger.abandon)
    installed: dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():

        def _handler(signum, frame):
            ledger.abandon()
            previous = installed.get(signum, signal.SIG_DFL)
            if callable(previous):
                previous(signum, frame)
            else:  # pragma: no cover - SIG_DFL/SIG_IGN redelivery
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
    try:
        yield ledger
    finally:
        atexit.unregister(ledger.abandon)
        for sig, previous in installed.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


# -- reading ------------------------------------------------------------------


@dataclass
class LedgerRun:
    """One parsed ledger file (finalized or live)."""

    path: Path
    run_id: str
    header: dict[str, Any] = field(default_factory=dict)
    slots: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] | None = None
    extras: list[dict[str, Any]] = field(default_factory=list)

    @property
    def finalized(self) -> bool:
        return self.summary is not None

    @property
    def failed(self) -> list[dict[str, Any]]:
        return [s for s in self.slots if not s.get("ok", False)]

    def wall_series(self) -> list[float]:
        """Per-slot solve wall seconds, in harvest order."""
        return [float(s.get("wall_s", 0.0)) for s in self.slots]

    def worker_busy(self) -> dict[str, float]:
        """Summed solve+compile+certify seconds per worker pid."""
        busy: dict[str, float] = {}
        for s in self.slots:
            worker = str(s.get("worker", "?"))
            busy[worker] = busy.get(worker, 0.0) + (
                float(s.get("wall_s", 0.0))
                + float(s.get("compile_s", 0.0))
                + float(s.get("certify_s", 0.0))
            )
        return busy


def load_run(path: str | os.PathLike[str]) -> LedgerRun:
    """Parse a ledger file, tolerating a torn trailing line on live runs."""
    path = Path(path)
    run_id = path.name
    for suffix in (_PART_SUFFIX, _FINAL_SUFFIX):
        if run_id.endswith(suffix):
            run_id = run_id[: -len(suffix)]
            break
    run = LedgerRun(path=path, run_id=run_id)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A live writer may be mid-append; everything before the
                # torn line is still a consistent prefix.
                break
            kind = record.get("kind")
            if kind == "header":
                run.header = record
                if record.get("run_id"):
                    run.run_id = record["run_id"]
            elif kind == "slot":
                run.slots.append(record)
            elif kind == "summary":
                run.summary = record
            else:
                run.extras.append(record)
    return run


def list_runs(root: str | os.PathLike[str]) -> list[LedgerRun]:
    """Every ledger under ``root`` (finalized and live), newest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    paths = sorted(
        [
            p
            for p in root.iterdir()
            if p.name.endswith(_FINAL_SUFFIX) or p.name.endswith(_PART_SUFFIX)
        ],
        key=lambda p: p.name,
        reverse=True,
    )
    return [load_run(p) for p in paths]


def resolve_run(ref: str, root: str | os.PathLike[str] | None = None) -> Path:
    """Resolve a run reference: a path, or a (prefix of a) run id in ``root``.

    Finalized files win over ``.part`` files with the same id; an
    ambiguous prefix raises with the candidates listed.
    """
    as_path = Path(ref)
    if as_path.is_file():
        return as_path
    root = Path(root) if root is not None else Path(".")
    candidates: list[Path] = []
    if root.is_dir():
        for suffix in (_FINAL_SUFFIX, _PART_SUFFIX):
            exact = root / f"{ref}{suffix}"
            if exact.is_file():
                return exact
        for p in sorted(root.iterdir()):
            if not (p.name.endswith(_FINAL_SUFFIX) or p.name.endswith(_PART_SUFFIX)):
                continue
            if p.name.startswith(ref):
                candidates.append(p)
    if len(candidates) == 1:
        return candidates[0]
    if len(candidates) > 1:
        names = ", ".join(p.name for p in candidates)
        raise FileNotFoundError(f"run reference {ref!r} is ambiguous: {names}")
    raise FileNotFoundError(f"no run ledger matching {ref!r} under {root}")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[int(idx)]


def diff_runs(a: LedgerRun, b: LedgerRun) -> dict[str, Any]:
    """Compare two runs: config/digest drift and latency/outcome deltas."""

    def _stats(run: LedgerRun) -> dict[str, Any]:
        walls = run.wall_series()
        return {
            "run_id": run.run_id,
            "finalized": run.finalized,
            "slots": len(run.slots),
            "failed": len(run.failed),
            "solve_s": sum(walls),
            "p50_s": _percentile(walls, 0.50),
            "p99_s": _percentile(walls, 0.99),
            "store_hits": sum(1 for s in run.slots if s.get("store_hit")),
            "workers": sorted(run.worker_busy()),
        }

    stats_a, stats_b = _stats(a), _stats(b)
    digests_a = a.header.get("digests", {})
    digests_b = b.header.get("digests", {})
    config_a = a.header.get("config", {})
    config_b = b.header.get("config", {})
    changed_config = sorted(
        k
        for k in set(config_a) | set(config_b)
        if config_a.get(k) != config_b.get(k)
    )
    changed_digests = sorted(
        k
        for k in set(digests_a) | set(digests_b)
        if digests_a.get(k) != digests_b.get(k)
    )
    solve_delta = None
    if stats_a["solve_s"] > 0:
        solve_delta = (stats_b["solve_s"] - stats_a["solve_s"]) / stats_a["solve_s"]
    return {
        "a": stats_a,
        "b": stats_b,
        "same_inputs": not changed_digests,
        "changed_digests": changed_digests,
        "changed_config": changed_config,
        "solve_s_delta": solve_delta,
        "failed_delta": stats_b["failed"] - stats_a["failed"],
    }
