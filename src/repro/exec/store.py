"""Persistent slot-result store: sweeps warm-start from disk.

The Fig. 9/10 sweeps, chaos runs and scale benchmarks re-solve the
same (model, strategy, solver, slot) instances over and over.
:class:`ResultStore` keys each solved slot by a content digest of
exactly those four coordinates and persists the
:class:`~repro.engine.protocol.SlotResult` to disk, so a repeated run
resolves from the store instead of the solver.

Correctness rests on the key, not on trust:

- the digest folds in the *full quantitative content* of the model
  (capacities, power models, prices, utility and emission-cost
  parameters, the latency matrix), the slot's inputs (arrivals,
  prices, carbon rates), the strategy switches, and the solver's
  registry name.  Change any of them — a different trace seed, a new
  carbon tax, a retuned solver — and the key changes, so a stale
  entry can never be served (digest-based invalidation);
- writes are atomic (temp file + ``os.replace`` in the same
  directory), so concurrent writers — pool workers, parallel sweep
  processes, two simultaneous CLI runs — can race on the same key and
  readers still only ever see a complete entry;
- a corrupt or truncated entry reads as a miss, never as an error.

Layout: ``root/ab/abcdef....pkl`` — two-hex-char fan-out directories
keep any single directory small on wide sweeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

__all__ = ["ResultStore", "problem_digest", "problem_digests"]

#: Bump when the digest recipe or the stored payload shape changes;
#: old entries then read as misses instead of mis-deserializing.
STORE_VERSION = 1


def _fold(write: Callable[[bytes], None], obj: Any) -> None:
    """Feed ``obj``'s content (not identity) to ``write`` as bytes.

    ``write`` receives the pieces in order.  Handles the library's
    model vocabulary: numpy arrays by dtype/shape/bytes,
    dataclasses and plain objects by class name + field values,
    containers element-wise.  Floats go through ``repr`` so the digest
    is exact to the bit, not to a print precision.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        write(f"<{type(obj).__name__}:{obj!r}>".encode())
    elif isinstance(obj, float):
        write(f"<float:{obj!r}>".encode())
    elif isinstance(obj, np.ndarray):
        write(f"<nd:{obj.dtype.str}:{obj.shape}>".encode())
        write(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _fold(write, np.asarray(obj))
    elif isinstance(obj, (list, tuple)):
        write(f"<seq:{len(obj)}>".encode())
        for item in obj:
            _fold(write, item)
    elif isinstance(obj, dict):
        write(f"<dict:{len(obj)}>".encode())
        for key in sorted(obj, key=repr):
            _fold(write, key)
            _fold(write, obj[key])
    elif dataclasses.is_dataclass(obj):
        write(f"<dc:{type(obj).__qualname__}>".encode())
        for field in dataclasses.fields(obj):
            _fold(write, field.name)
            _fold(write, getattr(obj, field.name))
    elif hasattr(obj, "__dict__"):
        write(f"<obj:{type(obj).__qualname__}>".encode())
        for key in sorted(vars(obj)):
            _fold(write, key)
            _fold(write, vars(obj)[key])
    else:  # pragma: no cover - exotic model component
        write(f"<repr:{obj!r}>".encode())


def _folded(obj: Any) -> bytes:
    """The byte stream :func:`_fold` feeds a hash for ``obj``."""
    parts: list[bytes] = []
    _fold(parts.append, obj)
    return b"".join(parts)


def problem_digests(problems: Sequence[Any], solver: str) -> list[str]:
    """The store keys of many (problem, solver) pairs, one per problem.

    Each key covers the model's full quantitative content, the slot
    inputs, the strategy and the solver registry name — everything
    that determines the solver's answer for this slot.

    A horizon's slots share a handful of model and strategy objects,
    so each distinct one is folded to bytes once per call and those
    bytes go into every slot's SHA-256.  The hash sees the same byte
    stream as a per-slot fold would feed it, so a key does not depend
    on which problems it was computed with.  Nothing is kept past the
    call: a model changed in place between two calls gets a new key.
    """
    head = f"repro-result-store-v{STORE_VERSION}".encode() + _folded(solver)
    # Keyed by id(): every object stays alive through ``problems``.
    shared: dict[int, bytes] = {}

    def once(obj: Any) -> bytes:
        if id(obj) not in shared:
            shared[id(obj)] = _folded(obj)
        return shared[id(obj)]

    return [
        hashlib.sha256(
            head
            + once(problem.strategy)
            + _folded(problem.inputs)
            + once(problem.model)
        ).hexdigest()
        for problem in problems
    ]


def problem_digest(problem: Any, solver: str) -> str:
    """The store key for one (problem, solver) pair (see :func:`problem_digests`)."""
    return problem_digests([problem], solver)[0]


class ResultStore:
    """On-disk (digest -> SlotResult) store with atomic writes.

    Args:
        root: store directory; created (with parents) if missing.

    Instances count :attr:`hits` and :attr:`misses` across their
    lifetime — the engine folds these into its
    :class:`~repro.obs.HorizonSummary` and the health dashboard
    renders the hit rate.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (existing or not)."""
        return self.root / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry to ``corrupt/`` so it is never re-read.

        Quarantining instead of deleting keeps the evidence for
        post-mortems (``repro store verify`` reports the tally) while
        taking the entry out of every future probe — a corrupt file
        used to be re-read, and re-failed, on every single lookup.
        """
        graveyard = self.root / "corrupt"
        try:
            graveyard.mkdir(exist_ok=True)
            os.replace(path, graveyard / path.name)
        except OSError:  # pragma: no cover - concurrent quarantine
            pass
        self.corrupt += 1

    def get(self, key: str) -> Any | None:
        """The stored result for ``key``, or None (counted as a miss).

        A missing, truncated, corrupt or wrong-key entry is a miss —
        the caller re-solves and overwrites; the store never turns a
        bad byte into a bad allocation.  A corrupt entry is moved to
        the ``corrupt/`` subdirectory on first detection.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload.get("key") != key:
                raise ValueError("key mismatch")
            result = payload["result"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def verify(self) -> dict[str, int]:
        """Audit every entry; quarantine the corrupt, report the tally.

        Returns ``{"entries", "ok", "corrupt"}`` — entries is the count
        *before* quarantine, so ``entries == ok + corrupt``.  The
        lifetime :attr:`hits`/:attr:`misses` counters are untouched
        (an audit is not a lookup).
        """
        entries = ok = corrupt = 0
        for path in list(self.root.glob("??/*.pkl")):
            entries += 1
            key = path.stem
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
                if payload.get("key") != key:
                    raise ValueError("key mismatch")
                if payload.get("version") != STORE_VERSION:
                    raise ValueError("version mismatch")
                payload["result"]
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                entries -= 1
            except Exception:
                self._quarantine(path)
                corrupt += 1
            else:
                ok += 1
        return {"entries": entries, "ok": ok, "corrupt": corrupt}

    def put(self, key: str, result: Any) -> None:
        """Persist ``result`` under ``key`` atomically.

        Safe under concurrent writers: each writer lands its payload
        in a private temp file in the destination directory, then
        ``os.replace``s it over the final name — the last complete
        write wins and readers never observe a partial entry.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "version": STORE_VERSION, "result": result}
        fd, tmp = tempfile.mkstemp(
            prefix=f".tmp-{os.getpid()}-", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        """Every stored digest (unordered)."""
        for path in self.root.glob("??/*.pkl"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("??/*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return removed
