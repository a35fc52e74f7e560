"""Persistent slot-result store: sweeps warm-start from disk.

The Fig. 9/10 sweeps, chaos runs and scale benchmarks re-solve the
same (model, strategy, solver, slot) instances over and over.
:class:`ResultStore` keys each solved slot by a content digest of
exactly those four coordinates and persists the
:class:`~repro.engine.protocol.SlotResult` to disk, so a repeated run
resolves from the store instead of the solver.

Correctness rests on the key, not on trust: the digest folds in the
*full quantitative content* of the model (capacities, power models,
prices, utility and emission-cost parameters, the latency matrix), the
slot's inputs (arrivals, prices, carbon rates), the strategy switches,
and the solver's registry name.  Change any of them — a different
trace seed, a new carbon tax, a retuned solver — and the key changes,
so a stale entry can never be served (digest-based invalidation).

Layout: ``root/<segment>.seg`` — one append-only segment file per
writing store (created by its first :meth:`ResultStore.put`, and anew
in a forked child that writes).  A record is framed as::

    magic "RSG2" | key length u16 | body length u32 | body CRC32 u32
    | header CRC32 u32 | key (UTF-8) | body

where the body is the pickle of ``{"key", "version", "result"}`` and
the body CRC covers key and body.  Each record goes out with one
``os.write`` on an ``O_APPEND`` descriptor: there is no Python-side
buffer, so concurrent writers — pool workers, parallel sweep
processes, two simultaneous CLI runs — never interleave half records,
and a forked child can never flush half of its parent's.  There is no
fsync (neither was there for the one-file-per-slot layout).

The index is the scan: opening a store reads every segment's record
headers into a key → (segment, offset, length) map, and a lookup that
misses scans whatever other writers appended since, so nothing can go
stale.  A torn tail — a record cut short by a crash — is dropped, the
same prefix rule the run ledger's ``.part`` reader applies; it never
counts as corruption.  A record that fails its checksum, unpickles to
garbage or carries another key reads as a miss, never as an error: the
store never turns a bad byte into a bad allocation.  Quarantine rewrites
a damaged segment's good records into a fresh segment and moves the
damaged file to ``corrupt/``, so a bad byte is counted once and never
re-read.

Version-1 stores (one ``root/ab/<key>.pkl`` file per slot) are not
read: their entries are misses, re-solved and re-stored as records.
:meth:`ResultStore.clear` deletes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import struct
import threading
import time
import weakref
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

__all__ = ["ResultStore", "problem_digest", "problem_digests"]

#: Bump when the on-disk record layout or the stored payload shape
#: changes; records of another version read as corrupt, and files of
#: another layout are never read.
STORE_VERSION = 2

#: Bump when the digest recipe changes: every key changes with it.
#: Versioned apart from :data:`STORE_VERSION`, so a new layout keeps
#: the keys a store was written under.
KEY_VERSION = 1

_MAGIC = b"RSG2"
#: magic, key length, body length, CRC32 of key + body.
_FIELDS = struct.Struct("<4sHII")
#: CRC32 of the packed fields above.
_CHECK = struct.Struct("<I")
_HEADER_SIZE = _FIELDS.size + _CHECK.size
_SEGMENT_SUFFIX = ".seg"
#: Read descriptors a store keeps open at most.
_MAX_READERS = 64


def _frame(key: str, body: bytes) -> bytes:
    """One framed record: header, key, body."""
    raw_key = key.encode()
    fields = _FIELDS.pack(
        _MAGIC, len(raw_key), len(body), zlib.crc32(body, zlib.crc32(raw_key))
    )
    return fields + _CHECK.pack(zlib.crc32(fields)) + raw_key + body


def _header(data: bytes, pos: int) -> tuple[int, int, int] | None:
    """``(key_len, body_len, body_crc)`` of an intact header at ``pos``.

    None when ``data`` holds no header there that its own checksum
    vouches for — a damaged header, or fewer bytes than a header.
    """
    if len(data) - pos < _HEADER_SIZE:
        return None
    magic, key_len, body_len, body_crc = _FIELDS.unpack_from(data, pos)
    if magic != _MAGIC:
        return None
    (check,) = _CHECK.unpack_from(data, pos + _FIELDS.size)
    if check != zlib.crc32(data[pos : pos + _FIELDS.size]):
        return None
    return key_len, body_len, body_crc


def _scan(data: bytes) -> tuple[list[tuple[str, int, int]], int, int]:
    """Walk the framed records of a segment's bytes.

    Returns ``(records, end, bad)``: ``(key, offset, length)`` of every
    record whose checksums hold, the offset where a torn tail begins
    (``len(data)`` without one), and the number of damaged spans.  A
    torn tail — an incomplete header, or an intact header whose record
    runs past the end of ``data`` — is neither a record nor damage: a
    crash (or a write still in flight) left it.  A damaged header is
    skipped by searching for the next intact one; a record with an
    intact header but a bad body checksum is skipped by its length.
    """
    records: list[tuple[str, int, int]] = []
    bad = 0
    pos, size = 0, len(data)
    while pos < size:
        header = _header(data, pos)
        if header is None:
            if size - pos < _HEADER_SIZE and data.startswith(
                _MAGIC[: size - pos], pos
            ):
                break  # torn inside the header
            bad += 1
            pos = data.find(_MAGIC, pos + 1)
            while pos != -1 and _header(data, pos) is None:
                if size - pos < _HEADER_SIZE:
                    break  # a torn header after the damage
                pos = data.find(_MAGIC, pos + 1)
            if pos == -1:
                return records, size, bad
            continue
        key_len, body_len, body_crc = header
        start = pos + _HEADER_SIZE
        end = start + key_len + body_len
        if end > size:
            break  # torn tail
        raw_key = data[start : start + key_len]
        if zlib.crc32(data[start + key_len : end], zlib.crc32(raw_key)) != body_crc:
            bad += 1
        else:
            records.append((raw_key.decode("utf-8", "replace"), pos, end - pos))
        pos = end
    return records, pos, bad


def _unframe(frame: bytes, key: str) -> Any:
    """The result a framed record holds for ``key``.

    Raises:
        ValueError: when the frame is torn or fails a checksum, or when
            it or its payload names another key or store version.
    """
    header = _header(frame, 0)
    raw_key = key.encode()
    start = _HEADER_SIZE + len(raw_key)
    view = memoryview(frame)
    if (
        header is None
        or header[0] != len(raw_key)
        or start + header[1] != len(frame)
        or view[_HEADER_SIZE:start] != raw_key
        or zlib.crc32(view[start:], zlib.crc32(raw_key)) != header[2]
    ):
        raise ValueError("damaged record")
    payload = pickle.loads(view[start:])
    if payload.get("key") != key:
        raise ValueError("key mismatch")
    if payload.get("version") != STORE_VERSION:
        raise ValueError("version mismatch")
    return payload["result"]


def _audit(data: bytes) -> tuple[list[tuple[str, int, int]], int]:
    """A segment's sound records and its count of bad ones.

    Sound means intact framing *and* a payload that unpickles under its
    own key and store version; a damaged span counts as one bad record.
    """
    records, _, bad = _scan(data)
    good = []
    for key, offset, length in records:
        try:
            _unframe(data[offset : offset + length], key)
        except Exception:
            bad += 1
        else:
            good.append((key, offset, length))
    return good, bad


def _close_all(fds: dict[Any, int]) -> None:
    for fd in fds.values():
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    fds.clear()


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
    head = f"repro-result-store-v{KEY_VERSION}".encode() + _folded(solver)
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
    """On-disk (digest -> SlotResult) store of append-only segments.

    Args:
        root: store directory; created (with parents) if missing.

    Opening a store scans its segments into the in-memory index (keys
    to record offsets, never payloads).  A pickled store carries its
    root and counters, not its descriptors: unpickling re-opens it.

    Instances count :attr:`hits` and :attr:`misses` across their
    lifetime — the engine folds these into its
    :class:`~repro.obs.HorizonSummary` and the health dashboard
    renders the hit rate — and :attr:`corrupt`, the bad records they
    quarantined.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._lock = threading.RLock()
        #: key -> (segment name, record offset, record length).
        self._index: dict[str, tuple[str, int, int]] = {}
        #: segment name -> (offset scanned up to, file size then).
        self._seen: dict[str, tuple[int, int]] = {}
        #: Segments a scan found damaged, not yet quarantined.
        self._damaged: set[str] = set()
        #: Open descriptors: segment name -> fd.  ``_writer`` holds at
        #: most one, this process's own segment, ``_write_pos`` long.
        self._readers: dict[str, int] = {}
        self._writer: dict[str, int] = {}
        self._writer_pid = 0
        self._write_pos = 0
        weakref.finalize(self, _close_all, self._readers)
        weakref.finalize(self, _close_all, self._writer)
        self._refresh()

    def __getstate__(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["root"])
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.corrupt = state["corrupt"]

    # -- segments -------------------------------------------------------------

    def _reader(self, name: str) -> int:
        with self._lock:
            fd = self._readers.get(name)
            if fd is None:
                if len(self._readers) >= _MAX_READERS:
                    # A store written by many runs must not exhaust the
                    # process's descriptors; reopening is cheap.
                    _close_all(self._readers)
                fd = self._readers[name] = os.open(self.root / name, os.O_RDONLY)
            return fd

    def _refresh(self) -> None:
        """Index every record appended to any segment since the last scan."""
        with self._lock:
            sizes: dict[str, int] = {}
            with os.scandir(self.root) as entries:
                for entry in entries:
                    if entry.name.endswith(_SEGMENT_SUFFIX):
                        try:
                            sizes[entry.name] = entry.stat().st_size
                        except FileNotFoundError:  # pragma: no cover
                            pass
            for name in sorted(sizes):
                start, seen = self._seen.get(name, (0, 0))
                if sizes[name] == seen:
                    continue
                if sizes[name] < start:
                    # Truncated under us: index it afresh.
                    self._forget(name)
                    start = 0
                try:
                    data = os.pread(
                        self._reader(name), sizes[name] - start, start
                    )
                except OSError:  # pragma: no cover - cleared meanwhile
                    self._forget(name)
                    continue
                records, end, bad = _scan(data)
                for key, offset, length in records:
                    self._index[key] = (name, start + offset, length)
                self._seen[name] = (start + end, start + len(data))
                if bad:
                    self._damaged.add(name)

    def _segment(self) -> tuple[str, int]:
        """This process's segment, created on its first write."""
        pid = os.getpid()
        if self._writer and self._writer_pid == pid:
            return next(iter(self._writer.items()))
        # First write, or the first in a forked child: the parent's
        # descriptor stays the parent's.
        _close_all(self._writer)
        name, fd = self._create(os.O_APPEND)
        self._writer[name] = fd
        self._writer_pid = pid
        self._write_pos = 0
        self._seen[name] = (0, 0)
        return name, fd

    def _create(self, flags: int) -> tuple[str, int]:
        """A new, empty segment, named to sort after every older one."""
        stamp = f"{time.time_ns():020d}-{os.getpid()}"
        for attempt in range(1000):
            name = f"{stamp}-{attempt}{_SEGMENT_SUFFIX}"
            try:
                fd = os.open(
                    self.root / name,
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL | flags,
                    0o666,
                )
            except FileExistsError:
                continue
            return name, fd
        raise FileExistsError(f"no free segment name for {stamp}")  # pragma: no cover

    def _forget(self, name: str) -> None:
        """Drop a segment from the index and close its descriptors."""
        for key in [key for key, loc in self._index.items() if loc[0] == name]:
            del self._index[key]
        fd = self._readers.pop(name, None)
        if fd is not None:
            os.close(fd)
        if name in self._writer:
            _close_all(self._writer)
        self._seen.pop(name, None)
        self._damaged.discard(name)

    def _quarantine(self, name: str) -> None:
        """Move a damaged segment to ``corrupt/``, keeping its good records.

        The good records are rewritten, in order, to a fresh segment
        before the damaged file moves, so a crash in between leaves
        duplicates, never a loss.  Quarantining instead of deleting
        keeps the evidence for post-mortems (``repro store verify``
        reports the tally) while taking the bad bytes out of every
        future scan.  A segment found sound on disk — a torn tail, or
        already quarantined elsewhere — is left as it is.
        """
        with self._lock:
            self._damaged.discard(name)
            path = self.root / name
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self._forget(name)
                return
            good, bad = _audit(data)
            if not bad:
                return
            fresh = None
            if good:
                fresh, fd = self._create(0)
                with os.fdopen(fd, "wb") as fh:
                    fh.writelines(data[o : o + n] for _, o, n in good)
            graveyard = self.root / "corrupt"
            try:
                graveyard.mkdir(exist_ok=True)
                os.replace(path, graveyard / name)
            except OSError:  # pragma: no cover - concurrent quarantine
                pass
            self._forget(name)
            offset = 0
            for key, _, length in good:
                self._index.setdefault(key, (fresh, offset, length))
                offset += length
            if fresh is not None:
                self._seen[fresh] = (offset, offset)
            self.corrupt += bad

    # -- the store API --------------------------------------------------------

    def _locate(self, key: str) -> tuple[str, int, int] | None:
        location = self._index.get(key)
        if location is None:
            self._refresh()
            location = self._index.get(key)
        return location

    def get(self, key: str) -> Any | None:
        """The stored result for ``key``, or None (counted as a miss).

        A missing, torn, corrupt or wrong-key record is a miss — the
        caller re-solves and writes it again; the store never turns a
        bad byte into a bad allocation.  A bad record's segment is
        quarantined on detection, and so, on any miss, is every segment
        a scan found damaged.
        """
        location = self._locate(key)
        if location is not None:
            name, offset, length = location
            try:
                result = _unframe(os.pread(self._reader(name), length, offset), key)
            except FileNotFoundError:
                # Cleared or quarantined by another store.
                with self._lock:
                    self._forget(name)
            except Exception:
                with self._lock:
                    if self._index.get(key) == location:
                        del self._index[key]
                    self._quarantine(name)
            else:
                self.hits += 1
                return result
        for name in list(self._damaged):
            self._quarantine(name)
        self.misses += 1
        return None

    def put(self, key: str, result: Any) -> None:
        """Append ``result`` under ``key`` as one framed record.

        One ``os.write`` on this process's ``O_APPEND`` segment; the
        latest record of a key is the one later lookups return.

        Raises:
            OSError: when the write fails or comes up short; the
                segment is then retired and the next put starts a
                fresh one.
        """
        body = pickle.dumps(
            {"key": key, "version": STORE_VERSION, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        frame = _frame(key, body)
        with self._lock:
            name, fd = self._segment()
            try:
                written = os.write(fd, frame)
                if written != len(frame):
                    raise OSError(
                        f"short write to store segment {name}: "
                        f"{written} of {len(frame)} bytes"
                    )
            except BaseException:
                _close_all(self._writer)
                raise
            self._index[key] = (name, self._write_pos, written)
            self._write_pos += written
            self._seen[name] = (self._write_pos, self._write_pos)

    def verify(self) -> dict[str, int]:
        """Audit every record; quarantine the corrupt, report the tally.

        Returns ``{"entries", "ok", "corrupt"}`` over every record on
        disk (a key written twice counts twice; a torn tail is not a
        record) — counted *before* quarantine, so ``entries == ok +
        corrupt``.  The lifetime :attr:`hits`/:attr:`misses` counters
        are untouched (an audit is not a lookup).
        """
        entries = ok = corrupt = 0
        for path in sorted(self.root.glob(f"*{_SEGMENT_SUFFIX}")):
            try:
                data = path.read_bytes()
            except FileNotFoundError:  # pragma: no cover - concurrent clear
                continue
            good, bad = _audit(data)
            entries += len(good) + bad
            ok += len(good)
            corrupt += bad
            if bad:
                self._quarantine(path.name)
        return {"entries": entries, "ok": ok, "corrupt": corrupt}

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def keys(self) -> Iterator[str]:
        """Every stored digest (unordered)."""
        self._refresh()
        return iter(list(self._index))

    def __len__(self) -> int:
        self._refresh()
        return len(self._index)

    def clear(self) -> int:
        """Delete every entry, version-1 files included; returns how many."""
        with self._lock:
            self._refresh()
            removed = len(self._index)
            _close_all(self._readers)
            _close_all(self._writer)
            for path in self.root.glob(f"*{_SEGMENT_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent clear
                    pass
            for path in self.root.glob("??/*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent clear
                    pass
            for fan_out in self.root.glob("??"):
                try:
                    fan_out.rmdir()
                except OSError:
                    pass
            self._index.clear()
            self._seen.clear()
            self._damaged.clear()
        return removed
