"""Tests for the persistent result store (repro.exec.store).

Round-trip persistence, the append-only segment layout (torn tails,
flipped bytes, quarantine, concurrent writers and readers), content-
digest invalidation when the model or trace changes, and the
engine-level warm re-run resolving (at least) 90% of slots from disk,
bit-identically.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.strategies import ALL_STRATEGIES, FUEL_CELL, HYBRID
from repro.engine import HorizonEngine
from repro.exec import ResultStore, problem_digest, problem_digests
from repro.exec.store import KEY_VERSION, STORE_VERSION, _frame
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(12)]


def _segments(root: Path) -> list[Path]:
    return sorted(root.glob("*.seg"))


def _flip(path: Path, offset: int) -> None:
    """Flip every bit of one byte of ``path`` in place."""
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _equal_records(store: ResultStore, count: int) -> tuple[list[str], int]:
    """``count`` same-size records in one fresh segment: (keys, record size).

    Equal payload lengths put record ``i`` at ``i * size``, and the
    last bytes of a record are its pickle's.
    """
    keys = [f"{i:02d}" + "0" * 62 for i in range(count)]
    for key in keys:
        store.put(key, key)
    (segment,) = _segments(store.root)
    size, rest = divmod(segment.stat().st_size, count)
    assert rest == 0
    return keys, size


class TestResultStoreBasics:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"ufc": -1.25})
        assert key in store
        assert store.get(key) == {"ufc": -1.25}
        assert store.hits == 1 and store.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("cd" + "0" * 62) is None
        assert store.misses == 1

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, [1, 2, 3])
        (segment,) = _segments(tmp_path)
        _flip(segment, segment.stat().st_size - 3)
        assert store.get(key) is None

    def test_wrong_key_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "12" + "0" * 62
        other = "34" + "0" * 62
        store.put(key, "value")
        # Simulate a mis-filed entry: a sound record framed under one
        # key whose payload was written for another.
        payload = {"key": key, "version": STORE_VERSION, "result": "value"}
        (segment,) = _segments(tmp_path)
        with open(segment, "ab") as fh:
            fh.write(_frame(other, pickle.dumps(payload)))
        assert store.get(other) is None
        assert store.get(key) == "value"

    def test_keys_len_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, i)
        assert sorted(store.keys()) == sorted(keys)
        assert len(store) == 5
        assert store.clear() == 5
        assert len(store) == 0
        assert _segments(tmp_path) == []
        store.put(keys[0], 0)  # a cleared store takes writes again
        assert ResultStore(tmp_path).get(keys[0]) == 0

    def test_concurrent_writers_same_key(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "aa" + "0" * 62
        payload = list(range(200))

        def hammer(_):
            for _ in range(20):
                store.put(key, payload)
            return store.get(key)

        # A short switch interval makes threads interleave inside put.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(hammer, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(r == payload for r in results)
        # Every record on disk is complete and readable.
        reopened = ResultStore(tmp_path)
        assert reopened.get(key) == payload
        assert reopened.verify() == {"entries": 160, "ok": 160, "corrupt": 0}


class TestSegments:
    """The append-only layout: what a crash, a bad byte, another
    process or a pickle does to a store."""

    def test_truncated_tail_keeps_earlier_records(self, tmp_path):
        keys, size = _equal_records(ResultStore(tmp_path), 3)
        (segment,) = _segments(tmp_path)
        with open(segment, "r+b") as fh:
            fh.truncate(3 * size - 7)  # the last write was cut short
        store = ResultStore(tmp_path)
        assert [store.get(key) for key in keys] == [keys[0], keys[1], None]
        # A torn tail is what a crash leaves, not corruption.
        assert store.corrupt == 0
        assert store.verify() == {"entries": 2, "ok": 2, "corrupt": 0}
        assert not (tmp_path / "corrupt").exists()

    def test_flipped_payload_byte_loses_exactly_that_record(self, tmp_path):
        keys, size = _equal_records(ResultStore(tmp_path), 4)
        (segment,) = _segments(tmp_path)
        _flip(segment, 2 * size - 3)
        # Record 1's pickle ends at 2 * size: only that record is lost.
        store = ResultStore(tmp_path)
        lost = [keys[0], None, keys[2], keys[3]]
        assert [store.get(key) for key in keys] == lost
        assert store.corrupt == 1
        fresh = ResultStore(tmp_path)
        assert [fresh.get(key) for key in keys] == lost
        assert fresh.corrupt == 0  # counted once, by the first store
        assert (tmp_path / "corrupt" / segment.name).exists()
        assert fresh.verify() == {"entries": 3, "ok": 3, "corrupt": 0}

    def test_flipped_header_byte_loses_exactly_that_record(self, tmp_path):
        keys, size = _equal_records(ResultStore(tmp_path), 4)
        (segment,) = _segments(tmp_path)
        _flip(segment, size + 5)  # record 1's length field
        store = ResultStore(tmp_path)
        assert store.verify() == {"entries": 4, "ok": 3, "corrupt": 1}
        assert [store.get(key) for key in keys] == [keys[0], None, keys[2], keys[3]]

    def test_two_processes_write_one_root_at_once(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.exec import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "for i in range(50):\n"
            "    store.put(f'{sys.argv[2]}{i:03d}', list(range(i)))\n"
            "    store.put('shared', sys.argv[2])\n"
        )
        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), tag], env=env
            )
            for tag in ("a", "b")
        ]
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        assert len(_segments(tmp_path)) == 2
        store = ResultStore(tmp_path)
        assert len(store) == 101
        assert store.get("a049") == store.get("b049") == list(range(49))
        assert store.get("shared") in ("a", "b")
        assert store.verify() == {"entries": 200, "ok": 200, "corrupt": 0}

    def test_second_store_sees_the_first_ones_records(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)  # opened before any write
        key = "5e" + "0" * 62
        first.put(key, {"ufc": -3.0})
        assert key in second
        assert second.get(key) == {"ufc": -3.0}
        assert ResultStore(tmp_path).get(key) == {"ufc": -3.0}

    def test_pickled_store_carries_no_descriptor(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "6f" + "0" * 62
        store.put(key, 1)
        assert store.get(key) == 1
        state = store.__getstate__()
        assert set(state) == {"root", "hits", "misses", "corrupt"}
        clone = pickle.loads(pickle.dumps(store))
        assert (clone.hits, clone.misses) == (1, 0)
        assert clone.get(key) == 1
        # The copy writes through a segment of its own.
        clone.put("7a" + "0" * 62, 2)
        assert len(_segments(tmp_path)) == 2
        assert ResultStore(tmp_path).get("7a" + "0" * 62) == 2

    def test_version_1_files_read_as_misses_and_clear_deletes_them(
        self, tmp_path
    ):
        key = "ab" + "0" * 62
        old = tmp_path / key[:2] / f"{key}.pkl"
        old.parent.mkdir()
        old.write_bytes(pickle.dumps({"key": key, "version": 1, "result": 1}))
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        assert len(store) == 0
        assert store.clear() == 1
        assert not old.parent.exists()


class TestProblemDigest:
    def test_deterministic_across_rebuilds(self):
        def build():
            bundle = default_bundle(hours=4, seed=11)
            model = build_model(bundle)
            sim = Simulator(model, bundle)
            return sim.problem_for_slot(2, HYBRID)

        assert problem_digest(build(), "centralized") == problem_digest(
            build(), "centralized"
        )

    def test_solver_and_strategy_fold_in(self, problems):
        problem = problems[0]
        assert problem_digest(problem, "centralized") != problem_digest(
            problem, "distributed"
        )
        sim_problem = problems[0]
        other = type(sim_problem)(
            sim_problem.model, sim_problem.inputs, strategy=FUEL_CELL
        )
        assert problem_digest(sim_problem, "centralized") != problem_digest(
            other, "centralized"
        )

    def test_model_change_invalidates(self):
        bundle = default_bundle(hours=4, seed=11)
        sim_a = Simulator(build_model(bundle), bundle)
        sim_b = Simulator(build_model(bundle, fuel_cell_price=90.0), bundle)
        assert problem_digest(
            sim_a.problem_for_slot(0, HYBRID), "centralized"
        ) != problem_digest(sim_b.problem_for_slot(0, HYBRID), "centralized")

    def test_trace_change_invalidates(self):
        a = default_bundle(hours=4, seed=11)
        b = default_bundle(hours=4, seed=12)
        pa = Simulator(build_model(a), a).problem_for_slot(0, HYBRID)
        pb = Simulator(build_model(b), b).problem_for_slot(0, HYBRID)
        assert problem_digest(pa, "centralized") != problem_digest(
            pb, "centralized"
        )

    def test_slot_change_invalidates(self, problems):
        assert problem_digest(problems[0], "centralized") != problem_digest(
            problems[1], "centralized"
        )


class TestProblemDigests:
    """The batched key helper: same keys, one model fold per call."""

    #: The key of the fixed problem below, as written by every store
    #: since the recipe was set: a changed recipe strands old stores.
    PINNED = "c20921d34b664a79c266745f4bad0e049e86ef170f12430d5692654ac621dbfe"

    @staticmethod
    def _fixed_problem():
        bundle = default_bundle(hours=4, seed=11)
        return Simulator(build_model(bundle), bundle).problem_for_slot(2, HYBRID)

    def test_matches_per_problem_digest(self, small_model, small_bundle):
        sims = [
            Simulator(small_model, small_bundle),
            Simulator(build_model(small_bundle, fuel_cell_price=90.0), small_bundle),
        ]
        batch = [
            sim.problem_for_slot(t, strategy)
            for sim in sims
            for strategy in ALL_STRATEGIES
            for t in range(4)
        ]
        for solver in ("centralized", "distributed"):
            keys = problem_digests(batch, solver)
            assert keys == [problem_digest(p, solver) for p in batch]
            assert len(set(keys)) == len(batch)

    def test_pinned_key_still_hits(self):
        # The record layout moved to version 2; the key recipe did not.
        assert (KEY_VERSION, STORE_VERSION) == (1, 2)
        problem = self._fixed_problem()
        assert problem_digest(problem, "centralized") == self.PINNED
        assert problem_digests([problem], "centralized") == [self.PINNED]

    def test_model_mutated_in_place_changes_key(self):
        problem = self._fixed_problem()
        before = problem_digests([problem], "centralized")
        problem.model.latency_ms[0, 0] += 1.0
        after = problem_digests([problem], "centralized")
        assert before != after
        assert after == [problem_digest(problem, "centralized")]


class TestEngineWarmRuns:
    def test_warm_run_resolves_from_disk_bit_identically(
        self, problems, tmp_path
    ):
        cold = HorizonEngine("centralized", store=tmp_path)
        cold_outcomes = cold.run(problems)
        assert cold.last_summary.store_hits == 0
        assert cold.last_summary.store_misses == len(problems)

        warm = HorizonEngine("centralized", store=tmp_path)
        warm_outcomes = warm.run(problems)
        summary = warm.last_summary
        hit_rate = summary.store_hits / len(problems)
        assert hit_rate >= 0.9  # in practice 100%: nothing changed
        assert summary.store_hit_rate == pytest.approx(hit_rate)
        assert [o.result.ufc for o in warm_outcomes] == [
            o.result.ufc for o in cold_outcomes
        ]
        assert (
            warm_outcomes[0].result.allocation.lam
            == cold_outcomes[0].result.allocation.lam
        ).all()
        assert all(o.telemetry.store_hit for o in warm_outcomes)

    def test_partial_warm_run_solves_only_new_slots(
        self, small_model, small_bundle, problems, tmp_path
    ):
        HorizonEngine("centralized", store=tmp_path).run(problems[:8])
        sim = Simulator(small_model, small_bundle)
        extended = problems[:8] + [
            sim.problem_for_slot(t, FUEL_CELL) for t in range(4)
        ]
        engine = HorizonEngine("centralized", store=tmp_path)
        outcomes = engine.run(extended)
        assert engine.last_summary.store_hits == 8
        assert engine.last_summary.store_misses == 4
        assert [o.index for o in outcomes] == list(range(12))
        assert all(o.ok for o in outcomes)

    def test_store_path_accepted_as_string(self, problems, tmp_path):
        engine = HorizonEngine("centralized", store=str(tmp_path / "s"))
        engine.run(problems[:2])
        assert engine.store is not None and len(engine.store) == 2

    def test_solver_change_misses(self, problems, tmp_path):
        HorizonEngine("centralized", store=tmp_path).run(problems[:4])
        engine = HorizonEngine("proportional", store=tmp_path)
        engine.run(problems[:4])
        assert engine.last_summary.store_hits == 0
        assert engine.last_summary.store_misses == 4

    def test_certified_warm_run_recertifies(self, problems, tmp_path):
        HorizonEngine("centralized", store=tmp_path).run(problems[:4])
        engine = HorizonEngine("centralized", store=tmp_path, certify=True)
        outcomes = engine.run(problems[:4])
        assert engine.last_summary.store_hits == 4
        assert all(
            o.certificate is not None and o.certificate.ok for o in outcomes
        )

    @pytest.mark.parametrize("client", ["in-process", "socket"])
    def test_all_hit_run_builds_no_client(
        self, problems, tmp_path, monkeypatch, client
    ):
        # Nothing to solve means no workers to spawn: the second run
        # never reaches the client factory, yet names the client.
        first = HorizonEngine("centralized", store=tmp_path, client="in-process")
        cold = first.run(problems[:4])

        def refuse(*args, **kwargs):
            raise AssertionError("an all-hit run built an execution client")

        monkeypatch.setattr("repro.engine.horizon.create_client", refuse)
        engine = HorizonEngine(
            "centralized", store=tmp_path, client=client, workers=2
        )
        outcomes = engine.run(problems[:4])
        summary = engine.last_summary
        assert summary.store_hits == 4
        assert summary.client == summary.executor == client
        assert summary.decision == f"client:{client}"
        assert [o.result.ufc for o in outcomes] == [o.result.ufc for o in cold]
        with pytest.raises(KeyError, match="bogus"):
            HorizonEngine("centralized", store=tmp_path, client="bogus").run(
                problems[:4]
            )


class TestQuarantineAndVerify:
    def test_corrupt_entry_is_quarantined_on_first_read(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "1" * 62
        store.put(key, {"ufc": -2.0})
        (segment,) = _segments(tmp_path)
        _flip(segment, segment.stat().st_size - 3)
        assert store.get(key) is None
        assert store.corrupt == 1
        # Moved aside, so the next probe is a plain (cheap) miss...
        assert not segment.exists()
        assert (tmp_path / "corrupt" / segment.name).exists()
        assert store.get(key) is None
        assert store.corrupt == 1  # not re-counted
        # ...and the key is writable again.
        store.put(key, {"ufc": -2.0})
        assert store.get(key) == {"ufc": -2.0}

    def test_verify_tallies_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        keys, size = _equal_records(store, 4)
        (segment,) = _segments(tmp_path)
        _flip(segment, size - 3)  # record 0's pickle
        hits_before, misses_before = store.hits, store.misses
        tally = store.verify()
        assert tally == {"entries": 4, "ok": 3, "corrupt": 1}
        # An audit is not a lookup: the lifetime counters are untouched.
        assert (store.hits, store.misses) == (hits_before, misses_before)
        # The damaged segment is gone from the rotation, its good
        # records rewritten to a fresh one...
        assert (tmp_path / "corrupt" / segment.name).exists()
        assert [store.get(key) for key in keys] == [None, *keys[1:]]
        # ...so a re-audit is clean.
        assert store.verify() == {"entries": 3, "ok": 3, "corrupt": 0}

    def test_cli_store_verify(self, tmp_path, capsys):
        from repro.cli import main

        keys, size = _equal_records(ResultStore(tmp_path), 3)
        assert main(["store", "verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "corrupt" in out

        (segment,) = _segments(tmp_path)
        _flip(segment, 2 * size - 3)
        assert main(["store", "verify", str(tmp_path)]) == 1

    def test_cli_store_verify_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        ResultStore(tmp_path).put("cd" + "2" * 62, 1)
        assert main(["store", "verify", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["corrupt"] == 0
