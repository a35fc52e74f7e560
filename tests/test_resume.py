"""Crash-safe resume tests (repro.sim.resume).

A killed run leaves a torn ``.part`` ledger plus a result store with
every completed slot's answer.  ``resume_run`` must finish the run
without re-solving the completed slots (they resolve from the store),
tolerate torn trailing lines and missing summary footers, degrade a
vanished or corrupt store entry to a re-solve (never a crash), and
refuse runs that cannot be resumed faithfully.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.exec import ResultStore
from repro.obs.ledger import load_run
from repro.sim import resume_run
from repro.sim.simulator import Simulator

SLOTS = 24
COMPLETED = 10  # slot records the fabricated torn ledger keeps


@pytest.fixture(scope="module")
def finished(small_model, small_bundle, tmp_path_factory):
    """One finished, store-backed, ledger-recorded 24-slot run."""
    base = tmp_path_factory.mktemp("resume-src")
    store = base / "store"
    ledgers = base / "ledgers"
    sim = Simulator(
        small_model,
        small_bundle,
        HorizonEngine("centralized", store=str(store), ledger=str(ledgers)),
    )
    sim.run(HYBRID)
    (path,) = ledgers.glob("*.jsonl")
    return {"store": store, "run": load_run(path), "lines": path.read_text()}


def _copy_store(source, target):
    """A copy of a store directory's segment files."""
    target.mkdir()
    for path in source.glob("*.seg"):
        (target / path.name).write_bytes(path.read_bytes())
    return target


def _fabricate_torn_part(finished, target_dir):
    """An interrupted-run ledger: header, 10 slot records, torn line.

    Exactly what ``kill -9`` leaves behind — every flushed record is
    intact, the in-flight write is torn mid-line, and there is no
    summary footer.
    """
    lines = finished["lines"].splitlines()
    header, slots = lines[0], [
        line for line in lines[1:] if json.loads(line).get("kind") == "slot"
    ]
    target_dir.mkdir(parents=True, exist_ok=True)
    part = target_dir / f"{finished['run'].run_id}.jsonl.part"
    torn = '{"kind": "slot", "index": 10, "ok": tr'
    part.write_text("\n".join([header, *slots[:COMPLETED], torn]) + "\n")
    return part


class TestResume:
    def test_torn_part_resumes_from_store_without_resolving(
        self, finished, tmp_path
    ):
        _fabricate_torn_part(finished, tmp_path)
        report = resume_run(
            finished["run"].run_id, tmp_path, store=finished["store"]
        )
        assert report.ok
        assert report.resumed_from == finished["run"].run_id
        assert report.run_id == f"{finished['run'].run_id}-r1"
        assert report.completed_before == COMPLETED
        assert report.slots_total == SLOTS
        assert report.failed_slots == 0
        # Every slot — completed-before *and* remainder — was already
        # in the store, so nothing re-solves: the per-slot outcomes are
        # the interrupted run's own persisted results, bit-identical.
        assert report.store_hits == SLOTS
        assert report.store_misses == 0

        run = load_run(report.ledger_path)
        assert run.finalized
        assert len(run.slots) == SLOTS
        assert all(s["ok"] for s in run.slots)
        assert all(s.get("store_hit") for s in run.slots)
        assert run.header["context"]["resumed_from"] == finished["run"].run_id

    def test_resume_ids_increment(self, finished, tmp_path):
        _fabricate_torn_part(finished, tmp_path)
        first = resume_run(
            finished["run"].run_id, tmp_path, store=finished["store"]
        )
        _fabricate_torn_part(finished, tmp_path)
        second = resume_run(
            finished["run"].run_id, tmp_path, store=finished["store"]
        )
        assert first.run_id.endswith("-r1")
        assert second.run_id.endswith("-r2")

    def test_vanished_store_entry_re_solves_not_crashes(
        self, finished, tmp_path
    ):
        _fabricate_torn_part(finished, tmp_path)
        store_copy = _copy_store(finished["store"], tmp_path / "store")
        (segment,) = store_copy.glob("*.seg")
        # One completed slot's result vanished: the last record lost
        # its final byte, as a crash mid-write would leave it.
        with open(segment, "r+b") as fh:
            fh.truncate(segment.stat().st_size - 1)

        report = resume_run(
            finished["run"].run_id, tmp_path, store=store_copy
        )
        assert report.ok
        assert report.failed_slots == 0
        assert report.store_hits == SLOTS - 1
        assert report.store_misses == 1  # degraded to one re-solve

    def test_corrupt_store_entry_is_quarantined_and_re_solved(
        self, finished, tmp_path
    ):
        _fabricate_torn_part(finished, tmp_path)
        store_copy = _copy_store(finished["store"], tmp_path / "store")
        (victim,) = store_copy.glob("*.seg")
        data = bytearray(victim.read_bytes())
        data[100] ^= 0xFF  # inside the first record's pickle
        victim.write_bytes(bytes(data))

        report = resume_run(
            finished["run"].run_id, tmp_path, store=store_copy
        )
        assert report.ok
        assert report.store_hits == SLOTS - 1
        # The bad bytes were moved aside for the post-mortem; the good
        # records were rewritten and the re-solve appended a fresh one.
        assert (store_copy / "corrupt" / victim.name).exists()
        assert not victim.exists()
        reopened = ResultStore(store_copy)
        assert len(reopened) == SLOTS
        assert reopened.verify() == {"entries": SLOTS, "ok": SLOTS, "corrupt": 0}

    def test_finalized_run_is_refused(self, finished):
        with pytest.raises(ValueError, match="already finalized"):
            resume_run(
                finished["run"].run_id, finished["run"].path.parent
            )

    def test_missing_recipe_is_refused(self, tmp_path):
        part = tmp_path / "bare-run.jsonl.part"
        part.write_text(
            json.dumps(
                {"kind": "header", "version": 1, "run_id": "bare-run"}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="no resume recipe"):
            resume_run("bare-run", tmp_path)

    def test_unknown_strategy_is_refused(self, finished, tmp_path):
        lines = finished["lines"].splitlines()
        header = json.loads(lines[0])
        header["context"]["strategies"] = ["Antigravity"]
        part = tmp_path / f"{header['run_id']}.jsonl.part"
        part.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="unknown strategy"):
            resume_run(header["run_id"], tmp_path)


class TestResumeCli:
    def test_cli_round_trip(self, finished, tmp_path, capsys):
        _fabricate_torn_part(finished, tmp_path)
        rc = main(
            [
                "resume",
                finished["run"].run_id,
                "--ledger-dir",
                str(tmp_path),
                "--store",
                str(finished["store"]),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed before crash : 10/24 slots" in out
        assert "failed slots" in out

    def test_cli_unknown_run_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["resume", "no-such-run", "--ledger-dir", str(tmp_path)])
        assert rc == 2
        assert "no-such-run" in capsys.readouterr().err
