"""Tests for the run ledger (repro.obs.ledger), the `repro top`
dashboard renderer (repro.viz.top), and the ledger-driven CLI commands.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core.strategies import HYBRID
from repro.engine import HorizonEngine
from repro.obs.ledger import (
    LedgerRun,
    RunLedger,
    diff_runs,
    ledger_path,
    list_runs,
    load_run,
    new_run_id,
    resolve_run,
)
from repro.obs.records import SlotTelemetry
from repro.sim.simulator import Simulator
from repro.viz.top import render_top, replay_frames

SLOTS = 6


@pytest.fixture(scope="module")
def problems(small_model, small_bundle):
    sim = Simulator(small_model, small_bundle)
    return [sim.problem_for_slot(t, HYBRID) for t in range(SLOTS)]


def _fake_outcome(index, wall_s=0.004, worker=1234, error=None):
    return SimpleNamespace(
        index=index,
        error=error,
        error_type=None if error is None else "RuntimeError",
        attempts=1,
        degraded=False,
        fallback_solver=None,
        telemetry=SlotTelemetry(
            solver="centralized",
            wall_s=wall_s,
            compile_s=0.001,
            iterations=9,
            converged=error is None,
            cache_hit=True,
            worker=worker,
            warm_start=False,
            error_type=None if error is None else "RuntimeError",
        ),
    )


class TestRunLedgerWriter:
    def test_write_finalize_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path, run_id="testrun-000001")
        ledger.write_header(
            solver="centralized",
            config={"workers": 2},
            digests={"inputs_sha256": "ab" * 32, "slots": "6"},
            environment={"python": "3.11"},
            slots_expected=3,
        )
        for i in range(3):
            ledger.record_slot(_fake_outcome(i), pending=2 - i)
        path = ledger.finalize({"solver": "centralized", "failed_slots": 0})
        assert path == ledger_path(tmp_path, "testrun-000001")
        assert path.is_file()
        assert not ledger.part_path.exists()

        run = load_run(path)
        assert run.finalized
        assert run.run_id == "testrun-000001"
        assert run.header["solver"] == "centralized"
        assert run.header["config"] == {"workers": 2}
        assert run.header["slots_expected"] == 3
        assert [s["index"] for s in run.slots] == [0, 1, 2]
        assert [s["pending"] for s in run.slots] == [2, 1, 0]
        assert run.summary["slots"] == 3
        assert run.summary["failed_slots"] == 0

    def test_finalize_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.write_header(solver="centralized")
        assert ledger.finalize() == ledger.finalize()

    def test_abandon_leaves_part_file(self, tmp_path):
        ledger = RunLedger(tmp_path, run_id="crashed-000001")
        ledger.write_header(solver="centralized")
        ledger.record_slot(_fake_outcome(0))
        ledger.abandon()
        assert ledger.part_path.is_file()
        assert not ledger.path.exists()
        run = load_run(ledger.part_path)
        assert not run.finalized
        assert len(run.slots) == 1
        with pytest.raises(RuntimeError, match="closed"):
            ledger.record_slot(_fake_outcome(1))

    def test_error_slots_and_flags_are_recorded(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.write_header(solver="centralized")
        bad = _fake_outcome(0, error="RuntimeError: boom")
        bad.attempts = 3
        bad.degraded = True
        bad.fallback_solver = "proportional"
        ledger.record_slot(bad)
        run = load_run(ledger.finalize())
        (slot,) = run.slots
        assert slot["ok"] is False
        assert slot["error_type"] == "RuntimeError"
        assert slot["attempts"] == 3
        assert slot["degraded"] is True
        assert slot["fallback_solver"] == "proportional"
        assert run.failed == [slot]

    def test_load_run_tolerates_torn_trailing_line(self, tmp_path):
        ledger = RunLedger(tmp_path, run_id="torn-000001")
        ledger.write_header(solver="centralized")
        ledger.record_slot(_fake_outcome(0))
        ledger.record_slot(_fake_outcome(1))
        ledger.abandon()
        # Simulate a writer caught mid-append.
        with open(ledger.part_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"slot","index":2,"ok":tr')
        run = load_run(ledger.part_path)
        assert len(run.slots) == 2
        assert not run.finalized


class TestLedgerQueries:
    def _two_runs(self, tmp_path):
        specs = (("a-000001", 0.004, False), ("b-000002", 0.008, True))
        for run_id, wall, fail in specs:
            ledger = RunLedger(tmp_path, run_id=run_id)
            ledger.write_header(
                solver="centralized",
                config={"workers": 1 if run_id.startswith("a") else 2},
                digests={"inputs_sha256": "cafe"},
            )
            ledger.record_slot(_fake_outcome(0, wall_s=wall))
            ledger.record_slot(
                _fake_outcome(1, wall_s=wall, error="boom" if fail else None)
            )
            ledger.finalize({"failed_slots": int(fail)})
        return tmp_path

    def test_list_runs_newest_first_includes_live(self, tmp_path):
        self._two_runs(tmp_path)
        live = RunLedger(tmp_path, run_id="c-000003")
        live.write_header(solver="centralized")
        live.abandon()
        runs = list_runs(tmp_path)
        assert [r.run_id for r in runs] == ["c-000003", "b-000002", "a-000001"]
        assert [r.finalized for r in runs] == [False, True, True]

    def test_resolve_run_prefix_and_ambiguity(self, tmp_path):
        self._two_runs(tmp_path)
        assert resolve_run("a-", tmp_path).name == "a-000001.jsonl"
        assert resolve_run("b-000002", tmp_path).name == "b-000002.jsonl"
        # A direct path wins without touching the root.
        path = ledger_path(tmp_path, "a-000001")
        assert resolve_run(str(path)) == path
        with pytest.raises(FileNotFoundError, match="ambiguous"):
            resolve_run("", tmp_path)
        with pytest.raises(FileNotFoundError, match="no run ledger"):
            resolve_run("zzz", tmp_path)

    def test_diff_runs_reports_deltas_and_drift(self, tmp_path):
        self._two_runs(tmp_path)
        a = load_run(resolve_run("a-", tmp_path))
        b = load_run(resolve_run("b-", tmp_path))
        diff = diff_runs(a, b)
        assert diff["same_inputs"] is True
        assert diff["changed_config"] == ["workers"]
        assert diff["failed_delta"] == 1
        assert diff["solve_s_delta"] == pytest.approx(1.0)

    def test_new_run_id_is_sortable_and_unique(self):
        ids = {new_run_id() for _ in range(16)}
        assert len(ids) == 16


class TestEngineLedgerIntegration:
    def test_run_produces_finalized_ledger(self, tmp_path, problems):
        engine = HorizonEngine("centralized", ledger=tmp_path)
        outcomes = engine.run(problems)
        path = engine.last_ledger_path
        assert path is not None and path.is_file()
        run = load_run(path)
        assert run.finalized
        assert len(run.slots) == len(problems) == len(outcomes)
        assert run.header["solver"] == "centralized"
        assert run.header["slots_expected"] == len(problems)
        config = run.header["config"]
        assert config["solver"] == "centralized"
        assert config["workers"] == 1
        digests = run.header["digests"]
        assert digests["slots"] == len(problems)
        assert len(digests["inputs_sha256"]) == 64
        env = run.header["environment"]
        assert "python" in env and "host" in env
        assert run.summary["failed_slots"] == 0
        # Slot records carry the solve stream the dashboard needs.
        assert all(s["ok"] for s in run.slots)
        assert all(s["wall_s"] > 0 for s in run.slots)
        assert all(s["t_rel_s"] >= 0 for s in run.slots)

    def test_records_hold_every_slot_and_run_field(self, tmp_path, problems):
        # The ledger is the run's one event stream: each slot record
        # carries the per-slot tags and the summary record the run's
        # decision, compile, run and certification totals.
        engine = HorizonEngine(
            "centralized", workers=2, oversubscribe=True, certify=True,
            ledger=tmp_path,
        )
        engine.run(problems)
        run = load_run(engine.last_ledger_path)
        slot_keys = {
            "index", "solver", "wall_s", "iterations", "converged",
            "cache_hit", "worker", "ok",
        }
        for record in run.slots:
            assert slot_keys <= record.keys()
            assert isinstance(record["cache_hit"], bool)
        assert sorted(s["index"] for s in run.slots) == list(range(SLOTS))
        summary_keys = {
            "workers_effective", "workers_requested", "usable_cpus",
            "executor", "decision", "mp_start_method",
            "compile_s", "cache_hits", "cache_misses",
            "wall_s", "solver", "slots", "failed_slots", "overhead_s",
            "certified_slots", "suspect_slots", "worst_violation",
            "worst_kkt", "certify_s",
        }
        assert summary_keys <= run.summary.keys()
        assert run.summary["decision"] == engine.last_summary.decision
        assert run.summary["certified_slots"] == SLOTS

    def test_same_inputs_give_same_digest(self, tmp_path, problems):
        paths = []
        for sub in ("one", "two"):
            engine = HorizonEngine("centralized", ledger=tmp_path / sub)
            engine.run(problems)
            paths.append(engine.last_ledger_path)
        a, b = (load_run(p) for p in paths)
        assert (
            a.header["digests"]["inputs_sha256"]
            == b.header["digests"]["inputs_sha256"]
        )
        assert diff_runs(a, b)["same_inputs"]

    def test_bad_config_leaves_no_ledger_files(self, tmp_path, problems):
        engine = HorizonEngine("centralized", workers=2, ledger=tmp_path / "sub")
        with pytest.raises(ValueError, match="warm_start"):
            engine.run(problems, warm_start=True)
        # Validation fired before the ledger opened: nothing on disk.
        assert not (tmp_path / "sub").exists()

    def test_explicit_ledger_instance_is_single_use(self, tmp_path, problems):
        ledger = RunLedger(tmp_path, run_id="explicit-000001")
        engine = HorizonEngine("centralized", ledger=ledger)
        engine.run(problems[:2])
        assert engine.last_ledger_path == ledger.path
        assert load_run(ledger.path).run_id == "explicit-000001"

    def test_no_ledger_means_no_files(self, tmp_path, problems):
        engine = HorizonEngine("centralized")
        engine.run(problems[:2])
        assert engine.last_ledger_path is None


class TestRenderTop:
    @pytest.fixture()
    def run(self, tmp_path, problems):
        engine = HorizonEngine("centralized", ledger=tmp_path)
        engine.run(problems)
        return load_run(engine.last_ledger_path)

    def test_final_frame_mentions_everything(self, run):
        frame = render_top(run)
        assert run.run_id in frame
        assert "[final]" in frame
        assert f"slots {SLOTS}/{SLOTS}" in frame
        assert "latency" in frame
        assert "p50" in frame and "p99" in frame
        assert "outcomes" in frame

    def test_live_prefix_renders_without_summary(self, run):
        live = LedgerRun(
            path=run.path,
            run_id=run.run_id,
            header=run.header,
            slots=run.slots[:3],
            summary=None,
        )
        frame = render_top(live)
        assert "[live]" in frame
        assert f"slots 3/{SLOTS}" in frame

    def test_replay_frames_grow_to_full_coverage(self, run):
        frames = list(replay_frames(run, frames=4))
        counts = [n for n, _ in frames]
        assert counts == sorted(counts)
        assert counts[-1] == SLOTS
        assert all(isinstance(f, str) and f for _, f in frames)

    def test_empty_run_renders(self, tmp_path):
        ledger = RunLedger(tmp_path, run_id="empty-000001")
        ledger.write_header(solver="centralized", slots_expected=0)
        run = load_run(ledger.finalize())
        assert run.run_id in render_top(run)


class TestLedgerCli:
    @pytest.fixture()
    def ledger_dir(self, tmp_path):
        root = tmp_path / "runs"
        for _ in range(2):
            assert (
                main(["--hours", "6", "simulate", "--ledger", str(root)]) == 0
            )
        return root

    def test_runs_list_and_json(self, ledger_dir, capsys):
        assert main(["runs", "list", "--ledger-dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "[final]" in out
        assert main(["runs", "list", "--ledger-dir", str(ledger_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(entry["finalized"] for entry in payload)

    def test_runs_show_and_diff(self, ledger_dir, capsys):
        runs = list_runs(ledger_dir)
        assert (
            main(
                ["runs", "show", runs[0].run_id, "--ledger-dir", str(ledger_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert runs[0].run_id in out
        assert "inputs_sha256" in out
        assert "summary.decision" in out and "summary.cache_hits" in out
        assert (
            main(
                [
                    "runs",
                    "diff",
                    runs[1].run_id,
                    runs[0].run_id,
                    "--ledger-dir",
                    str(ledger_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "same inputs" in out or "inputs" in out

    def test_top_single_frame_and_replay(self, ledger_dir, capsys):
        run_id = list_runs(ledger_dir)[0].run_id
        assert main(["top", run_id, "--ledger-dir", str(ledger_dir)]) == 0
        assert run_id in capsys.readouterr().out
        assert (
            main(
                [
                    "top",
                    run_id,
                    "--ledger-dir",
                    str(ledger_dir),
                    "--replay",
                    "--frames",
                    "3",
                ]
            )
            == 0
        )
        assert run_id in capsys.readouterr().out

    def test_top_follow_returns_once_finalized(self, ledger_dir, capsys):
        run_id = list_runs(ledger_dir)[0].run_id
        # On an already-finalized run, --follow renders once and exits.
        assert (
            main(["top", run_id, "--ledger-dir", str(ledger_dir), "--follow"])
            == 0
        )
        assert "[final]" in capsys.readouterr().out

    def test_top_unknown_run_exits_2(self, tmp_path, capsys):
        assert main(["top", "nope", "--ledger-dir", str(tmp_path)]) == 2
        assert "no run ledger" in capsys.readouterr().err


class TestInterruptGuard:
    def test_guard_restores_handlers_and_chains(self, tmp_path):
        import signal

        from repro.obs import interrupt_guard

        chained = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: chained.append(signum)
        )
        try:
            ledger = RunLedger(tmp_path, run_id="guarded-000001")
            ledger.write_header(solver="centralized")
            with interrupt_guard(ledger):
                installed = signal.getsignal(signal.SIGTERM)
                assert installed is not previous
                # A signal mid-run abandons the ledger (flushed .part
                # left behind) and chains to the previous handler.
                installed(signal.SIGTERM, None)
            assert chained == [signal.SIGTERM]
            # The handler was restored on exit.
            assert signal.getsignal(signal.SIGTERM) is not installed
            # The abandoned .part is a loadable, resumable prefix.
            run = load_run(ledger.part_path)
            assert not run.finalized
            assert run.run_id == "guarded-000001"
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_guard_is_transparent_on_clean_exit(self, tmp_path):
        from repro.obs import interrupt_guard

        ledger = RunLedger(tmp_path, run_id="clean-000001")
        ledger.write_header(solver="centralized")
        with interrupt_guard(ledger):
            ledger.record_slot(_fake_outcome(0))
        path = ledger.finalize({"slots": 1})
        assert load_run(path).finalized


class TestLedgerLineage:
    def test_context_and_lineage_round_trip(self, tmp_path):
        ledger = RunLedger(
            tmp_path,
            run_id="lineage-000001",
            context={"hours": 6, "seed": 2014},
        )
        ledger.write_header(solver="centralized")
        clean = _fake_outcome(0)
        retried = _fake_outcome(1)
        retried.lineage = {
            "attempts": 2,
            "workers": ["w1", "w0"],
            "faults": ["WorkerLostError"],
            "hedged": False,
            "hedge_won": None,
            "outcome": "ok",
        }
        ledger.record_slot(clean)
        ledger.record_slot(retried)
        run = load_run(ledger.finalize({"slots": 2}))
        assert run.header["context"] == {"hours": 6, "seed": 2014}
        assert "lineage" not in run.slots[0]
        assert run.slots[1]["lineage"]["attempts"] == 2

    def test_runs_show_renders_retry_lineage(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path, run_id="lineage-000002")
        ledger.write_header(solver="centralized")
        retried = _fake_outcome(3)
        retried.lineage = {
            "attempts": 2,
            "workers": ["w1", "w0"],
            "faults": ["WorkerLostError"],
            "hedged": True,
            "hedge_won": True,
            "outcome": "ok",
        }
        ledger.record_slot(_fake_outcome(0))
        ledger.record_slot(retried)
        ledger.finalize({"slots": 2})
        assert (
            main(["runs", "show", "lineage-000002", "--ledger-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "retry lineage" in out
        assert "w1->w0" in out
        assert "hedge won" in out
        assert "WorkerLostError" in out
