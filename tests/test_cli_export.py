"""Tests for the CLI (repro.cli) and the CSV exporters."""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.export import export_all


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.strategy == "hybrid"
        assert args.solver == "centralized"
        assert args.hours == 168

    def test_global_options_precede_command(self):
        args = build_parser().parse_args(["--hours", "24", "sweep", "tax"])
        assert args.hours == 24
        assert args.kind == "tax"

    def test_unknown_command_rejected(self):
        for argv in (
            ["frobnicate"],
            ["--telemetry-out", "x.jsonl", "simulate"],
            ["--worker-profile", "3", "simulate"],
            ["simulate", "--worker-profile", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["--hours", "3", "simulate", "--strategy", "grid"]) == 0
        out = capsys.readouterr().out
        assert "strategy            : Grid" in out

    def test_simulate_distributed(self, capsys):
        assert main(
            ["--hours", "2", "simulate", "--solver", "distributed"]
        ) == 0
        out = capsys.readouterr().out
        assert "iterations" in out

    def test_compare(self, capsys):
        assert main(["--hours", "3", "compare"]) == 0
        out = capsys.readouterr().out
        assert "Hybrid" in out and "Fuel cell" in out
        assert "improvement" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_sweep_price(self, capsys):
        assert main(["--hours", "4", "sweep", "price"]) == 0
        assert "p0" in capsys.readouterr().out

    def test_sweep_tax(self, capsys):
        assert main(["--hours", "4", "sweep", "tax"]) == 0
        assert "carbon-tax" in capsys.readouterr().out

    def test_convergence(self, capsys):
        assert main(["--hours", "3", "convergence"]) == 0
        assert "CDF" in capsys.readouterr().out

    def test_chaos_unknown_fallback_is_a_usage_error(self, capsys):
        argv = ["chaos", "--scenario", "bit-rot", "--horizon", "2", "--fallback", "bogus"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown fallback solver(s) 'bogus'" in err

    def test_report_fast(self, capsys):
        assert main(["--hours", "3", "report", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Fig. 8" in out
        assert "Fig. 9" not in out  # skipped by --fast


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        paths = export_all(out, hours=26)
        return out, paths

    def test_all_files_written(self, exported):
        out, paths = exported
        names = {p.name for p in paths}
        assert names == {
            "table1_energy_costs.csv",
            "fig3_traces.csv",
            "fig4_ufc_improvements.csv",
            "fig5to7_strategy_series.csv",
            "fig8_utilization.csv",
            "fig9_price_sweep.csv",
            "fig10_tax_sweep.csv",
            "fig11_convergence_cdf.csv",
        }
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_csv_structure(self, exported):
        out, _ = exported
        with (Path(out) / "fig4_ufc_improvements.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["hour", "i_hg", "i_hf", "i_fg"]
        assert len(rows) == 1 + 26  # header + one row per slot

    def test_table1_csv_values(self, exported):
        out, _ = exported
        with (Path(out) / "table1_energy_costs.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["site", "grid", "fuel_cell", "hybrid"]
        sites = {row[0] for row in rows[1:]}
        assert sites == {"dallas", "san_jose"}
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(27957.0, rel=1e-6)
