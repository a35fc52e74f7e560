"""Command-line interface.

Installed as ``python -m repro``::

    python -m repro simulate --hours 48 --strategy hybrid
    python -m repro compare --hours 24
    python -m repro --profile simulate
    python -m repro --telemetry-out run.jsonl compare
    python -m repro report --fast
    python -m repro sweep price --hours 48
    python -m repro sweep tax --hours 48
    python -m repro table1
    python -m repro convergence --hours 24
    python -m repro export --out results/ --hours 48
    python -m repro validate
    python -m repro doctor --horizon 24
    python -m repro doctor --solver distributed --json doctor.json
    python -m repro compare --client mp --max-pending 4 --store .repro-store
    python -m repro exec-worker --connect 127.0.0.1:7463
    python -m repro simulate --ledger runs/ --metrics-out metrics.prom
    python -m repro top runs/20260808-* --replay
    python -m repro runs list --ledger-dir runs/
    python -m repro runs diff RUN_A RUN_B --ledger-dir runs/
    python -m repro chaos --list
    python -m repro chaos --scenario dc-crash --horizon 24
    python -m repro chaos --spec my_scenario.json --json chaos.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.strategies import FUEL_CELL, GRID, HYBRID, Strategy
from repro.engine.registry import available_solvers, create_solver
from repro.exec import available_clients
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

__all__ = ["main", "build_parser"]

_STRATEGIES: dict[str, Strategy] = {
    "grid": GRID,
    "fuel-cell": FUEL_CELL,
    "hybrid": HYBRID,
}


def _add_exec_args(cmd: argparse.ArgumentParser) -> None:
    """The execution-layer knobs shared by the solving subcommands."""
    cmd.add_argument(
        "--client",
        choices=available_clients(),
        default=None,
        help="execution backend to solve through (default: classic "
        "workers-driven serial/pool choice; results are identical "
        "on every backend)",
    )
    cmd.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="cap on in-flight slot batches (pipelined submission); "
        "default keeps every batch in flight",
    )
    cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store directory; repeated runs "
        "resolve unchanged slots from disk",
    )
    cmd.add_argument(
        "--supervise",
        action="store_true",
        help="run under fleet supervision: lost or straggling slots "
        "are resubmitted/hedged to surviving workers instead of "
        "failing the run (asynchronous clients only)",
    )


def _exec_kwargs(args) -> dict:
    """Simulator/engine kwargs from the ``_add_exec_args`` flags."""
    return {
        "client": args.client,
        "max_pending": args.max_pending,
        "store": args.store,
        "supervision": True if args.supervise else None,
    }


def _add_obs_args(cmd: argparse.ArgumentParser) -> None:
    """The observability-plane knobs shared by the solving subcommands."""
    cmd.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="persist the run as a JSONL ledger under DIR (header, "
        "per-slot outcome stream, summary) — the data source for "
        "'repro top' and 'repro runs'",
    )
    cmd.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's merged metrics registry (parent-side "
        "engine series plus worker-shipped samples) in Prometheus "
        "exposition format to PATH",
    )
    cmd.add_argument(
        "--worker-profile",
        type=int,
        default=0,
        metavar="N",
        help="profile each slot's solve in the worker with cProfile "
        "and ship the top-N hotspot rows back on the outcome "
        "(0 disables)",
    )


def _obs_kwargs(args, metrics=None):
    """Simulator kwargs from the ``_add_obs_args`` flags.

    ``--metrics-out`` needs a registry to merge into; the caller's own
    registry wins (the doctor already keeps one), otherwise a fresh one
    is created when any obs flag asks for it.
    """
    if metrics is None and args.metrics_out:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    return {
        "ledger": args.ledger,
        "worker_profile": args.worker_profile,
        "metrics": metrics,
    }


def _write_metrics_out(args, metrics) -> None:
    if args.metrics_out and metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_prometheus())
        print(f"wrote {args.metrics_out}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fuel Cell Generation in "
        "Geo-Distributed Cloud Services' (ICDCS 2014)",
    )
    parser.add_argument("--hours", type=int, default=168, help="horizon (slots)")
    parser.add_argument("--seed", type=int, default=2014, help="trace seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the solve engine (results are "
        "identical at any worker count; counts beyond the usable CPUs "
        "are clamped, and a useless pool falls back to serial)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the engine's per-phase profile (compile / solve / "
        "IPC, cache hits, executor decision) after the run "
        "(simulate and compare)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write engine telemetry events as JSON lines to PATH "
        "(simulate and compare)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one strategy and print a summary")
    sim.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="hybrid"
    )
    sim.add_argument(
        "--solver", choices=available_solvers(), default="centralized"
    )
    sim.add_argument("--rho", type=float, default=0.3,
                     help="ADM-G penalty (distributed solver only)")
    _add_exec_args(sim)
    _add_obs_args(sim)

    compare = sub.add_parser("compare", help="run all three strategies")
    _add_exec_args(compare)
    _add_obs_args(compare)

    report = sub.add_parser("report", help="regenerate every table/figure")
    report.add_argument("--fast", action="store_true", help="skip sweeps/Fig.11")

    sweep = sub.add_parser("sweep", help="regenerate Fig. 9 or Fig. 10")
    sweep.add_argument("kind", choices=["price", "tax"])

    sub.add_parser("table1", help="regenerate Table I")

    conv = sub.add_parser("convergence", help="regenerate Fig. 11")
    conv.add_argument("--rho", type=float, default=0.3)
    conv.add_argument("--tol", type=float, default=6e-3)

    export = sub.add_parser("export", help="write every figure's series to CSV")
    export.add_argument("--out", default="results", help="output directory")

    sub.add_parser(
        "validate", help="run every experiment and print the scorecard"
    )

    doctor = sub.add_parser(
        "doctor",
        help="certify every slot's solution a posteriori and print a "
        "horizon-health report (exit 1 if any slot fails)",
    )
    doctor.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="SLOTS",
        help="slots to certify (alias for the global --hours)",
    )
    doctor.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="hybrid"
    )
    doctor.add_argument(
        "--solver", choices=available_solvers(), default="centralized"
    )
    doctor.add_argument(
        "--tol",
        type=float,
        default=None,
        help="solver tolerance override; the distributed solver "
        "defaults to certification-grade 1e-6 here (the library "
        "default 1e-3 reproduces the paper's round counts but cannot "
        "meet the KKT gate)",
    )
    doctor.add_argument(
        "--max-iter",
        type=int,
        default=None,
        help="solver iteration cap override (distributed default "
        "here: 5000)",
    )
    doctor.add_argument(
        "--feas-tol",
        type=float,
        default=1e-6,
        help="max accepted relative constraint violation",
    )
    doctor.add_argument(
        "--kkt-tol",
        type=float,
        default=1e-5,
        help="max accepted relative KKT residual",
    )
    doctor.add_argument(
        "--full",
        action="store_true",
        help="show every slot in the table (default truncates "
        "passing rows; failures are always shown)",
    )
    doctor.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the certificate summary (per-slot verdicts "
        "plus the metrics registry) as JSON to PATH",
    )
    _add_exec_args(doctor)
    _add_obs_args(doctor)

    worker = sub.add_parser(
        "exec-worker",
        help="serve this process as a socket-client solve worker "
        "(connect to a SocketClient's listener and run tasks until "
        "it stops)",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the SocketClient listener to join (e.g. "
        "127.0.0.1:7463) — run one worker per CPU you want to lend",
    )

    top = sub.add_parser(
        "top",
        help="render a run-ledger dashboard: throughput, pending "
        "depth, latency percentiles, per-worker utilization and "
        "retry/fallback counts",
    )
    top.add_argument(
        "run",
        metavar="RUN",
        help="ledger file path, run id, or unique run-id prefix "
        "(resolved under --ledger-dir)",
    )
    top.add_argument(
        "--ledger-dir",
        default=".",
        metavar="DIR",
        help="directory run ids are resolved in (default: .)",
    )
    top.add_argument(
        "--replay",
        action="store_true",
        help="render the run as a sequence of frames over growing "
        "slot prefixes, reconstructing how it unfolded",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=8,
        metavar="N",
        help="frames for --replay (default 8)",
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="poll a live .part ledger and re-render until it "
        "finalizes (or Ctrl-C)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="poll interval for --follow (default 1.0s)",
    )
    top.add_argument(
        "--width", type=int, default=64, help="chart width (default 64)"
    )

    runs = sub.add_parser(
        "runs",
        help="query a run-ledger directory: list runs, show one "
        "run's manifest, or diff two runs",
    )
    runs.add_argument(
        "action",
        choices=["list", "show", "diff"],
        help="list every ledger; show one run's header/summary; "
        "diff two runs' config, inputs and timings",
    )
    runs.add_argument(
        "refs",
        nargs="*",
        metavar="RUN",
        help="run references — none for list, one for show, two "
        "for diff",
    )
    runs.add_argument(
        "--ledger-dir",
        default=".",
        metavar="DIR",
        help="ledger directory (default: .)",
    )
    runs.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario over a horizon and print "
        "the resilience report (exit 1 unless every slot's allocation "
        "certifies feasible)",
    )
    chaos.add_argument(
        "--scenario",
        default="flaky-net",
        metavar="NAME",
        help="shipped scenario name (see --list); ignored with --spec",
    )
    chaos.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="JSON fault-plan spec file (overrides --scenario)",
    )
    chaos.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="SLOTS",
        help="slots to run (alias for the global --hours; chaos "
        "defaults to 24 rather than the global 168)",
    )
    chaos.add_argument(
        "--strategy", choices=sorted(_STRATEGIES), default="hybrid"
    )
    chaos.add_argument(
        "--fallback",
        default="centralized,proportional",
        metavar="CHAIN",
        help="comma-separated engine fallback chain for degraded slots "
        "('' disables escalation and keeps degraded distributed results)",
    )
    chaos.add_argument(
        "--events",
        type=int,
        default=12,
        metavar="N",
        help="notable fault/recovery events to print",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list shipped scenarios and exit"
    )
    chaos.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="record the run to a ledger directory (worker-churn only: "
        "the fleet run's retry lineage lands in the ledger)",
    )
    chaos.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full report (slots, events, metrics) as "
        "JSON to PATH",
    )

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted run from its torn .part ledger: "
        "slots the crashed run completed resolve from the result "
        "store (no re-solve), only the remainder solves, and a fresh "
        "finalized ledger is written",
    )
    resume.add_argument(
        "run",
        metavar="RUN",
        help="ledger file path, run id, or unique run-id prefix "
        "(resolved under --ledger-dir; .part ledgers resolve too)",
    )
    resume.add_argument(
        "--ledger-dir",
        default=".",
        metavar="DIR",
        help="directory run ids are resolved in and the resume ledger "
        "is written to (default: .)",
    )
    resume.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="override the recipe's result-store directory (e.g. when "
        "the store moved); without any store every slot re-solves",
    )
    resume.add_argument(
        "--supervise",
        action="store_true",
        help="run the remainder under fleet supervision",
    )

    store = sub.add_parser(
        "store",
        help="inspect a persistent result store (verify: probe every "
        "entry, quarantine the corrupt, report hit/miss/corrupt "
        "counts; exit 1 if anything was corrupt)",
    )
    store.add_argument("action", choices=["verify"])
    store.add_argument("dir", metavar="DIR", help="store directory")
    store.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    return parser


def _telemetry_sink(args):
    """The ``--telemetry-out`` JSONL sink, or None."""
    if args.telemetry_out:
        from repro.obs import JsonlTelemetry

        return JsonlTelemetry(args.telemetry_out)
    return None


def _print_profile(args, summary) -> None:
    if args.profile and summary is not None:
        print()
        print(summary.format_table())


def _cmd_simulate(args) -> int:
    bundle = default_bundle(hours=args.hours, seed=args.seed)
    model = build_model(bundle)
    solver_kwargs = {"rho": args.rho} if args.solver == "distributed" else {}
    solver = create_solver(args.solver, **solver_kwargs)
    sink = _telemetry_sink(args)
    obs = _obs_kwargs(args)
    try:
        sim = Simulator(
            model,
            bundle,
            solver=solver,
            workers=args.workers,
            **_exec_kwargs(args),
            **obs,
        )
        result = sim.run(_STRATEGIES[args.strategy], telemetry=sink)
    finally:
        if sink is not None:
            sink.close()
    print(result.summary())
    _print_profile(args, result.horizon_summary)
    _write_metrics_out(args, obs["metrics"])
    return 0


def _cmd_compare(args) -> int:
    bundle = default_bundle(hours=args.hours, seed=args.seed)
    model = build_model(bundle)
    sink = _telemetry_sink(args)
    obs = _obs_kwargs(args)
    try:
        comp = Simulator(
            model, bundle, **_exec_kwargs(args), **obs
        ).compare_strategies(workers=args.workers, telemetry=sink)
    finally:
        if sink is not None:
            sink.close()
    for result in (comp.grid, comp.fuel_cell, comp.hybrid):
        print(result.summary())
        print()
    gain = np.mean(
        (comp.hybrid.ufc - comp.grid.ufc) / np.abs(comp.grid.ufc)
    )
    print(f"mean hybrid-over-grid UFC improvement: {100 * gain:+.1f}%")
    # All three strategies share one engine pass, hence one summary.
    _print_profile(args, comp.hybrid.horizon_summary)
    _write_metrics_out(args, obs["metrics"])
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    print(
        generate_report(
            hours=args.hours, seed=args.seed, fast=args.fast, workers=args.workers
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    if args.kind == "price":
        from repro.experiments.fig9_price_sweep import render_fig9, run_fig9

        print(
            render_fig9(
                run_fig9(hours=args.hours, seed=args.seed, workers=args.workers)
            )
        )
    else:
        from repro.experiments.fig10_tax_sweep import render_fig10, run_fig10

        print(
            render_fig10(
                run_fig10(hours=args.hours, seed=args.seed, workers=args.workers)
            )
        )
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.table1 import render_table1, run_table1

    print(render_table1(run_table1()))
    return 0


def _cmd_convergence(args) -> int:
    from repro.experiments.fig11_convergence import render_fig11, run_fig11

    print(
        render_fig11(
            run_fig11(
                hours=args.hours,
                seed=args.seed,
                rho=args.rho,
                tol=args.tol,
                workers=args.workers,
            )
        )
    )
    return 0


def _cmd_export(args) -> int:
    from repro.experiments.export import export_all

    paths = export_all(args.out, hours=args.hours, seed=args.seed)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_doctor(args) -> int:
    from repro.obs import MetricsRegistry
    from repro.obs.certify import CertificationContext
    from repro.viz.health import health_dashboard, health_table

    hours = args.hours if args.horizon is None else args.horizon
    bundle = default_bundle(hours=hours, seed=args.seed)
    model = build_model(bundle)
    solver_kwargs = {}
    if args.solver == "distributed":
        # Certification-grade accuracy: the library default (tol=1e-3)
        # matches the paper's round counts but stops far from the KKT
        # point, so the doctor tightens the stopping rule instead.
        solver_kwargs["tol"] = 1e-6 if args.tol is None else args.tol
        solver_kwargs["max_iter"] = (
            5000 if args.max_iter is None else args.max_iter
        )
    else:
        if args.tol is not None:
            solver_kwargs["tol"] = args.tol
        if args.max_iter is not None:
            solver_kwargs["max_iter"] = args.max_iter
    solver = create_solver(args.solver, **solver_kwargs)
    certifier = CertificationContext(
        feas_tol=args.feas_tol, kkt_tol=args.kkt_tol
    )
    metrics = MetricsRegistry()
    sink = _telemetry_sink(args)
    try:
        sim = Simulator(
            model,
            bundle,
            solver=solver,
            workers=args.workers,
            certify=certifier,
            **_exec_kwargs(args),
            **_obs_kwargs(args, metrics=metrics),
        )
        result = sim.run(_STRATEGIES[args.strategy], telemetry=sink)
    finally:
        if sink is not None:
            sink.close()
    certs = result.certificates or ()
    if not certs:
        print("doctor: no certificates produced", file=sys.stderr)
        return 1
    print(
        f"certifying {len(certs)} slots: solver={args.solver} "
        f"strategy={args.strategy} seed={args.seed}"
    )
    print()
    print(health_dashboard(certs, summary=result.horizon_summary))
    print()
    print(health_table(certs, max_rows=None if args.full else 24))
    _print_profile(args, result.horizon_summary)
    failing = [c for c in certs if not c.ok]
    if args.json:
        import json

        payload = {
            "solver": args.solver,
            "strategy": args.strategy,
            "hours": hours,
            "seed": args.seed,
            "feas_tol": args.feas_tol,
            "kkt_tol": args.kkt_tol,
            "slots": len(certs),
            "failing_slots": [c.slot for c in failing],
            "worst_violation": max(c.worst_violation for c in certs),
            "worst_kkt_residual": max(c.kkt_residual for c in certs),
            "certificates": [c.to_dict() for c in certs],
            "metrics": metrics.to_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    _write_metrics_out(args, metrics)
    return 1 if failing else 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultPlan, available_scenarios, scenario_spec
    from repro.faults.chaos import run_chaos

    if args.list:
        for name in available_scenarios():
            spec = scenario_spec(name)
            if spec.get("kind") == "worker-churn":
                detail = (
                    f"process-level: {spec.get('workers', 2)} exec "
                    f"workers, {spec.get('kills', 1)} kill(s), "
                    f"{'respawn' if spec.get('respawn', True) else 'no respawn'}"
                )
                print(f"{name:<14} {detail}")
                continue
            active = ", ".join(
                key.replace("_probability", "")
                for key, value in spec.items()
                if key.endswith("_probability") and value
            )
            extras = [
                f"{len(spec['crashes'])} crash(es)" if spec.get("crashes") else "",
                f"{len(spec['partitions'])} partition(s)"
                if spec.get("partitions")
                else "",
            ]
            detail = ", ".join(x for x in (active, *extras) if x)
            print(f"{name:<14} {detail}")
        return 0
    if args.spec:
        import json

        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    else:
        spec = dict(scenario_spec(args.scenario))
    if args.horizon is not None:
        hours = args.horizon
    else:
        # The global --hours default (168) is a full week — heavy for a
        # chaos run that also solves a fault-free baseline.
        hours = 24 if args.hours == 168 else args.hours
    if spec.get("kind") == "worker-churn":
        # Process-level chaos takes the fleet path, not FaultPlan.
        from repro.faults.churn import run_worker_churn

        report = run_worker_churn(
            spec,
            hours=hours,
            seed=args.seed,
            strategy=_STRATEGIES[args.strategy],
            ledger=args.ledger,
        )
        print(report.render(max_events=args.events))
        if args.json:
            import json

            payload = report.to_dict()
            payload["metrics"] = report.metrics.to_dict()
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
            print(f"\nwrote {args.json}")
        return 0 if report.passed else 1
    plan = FaultPlan.from_spec(spec)
    fallback = tuple(
        name.strip() for name in args.fallback.split(",") if name.strip()
    )
    report = run_chaos(
        plan,
        hours=hours,
        seed=args.seed,
        strategy=_STRATEGIES[args.strategy],
        fallback=fallback,
    )
    print(report.render(max_events=args.events))
    if args.json:
        import json

        payload = report.to_dict()
        payload["metrics"] = report.metrics.to_dict()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0 if report.passed else 1


def _cmd_exec_worker(args) -> int:
    from repro.exec import serve_worker

    host, sep, port = args.connect.rpartition(":")
    if not sep or not host or not port.isdigit():
        print(
            f"exec-worker: --connect wants HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    serve_worker(host, int(port))
    return 0


def _cmd_top(args) -> int:
    import time

    from repro.obs import load_run, resolve_run
    from repro.viz.top import render_top, replay_frames

    try:
        path = resolve_run(args.run, args.ledger_dir)
    except FileNotFoundError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 2
    if args.follow:
        try:
            while True:
                run = load_run(path)
                print(render_top(run, width=args.width))
                if run.finalized:
                    return 0
                time.sleep(max(0.05, args.interval))
                # A live .part promotes to .jsonl on finalize; chase it.
                if not path.is_file():
                    path = resolve_run(run.run_id, args.ledger_dir)
                print()
        except KeyboardInterrupt:
            return 130
    run = load_run(path)
    if args.replay:
        for shown, frame in replay_frames(
            run, frames=args.frames, width=args.width
        ):
            print(frame)
            print()
        return 0
    print(render_top(run, width=args.width))
    return 0


def _cmd_runs(args) -> int:
    import json

    from repro.obs import diff_runs, list_runs, load_run, resolve_run

    def _resolve(ref: str):
        return load_run(resolve_run(ref, args.ledger_dir))

    if args.action == "list":
        if args.refs:
            print("runs list: takes no RUN arguments", file=sys.stderr)
            return 2
        runs = list_runs(args.ledger_dir)
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "run_id": r.run_id,
                            "finalized": r.finalized,
                            "solver": r.header.get("solver"),
                            "slots": len(r.slots),
                            "failed": len(r.failed),
                            "wall_s": (r.summary or {}).get("wall_s"),
                        }
                        for r in runs
                    ],
                    indent=2,
                )
            )
            return 0
        if not runs:
            print(f"no run ledgers under {args.ledger_dir}")
            return 0
        for r in runs:
            status = "final" if r.finalized else "LIVE "
            wall = (r.summary or {}).get("wall_s")
            wall_str = f"{float(wall):8.3f}s" if wall is not None else "       -"
            print(
                f"{r.run_id}  [{status}]  solver={r.header.get('solver', '?'):<12} "
                f"slots={len(r.slots):>4}  failed={len(r.failed):>3}  "
                f"wall={wall_str}"
            )
        return 0
    if args.action == "show":
        if len(args.refs) != 1:
            print("runs show: exactly one RUN argument", file=sys.stderr)
            return 2
        try:
            run = _resolve(args.refs[0])
        except FileNotFoundError as exc:
            print(f"runs: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(
                json.dumps(
                    {
                        "run_id": run.run_id,
                        "finalized": run.finalized,
                        "header": run.header,
                        "slots": run.slots,
                        "summary": run.summary,
                    },
                    indent=2,
                )
            )
            return 0
        print(f"run {run.run_id}  [{'final' if run.finalized else 'live'}]")
        for key in ("solver", "slots_expected", "created_unix"):
            if run.header.get(key) is not None:
                print(f"  {key:<15}: {run.header[key]}")
        for section in ("config", "digests", "environment"):
            data = run.header.get(section) or {}
            for key, value in data.items():
                print(f"  {section}.{key:<20}: {value}")
        print(f"  slots harvested: {len(run.slots)} ({len(run.failed)} failed)")
        flagged = [s for s in run.slots if s.get("lineage")]
        if flagged:
            print("  retry lineage  : (slots that were not first-try-clean)")
            for s in flagged:
                li = s["lineage"]
                hedge = ""
                if li.get("hedged"):
                    hedge = ", hedge " + (
                        "won" if li.get("hedge_won") else "lost"
                    )
                workers = "->".join(li.get("workers") or []) or "?"
                faults = ", ".join(li.get("faults") or []) or "clean"
                print(
                    f"    slot {s['index']:>4}: "
                    f"{li.get('attempts', 1)} attempt(s) over {workers} "
                    f"({faults}{hedge}) -> {li.get('outcome', '?')}"
                )
        if run.summary is not None:
            for key in ("wall_s", "solve_s", "executor", "slot_p50_s", "slot_p99_s"):
                if run.summary.get(key) is not None:
                    print(f"  summary.{key:<15}: {run.summary[key]}")
        return 0
    # diff
    if len(args.refs) != 2:
        print("runs diff: exactly two RUN arguments", file=sys.stderr)
        return 2
    try:
        run_a, run_b = _resolve(args.refs[0]), _resolve(args.refs[1])
    except FileNotFoundError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(run_a, run_b)
    if args.json:
        print(json.dumps(diff, indent=2))
        return 0
    print(f"a: {diff['a']['run_id']}   b: {diff['b']['run_id']}")
    print(f"same inputs     : {'yes' if diff['same_inputs'] else 'NO'}")
    if diff["changed_digests"]:
        print(f"changed digests : {', '.join(diff['changed_digests'])}")
    if diff["changed_config"]:
        print(f"changed config  : {', '.join(diff['changed_config'])}")
    for side in ("a", "b"):
        s = diff[side]
        print(
            f"{side}: slots={s['slots']} failed={s['failed']} "
            f"solve={s['solve_s']:.3f}s p50={s['p50_s'] * 1e3:.2f}ms "
            f"p99={s['p99_s'] * 1e3:.2f}ms workers={len(s['workers'])}"
        )
    if diff["solve_s_delta"] is not None:
        print(f"solve delta     : {100 * diff['solve_s_delta']:+.1f}%")
    print(f"failed delta    : {diff['failed_delta']:+d}")
    return 0


def _cmd_resume(args) -> int:
    from repro.exec import SupervisorConfig
    from repro.sim.resume import resume_run

    try:
        report = resume_run(
            args.run,
            args.ledger_dir,
            store=args.store,
            supervision=SupervisorConfig() if args.supervise else None,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    print(f"resumed {report.resumed_from} as {report.run_id}")
    print(
        f"  completed before crash : {report.completed_before}/"
        f"{report.slots_total} slots"
    )
    print(
        f"  resolved from store    : {report.store_hits} "
        f"({report.store_misses} solved fresh)"
    )
    print(f"  failed slots           : {report.failed_slots}")
    print(f"  final ledger           : {report.ledger_path}")
    return 0 if report.ok else 1


def _cmd_store(args) -> int:
    import json

    from repro.exec import ResultStore

    store = ResultStore(args.dir)
    report = store.verify()
    if args.json:
        print(json.dumps({**report, "root": str(store.root)}, indent=2))
        return 0 if report["corrupt"] == 0 else 1
    print(f"store   : {store.root}")
    print(f"entries : {report['entries']}")
    print(f"hits    : {report['ok']} (readable, current version)")
    print(f"misses  : {report['corrupt']} (would re-solve)")
    print(
        f"corrupt : {report['corrupt']}"
        + (
            f"  (quarantined under {store.root / 'corrupt'})"
            if report["corrupt"]
            else ""
        )
    )
    return 0 if report["corrupt"] == 0 else 1


def _cmd_validate(args) -> int:
    from repro.experiments.validation import render_scorecard, run_validation

    checks = run_validation(hours=args.hours, seed=args.seed)
    print(render_scorecard(checks))
    return 0 if all(c.passed for c in checks) else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "convergence": _cmd_convergence,
    "export": _cmd_export,
    "validate": _cmd_validate,
    "doctor": _cmd_doctor,
    "chaos": _cmd_chaos,
    "exec-worker": _cmd_exec_worker,
    "top": _cmd_top,
    "runs": _cmd_runs,
    "resume": _cmd_resume,
    "store": _cmd_store,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse and dispatch."""
    args = build_parser().parse_args(argv)
    if args.command not in ("simulate", "compare", "doctor") and (
        args.profile or args.telemetry_out
    ):
        print(
            "note: --profile/--telemetry-out apply to the simulate, "
            "compare and doctor subcommands; ignoring.",
            file=sys.stderr,
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
