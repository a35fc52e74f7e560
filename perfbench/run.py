"""The repository benchmark: one workload, timed end to end or traced by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload week-warm --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the host (``nproc``, BLAS
thread pinning) and the run's shape.  ``--size tiny`` runs a few slots
of each workload, which is what ``perfbench/smoke.py`` uses.

A run builds the workload's inputs from ``--seed``, runs one untimed
warm-up, then repeats timed passes over the whole horizon until
``--seconds`` is used up, and reports medians over the passes.  Every
slot of the first timed pass is certified outside the timed region
(``week-fleet`` certifies inside it); later passes must reproduce it
exactly.  With ``--trace 1`` untraced and traced passes alternate, so
the tracer's overhead is measured pair by pair.  ``setup_s`` is the
median over fresh processes of the time from this file's first line to
the inputs being built.

The end-to-end times are given at a fixed reference machine speed.  On
a shared host the speed of the same code drifts by up to 1.8x over
seconds to minutes, for an interpreter loop as much as for the solvers
and with next to no steal time, which swamps any change in the program.
So :class:`SpeedProbe` times a fixed interpreter loop every 20 ms while
a pass (or set-up) runs, and the pass's wall and CPU seconds are scaled
by ``PROBE_REF_S`` over the loop's median time.  The probe itself adds
about 1% to every time.  On a 2-vCPU Xeon host this took the spread of
20-s medians from 26-34% between quartiles to 4-6%.  The loop touches
nothing of the program, so a change to the program cannot move it.  Its
raw times are reported as ``env.calib_s`` and ``env.calib_drift_frac``.
"""

import time

ENTRY = time.perf_counter()

import signal  # noqa: E402
import statistics  # noqa: E402

#: Iterations of the speed probe's loop, about 0.2 ms of CPU.
PROBE_LOOP = 1500
#: The loop's CPU seconds at the reference speed the end-to-end times are
#: given at: about its time in the quiet spells of a shared 2-vCPU host of
#: 2.1 GHz Xeons, where it ranged over 0.8-2.0e-4 s.
PROBE_REF_S = 1.0e-4
#: Seconds between two probe samples.
PROBE_INTERVAL_S = 0.02


class SpeedProbe:
    """Samples the machine's speed from a timer signal while code runs.

    Between :meth:`start` and :meth:`stop`, ``SIGALRM`` fires every
    ``PROBE_INTERVAL_S`` and the handler times ``PROBE_LOOP`` iterations
    of a fixed loop in CPU seconds of this thread, so time spent waiting
    for a CPU does not count.  The handler runs between the program's
    bytecodes, on the thread and the CPU the program runs on.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Median loop time of every span stopped so far.
        self.spans: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.thread_time()
        total = 0
        for j in range(PROBE_LOOP):
            total += j * j
        self.samples.append(time.thread_time() - start)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the reference speed over the speed since :meth:`start`.

        Multiply a time measured over the span by this to get it at the
        reference speed.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()  # at least one sample, however short the span
        self.spans.append(statistics.median(self.samples))
        return PROBE_REF_S / self.spans[-1]


PROBE = SpeedProbe()
PROBE.start()

import os  # noqa: E402

# Pin BLAS and OpenMP pools before anything loads numpy: a pool per core
# on a shared machine turns timings into a measure of the neighbours.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("week-warm", "week-batch", "week-fleet", "hyper-day")
#: Fresh processes timed for set-up, besides the run itself.
SETUP_PROBES = 2


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time import and input construction only, print it and exit",
    )
    return parser.parse_args(argv)


def set_up(args: argparse.Namespace):
    """Import the library and build the inputs; returns (workload, timings)."""
    start = time.perf_counter()
    try:
        import repro  # noqa: F401
        import workloads

        imported = time.perf_counter()
        workdir = str(HERE / f".store-{os.getpid()}")
        workload = workloads.build(
            args.workload, args.seed, workloads.SIZES[args.size], workdir
        )
        built = time.perf_counter()
    finally:
        scale = PROBE.stop()
    return workload, {
        "setup_s": scale * (built - ENTRY),
        "import_s": scale * (imported - start),
        "inputs_s": scale * (built - imported),
    }


def probe_setup(args: argparse.Namespace) -> list[dict]:
    """Set-up timings from fresh processes running this file."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--size", args.size, "--setup-probe",
            ],
            check=True, capture_output=True, text=True, timeout=120,
            cwd=str(ROOT),
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Passes:
    """Timed passes over a workload, with their outcomes checked.

    The first pass becomes the reference unless one is given; it is
    certified by :meth:`check`.  Every later pass is compared with the
    reference as soon as its timer stops, and then dropped.  ``wall``
    and ``cpu`` are at the reference speed (see :class:`SpeedProbe`),
    ``raw_wall`` as measured.
    """

    def __init__(self, workload, reference: list | None = None) -> None:
        self.workload = workload
        self.raw_wall: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.reference = reference
        self.certificates: list = []
        self.attempted = 0
        self.failed = 0
        #: Peak RSS once the first pass is done, so it does not grow with
        #: the number of passes that fit in the run.
        self.peak_rss_mb: float | None = None
        self._owns_reference = reference is None

    def run_one(self) -> None:
        """Run, time and check one pass."""
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        PROBE.start()
        try:
            outcomes = self.workload.run_pass()
            wall = time.perf_counter() - t0
            cpu = cpu_now() - cpu0
        finally:
            scale = PROBE.stop()
            self.workload.after_pass()
        self.raw_wall.append(wall)
        self.wall.append(scale * wall)
        self.cpu.append(scale * cpu)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()
        if self.reference is None:
            self.reference = outcomes
        else:
            self._tally(self.workload.verdicts(outcomes, self.reference))

    def run(self, budget_s: float) -> None:
        """Repeat passes while the next one is expected to fit in ``budget_s``."""
        started = time.perf_counter()
        while True:
            self.run_one()
            spent = time.perf_counter() - started
            if spent + statistics.median(self.raw_wall) > budget_s:
                return

    def check(self) -> None:
        """Certify the reference pass, when this object ran it."""
        if self._owns_reference and not self.certificates:
            self.certificates = self.workload.certify(self.reference)
            self._tally([cert is not None and cert.ok for cert in self.certificates])

    def _tally(self, verdicts: list[bool]) -> None:
        self.attempted += len(verdicts)
        self.failed += sum(1 for ok in verdicts if not ok)


def run_paired(workload, tracer, budget_s: float) -> tuple[Passes, Passes]:
    """Alternate untraced and traced passes while the next pair fits.

    Each traced pass runs right after an untraced one, so comparing the
    two within a pair leaves out the machine's drift over the run.
    Returns the untraced and the traced passes.
    """
    from layers import install_layers

    untraced = Passes(workload)
    traced = None
    started = time.perf_counter()
    while True:
        untraced.run_one()
        if traced is None:
            traced = Passes(workload, reference=untraced.reference)
        install_layers(tracer)
        try:
            traced.run_one()
        finally:
            tracer.remove()
        pair = statistics.median(untraced.raw_wall) + statistics.median(traced.raw_wall)
        if time.perf_counter() - started + pair > budget_s:
            return untraced, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tracer, traced: Passes, untraced: Passes) -> dict:
    """The per-layer metrics of a traced run (per traced pass)."""
    n = len(traced.wall)
    calls, total, counts = tracer.calls, tracer.total_s, tracer.counts

    def per_pass(value: float) -> float:
        return value / n

    def span(layer: str) -> dict:
        return {
            f"{layer}.calls": metric(per_pass(calls[layer]), "count"),
            f"{layer}.s": metric(per_pass(total[layer]), "s"),
        }

    structured = sorted(tracer.samples["optim.solve_structured_qp"])
    gets = calls["exec.store.get"]
    out: dict = {}
    for layer in ("core.compile", "core.qp_for"):
        out.update(span(layer))
    for layer in ("optim.solve_qp", "optim.solve_qp_warm", "optim.solve_qp_batch",
                  "optim.solve_structured_qp"):
        out.update(span(layer))
        out[f"{layer}.iters"] = metric(per_pass(counts[f"{layer}.iters"]), "count")
    for rung in ("active_set", "warm_ipm", "cold"):
        out[f"optim.warm.{rung}"] = metric(per_pass(counts[f"optim.warm.{rung}"]), "count")
    out["optim.batch.scalar_fallbacks"] = metric(
        per_pass(counts["optim.batch.scalar_fallbacks"]), "count"
    )
    out["optim.solve_structured_qp.p50_ms"] = metric(
        1e3 * percentile(structured, 0.5), "ms"
    )
    out["optim.solve_structured_qp.p90_ms"] = metric(
        1e3 * percentile(structured, 0.9), "ms"
    )
    out["engine.run.s"] = metric(per_pass(total["engine.run"]), "s")
    out["engine.self_s"] = metric(per_pass(tracer.self_s["engine.run"]), "s")
    out.update(span("exec.submit"))
    out["exec.submit.bytes"] = metric(per_pass(counts["exec.submit.bytes"]), "B")
    out["exec.wait.s"] = metric(per_pass(total["exec.wait"]), "s")
    out.update(span("exec.store.get"))
    out.update(span("exec.store.put"))
    out["exec.store.hit_ratio"] = metric(
        counts["exec.store.get.hits"] / gets if gets else 0.0, "ratio"
    )
    out.update(span("obs.certify"))
    out["obs.certify.failed"] = metric(per_pass(counts["obs.certify.failed"]), "count")
    out["trace.overhead_frac"] = metric(
        statistics.median(t / u for t, u in zip(traced.wall, untraced.wall)) - 1.0,
        "ratio",
    )
    out["trace.unaccounted_frac"] = metric(
        max(0.0, statistics.fmean(traced.raw_wall) - per_pass(tracer.top_s))
        / statistics.fmean(traced.raw_wall),
        "ratio",
    )
    return out


def worker_metrics(outcomes: list) -> dict:
    """Seconds spent inside mp workers, from the outcomes' own telemetry."""
    parent = os.getpid()
    solve = compile_s = certify_s = 0.0
    for outcome in outcomes:
        tel = outcome.telemetry
        if tel is None or tel.worker == parent or tel.store_hit:
            continue
        solve += tel.wall_s
        compile_s += tel.compile_s
        certify_s += tel.certify_s
    return {
        "worker.solve.s": metric(solve, "s"),
        "worker.compile.s": metric(compile_s, "s"),
        "worker.certify.s": metric(certify_s, "s"),
    }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def measure(args: argparse.Namespace, workload, first_setup: dict) -> dict:
    """Warm up, run the timed (and traced) passes, check them; the result."""
    workload.warmup()
    workload.after_pass()
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        untraced, traced = run_paired(workload, tracer, args.seconds)
        checked = [untraced, traced]
    else:
        untraced = Passes(workload)
        untraced.run(args.seconds)
        checked = [untraced]

    untraced.check()
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    setups = [first_setup] + probe_setup(args)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "passes": [len(p.wall) for p in checked],
        "slots_per_pass": workload.slots_per_pass,
        "raw_horizon_s": statistics.median(untraced.raw_wall),
        "probe_s": statistics.median(PROBE.spans),
    }))

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if not args.trace:
        metrics = {
            "horizon_s": metric(statistics.median(untraced.wall), "s"),
            "cpu_s": metric(statistics.median(untraced.cpu), "s"),
            "peak_rss_mb": metric(untraced.peak_rss_mb, "MB"),
            "setup_s": metric(setup_median("setup_s"), "s"),
            "certified_frac": metric((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = {
            "setup.import_s": metric(setup_median("import_s"), "s"),
            "setup.inputs_s": metric(setup_median("inputs_s"), "s"),
        }
        metrics.update(traced_metrics(tracer, traced, untraced))
        metrics.update(worker_metrics(untraced.reference))
        reference = untraced.reference
        metrics.update({
            "check.ufc_rel_gap": metric(
                workload.reference_gap(reference, untraced.certificates), "ratio"
            ),
            "check.failed_frac": metric(failed / attempted, "ratio"),
            "check.unconverged": metric(
                sum(1 for o in reference if o.ok and not o.result.converged), "count"
            ),
            "env.calib_s": metric(statistics.median(PROBE.spans), "s"),
            "env.calib_drift_frac": metric(
                max(PROBE.spans) / min(PROBE.spans) - 1.0, "ratio"
            ),
            "env.nproc": metric(os.cpu_count() or 1, "count"),
            "env.blas_threads": metric(int(os.environ["OPENBLAS_NUM_THREADS"]), "count"),
        })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload, first_setup = set_up(args)
    if args.setup_probe:
        print(json.dumps(first_setup))
        return 0
    try:
        result = measure(args, workload, first_setup)
    finally:
        workload.after_pass()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
