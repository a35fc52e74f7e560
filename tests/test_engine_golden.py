"""Bit-level golden digests of the horizon engine's per-slot outcomes.

Every lane of :class:`~repro.engine.horizon.HorizonEngine` — serial,
process pool, named clients, batched, warm-chained, resilient, store
and observed — runs one fixed horizon, and each outcome's exact bytes
are hashed: index, ``ok``, ``error_type``, the allocation arrays, ufc,
iterations, convergence, warm mechanism, attempts, degraded,
``fallback_solver``, ``chain_errors`` and the non-timing telemetry
fields (solver, iterations, converged, cache hit, warm start, store
hit, error type), plus the run summary's executor and decision
strings.  Pids and timings are excluded.

The bytes depend on the numpy/BLAS build.  After an intentional change
to an engine lane, or on a different BLAS, print fresh digests with::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import tempfile

import numpy as np
import pytest

from repro.core.strategies import FUEL_CELL, GRID, HYBRID
from repro.engine.horizon import HorizonEngine
from repro.engine.protocol import SlotResult
from repro.engine.registry import create_solver
from repro.engine.resilience import ResilienceConfig, RetryPolicy
from repro.obs import MetricsRegistry, SpanTracer
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

#: Digests recorded before the engine's per-slot step was consolidated,
#: except two lanes re-recorded for intended fixes: ``warm_in_process``
#: (a synchronous-client warm chain compiles once, so slots 1-5 are
#: cache hits) and ``degraded_store`` (a solver-reported degraded result
#: is flagged ``degraded`` and never stored, so the re-run re-solves).
#: The armed-idle resilience, observed, certified and synchronously
#: supervised lanes carry the plain serial digest: none of them may
#: move a byte of a healthy run.
GOLDEN = {
    "serial": "6bf47678e7647081eaac3ff50f1535d65ad99963f60ce0922a437df845de7dd5",
    "pool": "7f728cedb5a41d1ac8083bf87b3be3e70d56273d656eaa71e731f8994287d58b",
    "client_in_process": "d7b1a1385904cbca834288b200246fadc9cd2e5fb8dfc3078cd853d88eecc3cd",
    "client_mp": "4460ba7fb8f4a39f704a2a75857d217ca5e2cc7bf9a76a3c7d7bdb3680baf792",
    "batched_serial": "57ea3037a0903926dc9330367a76256dd5516b4182baeefbfd0c3738560fb94c",
    "batched_pool": "aa0a4ed892224cc4b7f60dff4a255fd1b6fd8dd1fbc81d51e779fe54bfb1fbc6",
    "warm_serial": "67fc0137f7080d0b8a84eb02ef7ea3365f09d74cb01e639b342445fd97069d2d",
    "warm_mp": "fd5c50f3010c6a5a6a0bbdfacc4998e271063d782000f80fe7ee4a0f5d82a2c9",
    "warm_in_process": "382e684c11dbd4e79628a491f8613358aa2fcbe955453b71babdee041fad20a7",
    "resilience_idle": "6bf47678e7647081eaac3ff50f1535d65ad99963f60ce0922a437df845de7dd5",
    "resilience_rescue": "4deef4a2de29bf8e41e8512d949791406bd0ae6bbe1c17f48d2b6f713a372496",
    "store": "94360f6b3af78aa93eb15ded677dd5aabc76bd9b50f4897b07d0537b4e0f5a2f",
    "degraded_store": "c5077843d231e3f8f19b632063ad40e561318268263fb5753dcf6cd904e3202e",
    "obs_on": "6bf47678e7647081eaac3ff50f1535d65ad99963f60ce0922a437df845de7dd5",
    "certified": "6bf47678e7647081eaac3ff50f1535d65ad99963f60ce0922a437df845de7dd5",
    "supervised_sync": "6bf47678e7647081eaac3ff50f1535d65ad99963f60ce0922a437df845de7dd5",
}


def _problems():
    bundle = default_bundle(hours=24, seed=2014)
    sim = Simulator(build_model(bundle), bundle)
    mixed = [
        sim.problem_for_slot(t, strategy)
        for t in range(4)
        for strategy in (GRID, FUEL_CELL, HYBRID)
    ]
    chain = [sim.problem_for_slot(t, HYBRID) for t in range(6)]
    return mixed, chain


class BrokenSolver:
    """A primary that never succeeds."""

    name = "golden-broken"
    supports_warm_start = False

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None, warm=None):
        raise RuntimeError("hard failure")


class DegradedSolver:
    """Succeeds, but flags every result as a degraded completion."""

    name = "golden-degraded"
    supports_warm_start = False

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None, warm=None):
        result = create_solver("proportional").solve(problem)
        return SlotResult(
            allocation=result.allocation,
            ufc=result.ufc,
            iterations=1,
            converged=True,
            extras={"degraded": True},
        )


def _feed(digest, engine, outcomes) -> None:
    summary = engine.last_summary
    digest.update(f"{summary.executor}|{summary.decision}".encode())
    for o in outcomes:
        result = o.result
        tele = o.telemetry
        digest.update(
            repr((
                o.index, o.ok, o.error_type, o.attempts, o.degraded,
                o.fallback_solver, o.chain_errors,
            )).encode()
        )
        if tele is not None:
            digest.update(
                repr((
                    tele.solver, tele.iterations, tele.converged,
                    tele.cache_hit, tele.warm_start, tele.store_hit,
                    tele.error_type,
                )).encode()
            )
        if result is not None:
            for arr in (result.allocation.lam, result.allocation.mu,
                        result.allocation.nu):
                digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
            digest.update(np.float64(result.ufc).tobytes())
            digest.update(
                repr((
                    result.iterations, result.converged,
                    result.extras.get("warm_mechanism"),
                )).encode()
            )


def _run(*runs) -> str:
    """Digest of ``(engine, problems, run_kwargs)`` runs, in order."""
    digest = hashlib.sha256()
    for engine, problems, kwargs in runs:
        _feed(digest, engine, engine.run(problems, **kwargs))
    return digest.hexdigest()


def _store_runs(solver) -> str:
    mixed, _ = _problems()
    with tempfile.TemporaryDirectory() as tmp:
        return _run(
            (HorizonEngine(solver, store=tmp), mixed[:4], {}),
            (HorizonEngine(solver, store=tmp), mixed[:4], {}),
        )


def _lane(solver, *, chain=False, warm=False, **engine_kwargs):
    def digest() -> str:
        mixed, hybrid = _problems()
        problems = hybrid if chain else mixed
        kwargs = {"warm_start": True} if warm else {}
        return _run((HorizonEngine(solver, **engine_kwargs), problems, kwargs))

    return digest


_ARMED = ResilienceConfig(retry=RetryPolicy(max_attempts=2), fallback=("proportional",))
_RESCUE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=2),
    fallback=("centralized", "proportional"),
    quarantine_after=2,
)

DIGESTS = {
    "serial": _lane("centralized"),
    "pool": _lane("centralized", workers=2, oversubscribe=True),
    "client_in_process": _lane("centralized", client="in-process"),
    "client_mp": _lane("centralized", client="mp", workers=2),
    "batched_serial": _lane("centralized-batch"),
    "batched_pool": _lane("centralized-batch", workers=2, oversubscribe=True),
    "warm_serial": _lane("centralized-warm", chain=True, warm=True),
    "warm_mp": _lane("centralized-warm", chain=True, warm=True, client="mp"),
    "warm_in_process": _lane(
        "centralized-warm", chain=True, warm=True, client="in-process"
    ),
    "resilience_idle": _lane("centralized", resilience=_ARMED),
    "resilience_rescue": _lane(BrokenSolver(), resilience=_RESCUE),
    "store": lambda: _store_runs("centralized"),
    "degraded_store": lambda: _store_runs(DegradedSolver()),
    "obs_on": lambda: _lane(
        "centralized", metrics=MetricsRegistry(), tracer=SpanTracer()
    )(),
    "certified": _lane("centralized", certify=True),
    "supervised_sync": _lane("centralized", supervision=True),
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_engine_lane_bit_identical(case):
    assert DIGESTS[case]() == GOLDEN[case]


if __name__ == "__main__":
    for name, fn in DIGESTS.items():
        print(f'    "{name}": "{fn()}",')
