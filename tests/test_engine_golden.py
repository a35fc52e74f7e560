"""Bit-level golden digests of the horizon engine's per-slot outcomes.

Every lane of :class:`~repro.engine.horizon.HorizonEngine` — serial,
process pool, named clients, batched, warm-chained, fallback-rescued,
store and observed — runs one fixed horizon, and each outcome's exact bytes
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
from repro.obs import MetricsRegistry
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

#: Digests recorded before the engine's per-slot step was consolidated,
#: except two lanes re-recorded for intended fixes: ``warm_in_process``
#: (a synchronous-client warm chain compiles once, so slots 1-5 are
#: cache hits) and ``degraded_store`` (a solver-reported degraded result
#: is flagged ``degraded`` and never stored, so the re-run re-solves).
#: The armed-idle resilience, observed, certified and synchronously
#: supervised lanes carry the plain serial digest: none of them may
#: move a byte of a healthy run.  The dense and batched lanes (serial,
#: pool, clients, batched, resilience, store and the lanes sharing the
#: serial digest) were re-recorded when both Newton systems moved to
#: ``scipy.linalg.lapack`` ``getrf``/``getrs``, one LU per iteration:
#: scipy's LAPACK rounds differently from numpy's ``gesv``.  Per slot
#: against the previous digests' code, iterations are equal and UFC
#: agrees within 1.4e-16 (dense) and 3.3e-13 (batched) relative; the
#: warm lanes kept their digests.  ``resilience_rescue`` was re-recorded
#: when the engine's primary retry budget and quarantine were removed,
#: leaving a plain fallback chain: every slot now costs two attempts
#: (the primary once, then ``centralized``) and carries one
#: ``"solver: ErrType: message"`` chain error, where the old lane spent
#: three attempts on slots 0-1 and quarantined the primary from slot 2.
#: The allocations and UFC of all 12 slots are byte-identical to before.
#: Every lane that runs the dense route (all but the batched lanes and
#: ``degraded_store``) was re-recorded when that route became the
#: shared-structure route at one instance (factored 6-sweep Ruiz, the
#: W = I cold start, the active-set rung's equality-KKT solve with
#: active bounds eliminated).  Against the previous digests' code the
#: 12 mixed slots take 107 iterations instead of 122, with UFC within
#: 9.8e-8 relative; the 6-slot warm chain takes 38 instead of 39, with
#: the same rungs (cold, two active-set, three warm-IPM) and UFC within
#: 4.1e-9.  The batched lanes kept their digests.  The three warm lanes
#: were re-recorded again when the warm rungs became one parametric
#: active-set homotopy (guess-and-refine and the warm-IPM rung
#: deleted): the 6-slot chain now runs cold then five active-set slots
#: (10 + 2 + 1 + 7 + 4 + 4 = 28 iterations, the active-set ones counting
#: KKT solves) where it ran cold, two active-set and three warm-IPM
#: slots in 38, with UFC within 2.0e-8 relative.
GOLDEN = {
    "serial": "5838459587cd3ccec338a0425d3aa855684f82a34e1cb630cbc96e22865349a8",
    "pool": "86d9a257888dcfe7f1a68a049e3c8e68b653043848aaafedc598037c4179d7ea",
    "client_in_process": "f47b737d24c29ae2db36f9abd7c1012a1bc1602529a09b451bbf98c3f4544fea",
    "client_mp": "c62ee77b3dfb2df85b9642b1eec427429179c0f6fa22a9a5faaed077d8261e73",
    "batched_serial": "6828cb7f3425e09462c6a512803998a8e19d4573efcea989d5e7971c17303620",
    "batched_pool": "0767b99bf1e00ffbc9f5de0ac132b66c0ae0165348391a3026851ee741b4594d",
    "warm_serial": "60604703c7b4476857e43015a80ee7771f61808b5f3212b8e670b54be494e30e",
    "warm_mp": "dcd0051d9767960e50b97abc25d8a89f486e209da2ad6fea7ed950bc7802a380",
    "warm_in_process": "3f287403c2afa447f660a3574a2a483d3267d47116228bac169cc44153bf84c5",
    "resilience_idle": "5838459587cd3ccec338a0425d3aa855684f82a34e1cb630cbc96e22865349a8",
    "resilience_rescue": "fa29ab1d904bdccf339c117186a4604a3f612299885979341620afe810f0775a",
    "store": "0df99d8091c85d5fb3af256c4cb41a638bc4dda4e0f76499f64168c14f0a07fb",
    "degraded_store": "c5077843d231e3f8f19b632063ad40e561318268263fb5753dcf6cd904e3202e",
    "obs_on": "5838459587cd3ccec338a0425d3aa855684f82a34e1cb630cbc96e22865349a8",
    "certified": "5838459587cd3ccec338a0425d3aa855684f82a34e1cb630cbc96e22865349a8",
    "supervised_sync": "5838459587cd3ccec338a0425d3aa855684f82a34e1cb630cbc96e22865349a8",
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


def _observed() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return _lane("centralized", metrics=MetricsRegistry(), ledger=tmp)()


def _lane(solver, *, chain=False, warm=False, **engine_kwargs):
    def digest() -> str:
        mixed, hybrid = _problems()
        problems = hybrid if chain else mixed
        kwargs = {"warm_start": True} if warm else {}
        return _run((HorizonEngine(solver, **engine_kwargs), problems, kwargs))

    return digest


_ARMED = ("proportional",)
_RESCUE = ("centralized", "proportional")

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
    "resilience_idle": _lane("centralized", fallback=_ARMED),
    "resilience_rescue": _lane(BrokenSolver(), fallback=_RESCUE),
    "store": lambda: _store_runs("centralized"),
    "degraded_store": lambda: _store_runs(DegradedSolver()),
    "obs_on": _observed,
    "certified": _lane("centralized", certify=True),
    "supervised_sync": _lane("centralized", supervision=True),
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_engine_lane_bit_identical(case):
    assert DIGESTS[case]() == GOLDEN[case]


if __name__ == "__main__":
    for name, fn in DIGESTS.items():
        print(f'    "{name}": "{fn()}",')
