"""Bit-level golden digests of the horizon engine's per-slot outcomes.

Every lane of :class:`~repro.engine.horizon.HorizonEngine` — serial,
process pool, named clients, batched, warm (anchor and walks),
fallback-rescued, store and observed — runs one fixed horizon, and
each outcome's exact bytes are hashed: index, ``ok``, ``error_type``,
the allocation arrays, ufc, iterations, convergence, warm mechanism,
attempts, degraded, ``fallback_solver``, ``chain_errors`` and the
non-timing telemetry fields (solver, iterations, converged, cache hit,
store hit, error type), plus the run summary's executor and decision
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
#: slots in 38, with UFC within 2.0e-8 relative.  The two batched lanes
#: were re-recorded when ``centralized-batch`` became cold anchors (one
#: per 24 slots of a group) with walks between them, and every batched
#: slot began to record its ``warm_mechanism``.  ``batched_serial`` runs
#: three 4-slot groups: 3 anchors (``"batch"``) and 9 walked slots
#: (``"active-set"``), 59 iterations instead of 107, with the largest
#: per-slot UFC change 1.2e-7 relative.  ``batched_pool`` splits the
#: horizon into 2-slot chunks whose groups hold one slot each, so all 12
#: slots are anchors (``"batch"``): iterations, allocations and UFC are
#: byte-identical to before, and only the recorded mechanism is new.
#: Every digest was re-recorded when the ``warm_start`` telemetry field
#: was deleted (slots chain inside the solver, so the engine no longer
#: marks them): the digests of every lane but the warm ones were first
#: recorded on the previous code with that field dropped from the hash,
#: and this code reproduces each of them.  ``warm_mp`` and
#: ``warm_in_process`` were deleted with the engine's client chain.
#: ``warm_serial`` now runs ``centralized-warm`` as the anchor-and-walk
#: lane: rungs one ``"batch"`` anchor and five ``"active-set"`` walks
#: (was one ``"cold"`` slot and five walks), the same 28 iterations,
#: executor ``serial-batch [serial:requested]`` (was ``serial-warm
#: [serial:warm-start]``).  Every slot's UFC is byte-identical, so the
#: largest UFC change is 0; the walked slots' allocations are
#: byte-identical too, and the anchor's routing moves by at most 9.4e-8
#: (absolute) along its face of optima.
GOLDEN = {
    "serial": "fd4256322bd9ca9ff70c464f760631b5c6f1857f5f424d3c891d7a52b2c35ba5",
    "pool": "4fd1f3788a9e7add3dd7c08ab367a6a11c8bdaba64e43655b2bf95c029c77611",
    "client_in_process": "3ef7dac7da90c860bdb7264a8ec55b6060e60243d7b81b97ed90edae8f0b5422",
    "client_mp": "be89297b509badfb9bdb821282eed914493a6cbd5ed3cc07169eca700c177ff8",
    "batched_serial": "4d06c60ece07d8f300536b29704a69417a239b33059639cad827ec5d72ee2742",
    "batched_pool": "28cd9cfdf6ee7982c2e507584768e3d133d8e81164bf6b815b68bcab827bf6e1",
    "warm_serial": "9c3fb1c31696cf50c334a59386d4f0b56250456318e68b1ec2588e47ec741cb6",
    "resilience_idle": "fd4256322bd9ca9ff70c464f760631b5c6f1857f5f424d3c891d7a52b2c35ba5",
    "resilience_rescue": "5b2598cc7c3751c8791c38a3701b9ef9f57b014c280873602aa1197ad95be0e0",
    "store": "65b33bbc20ac3b24b7661fb99e3d30242529505883feef2a2fbcabe65b9ad58d",
    "degraded_store": "f342bee3bc9def509b362f6a3fbe34aeb660a6f2828e4733ddd179009fc8aca7",
    "obs_on": "fd4256322bd9ca9ff70c464f760631b5c6f1857f5f424d3c891d7a52b2c35ba5",
    "certified": "fd4256322bd9ca9ff70c464f760631b5c6f1857f5f424d3c891d7a52b2c35ba5",
    "supervised_sync": "fd4256322bd9ca9ff70c464f760631b5c6f1857f5f424d3c891d7a52b2c35ba5",
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

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None):
        raise RuntimeError("hard failure")


class DegradedSolver:
    """Succeeds, but flags every result as a degraded completion."""

    name = "golden-degraded"

    def compile(self, model, strategy):
        return None

    def solve(self, problem, compiled=None):
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
                    tele.cache_hit, tele.store_hit,
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
