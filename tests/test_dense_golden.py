"""Bit-level golden digests of the dense scalar interior-point route.

The dense route (:func:`repro.optim.ipqp.solve_qp` and both rungs of
:func:`repro.optim.warm.solve_qp_warm`) is the reference every other
route is measured against, so its arithmetic is pinned: each case
below hashes the exact bytes of ``x``, ``eq_dual``, ``ineq_dual`` and
the iteration count of every solve it runs, and the digest must equal
the one recorded before the interior-point core was consolidated.

The bytes depend on the numpy/BLAS build.  After an intentional change
to the dense route, or on a different BLAS, print fresh digests with::

    PYTHONPATH=src python tests/test_dense_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.compiled import CompiledQPStructure
from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import FUEL_CELL, GRID, HYBRID
from repro.optim.ipqp import solve_qp
from repro.optim.warm import solve_qp_warm
from repro.sim.simulator import build_model
from repro.traces.datasets import default_bundle

#: Digests re-recorded when the dense route became the shared-structure
#: route at one instance: one factored 6-sweep Ruiz instead of 15 dense
#: sweeps, the W = I cold start instead of x = 0, s = max(h, 1), z = 1,
#: ``G' W G`` from the bound/dense row split, the active-set rung's
#: equality-KKT solve with active bounds eliminated (its guess now with
#: a margin, up to three refinement rounds) and the closed form on the
#: same solve.  Total iterations against the previous digests' code:
#: paper_week 706 -> 622, ipqp_fuzz 279 -> 257, warm_chain 222 -> 210
#: (two slots moved from warm-IPM to the active-set rung).  Values agree
#: within 2.1e-7 relative on the paper week, 2.6e-9 on the converged
#: fuzz solves and 1.1e-8 on the warm chain, except its slot 12, which is
#: past capacity and stops at the iteration cap on a different point,
#: and the ``max_iter=3`` fuzz solves, which stop unconverged.
#: ``warm_chain`` was re-recorded again when the warm rungs became one
#: parametric active-set homotopy (guess-and-refine and the warm-IPM
#: rung deleted): its 24 slots went from 13 active-set, 8 warm-IPM and
#: 3 cold (210 iterations) to 21 active-set and 3 cold (202; 83 KKT
#: solves on the active-set slots), with the value of every converged
#: slot within 5.8e-8 relative of the previous digest's code.
#: ``ipqp_fuzz`` was re-recorded, on the code before the change, when
#: the interior-point trace was deleted: its traced variant (and the
#: trace series it hashed) went, the other three variants are unchanged.
GOLDEN = {
    "paper_week": "ac8739de33c457906a6c8ad41f87fc95f68c5c001b2d90a54ed264d5590a4f0b",
    "ipqp_fuzz": "2301f4bdfcb60a58c8ca4c9ec9cb5a54b61333d9774844bcd0bfc7b726336220",
    "warm_chain": "e7d288aed68c10d6e9edb2d5bf6a049e04047646914523977cd7474386cd8bbf",
}


def _feed(digest, result) -> None:
    for arr in (result.x, result.eq_dual, result.ineq_dual):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    digest.update(np.int64(result.iterations).tobytes())


def _week_qps(strategies=(GRID, FUEL_CELL, HYBRID), hours=range(0, 168, 7)):
    bundle = default_bundle(hours=168, seed=101)
    model = build_model(bundle)
    for strategy in strategies:
        structure = CompiledQPStructure(model, strategy)
        for t in hours:
            slot = bundle.slot(t)
            inputs = SlotInputs(
                arrivals=slot["arrivals"],
                prices=slot["prices"],
                carbon_rates=slot["carbon_rates"],
            )
            yield UFCProblem(model, inputs, strategy=strategy), structure.qp_for(inputs)


def paper_week_digest() -> str:
    """Cold ``solve_qp`` over seeded paper-week slots, all strategies."""
    digest = hashlib.sha256()
    for _, qp in _week_qps():
        _feed(digest, solve_qp(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h))
    return digest.hexdigest()


def _fuzz_cases():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, p, m = 6, 2, 8
        a_half = rng.normal(size=(n, n))
        P = a_half @ a_half.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(p, n))
        x_feas = rng.uniform(0.5, 1.0, size=n)
        b = A @ x_feas
        G = rng.normal(size=(m, n))
        h = G @ x_feas + rng.uniform(0.2, 2.0, size=m)
        yield P, q, A, b, G, h
    scales = np.array([1e4, 1e4, 1.0, 1e-2])
    yield (np.diag(1.0 / scales**2), -1.0 / scales, None, None,
           np.vstack([-np.eye(4), np.eye(4)]),
           np.concatenate([np.zeros(4), 3 * scales]))
    # The equilibration limit-cycle instance: exercises the raw retry.
    rng = np.random.default_rng(57)
    n = int(rng.integers(2, 7))
    half = rng.normal(size=(n, n))
    P = half @ half.T + 0.05 * np.eye(n)
    q = rng.normal(size=n) * 3
    yield P, q, np.ones((1, n)), np.array([7.0]), -np.eye(n), np.zeros(n)
    # Closed forms: equality-only and unconstrained.
    yield 2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]), None, None
    yield np.diag([2.0, 4.0]), np.array([-2.0, -8.0]), None, None, None, None


def ipqp_fuzz_digest() -> str:
    """``solve_qp`` on the fuzz QPs, equilibrated, raw and capped."""
    digest = hashlib.sha256()
    for P, q, A, b, G, h in _fuzz_cases():
        for kwargs in ({}, {"equilibrate": False}, {"max_iter": 3}):
            _feed(digest, solve_qp(P, q, A=A, b=b, G=G, h=h, **kwargs))
    return digest.hexdigest()


def _warm_chain():
    """A Hybrid chain that runs both rungs, active-set and cold.

    Every third slot's arrivals are raised by 10%, which moves the
    active set; slot 12 is tripled, past capacity, so the homotopy finds
    its working set infeasible and goes cold, the cold solve stops at
    the iteration cap, and slot 13 restarts cold without a state.
    """
    problems = [p for p, _ in _week_qps(strategies=(HYBRID,), hours=range(24))]
    structure = CompiledQPStructure(problems[0].model, HYBRID)
    state = None
    for t, problem in enumerate(problems):
        factor = 3.0 if t == 12 else (1.1 if t % 3 == 2 else 1.0)
        inputs = dataclasses.replace(problem.inputs,
                                     arrivals=problem.inputs.arrivals * factor)
        qp = structure.qp_for(inputs)
        ws = solve_qp_warm(qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h, state=state)
        yield ws
        state = ws.state


def warm_chain_digest() -> str:
    digest = hashlib.sha256()
    for ws in _warm_chain():
        _feed(digest, ws.result)
        digest.update(ws.info.mechanism.encode())
    return digest.hexdigest()


DIGESTS = {
    "paper_week": paper_week_digest,
    "ipqp_fuzz": ipqp_fuzz_digest,
    "warm_chain": warm_chain_digest,
}


def test_warm_chain_hits_every_rung():
    mechanisms = {ws.info.mechanism for ws in _warm_chain()}
    assert mechanisms == {"active-set", "cold"}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_dense_route_bit_identical(case):
    assert DIGESTS[case]() == GOLDEN[case]


if __name__ == "__main__":
    for name, fn in DIGESTS.items():
        print(f'    "{name}": "{fn()}",')
