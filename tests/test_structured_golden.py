"""Bit-level golden digests of the cold block-elimination route.

:func:`repro.optim.kkt.solve_structured_qp` is the only route of the
``centralized-structured`` lane (the ``hyper-day`` workload), so its
arithmetic is pinned the way :mod:`test_dense_golden` pins the dense
route: each case hashes the exact bytes of ``x``, ``eq_dual``,
``ineq_dual``, the iteration count and the converged flag of every
solve it runs.

The bytes depend on the numpy/BLAS build.  After an intentional change
to the structured route, or on a different BLAS, print fresh digests
with::

    PYTHONPATH=src python tests/test_structured_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.strategies import HYBRID
from repro.instances import ScaleSpec, generate_instance
from repro.optim.kkt import StructuredQPCompiler, solve_structured_qp
from test_kkt import SHAPE_CASES, random_sqp

GOLDEN = {
    "random_shapes": "115d15fd20b722d272bbf354d896937aef3c293d35a55ef9051e841a17af15ad",
    "scale_20x100": "530976beeb83c24da92bd14be3ebab918703bb0b82bddd968df7458af7c7f376",
}


def _feed(digest, result) -> None:
    for arr in (result.x, result.eq_dual, result.ineq_dual):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    digest.update(np.int64(result.iterations).tobytes())
    digest.update(np.int64(result.converged).tobytes())


def random_shapes_digest() -> str:
    """Seeded :func:`random_sqp` draws over every shape case, solved
    to convergence and capped at three iterations."""
    digest = hashlib.sha256()
    for case in SHAPE_CASES:
        for seed in range(3):
            sqp = random_sqp(seed, **case)
            _feed(digest, solve_structured_qp(sqp, tol=1e-10, max_iter=200))
            _feed(digest, solve_structured_qp(sqp, tol=1e-12, max_iter=3))
    return digest.hexdigest()


def scale_20x100_digest() -> str:
    """Four Hybrid slots of a generated 20 x 100 instance (fan-in 6)
    at the scale lane's tolerance."""
    inst = generate_instance(
        ScaleSpec(num_datacenters=20, num_frontends=100, hours=4, seed=101)
    )
    compiler = StructuredQPCompiler(inst.model, HYBRID, reach=inst.reach)
    digest = hashlib.sha256()
    for t in range(inst.spec.hours):
        sqp = compiler.structured_qp_for(inst.inputs(t))
        _feed(digest, solve_structured_qp(sqp, tol=1e-8, max_iter=120))
    return digest.hexdigest()


DIGESTS = {
    "random_shapes": random_shapes_digest,
    "scale_20x100": scale_20x100_digest,
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_structured_route_bit_identical(case):
    assert DIGESTS[case]() == GOLDEN[case]


if __name__ == "__main__":
    for name, fn in DIGESTS.items():
        print(f'    "{name}": "{fn()}",')
