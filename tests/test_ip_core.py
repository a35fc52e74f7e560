"""The interior-point core: input handling and cross-route parity.

Every QP route of :mod:`repro.optim` runs the same Mehrotra loop over
its own Newton system, so every route must reach the same optimum
within the tolerance it states, judged by the independent certificate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import SlotInputs, UFCProblem
from repro.core.strategies import HYBRID
from repro.obs.certify import certify_structured_solution
from repro.optim.batch import solve_qp_batch
from repro.optim.ipqp import solve_qp
from repro.optim.kkt import StructuredQPCompiler, solve_structured_qp
from repro.optim.warm import solve_qp_warm

#: Objective agreement between routes, relative to ``1 + |value|``.
#: Every route stops at ``tol = 1e-9`` of its own scaled residuals, so
#: routes that scale differently stop at different points inside that
#: ball; 1e-7 is the batched route's stated parity with the scalar one.
ROUTE_PARITY = 1e-7


def _entry(name):
    """The three dense entry points, called on one unbatched QP."""
    if name == "solve_qp":
        return solve_qp
    if name == "solve_qp_warm":
        return solve_qp_warm

    def batched(P, q, **kw):
        kw = {k: (v[None] if k in "bh" and v is not None else v) for k, v in kw.items()}
        return solve_qp_batch(P[None], q[None], **kw)

    return batched


class TestConstraintWithoutRhs:
    """A constraint matrix without its right-hand side is an input
    error, raised up front — not NaN data that fails late as a singular
    KKT system."""

    @pytest.mark.parametrize("entry", ["solve_qp", "solve_qp_warm", "solve_qp_batch"])
    @pytest.mark.parametrize("block", ["A", "G"])
    def test_rejected(self, entry, block):
        kwargs = {block: np.array([[1.0, 1.0]]), "b" if block == "A" else "h": None}
        with pytest.raises(ValueError, match=f"{block} given without its right-hand side"):
            _entry(entry)(np.eye(2), np.zeros(2), **kwargs)


@pytest.fixture(scope="module")
def slots(small_bundle, small_model):
    """Six paper-default Hybrid slots as full-reach structured QPs."""
    compiler = StructuredQPCompiler(small_model, HYBRID)
    out = []
    for t in range(0, 24, 4):
        slot = small_bundle.slot(t)
        inputs = SlotInputs(
            arrivals=slot["arrivals"],
            prices=slot["prices"],
            carbon_rates=slot["carbon_rates"],
        )
        out.append((UFCProblem(small_model, inputs, strategy=HYBRID),
                    compiler.structured_qp_for(inputs)))
    return out


def _certified_value(problem, sqp, x, y, z) -> float:
    cert = certify_structured_solution(
        sqp, problem, sqp.extract(x), x=x, duals=(y, z)
    )
    assert cert.ok, cert.to_dict()
    return sqp.objective(x)


class TestCrossRouteParity:
    def test_routes_agree_and_certify(self, slots):
        problem, sqp = slots[0]
        assert sqp.fan_in == sqp.num_datacenters  # full reach
        block = solve_structured_qp(sqp)
        assert block.converged
        reference = _certified_value(problem, sqp, block.x, block.eq_dual,
                                     block.ineq_dual)

        P, q, A, b, G, h = sqp.to_dense()
        dense = solve_qp(P, q, A=A, b=b, G=G, h=h)
        assert dense.converged
        values = {"dense": _certified_value(problem, sqp, dense.x, dense.eq_dual,
                                            dense.ineq_dual)}

        dense_forms = [s.to_dense() for _, s in slots]
        for form in dense_forms[1:]:
            # One model and strategy: the constraint matrices are shared.
            assert np.array_equal(form[2], A) and np.array_equal(form[4], G)
        for T in (1, 6):
            forms = dense_forms[:T]
            res = solve_qp_batch(
                np.stack([f[0] for f in forms]), np.stack([f[1] for f in forms]),
                A=A, b=np.stack([f[3] for f in forms]),
                G=G, h=np.stack([f[5] for f in forms]),
            )
            assert res.converged.all()
            assert not res.fallback.any()
            for t, (prob_t, sqp_t) in enumerate(slots[:T]):
                value = _certified_value(prob_t, sqp_t, res.x[t], res.eq_dual[t],
                                         res.ineq_dual[t])
                if t == 0:
                    values[f"batch T={T}"] = value
                else:
                    ref_t = solve_structured_qp(sqp_t)
                    assert abs(value - ref_t.value) <= ROUTE_PARITY * (1 + abs(ref_t.value))

        for route, value in values.items():
            assert abs(value - reference) <= ROUTE_PARITY * (1 + abs(reference)), route
