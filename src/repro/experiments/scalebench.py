"""Scale-lane benchmark: block-elimination KKT path vs the dense route.

The paper evaluates at (N, M) = (4, 10); the block-sparse KKT path in
:mod:`repro.optim.kkt` exists to push the same per-slot solve to
production shapes.  This driver generates hyperscale instances with
:mod:`repro.instances`, times the structured route against two dense
baselines shape by shape, and gates three properties:

- **Parity**: the dense interior-point route solving the *identical*
  reach-restricted QP (``sqp.to_dense()``) must agree with the
  structured route to certification-grade relative UFC accuracy —
  same problem, two factorizations.
- **Certification**: every structured slot's allocation and solver
  duals pass the a-posteriori KKT certifier — at shapes where no
  dense route is tractable, the certificate *is* the correctness
  evidence.
- **Speedup**: at ``N * M >= 2000`` the structured route must be at
  least 5x faster per slot than the same-problem dense route.

The second baseline (``dense_full``) is the library's pre-existing
full-reach compiled path — what a slot would cost *without* the scale
lane.  It solves a larger feasible set (every front-end may route
anywhere), so its UFC differs by the genuine fan-in restriction gap;
it is reported for context, never gated on parity.

A final check pins down that the scale lane cannot disturb the paper
reproduction: at paper scale, ``kkt_mode="auto"`` solves are
bit-identical to the dense route (the auto cutoff keeps small QPs on
the dense path).

Driven by ``benchmarks/bench_scale.py``, which writes
``BENCH_scale.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.centralized import CentralizedSolver
from repro.core.compiled import CompiledQPStructure
from repro.core.strategies import HYBRID
from repro.instances import ScaleSpec, generate_instance
from repro.obs.certify import certify_structured_solution
from repro.optim.ipqp import solve_qp
from repro.optim.kkt import StructuredQPCompiler, solve_structured_qp

__all__ = ["ShapeResult", "run_scale_bench", "render_report", "DEFAULT_SHAPES"]

#: Shape ladder for the full benchmark: paper scale up to hyperscale.
DEFAULT_SHAPES: tuple[tuple[int, int], ...] = (
    (4, 10),
    (10, 50),
    (20, 100),
    (50, 500),
    (100, 1000),
)

#: Above this ``N * M`` neither dense baseline is timed (their KKT
#: factors would dominate the benchmark's runtime); the structured
#: route is then validated by certification instead of cross-checking.
DENSE_PRODUCT_LIMIT = 2000

#: Structured-vs-dense per-slot speedup the gate demands at
#: ``N * M >= 2000`` (against the same-problem dense route).
SPEEDUP_FLOOR = 5.0

#: Relative per-slot UFC disagreement tolerated between the two
#: routes on the identical QP (both converge to gap ~1e-6 absolute;
#: the bound leaves interior-point headroom).
PARITY_RTOL = 1e-4

#: Interior-point tolerance for the scale lane.  Residuals are judged
#: relative to the problem's coefficient scale (~1e2 for generated
#: instances), so 1e-8 lands near 1e-6 absolute — beyond
#: certification tolerance with margin, and robust at shapes where
#: the float64 Schur assembly limits achievable accuracy.
SCALE_TOL = 1e-8


@dataclass
class ShapeResult:
    """Timings and checks for one (N, M) rung of the ladder.

    ``dense_*`` fields are None above :data:`DENSE_PRODUCT_LIMIT`.
    """

    num_datacenters: int
    num_frontends: int
    slots: int
    fan_in: int
    structured_s: float
    structured_iters: int
    converged_slots: int
    certified_slots: int
    suspect_slots: list[int] = field(default_factory=list)
    #: Dense route on the identical reach-restricted QP.
    dense_same_s: float | None = None
    dense_slots: int = 0
    speedup: float | None = None
    max_ufc_rel_delta: float | None = None
    #: The library's full-reach compiled path (a larger feasible set).
    dense_full_s: float | None = None
    restriction_gap_rel: float | None = None

    @property
    def product(self) -> int:
        return self.num_datacenters * self.num_frontends

    @property
    def ok(self) -> bool:
        if self.converged_slots < self.slots or self.certified_slots < self.slots:
            return False
        if self.max_ufc_rel_delta is not None and self.max_ufc_rel_delta > PARITY_RTOL:
            return False
        if self.speedup is not None and self.product >= DENSE_PRODUCT_LIMIT:
            return self.speedup >= SPEEDUP_FLOOR
        return True

    def to_dict(self) -> dict:
        """JSON-ready summary row for ``BENCH_scale.json``."""
        return {
            "num_datacenters": self.num_datacenters,
            "num_frontends": self.num_frontends,
            "product": self.product,
            "slots": self.slots,
            "fan_in": self.fan_in,
            "structured_s": round(self.structured_s, 4),
            "structured_ms_per_slot": round(1000 * self.structured_s / self.slots, 2),
            "structured_iters": self.structured_iters,
            "converged_slots": self.converged_slots,
            "certified_slots": self.certified_slots,
            "suspect_slots": self.suspect_slots,
            "dense_same_s": (
                None if self.dense_same_s is None else round(self.dense_same_s, 4)
            ),
            "dense_slots": self.dense_slots,
            "speedup": None if self.speedup is None else round(self.speedup, 2),
            "max_ufc_rel_delta": self.max_ufc_rel_delta,
            "dense_full_s": (
                None if self.dense_full_s is None else round(self.dense_full_s, 4)
            ),
            "restriction_gap_rel": self.restriction_gap_rel,
            "ok": self.ok,
        }


def _paper_scale_bit_identity(hours: int = 6, seed: int = 2014) -> bool:
    """auto-mode solves are bit-identical to dense at paper scale."""
    from repro.sim.simulator import Simulator, build_model
    from repro.traces.datasets import default_bundle

    bundle = default_bundle(hours=hours, seed=seed)
    model = build_model(bundle)
    sim = Simulator(model, bundle)
    compiled = CompiledQPStructure(model, HYBRID)
    dense = CentralizedSolver(kkt_mode="dense")
    auto = CentralizedSolver(kkt_mode="auto")
    for t in range(hours):
        problem = sim.problem_for_slot(t, HYBRID)
        a = dense.solve(problem, compiled).allocation
        b = auto.solve(problem, compiled).allocation
        if not (
            np.array_equal(a.lam, b.lam)
            and np.array_equal(a.mu, b.mu)
            and np.array_equal(a.nu, b.nu)
        ):
            return False
    return True


def _bench_shape(
    n: int,
    m: int,
    slots: int,
    fan_in: int,
    seed: int,
    tol: float,
    dense_slots: int,
) -> ShapeResult:
    inst = generate_instance(
        ScaleSpec(
            num_datacenters=n,
            num_frontends=m,
            hours=slots,
            fan_in=min(fan_in, n),
            seed=seed,
        )
    )
    sc = StructuredQPCompiler(inst.model, HYBRID, reach=inst.reach)

    structured_ufc: list[float] = []
    converged = iters = certified = 0
    suspect: list[int] = []
    start = time.perf_counter()
    results = []
    for t in range(slots):
        sqp = sc.structured_qp_for(inst.inputs(t))
        res = solve_structured_qp(sqp, tol=tol, max_iter=120)
        results.append((sqp, res))
    structured_s = time.perf_counter() - start
    for t, (sqp, res) in enumerate(results):
        converged += bool(res.converged)
        iters += res.iterations
        alloc = sqp.extract(res.x)
        problem = inst.problem(t)
        structured_ufc.append(problem.ufc(alloc))
        cert = certify_structured_solution(
            sqp,
            problem,
            alloc,
            x=res.x,
            duals=(res.eq_dual, res.ineq_dual),
            solver="centralized-structured",
            slot=t,
        )
        if cert.ok:
            certified += 1
        else:
            suspect.append(t)

    result = ShapeResult(
        num_datacenters=n,
        num_frontends=m,
        slots=slots,
        fan_in=inst.fan_in,
        structured_s=structured_s,
        structured_iters=iters,
        converged_slots=converged,
        certified_slots=certified,
        suspect_slots=suspect,
    )

    if n * m <= DENSE_PRODUCT_LIMIT and dense_slots > 0:
        k = min(dense_slots, slots)

        # Same problem, dense factorization: the parity + speedup gate.
        deltas = []
        start = time.perf_counter()
        for t in range(k):
            sqp, _res = results[t]
            P, q, A, b, G, h = sqp.to_dense()
            res = solve_qp(P, q, A=A, b=b, G=G, h=h, tol=tol, max_iter=120)
            ufc = inst.problem(t).ufc(sqp.extract(res.x))
            deltas.append(
                abs(ufc - structured_ufc[t]) / (1.0 + abs(structured_ufc[t]))
            )
        dense_same_s = time.perf_counter() - start
        result.dense_same_s = dense_same_s
        result.dense_slots = k
        result.speedup = (dense_same_s / k) / max(structured_s / slots, 1e-12)
        result.max_ufc_rel_delta = float(max(deltas))

        # Full-reach compiled path (what a slot cost before the scale
        # lane): larger feasible set, so its UFC can only be better —
        # the difference is the fan-in restriction gap, reported for
        # context.
        compiled = CompiledQPStructure(inst.model, HYBRID)
        gaps = []
        start = time.perf_counter()
        for t in range(k):
            qp = compiled.qp_for(inst.inputs(t))
            res = solve_qp(
                qp.P, qp.q, A=qp.A, b=qp.b, G=qp.G, h=qp.h,
                tol=tol, max_iter=120,
            )
            ufc = inst.problem(t).ufc(qp.extract(res.x))
            gaps.append(
                (ufc - structured_ufc[t]) / (1.0 + abs(structured_ufc[t]))
            )
        result.dense_full_s = time.perf_counter() - start
        result.restriction_gap_rel = float(max(gaps))
    return result


def run_scale_bench(
    shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES,
    slots: int = 24,
    fan_in: int = 6,
    seed: int = 2014,
    tol: float = SCALE_TOL,
    dense_slots: int = 3,
    check_paper_scale: bool = True,
) -> dict:
    """Run the ladder and return the JSON-ready summary payload.

    Args:
        shapes: (N, M) rungs to benchmark.
        slots: hourly slots solved per rung (every one is certified).
        fan_in: nearest-datacenter reach per front-end.
        seed: instance seed.
        tol: interior-point tolerance for every route.
        dense_slots: slots each dense baseline is timed on (they are
            10-500x slower at the gate shape, so a few slots suffice;
            per-slot averages make the comparison fair).
        check_paper_scale: also run the paper-scale bit-identity check.
    """
    shape_results = [
        _bench_shape(n, m, slots, fan_in, seed, tol, dense_slots)
        for n, m in shapes
    ]
    paper_ok = _paper_scale_bit_identity() if check_paper_scale else None

    gate_shapes = [
        r for r in shape_results
        if r.speedup is not None and r.product >= DENSE_PRODUCT_LIMIT
    ]
    rel_deltas = [
        r.max_ufc_rel_delta
        for r in shape_results
        if r.max_ufc_rel_delta is not None
    ]
    passed = (
        all(r.ok for r in shape_results)
        and (paper_ok is None or paper_ok)
        and all(r.speedup >= SPEEDUP_FLOOR for r in gate_shapes)
    )
    return {
        "slots_per_shape": slots,
        "fan_in": fan_in,
        "seed": seed,
        "tol": tol,
        "speedup_floor": SPEEDUP_FLOOR,
        "parity_rtol": PARITY_RTOL,
        "dense_product_limit": DENSE_PRODUCT_LIMIT,
        "shapes": [r.to_dict() for r in shape_results],
        "paper_scale_bit_identical": paper_ok,
        "max_ufc_rel_delta": max(rel_deltas) if rel_deltas else None,
        "passed": bool(passed),
    }


def render_report(payload: dict) -> str:
    """Human-readable table for `benchmarks/bench_scale.py`."""
    lines = [
        "scale lane: block-elimination KKT vs dense route",
        f"  slots/shape {payload['slots_per_shape']}, fan-in "
        f"{payload['fan_in']}, tol {payload['tol']:g}",
        "",
        "  shape        structured     dense (same QP)   speedup  full reach"
        "   certified",
    ]
    for r in payload["shapes"]:
        shape = f"{r['num_datacenters']}x{r['num_frontends']}"
        structured = f"{r['structured_ms_per_slot']:8.1f} ms"
        if r["dense_same_s"] is None:
            dense = "     (skipped)"
            speedup = "      -"
            full = "         -"
        else:
            dense = f"{1000 * r['dense_same_s'] / r['dense_slots']:10.1f} ms"
            speedup = f"{r['speedup']:6.1f}x"
            full = f"{1000 * r['dense_full_s'] / r['dense_slots']:8.1f} ms"
        cert = f"{r['certified_slots']}/{r['slots']}"
        flag = "" if r["ok"] else "  <-- FAILED"
        lines.append(
            f"  {shape:<11}{structured}  {dense:>16}  {speedup}  {full:>10}"
            f"  {cert:>9}{flag}"
        )
    paper = payload["paper_scale_bit_identical"]
    if paper is not None:
        lines.append(
            "  paper-scale auto vs dense: "
            + ("bit-identical" if paper else "DIVERGED")
        )
    if payload["max_ufc_rel_delta"] is not None:
        lines.append(
            f"  same-QP parity: max relative UFC delta "
            f"{payload['max_ufc_rel_delta']:.2e} (tol {payload['parity_rtol']:g})"
        )
    lines.append(f"  overall: {'PASS' if payload['passed'] else 'FAIL'}")
    return "\n".join(lines)
