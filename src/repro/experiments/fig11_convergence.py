"""Fig. 11: convergence of the distributed ADM-G algorithm.

Runs the distributed solver cold-started on every slot of the week
(the paper's "168 runs") and reports the CDF of iterations to
convergence.  Paper shape: 80% of runs converge within 100
iterations, the fastest takes 37 and the slowest 130 — an order of
magnitude below the gradient/projection methods the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.admg.solver import DistributedUFCSolver
from repro.core.strategies import HYBRID
from repro.experiments.common import evaluation_setup
from repro.sim.metrics import iteration_cdf
from repro.sim.simulator import Simulator

__all__ = ["Fig11Result", "run_fig11", "render_fig11"]


@dataclass(frozen=True)
class Fig11Result:
    """Iteration counts of the per-slot ADM-G runs.

    Attributes:
        iterations: (T,) iterations to convergence per slot.
        converged: (T,) convergence flags.
        cdf_counts: sorted unique iteration counts.
        cdf_fractions: fraction of runs converging within each count.
    """

    iterations: np.ndarray
    converged: np.ndarray
    cdf_counts: np.ndarray
    cdf_fractions: np.ndarray

    def fraction_within(self, count: int) -> float:
        """Fraction of runs that converged within ``count`` iterations."""
        return float((self.iterations <= count).mean())


def run_fig11(
    hours: int = 168,
    seed: int = 2014,
    rho: float = 0.3,
    tol: float = 6e-3,
    max_iter: int = 1000,
    workers: int = 1,
) -> Fig11Result:
    """Regenerate the Fig. 11 CDF with cold-started distributed runs.

    The paper's iteration counts are 168 *cold-started* runs, so the
    slots stay independent and ``workers > 1`` can solve them in
    parallel without changing a single count.
    """
    bundle, model = evaluation_setup(hours=hours, seed=seed)
    solver = DistributedUFCSolver(rho=rho, tol=tol, max_iter=max_iter)
    sim = Simulator(model, bundle, solver=solver, workers=workers)
    result = sim.run(HYBRID)
    counts, fractions = iteration_cdf(result.iterations)
    return Fig11Result(
        iterations=result.iterations,
        converged=result.converged,
        cdf_counts=counts,
        cdf_fractions=fractions,
    )


def render_fig11(result: Fig11Result) -> str:
    """Headline statistics matching the paper's commentary."""
    it = result.iterations
    return "\n".join(
        [
            "Fig. 11: CDF of iterations to ADM-G convergence "
            f"({len(it)} runs)",
            f"min {int(it.min())} (paper: 37), "
            f"max {int(it.max())} (paper: 130), "
            f"median {int(np.median(it))}",
            f"within 100 iterations: {100 * result.fraction_within(100):.0f}% "
            "(paper: 80%)",
            f"all runs converged: {bool(result.converged.all())}",
        ]
    )
