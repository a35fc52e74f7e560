"""Propagation-latency model and workload-utility functions ``U``.

The paper approximates wide-area propagation latency from geographic
distance as ``L_ij = 0.02 ms/km * d_ij`` and evaluates workload
performance through a decreasing concave utility of the average
latency experienced by each front-end's users.  Its evaluation default
is the quadratic Eq. (2):

    U(lambda_i) = -A_i * (sum_j lambda_ij L_ij / A_i)^2,

with latency in seconds and the weight ``w`` in $/s^2.  We also provide
a linear variant (utility proportional to average latency itself).
Both yield exact quadratic/linear contributions to the per-front-end
``lambda``-minimization QP, which the classes expose directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "MS_PER_KM",
    "latency_matrix_from_distances",
    "LatencyUtility",
    "QuadraticLatencyUtility",
    "LinearLatencyUtility",
]

#: Empirical propagation constant: 1 km of geographic distance costs
#: about 0.02 ms of propagation latency (paper Sec. II-B3).
MS_PER_KM: float = 0.02

_SECONDS_PER_MS = 1e-3


def latency_matrix_from_distances(distances_km: np.ndarray) -> np.ndarray:
    """Propagation-latency matrix in ms from a distance matrix in km."""
    d = np.asarray(distances_km, dtype=float)
    if (d < 0).any():
        raise ValueError("distances must be non-negative")
    return d * MS_PER_KM


class LatencyUtility(ABC):
    """A decreasing concave utility of per-front-end average latency.

    Implementations expose the exact quadratic form of ``-w U`` needed
    by the solvers: ``-w U(lambda_i) = 0.5 lambda^T H lambda + g^T lambda``.
    """

    @abstractmethod
    def value(self, lam_row: np.ndarray, latency_ms: np.ndarray, arrival: float) -> float:
        """Utility ``U(lambda_i)`` in dollars (before the weight ``w``)."""

    @abstractmethod
    def neg_quad_form(
        self, latency_ms: np.ndarray, arrival: float, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(H, g)`` with ``-w U = 0.5 x^T H x + g^T x`` (+const)."""

    def average_latency_ms(self, lam_row: np.ndarray, latency_ms: np.ndarray,
                           arrival: float) -> float:
        """Average propagation latency ``sum_j lambda_ij L_ij / A_i`` in ms."""
        if arrival <= 0:
            return 0.0
        return float(lam_row @ latency_ms) / arrival

    def neg_quad_form_batch(
        self, latency_ms: np.ndarray, arrivals: np.ndarray, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(H, g)`` for T slots of M front-ends at once.

        ``latency_ms`` is the (M, N) latency matrix, ``arrivals`` a
        (T, M) stack of per-slot arrival rates.  Returns
        ``H`` of shape (T, M, N, N) and ``g`` of shape (T, M, N),
        elementwise identical to calling :meth:`neg_quad_form` per
        (slot, front-end).  This default loops; the closed-form
        utilities override it with one vectorized expression.
        """
        latency_ms = np.asarray(latency_ms, dtype=float)
        arrivals = np.asarray(arrivals, dtype=float)
        batch, m = arrivals.shape
        n = latency_ms.shape[1]
        h = np.empty((batch, m, n, n))
        g = np.empty((batch, m, n))
        for t in range(batch):
            for i in range(m):
                h[t, i], g[t, i] = self.neg_quad_form(
                    latency_ms[i], arrivals[t, i], weight
                )
        return h, g

    def neg_quad_form_compiled(self, latency_ms: np.ndarray, weight: float):
        """A slot-invariant evaluator for this utility's QP blocks.

        The returned callable maps a (T, M) arrival stack to the same
        ``(H, g)`` pair as :meth:`neg_quad_form_batch` on identical
        inputs — everything that depends only on the latency matrix
        and the weight is hoisted into the evaluator, so per-slot work
        touches only the arrival-dependent terms.  Evaluators are
        plain picklable objects (compiled QP structures ship to worker
        processes).  This default defers to :meth:`neg_quad_form_batch`;
        the closed-form utilities override it with genuinely cached
        state.
        """
        return _BatchFormEvaluator(self, latency_ms, weight)

    def neg_rank_one_compiled(self, latency_ms: np.ndarray, weight: float):
        """A slot-invariant evaluator of the rank-one form of ``-w U``, or None.

        When every front end's ``-w U`` is ``0.5 c (l^T x)^2 + g^T x``
        (+const), the returned object carries the (M, N) rows ``l`` as
        ``vec`` and maps an (M,) arrival vector to the per-slot pair
        ``(c (M,), g (M, N))``; the Hessian block is ``c l l^T``.  The
        default returns None: this utility offers no rank-one form, and
        the block-elimination KKT path cannot take its slots.
        """
        return None


class _BatchFormEvaluator:
    """Fallback compiled evaluator: defers to ``neg_quad_form_batch``."""

    def __init__(
        self, utility: "LatencyUtility", latency_ms: np.ndarray, weight: float
    ) -> None:
        self.utility = utility
        self.latency_ms = np.asarray(latency_ms, dtype=float)
        self.weight = weight

    def __call__(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.utility.neg_quad_form_batch(
            self.latency_ms, arrivals, self.weight
        )


class _QuadraticFormEvaluator:
    """Cached Eq. (2) blocks: the latency outer products are hoisted.

    Per-slot work is one masked divide plus the coefficient broadcast —
    bit-identical to :meth:`QuadraticLatencyUtility.neg_quad_form_batch`
    because the hoisted ``outer`` holds exactly the floats that method
    recomputes every call.
    """

    def __init__(self, latency_ms: np.ndarray, weight: float) -> None:
        l_s = np.asarray(latency_ms, dtype=float) * _SECONDS_PER_MS
        self.outer = l_s[:, :, None] * l_s[:, None, :]
        self.n = l_s.shape[1]
        self.weight = weight

    def __call__(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        arrivals = np.asarray(arrivals, dtype=float)
        positive = arrivals > 0
        coeff = np.zeros_like(arrivals)
        np.divide(2.0 * self.weight, arrivals, out=coeff, where=positive)
        h = coeff[:, :, None, None] * self.outer[None, :, :, :]
        g = np.zeros((*arrivals.shape, self.n))
        return h, g


class _QuadraticRankOne:
    """Eq. (2) in rank-one form: ``c = 2w/A_i`` (0 when idle), ``g = 0``.

    ``c * (l_a * l_b)`` is bit-identical to the block
    :class:`_QuadraticFormEvaluator` emits.
    """

    def __init__(self, latency_ms: np.ndarray, weight: float) -> None:
        self.vec = np.asarray(latency_ms, dtype=float) * _SECONDS_PER_MS
        self.weight = weight

    def __call__(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        arrivals = np.asarray(arrivals, dtype=float)
        coeff = np.zeros_like(arrivals)
        np.divide(2.0 * self.weight, arrivals, out=coeff, where=arrivals > 0)
        return coeff, np.zeros(self.vec.shape)


class _LinearRankOne:
    """The linear utility in rank-one form: ``c = 0``, ``g = w l``."""

    def __init__(self, latency_ms: np.ndarray, weight: float) -> None:
        self.vec = np.asarray(latency_ms, dtype=float) * _SECONDS_PER_MS
        self.g_row = weight * self.vec

    def __call__(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(np.shape(arrivals)), self.g_row.copy()


class _LinearFormEvaluator:
    """Cached linear blocks: the ``g`` row template is hoisted."""

    def __init__(self, latency_ms: np.ndarray, weight: float) -> None:
        latency_ms = np.asarray(latency_ms, dtype=float)
        self.g_row = weight * (latency_ms * _SECONDS_PER_MS)

    def __call__(self, arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        arrivals = np.asarray(arrivals, dtype=float)
        batch, m = arrivals.shape
        n = self.g_row.shape[1]
        g = np.broadcast_to(self.g_row, (batch, m, n)).copy()
        return np.zeros((batch, m, n, n)), g


class QuadraticLatencyUtility(LatencyUtility):
    """Paper Eq. (2): ``U = -A_i (avg latency in s)^2``.

    Reflects users' increasing tendency to abandon a service as latency
    grows; with ``w`` in $/s^2 the weighted utility is commensurate with
    hourly electricity cost at the paper's scale.
    """

    def value(self, lam_row: np.ndarray, latency_ms: np.ndarray, arrival: float) -> float:
        if arrival <= 0:
            return 0.0
        avg_s = float(lam_row @ latency_ms) * _SECONDS_PER_MS / arrival
        return -arrival * avg_s * avg_s

    def neg_quad_form(
        self, latency_ms: np.ndarray, arrival: float, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(latency_ms)
        if arrival <= 0:
            return np.zeros((n, n)), np.zeros(n)
        l_s = np.asarray(latency_ms, dtype=float) * _SECONDS_PER_MS
        # -w U = (w / A_i) (l^T x)^2  =>  H = (2w/A_i) l l^T, g = 0.
        h = (2.0 * weight / arrival) * np.outer(l_s, l_s)
        return h, np.zeros(n)

    def neg_quad_form_batch(
        self, latency_ms: np.ndarray, arrivals: np.ndarray, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. (2) blocks, bit-identical to the scalar form."""
        latency_ms = np.asarray(latency_ms, dtype=float)
        arrivals = np.asarray(arrivals, dtype=float)
        l_s = latency_ms * _SECONDS_PER_MS
        outer = l_s[:, :, None] * l_s[:, None, :]
        positive = arrivals > 0
        coeff = np.zeros_like(arrivals)
        np.divide(2.0 * weight, arrivals, out=coeff, where=positive)
        h = coeff[:, :, None, None] * outer[None, :, :, :]
        g = np.zeros((*arrivals.shape, l_s.shape[1]))
        return h, g

    def neg_quad_form_compiled(self, latency_ms: np.ndarray, weight: float):
        """Evaluator with the latency outer products precomputed."""
        return _QuadraticFormEvaluator(latency_ms, weight)

    def neg_rank_one_compiled(self, latency_ms: np.ndarray, weight: float):
        """``H = (2w/A_i) l l^T`` with ``l`` the latencies in seconds."""
        return _QuadraticRankOne(latency_ms, weight)


class LinearLatencyUtility(LatencyUtility):
    """Linear utility ``U = -A_i * (avg latency in s) = -(sum lambda L) in s``.

    A risk-neutral alternative: every served request values latency at a
    constant rate.  Yields a purely linear term in the routing QP.
    """

    def value(self, lam_row: np.ndarray, latency_ms: np.ndarray, arrival: float) -> float:
        return -float(lam_row @ latency_ms) * _SECONDS_PER_MS

    def neg_quad_form(
        self, latency_ms: np.ndarray, arrival: float, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(latency_ms)
        l_s = np.asarray(latency_ms, dtype=float) * _SECONDS_PER_MS
        return np.zeros((n, n)), weight * l_s

    def neg_quad_form_batch(
        self, latency_ms: np.ndarray, arrivals: np.ndarray, weight: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized linear blocks, bit-identical to the scalar form."""
        latency_ms = np.asarray(latency_ms, dtype=float)
        arrivals = np.asarray(arrivals, dtype=float)
        batch, m = arrivals.shape
        n = latency_ms.shape[1]
        g = np.broadcast_to(
            weight * (latency_ms * _SECONDS_PER_MS), (batch, m, n)
        ).copy()
        return np.zeros((batch, m, n, n)), g

    def neg_quad_form_compiled(self, latency_ms: np.ndarray, weight: float):
        """Evaluator with the linear ``g`` template precomputed."""
        return _LinearFormEvaluator(latency_ms, weight)

    def neg_rank_one_compiled(self, latency_ms: np.ndarray, weight: float):
        """A zero curvature over the latency rows, ``g = w l``."""
        return _LinearRankOne(latency_ms, weight)
