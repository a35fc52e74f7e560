"""Slot-invariant compiled structure for the UFC QP.

Compiling a slot's :class:`~repro.core.problem.UFCProblem` to a dense
QP rebuilds every constraint matrix from Python row loops, yet most of
that work does not depend on the slot at all: the equality/inequality
patterns come from the model geometry (``beta_j``, capacities,
``mu_j^max``) and the strategy switches, while only the linear terms
(prices, emission intercepts), the utility block (arrivals) and the
load-balance right-hand side vary hour to hour.

:class:`CompiledQPStructure` performs the slot-invariant assembly once
per (model, strategy, scale) and re-emits a fresh :class:`QPForm` per
slot by filling in the varying entries — arithmetic-for-arithmetic the
same operations as a from-scratch compile, so the emitted QP is
bit-identical to ``UFCProblem.to_qp()`` (the test suite asserts exact
array equality).  Slots whose emission costs need epigraph variables
change the QP dimension with the slot's carbon rates; those fall back
to the generic assembly path transparently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import CloudModel
from repro.core.problem import QPForm, SlotInputs, UFCProblem
from repro.core.strategies import Strategy

__all__ = ["CompiledQPStructure", "default_workload_scale"]


def default_workload_scale(model: CloudModel) -> float:
    """The default routing unit used by the QP compilation.

    Total capacity spread over the front-ends, floored at one server —
    the same rule ``UFCProblem.to_qp`` applies when no explicit scale
    is given.
    """
    return max(1.0, float(model.capacities.sum()) / model.num_frontends)


class CompiledQPStructure:
    """The slot-invariant part of the UFC QP compilation.

    Args:
        model: the static cloud model.
        strategy: operating strategy (decides which power blocks exist).
        workload_scale: servers per routing unit; None applies the
            model's default (see :func:`default_workload_scale`).

    Raises:
        ValueError: for a non-positive explicit ``workload_scale``.
    """

    def __init__(
        self,
        model: CloudModel,
        strategy: Strategy,
        workload_scale: float | None = None,
    ) -> None:
        if workload_scale is None:
            workload_scale = default_workload_scale(model)
        if workload_scale <= 0:
            raise ValueError(f"workload_scale must be positive, got {workload_scale}")
        self.model = model
        self.strategy = strategy
        self.scale = float(workload_scale)

        m, n = model.num_frontends, model.num_datacenters
        self.m, self.n = m, n
        #: The model's per-datacenter arrays, built once per structure
        #: (the certifier's feasibility audit reads them too).
        self.site = model.site_arrays()
        self.capacities = self.site.capacities / self.scale
        self.betas = self.site.betas * self.scale
        self.weight = model.latency_weight * self.scale
        self.include_mu = strategy.fuel_cell_enabled
        self.include_nu = strategy.grid_enabled
        self.mu_offset = m * n if self.include_mu else None
        self.nu_offset = (
            m * n + (n if self.include_mu else 0) if self.include_nu else None
        )
        # Base layout: no epigraph variables (the overwhelmingly common
        # case — quadratic and single-segment emission costs).  Slots
        # that need them rebuild from scratch via the generic path.
        self.dim = m * n + (n if self.include_mu else 0) + (n if self.include_nu else 0)
        self._kernel = None
        self._assemble_invariants()

    # -- slot-invariant assembly ---------------------------------------------

    def _assemble_invariants(self) -> None:
        model, m, n, dim = self.model, self.m, self.n, self.dim

        a_rows = []
        b_rhs = []
        for i in range(m):
            row = np.zeros(dim)
            row[i * n : (i + 1) * n] = 1.0
            a_rows.append(row)
            b_rhs.append(0.0)  # overwritten with scaled arrivals per slot
        for j in range(n):
            row = np.zeros(dim)
            row[j : m * n : n] = self.betas[j]
            if self.include_mu:
                row[self.mu_offset + j] = -1.0
            if self.include_nu:
                row[self.nu_offset + j] = -1.0
            a_rows.append(row)
            b_rhs.append(-self.site.alphas[j])
        self._A = np.array(a_rows)
        self._b_template = np.array(b_rhs)

        g_rows = []
        h_rhs = []
        for j in range(n):
            row = np.zeros(dim)
            row[j : m * n : n] = 1.0
            g_rows.append(row)
            h_rhs.append(self.capacities[j])
        for k in range(m * n):
            row = np.zeros(dim)
            row[k] = -1.0
            g_rows.append(row)
            h_rhs.append(0.0)
        if self.include_mu:
            for j in range(n):
                row = np.zeros(dim)
                row[self.mu_offset + j] = -1.0
                g_rows.append(row)
                h_rhs.append(0.0)
                row = np.zeros(dim)
                row[self.mu_offset + j] = 1.0
                g_rows.append(row)
                h_rhs.append(self.site.mu_max[j])
        if self.include_nu:
            for j in range(n):
                row = np.zeros(dim)
                row[self.nu_offset + j] = -1.0
                g_rows.append(row)
                h_rhs.append(0.0)
        self._G = np.array(g_rows)
        self._h = np.array(h_rhs)

        q_base = np.zeros(dim)
        if self.include_mu:
            q_base[self.mu_offset : self.mu_offset + n] += model.fuel_cell_price
        self._q_template = q_base
        # Slot-invariant utility state (e.g. the latency outer products
        # of Eq. (2)) hoisted once; per-slot emission touches only the
        # arrival-dependent terms.
        self._utility_eval = model.utility.neg_quad_form_compiled(
            model.latency_ms, self.weight
        )

    # -- per-slot emission -----------------------------------------------------

    def matches(self, problem: UFCProblem) -> bool:
        """Whether this structure was compiled for ``problem``'s shape."""
        return problem.model is self.model and problem.strategy == self.strategy

    def kernel(self):
        """The interior-point kernel of this structure's ``A`` and ``G``.

        Lazily builds and caches a :class:`~repro.optim.ipqp.QPKernel`:
        the Ruiz coordinates and the bound/dense row split every slot's
        dense solve derives from the constraint matrices, which
        :meth:`qp_for` hands every slot unchanged.  The
        centralized solver runs each slot on it, so a horizon compiles
        them once per (model, strategy) instead of once per slot.
        """
        if self._kernel is None:
            from repro.optim.ipqp import QPKernel

            self._kernel = QPKernel(self._A, self._G)
        return self._kernel

    def _nu_cost_terms(
        self, inputs: SlotInputs
    ) -> tuple[list[tuple[float, float] | None], list[list[tuple[float, float]] | None], int] | None:
        """Per-datacenter nu-cost representation for this slot.

        Returns ``(quad_terms, epigraph_segments, num_u)`` exactly like
        the generic compilation, or None when an emission cost is not
        QP-representable.
        """
        model = self.model
        quad_terms: list[tuple[float, float] | None] = []
        epigraph_segments: list[list[tuple[float, float]] | None] = []
        num_u = 0
        for v, c in zip(model.emission_costs, inputs.carbon_rates):
            quad = v.nu_quadratic(c)
            if quad is not None:
                quad_terms.append(quad)
                epigraph_segments.append(None)
                continue
            segments = v.nu_epigraph(c)
            if segments is None:
                return None
            if len(segments) == 1:
                quad_terms.append((0.0, segments[0][0]))
                epigraph_segments.append(None)
            else:
                quad_terms.append(None)
                epigraph_segments.append(segments)
                num_u += 1
        return quad_terms, epigraph_segments, num_u

    def qp_for(self, inputs: SlotInputs) -> QPForm:
        """The slot's QP, bit-identical to a from-scratch compile.

        Raises:
            NotImplementedError: for emission costs that are neither
                quadratic nor piecewise linear (not QP-representable).
        """
        model, m, n = self.model, self.m, self.n
        if self.include_nu:
            terms = self._nu_cost_terms(inputs)
            if terms is None:
                raise NotImplementedError(
                    "an emission cost is neither quadratic nor piecewise "
                    "linear; use the distributed solver"
                )
            quad_terms, epigraph_segments, num_u = terms
            if num_u:
                # Epigraph variables change the QP dimension with this
                # slot's carbon rates: rebuild from scratch.
                return UFCProblem(model, inputs, strategy=self.strategy).to_qp(
                    workload_scale=self.scale
                )
        else:
            quad_terms = []

        dim = self.dim
        arrivals = inputs.arrivals / self.scale

        p_mat = np.zeros((dim, dim))
        q_vec = self._q_template.copy()
        # The cached evaluator is bit-identical to the scalar
        # ``neg_quad_form`` per front-end (the batch form is asserted
        # elementwise equal in the test suite).
        h_blocks, g_blocks = self._utility_eval(arrivals[None])
        for i in range(m):
            sl = slice(i * n, (i + 1) * n)
            p_mat[sl, sl] += h_blocks[0, i]
            q_vec[sl] += g_blocks[0, i]
        if self.include_nu:
            for j in range(n):
                q_vec[self.nu_offset + j] += inputs.prices[j]
                a_j, b_j = quad_terms[j]
                p_mat[self.nu_offset + j, self.nu_offset + j] += 2.0 * a_j
                q_vec[self.nu_offset + j] += b_j

        b_rhs = self._b_template.copy()
        b_rhs[:m] = arrivals

        return QPForm(
            P=p_mat,
            q=q_vec,
            A=self._A,
            b=b_rhs,
            G=self._G,
            h=self._h,
            num_frontends=m,
            num_datacenters=n,
            mu_offset=self.mu_offset,
            nu_offset=self.nu_offset,
            lam_scale=self.scale,
        )

    def qp_for_batch(self, inputs_list: "Sequence[SlotInputs]") -> list[QPForm]:
        """Many slots' QPs assembled in one vectorized pass.

        Elementwise identical to ``[self.qp_for(inp) for inp in
        inputs_list]``: the utility blocks go through the utility's
        vectorized ``neg_quad_form_batch`` (bit-identical to the scalar
        form), the constraint arrays are the same shared ``A``/``G``/
        ``h`` objects every ``qp_for`` call hands out, and ``P``/``q``/
        ``b`` are per-slot views into stacked arrays.  Slots needing
        epigraph variables rebuild through the generic scalar path,
        exactly like :meth:`qp_for`.

        Raises:
            NotImplementedError: for emission costs that are neither
                quadratic nor piecewise linear (not QP-representable).
        """
        inputs_list = list(inputs_list)
        if not inputs_list:
            return []
        model, m, n = self.model, self.m, self.n
        batch = len(inputs_list)
        generic: dict[int, QPForm] = {}
        nu_quads: list[list[tuple[float, float]] | None] = [None] * batch
        if self.include_nu:
            for t, inputs in enumerate(inputs_list):
                terms = self._nu_cost_terms(inputs)
                if terms is None:
                    raise NotImplementedError(
                        "an emission cost is neither quadratic nor piecewise "
                        "linear; use the distributed solver"
                    )
                quad_terms, _segments, num_u = terms
                if num_u:
                    generic[t] = self.qp_for(inputs)
                else:
                    nu_quads[t] = quad_terms

        dim = self.dim
        arrivals = np.stack([inp.arrivals for inp in inputs_list]) / self.scale
        p_stack = np.zeros((batch, dim, dim))
        q_stack = np.tile(self._q_template, (batch, 1))
        h_blocks, g_blocks = self._utility_eval(arrivals)
        for i in range(m):
            sl = slice(i * n, (i + 1) * n)
            p_stack[:, sl, sl] += h_blocks[:, i]
            q_stack[:, sl] += g_blocks[:, i]
        if self.include_nu:
            off = self.nu_offset
            prices = np.stack([inp.prices for inp in inputs_list])
            quad_a = np.array(
                [[q[j][0] if q is not None else 0.0 for j in range(n)]
                 for q in nu_quads]
            )
            quad_b = np.array(
                [[q[j][1] if q is not None else 0.0 for j in range(n)]
                 for q in nu_quads]
            )
            q_stack[:, off : off + n] += prices
            diag = np.arange(off, off + n)
            p_stack[:, diag, diag] += 2.0 * quad_a
            q_stack[:, off : off + n] += quad_b

        b_stack = np.tile(self._b_template, (batch, 1))
        b_stack[:, :m] = arrivals

        forms: list[QPForm] = []
        for t in range(batch):
            if t in generic:
                forms.append(generic[t])
                continue
            forms.append(
                QPForm(
                    P=p_stack[t],
                    q=q_stack[t],
                    A=self._A,
                    b=b_stack[t],
                    G=self._G,
                    h=self._h,
                    num_frontends=m,
                    num_datacenters=n,
                    mu_offset=self.mu_offset,
                    nu_offset=self.nu_offset,
                    lam_scale=self.scale,
                )
            )
        return forms
