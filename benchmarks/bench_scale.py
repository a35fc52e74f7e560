"""Scale-lane benchmark: block-elimination KKT path at hyperscale.

Runs the shape ladder of :mod:`repro.experiments.scalebench` — from
the paper's (N, M) = (4, 10) up to (100, 1000) — solving each
generated instance's slots through the structured (block-elimination)
interior-point route, certifying every slot with the a-posteriori KKT
certifier, and timing two dense baselines on the shapes where they
are tractable (``N * M <= 2000``): the dense factorization of the
*identical* reach-restricted QP (parity + speedup gate) and the
library's full-reach compiled path (context; its UFC differs by the
genuine fan-in restriction gap, so it is never gated on parity).

Gates (``main`` exits 1 unless every one holds):

- every slot of every shape converges and certifies;
- on the identical QP the two routes agree to 1e-4 relative UFC;
- paper-scale ``kkt_mode="auto"`` solves stay bit-identical to the
  dense route (the scale lane cannot disturb the reproduction);
- at the (20, 100) rung — ``N * M = 2000``, the largest shape the
  dense routes are timed on — the structured route is at least 5x
  faster per slot than the same-QP dense route.  Locally it clears
  ~20x; the floor leaves room for slow CI hardware.

Run standalone to write the JSON summary::

    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_scale.json

or through pytest with the rest of the ``bench_*`` modules (a
shortened ladder keeps the suite's runtime sane).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.scalebench import (
    DEFAULT_SHAPES,
    SPEEDUP_FLOOR,
    render_report,
    run_scale_bench,
)


def test_scale_lane_certifies_and_beats_dense(run_once):
    """Pytest entry: smoke ladder, full gates."""
    summary = run_once(
        run_scale_bench, shapes=((4, 10), (20, 100)), slots=12, dense_slots=2
    )
    print("\n" + render_report(summary))
    for shape in summary["shapes"]:
        assert shape["converged_slots"] == shape["slots"]
        assert shape["certified_slots"] == shape["slots"]
        assert shape["suspect_slots"] == []
    assert summary["paper_scale_bit_identical"]
    gate = [
        s for s in summary["shapes"]
        if s["speedup"] is not None and s["product"] >= 2000
    ]
    assert gate, "ladder must include a dense-timed shape at N*M >= 2000"
    assert all(s["speedup"] >= SPEEDUP_FLOOR for s in gate)
    # On the identical QP the two routes agree to solver tolerance.
    assert summary["max_ufc_rel_delta"] is not None
    assert summary["max_ufc_rel_delta"] < summary["parity_rtol"]
    assert summary["passed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shapes",
        default=None,
        metavar="NxM,...",
        help="shape ladder (default: full ladder up to 100x1000)",
    )
    parser.add_argument("--slots", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--dense-slots",
        type=int,
        default=3,
        help="slots to time the dense route on where tractable",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON summary here (default: stdout only)",
    )
    args = parser.parse_args(argv)
    if args.shapes:
        shapes = tuple(
            (int(n), int(m))
            for n, m in (part.split("x") for part in args.shapes.split(","))
        )
    else:
        shapes = DEFAULT_SHAPES
    summary = run_scale_bench(
        shapes=shapes,
        slots=args.slots,
        seed=args.seed,
        dense_slots=args.dense_slots,
    )
    print(render_report(summary))
    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
