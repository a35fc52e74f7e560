"""Carbon-policy study: flat tax vs stepped tax vs cap-and-trade.

The paper motivates its choice of ADM-G with the observation that real
carbon pricing need not be strongly convex — flat taxes are linear,
stepped taxes and cap-and-trade are piecewise linear.  This example
evaluates all three (plus a no-pricing baseline) on the same cloud and
week and reports how each policy moves emissions, cost and fuel-cell
utilization.  The centralized solver absorbs the piecewise-linear
costs through epigraph variables; pass ``--distributed`` to use the
paper's ADM-G instead (its ``nu``-minimization handles any convex
``V_j`` through an exact prox).

Run:
    python examples/carbon_policy_study.py [--hours 72] [--distributed]
"""

from __future__ import annotations

import argparse

from repro import (
    CapAndTrade,
    HYBRID,
    HorizonEngine,
    LinearCarbonTax,
    NoEmissionCost,
    Simulator,
    SteppedCarbonTax,
    build_model,
    default_bundle,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=int, default=72)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--distributed", action="store_true",
        help="solve with the paper's ADM-G instead of the centralized QP",
    )
    args = parser.parse_args()
    engine = HorizonEngine("distributed" if args.distributed else "centralized")

    bundle = default_bundle(hours=args.hours, seed=args.seed)
    base_model = build_model(bundle)

    # A cap near half of each site's typical hourly grid emissions, so
    # the cap binds during dirty hours; permits trade at EU-like prices.
    typical_hourly_kg = float(
        (bundle.carbon_rates.mean(axis=0) * base_model.alphas).mean()
    ) * 2.0
    policies = {
        "no pricing": NoEmissionCost(),
        "flat tax $25/t": LinearCarbonTax(25.0),
        "stepped tax 15/40/90 $/t": SteppedCarbonTax(
            thresholds_kg=[0.0, typical_hourly_kg, 3.0 * typical_hourly_kg],
            rates_per_tonne=[15.0, 40.0, 90.0],
        ),
        "cap-and-trade": CapAndTrade(
            cap_kg=typical_hourly_kg, buy_price_per_tonne=30.0,
            sell_price_per_tonne=18.0,
        ),
    }

    print(f"{'policy':<26} {'carbon (t)':>10} {'emission $':>10} "
          f"{'energy $':>10} {'FC util':>8} {'latency':>8}")
    for name, policy in policies.items():
        model = base_model.with_emission_costs(policy)
        result = Simulator(model, bundle, engine).run(HYBRID)
        print(
            f"{name:<26} {result.total_carbon_tonnes():>10.1f} "
            f"{result.carbon_cost.sum():>10.0f} "
            f"{result.total_energy_cost():>10.0f} "
            f"{100 * result.mean_utilization():>7.1f}% "
            f"{result.avg_latency_ms.mean():>6.2f}ms"
        )


if __name__ == "__main__":
    main()
