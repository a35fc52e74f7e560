"""The benchmark's four workloads: inputs, one timed pass, and checks.

Every workload is a closed loop: one caller submits a whole horizon to
the library and waits for every slot.  A workload object is built from
its generated inputs (:func:`build`), then :meth:`Workload.run_pass`
is the timed unit, :meth:`Workload.certify` and
:meth:`Workload.verdicts` the correctness checks and
:meth:`Workload.reference_gap` the traced run's UFC cross-check.

Importing this module imports the parts of ``repro`` the workloads use,
so the set-up probe times it together with ``import repro``.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import dataclass

from repro.core.strategies import ALL_STRATEGIES, HYBRID
from repro.engine import HorizonEngine, create_solver
from repro.exec import ResultStore
from repro.experiments.scalebench import SCALE_TOL
from repro.instances import ScaleSpec, generate_instance
from repro.obs.certify import CertificationContext, certify_structured_solution
from repro.sim.simulator import Simulator, build_model
from repro.traces.datasets import default_bundle

__all__ = ["SIZES", "Size", "Workload", "build"]


@dataclass(frozen=True)
class Size:
    """Instance sizes: the paper week and the hyperscale day."""

    week_hours: int
    #: Paper weeks a pass resolves on week-warm and week-batch.  Each
    #: seed's week has its own datacenter capacities and distances
    #: (``traces.paper_setup``), and some weeks hold slots that send the
    #: warm ladder to a cold solve or keep a 168-slot batch iterating for
    #: its slowest member.  Over 30 seeds, one week's pass time on these
    #: two lanes spreads by 16-19% between quartiles and reaches 1.6x the
    #: median, so a pass resolves several weeks, each from its own seed.
    #: The dense lane of week-fleet solves every slot on its own and
    #: spreads by about 10% over seeds, so it keeps one week.
    weeks: int
    hyper_datacenters: int
    hyper_frontends: int
    hyper_hours: int
    #: Generated instances a hyper-day pass spreads its hours over.  One
    #: instance's day costs the same iterations whatever the seed (599-661
    #: over ten seeds) but not the same time: over 26 seeds the day took
    #: 5.2-10.5 s at equal speed, with 3 of them above 1.15x the median,
    #: so one in six sets of ten seeds would spread past 25%.  Instance k
    #: of n serves the hours t with t % n == k of its own whole day, so
    #: the day still covers every hour of the load curve once.  Each
    #: instance is generated for the whole day because the generator
    #: scales load to the peak of the hours it makes: an instance of only
    #: its own hours would run each of them at a day's peak.  Over ten
    #: seeds 4 instances spread 0.82-1.13x the median, 8 spread 0.86-1.07x.
    hyper_instances: int
    hyper_warmup_slots: int


SIZES = {
    # Six paper weeks (168 h x 3 strategies) and a 100 x 1000 day.
    "full": Size(168, 6, 100, 1000, 24, 8, 2),
    # A few slots of each, for the benchmark's own smoke check.
    "tiny": Size(6, 2, 10, 60, 4, 2, 1),
}

#: mp workers on week-fleet; fixed so the workload is the same on any host.
FLEET_WORKERS = 2
#: Slot batches in flight at once on week-fleet.
FLEET_MAX_PENDING = 4
#: Front-end fan-in of the hyperscale instance.
HYPER_FAN_IN = 6


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def _fingerprint(outcomes) -> list:
    """Per-slot values a repeated pass must reproduce exactly."""
    return [
        (o.result.ufc, o.result.iterations) if o.ok and o.result is not None else None
        for o in outcomes
    ]


class Workload:
    """One workload over fixed generated inputs.

    Attributes:
        problems: every slot problem of a pass, in order.
    """

    def __init__(self, problems: list) -> None:
        self.problems = problems

    @property
    def slots_per_pass(self) -> int:
        return len(self.problems)

    def warmup(self) -> None:
        """Run once untimed so lazy imports and first-call costs are paid."""
        self.run_pass()

    def run_pass(self) -> list:
        """Resolve every slot once; returns the outcomes in slot order."""
        raise NotImplementedError

    def after_pass(self) -> None:
        """Tidy up after a pass, outside its timed region."""

    def certify(self, outcomes: list) -> list:
        """One certificate (or None for a failed slot) per outcome."""
        raise NotImplementedError

    def verdicts(self, outcomes: list, reference: list) -> list[bool]:
        """Per-slot pass/fail of a repeated pass against a certified one.

        The inputs are the same, so a slot passes only when it solved
        without error and reproduced the reference slot exactly.
        """
        return [
            got is not None and got == want
            for got, want in zip(_fingerprint(outcomes), _fingerprint(reference))
        ]

    def reference_gap(self, outcomes: list, certificates: list) -> float:
        """Largest relative UFC gap between this lane and the dense lane."""
        dense = HorizonEngine(create_solver("centralized"), workers=1).run(self.problems)
        # cycle: a week-fleet pass resolves the week twice.
        return max(
            (
                _rel_gap(o.result.ufc, d.result.ufc)
                for o, d in zip(outcomes, itertools.cycle(dense))
                if o.ok and d.ok
            ),
            default=1.0,
        )


class _WeekWorkload(Workload):
    """Paper weeks, each resolved by its own engine run."""

    def __init__(self, weeks: list[list]) -> None:
        super().__init__([problem for week in weeks for problem in week])
        self.weeks = weeks

    def warmup(self) -> None:
        self.run_week(self.weeks[0])

    def run_pass(self) -> list:
        return [outcome for week in self.weeks for outcome in self.run_week(week)]

    def run_week(self, problems: list) -> list:
        """Resolve one week's slots; returns the outcomes in slot order."""
        raise NotImplementedError

    def certify(self, outcomes: list) -> list:
        context = CertificationContext()
        certs = []
        for outcome, problem in zip(outcomes, self.problems):
            if not outcome.ok or outcome.result is None:
                certs.append(None)
                continue
            duals = outcome.result.extras.get("duals")
            certs.append(
                context.certify(problem, outcome.result.allocation, duals=duals)
            )
        return certs


class WeekWarm(_WeekWorkload):
    """Paper weeks through the in-process warm chain."""

    def run_week(self, problems: list) -> list:
        engine = HorizonEngine(create_solver("centralized-warm"), workers=1)
        return engine.run(problems, warm_start=True)


class WeekBatch(_WeekWorkload):
    """Paper weeks through the in-process batched lane."""

    def run_week(self, problems: list) -> list:
        engine = HorizonEngine(create_solver("centralized-batch"), workers=1)
        return engine.run(problems, batch=True)


class WeekFleet(_WeekWorkload):
    """The paper week on mp workers into a fresh store, then again from it.

    Certification runs inside the engine (``certify=True``), in the
    workers for fresh solves and in the parent for store hits, so it is
    part of the timed work.  A pass returns both runs' outcomes: the
    fresh run's slots, then the store run's.
    """

    def __init__(self, weeks: list[list], workdir: str) -> None:
        super().__init__(weeks)
        #: The pass's result store; emptied after every pass.
        self.workdir = workdir

    @property
    def slots_per_pass(self) -> int:
        return 2 * len(self.problems)

    def run_week(self, problems: list) -> list:
        engine = HorizonEngine(
            "centralized",
            workers=FLEET_WORKERS,
            oversubscribe=True,
            client="mp",
            max_pending=FLEET_MAX_PENDING,
            certify=True,
            store=ResultStore(self.workdir),
        )
        fresh = engine.run(problems)
        stored = engine.run(problems)
        return fresh + stored

    def after_pass(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def certify(self, outcomes: list) -> list:
        # The engine certified every slot inside the timed pass.
        return [o.certificate if o.ok else None for o in outcomes]


class HyperDay(Workload):
    """A day of generated 100 x 1000 instances through the structured lane.

    Each instance's hours go through an engine run of their own.
    """

    def __init__(self, instances: list, size: Size) -> None:
        count = len(instances)
        self.days = [
            [instance.problem(t, HYBRID) for t in range(k, size.hyper_hours, count)]
            for k, instance in enumerate(instances)
        ]
        super().__init__([problem for day in self.days for problem in day])
        self.instances = instances
        self.size = size

    @staticmethod
    def _run(instance, problems: list) -> list:
        # The scale lane's tolerance: 1e-9 is below what the float64
        # Schur assembly reaches at this shape.
        solver = create_solver(
            "centralized-structured", reach=instance.reach, tol=SCALE_TOL
        )
        return HorizonEngine(solver, workers=1).run(problems)

    def warmup(self) -> None:
        self._run(self.instances[0], self.days[0][: self.size.hyper_warmup_slots])

    def run_pass(self) -> list:
        return [
            outcome
            for instance, day in zip(self.instances, self.days)
            for outcome in self._run(instance, day)
        ]

    def certify(self, outcomes: list) -> list:
        certs = []
        for outcome, problem in zip(outcomes, self.problems):
            if not outcome.ok or outcome.result is None:
                certs.append(None)
                continue
            extras = outcome.result.extras
            certs.append(
                certify_structured_solution(
                    extras["structured_qp"],
                    problem,
                    outcome.result.allocation,
                    x=extras["structured_x"],
                    duals=extras["duals"],
                )
            )
        return certs

    def reference_gap(self, outcomes: list, certificates: list) -> float:
        # No dense lane fits at this size; the certificate's relative
        # duality gap bounds how far each slot's UFC is from the optimum
        # the dense lane would reach.
        return max(
            (cert.duality_gap for cert in certificates if cert is not None),
            default=1.0,
        )


def build(name: str, seed: int, size: Size, workdir: str) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if name == "hyper-day":
        instances = [
            generate_instance(
                ScaleSpec(
                    num_datacenters=size.hyper_datacenters,
                    num_frontends=size.hyper_frontends,
                    hours=size.hyper_hours,
                    fan_in=min(HYPER_FAN_IN, size.hyper_datacenters),
                    seed=instance_seed,
                )
            )
            for instance_seed in _sub_seeds(seed, size.hyper_instances)
        ]
        return HyperDay(instances, size)
    weeks = [
        _paper_week(size.week_hours, week_seed)
        for week_seed in _sub_seeds(seed, 1 if name == "week-fleet" else size.weeks)
    ]
    if name == "week-warm":
        return WeekWarm(weeks)
    if name == "week-batch":
        return WeekBatch(weeks)
    if name == "week-fleet":
        return WeekFleet(weeks, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` input seeds drawn from the run's seed (``[seed]`` for one)."""
    return [seed * count + k for k in range(count)]


def _paper_week(hours: int, seed: int) -> list:
    """The week's slot problems: every hour under Grid, Fuel cell, Hybrid."""
    bundle = default_bundle(hours=hours, seed=seed)
    sim = Simulator(build_model(bundle), bundle)
    return [
        sim.problem_for_slot(t, strategy)
        for strategy in ALL_STRATEGIES
        for t in range(hours)
    ]
