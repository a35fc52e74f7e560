"""``centralized-warm`` is the anchor-and-walk lane of :mod:`repro.engine.batch`."""

from repro.engine.batch import CentralizedBatchSlotSolver as CentralizedWarmSlotSolver  # noqa: F401
