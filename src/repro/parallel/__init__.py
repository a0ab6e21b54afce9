"""Multi-core execution layer (DESIGN.md §14).

One facility, one determinism contract: :func:`run_tasks`, a
multiprocess work-queue for embarrassingly parallel grids
(``repro.check`` campaigns, ``repro.perfbench`` seed sweeps, the
policy tournament and the scenario fleet engine).  Results merge in
task-key order, never completion order, so the output is
byte-identical at any worker count, and ``workers=1`` *is* the serial
path.

The market fleet is not sharded: :meth:`repro.market.MarketFleet.run`
is its only tick protocol, in one process.
"""

from .pool import PoolStats, run_tasks

__all__ = ["PoolStats", "run_tasks"]
