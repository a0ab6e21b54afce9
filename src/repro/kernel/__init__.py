"""Simulated Linux kernel subsystems.

Two fault-handling worlds live here:

* the **swap world** (:class:`GuestMemoryManager` + :class:`SwapSubsystem`
  + :class:`Kswapd` + :class:`ActiveInactiveLists`) — partial
  disaggregation, the paper's comparison point;
* the **userfaultfd mechanism** (:class:`Userfaultfd` + :class:`UffdOps`)
  — the hook FluidMem (:mod:`repro.core`) builds full disaggregation on.
"""

from .kswapd import Kswapd
from .latency import SwapPathLatency, UffdLatency
from .lru import ActiveInactiveLists
from .mm import FILE_REGION_BASE, GuestMemoryManager
from .swap import SwapSlotMap, SwapSubsystem
from .uffd import (
    UffdFault,
    UffdOps,
    UffdRegion,
    Userfaultfd,
    check_fault_address,
)

__all__ = [
    "UffdLatency",
    "SwapPathLatency",
    "Userfaultfd",
    "UffdOps",
    "UffdFault",
    "UffdRegion",
    "check_fault_address",
    "ActiveInactiveLists",
    "SwapSubsystem",
    "SwapSlotMap",
    "Kswapd",
    "GuestMemoryManager",
    "FILE_REGION_BASE",
]
