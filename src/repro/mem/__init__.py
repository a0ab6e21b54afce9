"""Memory substrate: pages, frames, page tables, regions.

These are the raw materials both competitors are built from — the kernel
swap path (:mod:`repro.kernel`) and FluidMem (:mod:`repro.core`) move the
same :class:`Page` objects between the same :class:`PageTable` and
:class:`FrameAllocator` structures, so comparisons are apples to apples.
"""

from .addr import (
    GIB,
    KIB,
    MAX_PARTITION,
    MIB,
    PAGE_SHIFT,
    PAGE_SIZE,
    decode_page_key,
    encode_page_key,
    is_page_aligned,
    page_address,
    page_align_down,
    page_align_up,
    page_number,
    pages_for_bytes,
)
from .frame import FrameAllocator
from .page import ZERO_PAGE_DATA, Page, PageKind, check_page_address
from .pagetable import PageTable, PageTableEntry
from .region import AddressSpace, MemoryRegion

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "KIB",
    "MIB",
    "GIB",
    "MAX_PARTITION",
    "page_align_down",
    "page_align_up",
    "is_page_aligned",
    "page_number",
    "page_address",
    "pages_for_bytes",
    "encode_page_key",
    "decode_page_key",
    "Page",
    "PageKind",
    "ZERO_PAGE_DATA",
    "check_page_address",
    "FrameAllocator",
    "PageTable",
    "PageTableEntry",
    "MemoryRegion",
    "AddressSpace",
]
