"""Host physical-frame accounting.

The :class:`FrameAllocator` models the hypervisor's DRAM: a fixed pool of
4 KB frames.  What matters for the FluidMem experiments is *occupancy* —
how many frames a VM's footprint pins locally (Table III) and when memory
pressure starts (swap activation) — so frames are integer handles, not
byte arrays.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

from ..errors import OutOfFramesError
from .addr import PAGE_SIZE

__all__ = ["FrameAllocator"]


class FrameAllocator:
    """Fixed pool of physical frames with O(1) allocate/free.

    Frames are recycled LIFO: a free pushes the frame on a stack and
    an allocation pops the most recently freed one, else takes the
    lowest never-used frame.  Every grant is one 4 KB page and no
    modelled latency reads a frame number, so this one placement
    serves every experiment.
    """

    def __init__(self, total_frames: int) -> None:
        if total_frames <= 0:
            raise ValueError(f"total_frames must be > 0, got {total_frames}")
        self.total_frames = total_frames
        self._next_unused = 0
        self._free_stack: List[int] = []
        self._allocated: Set[int] = set()

    @classmethod
    def for_bytes(cls, nbytes: int) -> "FrameAllocator":
        """Allocator sized to hold ``nbytes`` of DRAM."""
        if nbytes < PAGE_SIZE:
            raise ValueError(f"need at least one page of DRAM, got {nbytes}")
        return cls(nbytes // PAGE_SIZE)

    @property
    def used_frames(self) -> int:
        return len(self._allocated)

    @property
    def free_frames(self) -> int:
        return self.total_frames - len(self._allocated)

    @property
    def used_bytes(self) -> int:
        return self.used_frames * PAGE_SIZE

    def allocate(self) -> int:
        """Take a free frame; raises :class:`OutOfFramesError` when full."""
        if self._free_stack:
            frame = self._free_stack.pop()
        elif self._next_unused < self.total_frames:
            frame = self._next_unused
            self._next_unused += 1
        else:
            raise OutOfFramesError(
                f"all {self.total_frames} frames are allocated"
            )
        self._allocated.add(frame)
        return frame

    def try_allocate(self) -> Optional[int]:
        """Like :meth:`allocate` but returns ``None`` when full."""
        try:
            return self.allocate()
        except OutOfFramesError:
            return None

    def free(self, frame: int) -> None:
        """Return ``frame`` to the pool."""
        try:
            self._allocated.remove(frame)
        except KeyError:
            raise OutOfFramesError(
                f"frame {frame} is not currently allocated"
            ) from None
        self._free_stack.append(frame)

    def is_allocated(self, frame: int) -> bool:
        return frame in self._allocated

    def allocated_frames(self) -> Iterator[int]:
        """Iterate over currently allocated frame handles."""
        return iter(sorted(self._allocated))

    def __repr__(self) -> str:
        return (
            f"<FrameAllocator {self.used_frames}/{self.total_frames} used>"
        )
