"""Pluggable memory-management policies (the "policy lab").

Two families, each behind a small ABC with interchangeable
implementations:

* :mod:`repro.policy.prefetch` — which pages the monitor pulls ahead
  of demand (none, sequential, Leap majority-trend), raced together
  with the monitor's fault-handler count by the ``tournament`` bench
  experiment (``python -m repro.bench tournament``),
* :mod:`repro.policy.share` — which VM's page is evicted first
  (weighted proportional shares; previously ``repro.core.policy``).

Host frames and eviction-buffer addresses are not a policy: the
monitor takes them from one LIFO free stack
(:class:`repro.mem.FrameAllocator`), as the paper's monitor does.

``repro.policy.share`` imports from :mod:`repro.core` and is loaded
lazily here, so the prefetch half of the package stays importable
from inside ``repro.core`` itself without a cycle.
"""

from .prefetch import (
    LeapPrefetcher,
    NoopPrefetcher,
    Prefetcher,
    SequentialPrefetcher,
    resolve_prefetcher,
)
from .registry import (
    DEFAULT_PREFETCH_POLICY,
    PREFETCH_POLICIES,
    PolicyCombo,
    validate_policy_names,
)

__all__ = [
    "Prefetcher",
    "NoopPrefetcher",
    "SequentialPrefetcher",
    "LeapPrefetcher",
    "resolve_prefetcher",
    "PREFETCH_POLICIES",
    "DEFAULT_PREFETCH_POLICY",
    "PolicyCombo",
    "validate_policy_names",
    "SharePolicy",
    "ShareSpec",
]


def __getattr__(name):  # PEP 562: lazy share import (avoids a cycle
    # while repro.core's own __init__ is still executing).
    if name in ("SharePolicy", "ShareSpec"):
        from .share import SharePolicy, ShareSpec

        return {"SharePolicy": SharePolicy, "ShareSpec": ShareSpec}[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
