"""Per-layer host time and call counts from a stdlib profile.

The profiler runs around the timed phases only (see ``cells.Stopwatch``).
Each profiled function belongs to the ``repro`` layer whose module
defines it:

* modules inside ``sim``, ``kernel``, ``core``, ``workloads`` and
  ``market`` are layers one by one (``sim.core``, ``core.monitor``, ...);
* every other package is one layer as a whole (``kv``, ``net``, ``mem``,
  ``vm``, ``obs``, ``policy``, ``check``, ``faults``, ``bench``, ...).

Stdlib, builtin and third-party functions are not layers: their self time
is charged to the layer that called them, through as many non-``repro``
frames as it takes, split by each call edge's share of the time.  The
benchmark's own frames form the ``harness`` bucket.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["LayerProfile", "attribute"]

#: Packages whose modules are layers one by one.
SPLIT_PACKAGES = ("sim", "kernel", "core", "workloads", "market")
HARNESS = "harness"
#: Time that no caller chain leads back to a layer (cycles only).
UNATTRIBUTED = "unattributed"


class LayerProfile:
    """Self seconds and calls per layer, in a traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def charge(self, layer: str, seconds: float, calls: int = 0) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        if calls:
            self.calls[layer] = self.calls.get(layer, 0) + calls

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def layers(self):
        """Layers that ran, busiest first."""
        return sorted(self.self_s, key=lambda name: -self.self_s[name])


class _Classifier:
    def __init__(self, repro_root: Path, harness_root: Path) -> None:
        self.repro_root = repro_root.resolve()
        self.harness_root = harness_root.resolve()
        self._cache: Dict[str, Optional[str]] = {}

    def layer(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            self._cache[filename] = self._classify(filename)
        return self._cache[filename]

    def _classify(self, filename: str) -> Optional[str]:
        if filename.startswith("<") or filename == "~":
            return None
        path = Path(filename).resolve()
        if path.is_relative_to(self.harness_root):
            return HARNESS
        if not path.is_relative_to(self.repro_root):
            return None
        parts = path.relative_to(self.repro_root).with_suffix("").parts
        if parts[0] in SPLIT_PACKAGES and len(parts) > 1:
            if parts[1] == "__init__":
                return parts[0]
            return f"{parts[0]}.{parts[1]}"
        return parts[0]


Func = Tuple[str, int, str]


def attribute(
    stats: pstats.Stats, repro_root: Path, harness_root: Path
) -> LayerProfile:
    """Bucket a profile's self time and calls by layer."""
    classify = _Classifier(repro_root, harness_root)
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    owners: Dict[Func, Dict[str, float]] = {}

    def owner_shares(func: Func, visiting: set) -> Dict[str, float]:
        """Which layers a non-layer function's time belongs to."""
        if func in owners:
            return owners[func]
        layer = classify.layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in visiting or func not in table:
            return {UNATTRIBUTED: 1.0}
        visiting.add(func)
        shares: Dict[str, float] = {}
        callers = table[func][4]
        total = sum(edge[3] for edge in callers.values())
        for caller, edge in callers.items():
            weight = edge[3] / total if total else 1.0 / len(callers)
            for layer, share in owner_shares(caller, visiting).items():
                shares[layer] = shares.get(layer, 0.0) + weight * share
        visiting.discard(func)
        if not shares:
            shares = {HARNESS: 1.0}
        owners[func] = shares
        return shares

    profile = LayerProfile()
    for func, (_cc, calls, self_s, _cum, callers) in table.items():
        layer = classify.layer(func[0])
        if layer is not None:
            profile.charge(layer, self_s, calls)
            continue
        # Charged to whoever called it, split by each edge's own time.
        if not callers:
            profile.charge(HARNESS, self_s)
            continue
        for caller, edge in callers.items():
            for owner, share in owner_shares(caller, set()).items():
                profile.charge(owner, edge[2] * share)
    return profile
