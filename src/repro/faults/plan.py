"""Seeded, schedule-driven fault plans.

The paper's full-disaggregation design puts *every* VM page behind the
remote store, so a flaky RAMCloud node or a dropped fabric message is a
correctness event, not a latency blip (§III sells replication across
remote servers as the provider's answer).  A :class:`FaultPlan` makes
failure a first-class, deterministic part of the simulation: it is a
set of :class:`FaultWindow` intervals over simulated time, plus a
seeded RNG for the probabilistic kinds, that a :class:`FaultyStore`
consults on every operation.

Two runs with the same seed and the same windows observe byte-identical
fault sequences, because every probability draw happens in simulation
order from one derived stream.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from ..errors import KVError
from ..sim import CounterSet, derive_seed

__all__ = [
    "FaultKind",
    "FaultWindow",
    "FaultPlan",
    "NAMED_PLANS",
    "named_plan",
    "DEFAULT_NODES",
]

#: Replica node names the bench CLI and named plans assume.
DEFAULT_NODES = ("replica0", "replica1")


class FaultKind(enum.Enum):
    """What goes wrong inside a window.

    ============ ========================================================
    Kind         Effect on a store operation during the window
    ============ ========================================================
    CRASH        node is down: the op stalls, then errors (retryable)
    PARTITION    node unreachable over the fabric; same client-side view
    SLOW         +``param`` µs added to every operation (degraded node)
    FLAKY        each op fails transiently with probability ``param``
    CORRUPT      each GET is corrupted with probability ``param`` —
                 surfaced as a checksum mismatch (DataCorruptionError)
    ============ ========================================================
    """

    CRASH = "crash"
    PARTITION = "partition"
    SLOW = "slow"
    FLAKY = "flaky"
    CORRUPT = "corrupt"


#: Kinds that make a node unreachable (skipped by replica liveness).
_DOWN_KINDS = (FaultKind.CRASH, FaultKind.PARTITION)
#: Kinds a protected node may still receive (degrade, never lose data).
_SAFE_KINDS = (FaultKind.SLOW, FaultKind.FLAKY)


@dataclass(frozen=True)
class FaultWindow:
    """One fault active on one node over ``[start_us, end_us)``."""

    kind: FaultKind
    node: str
    start_us: float
    end_us: float = math.inf
    #: SLOW: extra µs per op.  FLAKY/CORRUPT: probability in (0, 1].
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise KVError(f"window start must be >= 0, got {self.start_us}")
        if self.end_us <= self.start_us:
            raise KVError(
                f"window end {self.end_us} must be after start "
                f"{self.start_us}"
            )
        if self.kind in (FaultKind.FLAKY, FaultKind.CORRUPT):
            if not 0.0 < self.param <= 1.0:
                raise KVError(
                    f"{self.kind.value} probability must be in (0, 1], "
                    f"got {self.param}"
                )
        if self.kind is FaultKind.SLOW and not self.param > 0:
            raise KVError(
                f"slow window needs a positive extra latency, "
                f"got {self.param}"
            )

    def covers(self, now: float) -> bool:
        return self.start_us <= now < self.end_us


class FaultPlan:
    """A deterministic schedule of fault windows plus a seeded RNG.

    Build one plan per simulation run (its RNG advances as the run
    draws from it); two runs that build the plan the same way see
    identical fault decisions.
    """

    def __init__(
        self, windows: Iterable[FaultWindow], seed: int = 0
    ) -> None:
        self.windows: Tuple[FaultWindow, ...] = tuple(
            sorted(windows, key=lambda w: (w.start_us, w.node, w.kind.value))
        )
        self.seed = seed
        self._rng = random.Random(derive_seed(seed, "fault-plan"))
        self.counters = CounterSet()

    # -- queries (all pure except draw()) ---------------------------------

    def _active(self, node: str, now: float, kind: FaultKind):
        for window in self.windows:
            if window.node == node and window.kind is kind \
                    and window.covers(now):
                yield window

    def is_crashed(self, node: str, now: float) -> bool:
        return any(True for _ in self._active(node, now, FaultKind.CRASH))

    def is_partitioned(self, node: str, now: float) -> bool:
        return any(
            True for _ in self._active(node, now, FaultKind.PARTITION)
        )

    def is_reachable(self, node: str, now: float) -> bool:
        """False while the node is crashed or partitioned away."""
        return not (
            self.is_crashed(node, now) or self.is_partitioned(node, now)
        )

    def extra_latency_us(self, node: str, now: float) -> float:
        """Sum of active SLOW penalties on ``node`` (they stack)."""
        return sum(
            w.param for w in self._active(node, now, FaultKind.SLOW)
        )

    def active_nodes(self, kind: FaultKind, now: float) -> Set[str]:
        """Every node with a ``kind`` window covering ``now``, from one
        walk of the windows.

        For a caller that asks about many nodes at one instant (the
        market fleet, once per tick).  A node is in the CRASH set iff
        :meth:`is_crashed` holds, and in the SLOW set iff
        :meth:`extra_latency_us` is positive, since a SLOW window's
        ``param`` is positive.
        """
        return {
            window.node for window in self.windows
            if window.kind is kind
            and window.start_us <= now < window.end_us
        }

    def flaky_probability(self, node: str, now: float) -> float:
        return max(
            (w.param for w in self._active(node, now, FaultKind.FLAKY)),
            default=0.0,
        )

    def corrupt_probability(self, node: str, now: float) -> float:
        return max(
            (w.param for w in self._active(node, now, FaultKind.CORRUPT)),
            default=0.0,
        )

    def draw(self) -> float:
        """One uniform draw from the plan's deterministic stream."""
        return self._rng.random()

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted({w.node for w in self.windows}))

    def horizon_us(self) -> float:
        """Latest finite window end (inf if any window is permanent)."""
        return max((w.end_us for w in self.windows), default=0.0)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_us: float,
        nodes: Sequence[str] = DEFAULT_NODES,
        protected: Sequence[str] = (),
        max_windows: int = 6,
    ) -> "FaultPlan":
        """A randomized but fully seed-determined plan.

        ``protected`` nodes only ever degrade (SLOW / low-rate FLAKY);
        they are never crashed, partitioned, or corrupted, so data
        written through a replicated store survives as long as one
        protected replica exists — the property the integrity harness
        asserts.
        """
        if horizon_us <= 0:
            raise KVError(f"horizon must be positive, got {horizon_us}")
        if not nodes:
            raise KVError("need at least one node")
        gen = random.Random(derive_seed(seed, "fault-plan-random"))
        windows: List[FaultWindow] = []
        for _ in range(gen.randint(1, max_windows)):
            node = gen.choice(list(nodes))
            kinds = _SAFE_KINDS if node in protected else tuple(FaultKind)
            kind = gen.choice(list(kinds))
            start = gen.uniform(0.0, horizon_us * 0.7)
            length = gen.uniform(horizon_us * 0.05, horizon_us * 0.5)
            if kind is FaultKind.SLOW:
                param = gen.uniform(20.0, 200.0)
            elif kind is FaultKind.FLAKY:
                cap = 0.15 if node in protected else 0.3
                param = gen.uniform(0.05, cap)
            elif kind is FaultKind.CORRUPT:
                param = gen.uniform(0.05, 0.4)
            else:
                param = 0.0
            windows.append(
                FaultWindow(kind, node, start, start + length, param)
            )
        return cls(windows, seed=seed)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} windows={len(self.windows)} "
            f"nodes={self.nodes}>"
        )


# -- named plans (the bench CLI's `--faults` vocabulary) --------------------

def _replica_crash(seed: int) -> FaultPlan:
    """Replica 0 fail-stops early in the run and never comes back."""
    return FaultPlan(
        [FaultWindow(FaultKind.CRASH, "replica0", 2_000.0)], seed=seed
    )


def _rolling_outage(seed: int) -> FaultPlan:
    """Each replica crashes in turn; at least one is always alive."""
    return FaultPlan(
        [
            FaultWindow(FaultKind.CRASH, "replica0", 2_000.0, 12_000.0),
            FaultWindow(FaultKind.CRASH, "replica1", 14_000.0, 24_000.0),
            FaultWindow(FaultKind.CRASH, "replica0", 26_000.0, 36_000.0),
        ],
        seed=seed,
    )


def _flaky_fabric(seed: int) -> FaultPlan:
    """Every request to either replica fails with 15% probability."""
    return FaultPlan(
        [
            FaultWindow(FaultKind.FLAKY, node, 0.0, param=0.15)
            for node in DEFAULT_NODES
        ],
        seed=seed,
    )


def _slow_replica(seed: int) -> FaultPlan:
    """Replica 0 degrades (+150 µs/op) for most of the run."""
    return FaultPlan(
        [FaultWindow(FaultKind.SLOW, "replica0", 1_000.0, param=150.0)],
        seed=seed,
    )


def _corrupt_reads(seed: int) -> FaultPlan:
    """Replica 0 flips bits on 30% of reads (caught by checksums)."""
    return FaultPlan(
        [FaultWindow(FaultKind.CORRUPT, "replica0", 0.0, param=0.3)],
        seed=seed,
    )


def _blackout(seed: int) -> FaultPlan:
    """Every replica dies at t=3 ms, permanently.  Runs must fail
    fast with StoreUnavailableError, not hang."""
    return FaultPlan(
        [
            FaultWindow(FaultKind.CRASH, node, 3_000.0)
            for node in DEFAULT_NODES
        ],
        seed=seed,
    )


def _chaos(seed: int) -> FaultPlan:
    """A bit of everything against replica 0; replica 1 only slows."""
    return FaultPlan(
        [
            FaultWindow(FaultKind.CRASH, "replica0", 2_000.0, 9_000.0),
            FaultWindow(FaultKind.FLAKY, "replica0", 9_000.0, param=0.2),
            FaultWindow(FaultKind.CORRUPT, "replica0", 12_000.0,
                        param=0.25),
            FaultWindow(FaultKind.SLOW, "replica1", 4_000.0, 20_000.0,
                        param=60.0),
        ],
        seed=seed,
    )


NAMED_PLANS: Dict[str, Callable[[int], FaultPlan]] = {
    "replica-crash": _replica_crash,
    "rolling-outage": _rolling_outage,
    "flaky-fabric": _flaky_fabric,
    "slow-replica": _slow_replica,
    "corrupt-reads": _corrupt_reads,
    "blackout": _blackout,
    "chaos": _chaos,
}


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Build a fresh instance of one of the named plans."""
    try:
        factory = NAMED_PLANS[name]
    except KeyError:
        raise KVError(
            f"unknown fault plan {name!r}; choose from "
            f"{sorted(NAMED_PLANS)}"
        ) from None
    return factory(seed)
