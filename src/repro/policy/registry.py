"""Policy names and tournament combo enumeration.

One place lists the prefetch policy names (the strings carried in
:class:`~repro.core.FluidMemConfig` and the tournament's combo labels)
and checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import FluidMemError

__all__ = [
    "PREFETCH_POLICIES",
    "DEFAULT_PREFETCH_POLICY",
    "PolicyCombo",
    "validate_policy_names",
]

#: Prefetch policy names understood by
#: :func:`repro.policy.prefetch.resolve_prefetcher`.
PREFETCH_POLICIES: Tuple[str, ...] = ("none", "sequential", "leap")

#: The shipped default.
DEFAULT_PREFETCH_POLICY = "sequential"


def validate_policy_names(prefetch: str) -> None:
    """Fail fast on a bad config knob (used at monitor build time).

    :func:`repro.policy.prefetch.resolve_prefetcher` lets any name
    through at depth 0, so a misspelt policy would otherwise go
    unnoticed until prefetch is turned on.
    """
    if prefetch not in PREFETCH_POLICIES:
        raise FluidMemError(
            f"unknown prefetch policy {prefetch!r}; choose from "
            f"{PREFETCH_POLICIES}"
        )


@dataclass(frozen=True)
class PolicyCombo:
    """One tournament contestant: a (prefetch, handlers) pair."""

    prefetch: str
    handlers: int

    def __post_init__(self) -> None:
        validate_policy_names(self.prefetch)
        if self.handlers < 1:
            raise FluidMemError(
                f"handlers must be >= 1, got {self.handlers}"
            )

    @property
    def label(self) -> str:
        return f"{self.prefetch}+h{self.handlers}"
