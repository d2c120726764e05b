"""Sample guard: percentiles only where the samples can carry them.

Every latency sample is tagged with its operation kind.  A percentile is
refused when its samples mix kinds, or when fewer than ten samples lie
beyond it (the p99 of 80 samples is just their maximum).  A run whose
executed operations differ from its planned list is refused as
time-boxed: the amount of work must never depend on speed.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

MIN_BEYOND = 10


class SampleGuardError(RuntimeError):
    """A metric was requested that its samples cannot support."""


def percentile(samples: Sequence[Tuple[str, float]], q: float) -> float:
    """Nearest-rank ``q``-quantile of one kind's samples (p50 = median).

    ``samples`` are ``(kind, value)`` pairs.  Raises
    :class:`SampleGuardError` on mixed kinds or too few samples beyond.
    """
    kinds = {kind for kind, _ in samples}
    if len(kinds) != 1:
        raise SampleGuardError(
            f"percentile over mixed or no operation kinds: {sorted(kinds)}"
        )
    values = sorted(value for _, value in samples)
    n = len(values)
    if q == 0.5:
        beyond = n - math.ceil(n / 2)
        if beyond < MIN_BEYOND:
            raise SampleGuardError(
                f"p50 of {kinds.pop()} has {beyond} samples beyond it "
                f"(n={n}); need {MIN_BEYOND}"
            )
        return statistics.median(values)
    rank = math.ceil(q * n)
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise SampleGuardError(
            f"p{round(q * 100)} of {kinds.pop()} has {beyond} samples "
            f"beyond it (n={n}); need {MIN_BEYOND}"
        )
    return values[rank - 1]


def check_not_time_boxed(planned: int, executed: int) -> None:
    """Refuse a run that did not finish exactly its planned operations."""
    if executed != planned:
        raise SampleGuardError(
            f"run executed {executed} of {planned} planned operations; "
            "a time-boxed run measures speed with its own work"
        )


def by_kind(samples: Sequence[Tuple[str, float]]) -> Dict[str, List[Tuple[str, float]]]:
    """Split tagged samples into one list per kind."""
    out: Dict[str, List[Tuple[str, float]]] = {}
    for kind, value in samples:
        out.setdefault(kind, []).append((kind, value))
    return out
