"""Summary statistics for one benchmark run."""
from __future__ import annotations

TAIL_MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that still has at least ten samples beyond it.

    Returns (value, percentile).  With n samples that is the (n-10)-th
    smallest, at percentile 100 * (n-10) / n.  With ten or fewer samples no
    such percentile exists; the maximum is returned at percentile 100 so the
    caller can state it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_MIN_BEYOND  # 1-based rank of the reported sample
    return ordered[k - 1], 100.0 * k / n


class Tally:
    """Attempted and failed requests; a request fails if it raised or if its
    answer did not pass the workload's check.  Failures are never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
