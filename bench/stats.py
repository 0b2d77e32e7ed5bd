"""Summary statistics and failure accounting for one benchmark run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples above it.

    With n samples sorted ascending, that is the nearest-rank percentile
    100 (n - TAIL_BEYOND) / n, whose value is the (n - TAIL_BEYOND)-th
    smallest sample: exactly TAIL_BEYOND samples lie beyond it. Needs
    n > TAIL_BEYOND.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail with {TAIL_BEYOND} samples beyond it needs more "
                         f"than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class WrongResult(Exception):
    """An operation completed but its output failed a correctness check."""


class ContractBreak(Exception):
    """An operation raised, or exited with a code other than the expected one."""


@dataclass
class Tally:
    """Latencies and outcomes of the operations of one run.

    `known_breaks` holds the labels of operations known to break the
    README's exit-code contract: their ContractBreak failures count in
    `failed` like any other. Every other failure is `unexpected` and makes
    the run incorrect.
    """

    known_breaks: frozenset[str] = frozenset()
    latencies_s: list[float] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    unexpected: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, label: str, latency_s: float, error: Exception | None):
        """Count one operation; `error` is what its run or check raised."""
        self.latencies_s.append(latency_s)
        if error is None:
            return
        self.failures[label] = self.failures.get(label, 0) + 1
        if not (isinstance(error, ContractBreak) and label in self.known_breaks):
            self.unexpected += 1

    def end_to_end(self) -> dict[str, float]:
        """ops_per_s, op_p50_ms, op_tail_ms (with its percentile) and ok_frac.

        ops_per_s counts only operations that passed, over the time of all
        attempted ones, so an operation that fails fast does not speed it up.
        """
        busy = sum(self.latencies_s)
        tail_s, tail_pct = tail(self.latencies_s)
        passed = self.attempted - self.failed
        return {
            "ops_per_s": passed / busy,
            "op_p50_ms": 1e3 * statistics.median(self.latencies_s),
            "op_tail_ms": 1e3 * tail_s,
            "op_tail_pct": tail_pct,
            "ok_frac": passed / self.attempted,
        }
