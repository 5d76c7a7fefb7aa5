"""Statistics and reporting helpers shared by the benchmark workloads.

Nothing here imports ``repro``: the helpers are tested on their own
(``perfbench/tests``) and used by :mod:`perfbench.run` to format the
result line the benchmark contract asks for.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

__all__ = [
    "METRIC_NAME",
    "Percentile",
    "Tally",
    "check_metric_name",
    "percentile",
    "result_line",
]

#: Legal metric names: the ``[A-Za-z0-9_.-]+`` alphabet, a leading
#: letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile needs at least this many samples strictly above it, so
#: that it is set by more than a handful of stragglers.
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"illegal metric name {name!r}: want {METRIC_NAME.pattern}")
    return name


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the sample count it was taken over."""

    pct: int
    value: float
    n: int

    @property
    def beyond(self) -> int:
        return samples_beyond(self.n, self.pct)


def samples_beyond(n: int, pct: int) -> int:
    """Samples strictly above the ``pct``-th percentile of ``n`` samples."""
    return n - (-(-n * pct // 100))


def percentile(values: Sequence[float], pct: int) -> Percentile:
    """The ``pct``-th percentile (linear interpolation between ranks).

    Refuses, with ValueError, a percentile that fewer than ten samples
    lie beyond: the p90 of 50 samples is set by 5 of them and does not
    repeat from run to run.
    """
    if not isinstance(pct, int) or isinstance(pct, bool) or not 0 < pct < 100:
        raise ValueError(f"percentile must be an integer in 1..99, got {pct!r}")
    n = len(values)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {n} samples has only {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    ordered = sorted(float(v) for v in values)
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return Percentile(pct=pct, value=value, n=n)


@dataclass
class Tally:
    """Attempted/failed counts; every attempt is recorded, none dropped."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, reason: str | None) -> None:
        """Count one attempt; a non-empty ``reason`` marks it failed."""
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("failed_frac of zero attempts is undefined")
        return self.failed / self.attempted


def result_line(
    correct: bool,
    tally: Tally,
    metrics: Mapping[str, Tuple[float, str]],
) -> str:
    """The benchmark's last stdout line: one JSON object."""
    if tally.attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    body: Dict[str, Dict[str, object]] = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        body[check_metric_name(name)] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": body,
        }
    )
