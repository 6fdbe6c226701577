"""Pure helpers of the benchmark: percentiles, layer self time, tallies.

Nothing here imports ``repro``; the unit tests in ``test_coolbench.py``
exercise every function on hand-built inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: Percentiles considered for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond.

    ``None`` when even the median has fewer than ten samples above it
    (fewer than 20 samples in all).
    """
    for p in TAIL_LADDER:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile.

    A Beta-weighted mean of every order statistic: with per-design
    noise of several percent it varies less between runs than the one
    or two order statistics a linear-interpolation percentile reads.
    """
    if not values:
        raise ValueError("percentile of no samples")
    from scipy.special import betainc
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


# ----------------------------------------------------------------------
# layer self time
# ----------------------------------------------------------------------
LAYER_KIND = "layer"


@dataclass
class LayerTotals:
    """Per-layer aggregate of one trace."""

    calls: int = 0
    #: Self seconds: span time minus the time of nested layer spans.
    busy_s: float = 0.0


def layer_self_times(spans: Iterable[Mapping],
                     key: Callable[[Mapping], str] = lambda s: s["name"]
                     ) -> dict[str, LayerTotals]:
    """Aggregate self time of every ``layer`` span by ``key`` (its name).

    A layer's self time is its duration minus the durations of the
    *nearest* layer spans below it; spans of other kinds in between
    (the program's own flow, stage and store spans) are transparent, so
    the self times of all layers inside a region add up to the time
    the layers cover.
    """
    rows = [dict(s) for s in spans]
    by_id = {row["span_id"]: row for row in rows}
    owner: dict[int, int | None] = {}

    def layer_ancestor(span_id: int | None) -> int | None:
        chain = []
        found = None
        while span_id is not None and span_id in by_id:
            if span_id in owner:
                found = owner[span_id]
                break
            chain.append(span_id)
            row = by_id[span_id]
            if row.get("kind") == LAYER_KIND:
                found = span_id
                break
            span_id = row.get("parent_id")
        for visited in chain:
            owner[visited] = found
        return found

    nested: dict[int, float] = {}
    for row in rows:
        if row.get("kind") != LAYER_KIND:
            continue
        parent = layer_ancestor(row.get("parent_id"))
        if parent is not None:
            nested[parent] = nested.get(parent, 0.0) + row["duration"]
    totals: dict[str, LayerTotals] = {}
    for row in rows:
        if row.get("kind") != LAYER_KIND:
            continue
        entry = totals.setdefault(key(row), LayerTotals())
        entry.calls += 1
        entry.busy_s += max(0.0,
                            row["duration"] - nested.get(row["span_id"], 0.0))
    return totals


def top_layer_seconds(spans: Iterable[Mapping], root_kind: str) -> float:
    """Seconds covered by layer spans under spans of ``root_kind``.

    Only the outermost layer spans count, so nested layers are not
    double counted; the result is what the layer self times inside the
    roots add up to.
    """
    rows = [dict(s) for s in spans]
    by_id = {row["span_id"]: row for row in rows}
    covered = 0.0
    for row in rows:
        if row.get("kind") != LAYER_KIND:
            continue
        parent = by_id.get(row.get("parent_id"))
        under_root = False
        outermost = True
        while parent is not None:
            if parent.get("kind") == LAYER_KIND:
                outermost = False
                break
            if parent.get("kind") == root_kind:
                under_root = True
            parent = by_id.get(parent.get("parent_id"))
        if outermost and under_root:
            covered += row["duration"]
    return covered


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Designs attempted and failed, with the first reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, problems: Sequence[str]) -> None:
        """Count one design; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
