"""Render a trace into the table the ISSUE's straggler-hunt wants.

Three sections, all computed from parent links and durations:

* **per-stage breakdown** -- for each span name of kind ``stage``/
  ``job``/``verify``/``flow``/``repair``, the run count, cache hits, total time,
  and *self time* (duration minus the sum of direct children), the
  number that actually localises a straggler;
* **critical path** -- from the longest root span, repeatedly descend
  into the longest child: the chain whose sum bounds the wall clock;
* **top-N slowest spans** -- raw, for when aggregation hides the one
  bad job.

Works on span dicts (from :func:`~repro.obs.export.load_trace`) or
:class:`~repro.obs.span.Span` objects.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .export import span_to_dict
from .span import Span

__all__ = ["stage_breakdown", "critical_path", "slowest_spans",
           "render_report"]

#: Span kinds that aggregate by name in the per-stage table.
_BREAKDOWN_KINDS = ("flow", "stage", "job", "shard", "verify", "repair",
                    "sim")


def _as_dicts(spans: Iterable[Any]) -> list[dict]:
    return [span_to_dict(s) if isinstance(s, Span) else dict(s)
            for s in spans]


def _children_index(spans: Sequence[Mapping]) -> dict[Any, list[Mapping]]:
    children: dict[Any, list[Mapping]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    return children


def _self_time(span: Mapping, children: Mapping[Any, list]) -> float:
    kids = children.get(span["span_id"], ())
    child_total = sum(k.get("duration", 0.0) for k in kids)
    return max(0.0, span.get("duration", 0.0) - child_total)


def stage_breakdown(spans: Iterable[Any]) -> list[dict[str, Any]]:
    """Aggregate rows ``{name, kind, runs, cache_hits, total, self}``
    sorted by total time descending."""
    rows = _as_dicts(spans)
    children = _children_index(rows)
    table: dict[tuple[str, str], dict[str, Any]] = {}
    for span in rows:
        if span.get("kind") not in _BREAKDOWN_KINDS:
            continue
        key = (span["kind"], span["name"])
        entry = table.setdefault(key, {
            "name": span["name"], "kind": span["kind"], "runs": 0,
            "cache_hits": 0, "total": 0.0, "self": 0.0})
        entry["runs"] += 1
        if span.get("attributes", {}).get("cache") == "hit":
            entry["cache_hits"] += 1
        entry["total"] += span.get("duration", 0.0)
        entry["self"] += _self_time(span, children)
    return sorted(table.values(),
                  key=lambda e: (-e["total"], e["kind"], e["name"]))


def critical_path(spans: Iterable[Any]) -> list[dict[str, Any]]:
    """Longest-root, longest-child chain through the trace."""
    rows = _as_dicts(spans)
    if not rows:
        return []
    children = _children_index(rows)
    by_id = {s["span_id"]: s for s in rows}
    roots = [s for s in rows
             if s.get("parent_id") is None
             or s.get("parent_id") not in by_id]
    if not roots:
        return []
    node = max(roots, key=lambda s: s.get("duration", 0.0))
    path = [node]
    while True:
        kids = children.get(node["span_id"])
        if not kids:
            break
        node = max(kids, key=lambda s: s.get("duration", 0.0))
        path.append(node)
    return path


def slowest_spans(spans: Iterable[Any], top: int = 10) -> list[dict]:
    rows = _as_dicts(spans)
    return sorted(rows, key=lambda s: -s.get("duration", 0.0))[:top]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.2f} ms"


def render_report(spans: Iterable[Any], top: int = 10) -> str:
    """The full plain-text report for a trace."""
    rows = _as_dicts(spans)
    pids = sorted({s.get("pid") for s in rows if s.get("pid") is not None})
    lines = [f"trace: {len(rows)} spans across "
             f"{len(pids)} process(es) {pids}"]

    lines.append("")
    lines.append("per-stage breakdown (total desc):")
    lines.append(f"  {'name':<28} {'kind':<7} {'runs':>5} {'hits':>5} "
                 f"{'total':>12} {'self':>12}")
    for entry in stage_breakdown(rows):
        lines.append(f"  {entry['name']:<28} {entry['kind']:<7} "
                     f"{entry['runs']:>5} {entry['cache_hits']:>5} "
                     f"{_ms(entry['total'])} {_ms(entry['self'])}")

    path = critical_path(rows)
    lines.append("")
    lines.append("critical path (longest root, longest child):")
    for depth, span in enumerate(path):
        lines.append(f"  {'  ' * depth}{span['name']} "
                     f"[{span.get('kind', 'span')}] "
                     f"{_ms(span.get('duration', 0.0))}")

    lines.append("")
    lines.append(f"top {top} slowest spans:")
    for span in slowest_spans(rows, top=top):
        attrs = span.get("attributes") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"  {_ms(span.get('duration', 0.0))}  "
                     f"{span['name']} [{span.get('kind', 'span')}]"
                     f"{'  ' + attr_text if attr_text else ''}")
    return "\n".join(lines)
