"""Trace analysis: critical path, latency attribution and waterfall.

The virtual clock does not advance inside a synchronous request, so span
timestamps carry structure while the modelled seconds live in each span's
``cost`` (filled at the simulator's pricing sites).  Attribution therefore
sums ``cost`` over a request root's descendants; the *coverage* of a request
is the attributed share of the root's total latency — the smoke gate
requires >= 95% on every sampled request (no unaccounted gaps beyond float
rounding).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Span

__all__ = [
    "index_spans",
    "request_roots",
    "descendants",
    "stage_costs",
    "critical_path",
    "coverage",
    "percentile_root",
    "latency_attribution",
    "render_waterfall",
    "render_report",
]

#: Request roots are the spans the SDK opens, one per client operation.
REQUEST_ROOT_PREFIX = "sdk."


def index_spans(spans: Sequence[Span]) -> Tuple[Dict[int, Span], Dict[Optional[int], List[Span]]]:
    """``(by_id, children)`` maps for a span list."""
    by_id: Dict[int, Span] = {}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_id[span.span_id] = span
        children.setdefault(span.parent_id, []).append(span)
    return by_id, children


def request_roots(spans: Sequence[Span]) -> List[Span]:
    """Root spans that are client operations, in completion order."""
    return [
        span
        for span in spans
        if span.parent_id is None and span.name.startswith(REQUEST_ROOT_PREFIX)
    ]


def descendants(root: Span, children: Dict[Optional[int], List[Span]]) -> List[Span]:
    """Every span below ``root``, depth-first in span-id order."""
    found: List[Span] = []
    stack = list(reversed(children.get(root.span_id, ())))
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(reversed(children.get(span.span_id, ())))
    return found


def stage_costs(root: Span, children: Dict[Optional[int], List[Span]]) -> Dict[str, float]:
    """Modelled seconds attributed to each named stage under ``root``."""
    costs: Dict[str, float] = {}
    for span in descendants(root, children):
        if span.cost:
            costs[span.name] = costs.get(span.name, 0.0) + span.cost
    return costs


def critical_path(
    root: Span, children: Dict[Optional[int], List[Span]], k: Optional[int] = None
) -> List[Tuple[str, float]]:
    """The request's stages ordered by attributed cost, heaviest first.

    With every stage on the same synchronous path, the critical path *is*
    the cost ranking; ties break by stage name so the output is stable.
    """
    ranked = sorted(stage_costs(root, children).items(), key=lambda item: (-item[1], item[0]))
    return ranked if k is None else ranked[:k]


def coverage(root: Span, children: Dict[Optional[int], List[Span]]) -> float:
    """Attributed share of the root's latency (1.0 for zero-latency serves)."""
    total = root.cost
    if total <= 0.0:
        return 1.0
    # Costs are signed: a breaker fast-fail carries a compensating negative
    # component, so the sum (not the positive part) is what must match.
    attributed = sum(span.cost for span in descendants(root, children))
    return attributed / total


def percentile_root(roots: Sequence[Span], fraction: float) -> Optional[Span]:
    """The request root sitting at the given latency percentile.

    Roots are ranked by ``(cost, span_id)`` so equal-latency requests have a
    deterministic order.
    """
    if not roots:
        return None
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ranked = sorted(roots, key=lambda span: (span.cost, span.span_id))
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


def latency_attribution(spans: Sequence[Span]) -> dict:
    """Aggregate per-stage attribution across every sampled request.

    Returns ``requests`` (count), ``total_latency`` (seconds), ``stages``
    (list of ``(name, seconds, share)`` heaviest first), and the coverage
    extrema (``min_coverage`` / ``mean_coverage``).
    """
    _by_id, children = index_spans(spans)
    roots = request_roots(spans)
    totals: Dict[str, float] = {}
    coverages: List[float] = []
    total_latency = 0.0
    for root in roots:
        total_latency += root.cost
        coverages.append(coverage(root, children))
        for name, cost in stage_costs(root, children).items():
            totals[name] = totals.get(name, 0.0) + cost
    stages = [
        (name, cost, (cost / total_latency) if total_latency > 0.0 else 0.0)
        for name, cost in sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    ]
    return {
        "requests": len(roots),
        "total_latency": total_latency,
        "stages": stages,
        "min_coverage": min(coverages) if coverages else 1.0,
        "mean_coverage": (sum(coverages) / len(coverages)) if coverages else 1.0,
    }


def render_waterfall(
    root: Span, children: Dict[Optional[int], List[Span]], width: int = 40
) -> str:
    """Text waterfall of one request: indented tree, cost bars, shares."""
    lines = [
        f"request {root.name} ({_ms(root.cost)} total, "
        f"level={root.attrs.get('level', '?')})"
    ]
    total = root.cost if root.cost > 0.0 else 1.0

    def walk(span: Span, depth: int) -> None:
        share = span.cost / total
        bar = "#" * max(1, int(round(share * width))) if span.cost > 0.0 else ""
        label = "  " * depth + span.name
        lines.append(f"  {label:<34} {_ms(span.cost):>10}  {bar}")
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for child in children.get(root.span_id, ()):
        walk(child, 0)
    return "\n".join(lines)


def render_report(spans: Sequence[Span], top: int = 3) -> str:
    """The full latency-attribution report used by the CLI and the example."""
    _by_id, children = index_spans(spans)
    roots = request_roots(spans)
    summary = latency_attribution(spans)
    lines = [
        f"latency attribution: {summary['requests']} sampled requests, "
        f"{len(spans)} spans",
        f"coverage: min={summary['min_coverage']:.4f} "
        f"mean={summary['mean_coverage']:.4f}",
        "",
        f"{'stage':<28} {'seconds':>12} {'share':>8}",
    ]
    for name, cost, share in summary["stages"]:
        lines.append(f"{name:<28} {cost:>12.6f} {share:>7.1%}")
    for fraction, label in ((0.5, "p50"), (0.99, "p99")):
        root = percentile_root(roots, fraction)
        if root is None:
            continue
        lines.append("")
        lines.append(f"top stages at {label} ({_ms(root.cost)} request):")
        for rank, (name, cost) in enumerate(critical_path(root, children, k=top), 1):
            lines.append(f"  {rank}. {name:<26} {_ms(cost)}")
        lines.append("")
        lines.append(render_waterfall(root, children))
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}ms"
