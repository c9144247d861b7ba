"""Stage-level PLT decomposition — "where does page-load time go" (§6).

Consumes the per-stage duration breakdowns the trace bus aggregates:
``SessionTrace.stage_durations()`` for one request,
``MeasurementModule.stage_seconds`` / ``CSawClient.stats()["plt_breakdown"]``
for one client, ``PilotReport.plt_stage_seconds`` for a whole deployment.
All of them are ``stage → sim-seconds`` mappings over the Figure-4 stage
names plus ``transport:<name>`` attempt spans and the ``session``
envelope.

Durations sum *effort*, not wall-clock: parallel redundant fetches each
contribute their full span, so stage shares can exceed the user-visible
PLT — that is the point (the redundancy cost §8 worries about is
exactly this gap).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tables import format_seconds, render_table

__all__ = ["decompose", "render_plt_decomposition"]

#: Canonical display order: the Figure-4 pipeline, then phase 2, then
#: transports, then the session envelope.  Unknown stages sort after, by
#: name, so the table stays deterministic whatever the trace contains.
_STAGE_ORDER = (
    "local-dns",
    "global-dns",
    "tcp",
    "tls",
    "http",
    "blockpage-phase1",
    "blockpage-phase2",
)


def _stage_key(stage: str) -> Tuple[int, str]:
    if stage in _STAGE_ORDER:
        return (_STAGE_ORDER.index(stage), stage)
    if stage.startswith("transport:"):
        return (len(_STAGE_ORDER), stage)
    if stage == "session":
        return (len(_STAGE_ORDER) + 2, stage)
    return (len(_STAGE_ORDER) + 1, stage)


def decompose(
    breakdown: Dict[str, float], include_session: bool = False
) -> List[Tuple[str, float, float]]:
    """(stage, seconds, share) rows in canonical stage order.

    Shares are fractions of the summed stage time.  The ``session``
    envelope double-counts every other stage, so it is excluded from
    both rows and total unless ``include_session`` is set.
    """
    items = [
        (stage, seconds)
        for stage, seconds in breakdown.items()
        if include_session or stage != "session"
    ]
    total = sum(seconds for _stage, seconds in items)
    return [
        (stage, seconds, seconds / total if total > 0 else 0.0)
        for stage, seconds in sorted(items, key=lambda kv: _stage_key(kv[0]))
    ]


def render_plt_decomposition(
    breakdown: Dict[str, float], title: str = "PLT decomposition by stage"
) -> str:
    """ASCII table over a stage→seconds map (client stats or pilot report)."""
    rows = [
        (stage, format_seconds(seconds), f"{share * 100:5.1f}%")
        for stage, seconds, share in decompose(breakdown)
    ]
    return render_table(("stage", "time", "share"), rows, title=title)
