"""Per-plane-mix analysis: convergence curves and voting robustness.

The ROADMAP study behind the measurement-plane refactor: how does
adding a cheap coarse plane (Encore probes) or a scheduled probe-list
plane change blocked-list convergence and voting robustness?  This
module turns :class:`~repro.core.fleet.FleetMetrics` plane provenance
into convergence curves, a plane-mix table, and a robustness sweep over
fidelity weights / thresholds against a post-storm
:class:`~repro.core.globaldb.ServerDB`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.fleet import FleetMetrics
from ..core.globaldb import ServerDB
from .tables import render_table

__all__ = [
    "plane_convergence_curves",
    "plane_mix_rows",
    "render_plane_mix",
    "voting_robustness",
]


def plane_convergence_curves(
    metrics: FleetMetrics,
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-plane convergence curves from a fleet storm.

    For each plane: sorted ``(seconds after wave onset, fraction of the
    fleet converged on that plane's target)`` points, cumulated from the
    delta events :meth:`ClientCohort.finalize` recorded.  The fraction
    is over the whole fleet population (``n_clients``) — planes race on
    the same denominator, so curves are directly comparable.
    """
    n = metrics.n_clients
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for plane, events in sorted(metrics.curve_by_plane.items()):
        total = 0
        points: List[Tuple[float, float]] = []
        for at, delta in sorted(events):
            total += delta
            points.append((at, total / n if n else 0.0))
        curves[plane] = points
    return curves


def plane_mix_rows(metrics: FleetMetrics) -> List[Dict[str, object]]:
    """One row per plane: volume, provenance, and convergence scalars."""
    rows: List[Dict[str, object]] = []
    summary = metrics.plane_summary()
    curves = plane_convergence_curves(metrics)
    for plane, scalars in summary.items():
        points = curves.get(plane, [])
        rows.append(
            {
                "plane": plane,
                "reporters": int(scalars["reporters"]),
                "reports": int(scalars["reports"]),
                "converged_ases": int(scalars["converged_ases"]),
                "mean_convergence_sim_s": scalars["mean_convergence_sim_s"],
                "final_converged_fraction": (
                    points[-1][1] if points else 0.0
                ),
            }
        )
    return rows


def render_plane_mix(metrics: FleetMetrics) -> str:
    """The plane-mix table, rendered for reports."""
    rows = plane_mix_rows(metrics)
    return render_table(
        headers=[
            "plane",
            "reporters",
            "reports",
            "converged ASes",
            "mean conv (s)",
            "final frac",
        ],
        rows=[
            [
                str(row["plane"]),
                str(row["reporters"]),
                str(row["reports"]),
                str(row["converged_ases"]),
                f"{row['mean_convergence_sim_s']:.1f}",
                f"{row['final_converged_fraction']:.3f}",
            ]
            for row in rows
        ],
    )


def voting_robustness(
    server: ServerDB,
    asns: Sequence[int],
    weight_grids: Dict[str, Sequence[float]],
    min_reporters: Sequence[int] = (1, 2, 3),
    min_votes: float = 0.0,
    now: float = 0.0,
) -> List[Dict[str, object]]:
    """Sweep fidelity weights x reporter thresholds over a post-storm DB.

    For every combination of per-plane weight (one value per plane from
    its grid, dense cartesian product) and ``min_reporters`` threshold,
    count the entries each AS's blocked list retains under the weighted
    confidence criterion.  The single-plane degenerate sweep (all
    weights 1.0) reproduces today's unweighted counts.  Returns one row
    per combination: ``{"weights": {...}, "min_reporters": k,
    "listed": total, "listed_by_as": {...}}`` — the sybil-resistance
    trade-off surface for a plane mix.
    """
    planes = sorted(weight_grids)
    combos: List[Dict[str, float]] = [{}]
    for plane in planes:
        combos = [
            {**combo, plane: weight}
            for combo in combos
            for weight in weight_grids[plane]
        ]
    rows: List[Dict[str, object]] = []
    for weights in combos:
        for threshold in min_reporters:
            listed_by_as: Dict[int, int] = {}
            for asn in asns:
                entries = server.blocked_for_as(
                    asn,
                    now,
                    min_reporters=threshold,
                    min_votes=min_votes,
                    plane_weights=weights or None,
                )
                listed_by_as[asn] = len(entries)
            rows.append(
                {
                    "weights": dict(weights),
                    "min_reporters": threshold,
                    "listed": sum(listed_by_as.values()),
                    "listed_by_as": listed_by_as,
                }
            )
    return rows
