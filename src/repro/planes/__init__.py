"""Pluggable measurement planes feeding the global_DB (DESIGN.md §13).

Public surface: the :class:`MeasurementPlane` protocol, the shipped
planes (three measurement planes and the Sybil adversaries), and the
kind registry the scenario compiler and spec validator resolve against.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from .base import DEFAULT_PLANE, MeasurementPlane, PlaneProfile
from .csaw import CSawBrowserPlane
from .encore import EncoreProbePlane
from .problist import GeneratedProbeListPlane
from .sybil import SybilPlane

__all__ = [
    "DEFAULT_PLANE",
    "MeasurementPlane",
    "PlaneProfile",
    "CSawBrowserPlane",
    "EncoreProbePlane",
    "GeneratedProbeListPlane",
    "SybilPlane",
    "PLANE_KINDS",
    "build_plane",
]


def _build_csaw(spec: Mapping[str, Any]) -> CSawBrowserPlane:
    return CSawBrowserPlane(
        fraction=spec["fraction"], name=spec.get("name", DEFAULT_PLANE)
    )


def _build_encore(spec: Mapping[str, Any]) -> EncoreProbePlane:
    return EncoreProbePlane(
        fraction=spec["fraction"],
        miss_rate=spec.get("miss_rate", 0.2),
        name=spec.get("name", "encore"),
    )


def _build_problist(spec: Mapping[str, Any]) -> GeneratedProbeListPlane:
    return GeneratedProbeListPlane(
        fraction=spec["fraction"],
        probe_interval=spec.get("probe_interval", 600.0),
        coverage=spec.get("coverage", 0.7),
        name=spec.get("name", "problist"),
    )


def _build_sybil(spec: Mapping[str, Any]) -> SybilPlane:
    kind = spec["kind"]
    return SybilPlane(
        kind,
        fraction=spec["fraction"],
        urls_each=spec.get("urls_each", 1),
        name=spec.get("name", kind),
    )


#: kind -> factory taking a mapping of spec fields (a PlaneSpec's fields
#: or a plain dict); the scenario compiler and spec validation both
#: resolve plane kinds here, so adding a plane is one registry entry.
PLANE_KINDS: Dict[str, Callable[[Mapping[str, Any]], MeasurementPlane]] = {
    "csaw": _build_csaw,
    "encore": _build_encore,
    "problist": _build_problist,
    "flood": _build_sybil,
    "clique": _build_sybil,
}


def build_plane(spec: Mapping[str, Any]) -> MeasurementPlane:
    """Instantiate one plane from its spec-field mapping."""
    kind = spec.get("kind", "csaw")
    factory = PLANE_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown plane kind {kind!r} (known: {sorted(PLANE_KINDS)})"
        )
    return factory(spec)
