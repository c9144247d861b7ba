"""Pluggable measurement planes feeding the global_DB (DESIGN.md §13).

Public surface: the :class:`MeasurementPlane` protocol, the shipped
planes (three measurement planes and the Sybil adversaries), and the
kind registry the scenario compiler and spec validator resolve against.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Mapping, Type

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


#: kind -> plane class.  A mapping of spec fields (a PlaneSpec's set
#: fields or a plain dict) builds through the class's own constructor,
#: so each knob's default is stated once, there.  The scenario compiler
#: and spec validation both resolve kinds here, so adding a plane is one
#: registry entry.
PLANE_KINDS: Dict[str, Type[MeasurementPlane]] = {
    "csaw": CSawBrowserPlane,
    "encore": EncoreProbePlane,
    "problist": GeneratedProbeListPlane,
    "flood": SybilPlane,
    "clique": SybilPlane,
}


def build_plane(spec: Mapping[str, Any]) -> MeasurementPlane:
    """Instantiate one plane from its spec-field mapping.

    Every key goes to the kind's constructor, ``kind`` only when the
    constructor takes it (the Sybil planes' does).  A key the
    constructor does not take is a :class:`ValueError` naming the key
    and the kind.
    """
    kwargs = dict(spec)
    kind = kwargs.setdefault("kind", "csaw")
    plane_cls = PLANE_KINDS.get(kind)
    if plane_cls is None:
        raise ValueError(
            f"unknown plane kind {kind!r} (known: {sorted(PLANE_KINDS)})"
        )
    takes = inspect.signature(plane_cls).parameters
    if "kind" not in takes:
        del kwargs["kind"]
    unknown = sorted(kwargs.keys() - takes.keys())
    if unknown:
        raise ValueError(
            f"plane kind {kind!r} does not read {unknown} "
            f"(it reads: {', '.join(takes)})"
        )
    return plane_cls(**kwargs)
