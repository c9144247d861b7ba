"""Per-layer attribution of a cProfile run.

The request path runs as generators the event kernel resumes, so a
wrapper span around ``measure_direct_path`` or ``Transport.fetch`` would
time only generator creation.  cProfile instead charges every resume to
the generator's own module.  This module folds that profile into layers:

- each ``repro`` function's ``tottime`` goes to its module's layer;
- benchmark-harness code goes to ``other``;
- stdlib and builtin time goes to the nearest ``repro`` caller, split
  by pstats' per-caller times, so the layer shares sum to 1.
"""

from __future__ import annotations

import fnmatch
import os
from typing import Dict, Iterable, Mapping, Optional, Tuple

LAYERS = (
    "kernel", "net", "censor", "session", "circumvent", "voting",
    "globaldb", "reporting", "fleet", "planes", "scenarios", "workloads",
    "other",
)

#: (glob over the path below ``src/repro``, layer); the first match wins.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("simnet/engine.py", "kernel"),
    ("simnet/*", "net"),
    ("urlkit.py", "net"),
    ("censor/*", "censor"),
    ("core/voting.py", "voting"),
    ("core/reputation.py", "voting"),
    ("core/globaldb.py", "globaldb"),
    ("core/reporting.py", "reporting"),
    ("core/fleet.py", "fleet"),
    ("core/*", "session"),
    ("circumvent/*", "circumvent"),
    ("planes/*", "planes"),
    ("scenarios/*", "scenarios"),
    ("workloads/*", "workloads"),
    # Off every workload's measured path.  Named, not defaulted, so a
    # new package must be placed in a layer on purpose.
    ("__init__.py", "other"),
    ("cli.py", "other"),
    ("analysis/*", "other"),
    ("runner/*", "other"),
    ("devtools/*", "other"),
)

#: Per-layer counts read from cProfile call counts.  Only plain
#: functions: a generator's ``ncalls`` counts resumes, not calls.
CALL_COUNTS: Mapping[str, Tuple[str, Tuple[str, ...]]] = {
    # Environment.timeout and Environment.process
    "kernel.events": ("simnet/engine.py", ("timeout", "process")),
    # the CompiledPolicy.on_* hooks
    "censor.lookups": (
        "censor/compiled.py",
        ("on_dns_query", "on_packet", "on_http_request", "on_tls_client_hello"),
    ),
    "voting.uploads": ("core/globaldb.py", ("post_update",)),
    "fleet.sweeps": ("core/fleet.py", ("service",)),
    "scenarios.compiles": ("scenarios/compiler.py", ("compile",)),
}

Func = Tuple[str, int, str]  # pstats' (filename, lineno, funcname)

# Caller-graph iteration limits for the fold; real profiles settle in a
# few sweeps, since stdlib chains under a repro caller are short.
_MAX_SWEEPS = 500
_TOLERANCE = 1e-12


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a module given its path below ``src/repro``, or None."""
    for pattern, layer in LAYER_RULES:
        if fnmatch.fnmatchcase(relpath, pattern):
            return layer
    return None


class Attribution:
    """Maps profiled functions to layers for one ``src`` tree."""

    def __init__(self, src_dir: str, harness_dir: str):
        self.repro_dir = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
        self.harness_dir = os.path.abspath(harness_dir) + os.sep

    def relpath(self, filename: str) -> Optional[str]:
        path = os.path.abspath(filename)
        if path.startswith(self.repro_dir):
            return path[len(self.repro_dir):].replace(os.sep, "/")
        return None

    def owner(self, func: Func) -> Optional[str]:
        """Layer that owns ``func``'s own time; None for stdlib/builtins."""
        if func[0] == "~" or func[0].startswith("<"):
            return None  # builtins ("~") and frozen or generated code
        rel = self.relpath(func[0])
        if rel is not None:
            return layer_of(rel) or "other"
        if os.path.abspath(func[0]).startswith(self.harness_dir):
            return "other"
        return None

    def fold(self, stats: Mapping[Func, tuple]) -> Dict[str, float]:
        """Seconds of ``tottime`` per layer from ``pstats``-shaped stats:
        ``func -> (cc, nc, tt, ct, callers)`` with ``callers`` mapping
        each caller to ``(nc, cc, tt, ct)``.

        An unowned function's split over layers is the caller-weighted
        mix of its callers' splits.  Callers can form cycles (recursion
        through the stdlib), so the splits are solved by iteration;
        whatever never reaches an owner (a cycle with no way out, or a
        root) is charged to ``other``, so the layers sum to the total.
        """
        owners = {func: self.owner(func) for func in stats}
        edges: Dict[Func, list] = {}
        for func, entry in stats.items():
            if owners[func] is not None:
                continue
            callers = {c: t for c, t in entry[4].items() if c in stats and c != func}
            # Weight callers by the time spent in func on their behalf;
            # by call count when the clock was too coarse to see any.
            weights = {c: t[2] for c, t in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {c: float(t[0]) for c, t in callers.items()}
            total = sum(weights.values())
            edges[func] = [(c, w / total) for c, w in weights.items() if w > 0.0]

        split: Dict[Func, Dict[str, float]] = {func: {} for func in edges}
        for _ in range(_MAX_SWEEPS):
            change = 0.0
            for func, callers in edges.items():
                new: Dict[str, float] = {}
                for caller, weight in callers:
                    owner = owners[caller]
                    parts = {owner: 1.0} if owner is not None else split[caller]
                    for layer, part in parts.items():
                        new[layer] = new.get(layer, 0.0) + weight * part
                old = split[func]
                change = max([change] + [abs(new.get(k, 0.0) - old.get(k, 0.0))
                                         for k in new.keys() | old.keys()])
                split[func] = new
            if change < _TOLERANCE:
                break

        seconds = dict.fromkeys(LAYERS, 0.0)
        for func, entry in stats.items():
            own = entry[2]
            if owners[func] is not None:
                seconds[owners[func]] += own
                continue
            placed = 0.0
            for layer, part in split[func].items():
                seconds[layer] += own * part
                placed += part
            seconds["other"] += own * (1.0 - placed)
        return seconds

    def call_counts(self, stats: Mapping[Func, tuple]) -> Dict[str, int]:
        counts = dict.fromkeys(CALL_COUNTS, 0)
        for func, entry in stats.items():
            rel = self.relpath(func[0])
            if rel is None:
                continue
            for metric, (module, names) in CALL_COUNTS.items():
                if rel == module and func[2] in names:
                    counts[metric] += entry[1]
        return counts


def shares(seconds: Mapping[str, float]) -> Dict[str, float]:
    total = sum(seconds.values())
    return {layer: (s / total if total else 0.0) for layer, s in seconds.items()}


def repro_modules(src_dir: str) -> Iterable[str]:
    """Every module path below ``src/repro``, '/'-separated."""
    root = os.path.join(src_dir, "repro")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, filename), root)
                yield rel.replace(os.sep, "/")
