"""One benchmark sample: run one workload once in this fresh process.

Run by ``run.py`` as a child, never by hand::

    PYTHONPATH=<src> python benchmarks/e2e/sample.py <workload> --seed N \
        [--trace] [--reference]

Prints one JSON object: phase times, the child's peak RSS, the
workload's simulated metrics and counts, its simulated fingerprint and
any failed checks.  ``--trace`` runs the sample under cProfile and adds
per-layer self seconds and call counts.  ``--reference`` then re-runs
the inputs through the library's own entry point, untimed, and checks
both produce the same fingerprint.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import sys

import registry
from layers import Attribution

HERE = os.path.dirname(os.path.abspath(__file__))


def fingerprint(material: object) -> str:
    """Stable digest of a sample's simulated outputs."""
    blob = json.dumps(material, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    workload = registry.WORKLOADS[args.workload]
    missing = workload.missing()
    if missing:
        print(json.dumps({"workload": workload.name, "na": missing}))
        return 0

    profiler = cProfile.Profile() if args.trace else None
    clock = registry.PhaseClock(profiler)
    outcome = workload.execute(args.seed, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sample = {
        "workload": workload.name,
        "setup_s": clock.setup_s,
        "run_s": clock.run_s,
        "peak_rss_mb": peak_rss_mb,
        "sim": outcome.sim,
        "counts": outcome.counts,
        "fingerprint": fingerprint(outcome.material),
        "failures": list(outcome.failures),
    }
    if profiler is not None:
        import repro

        profiler.create_stats()
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        attribution = Attribution(src_dir, HERE)
        sample["layer_s"] = attribution.fold(profiler.stats)
        sample["counts"].update(attribution.call_counts(profiler.stats))
    if args.reference and workload.reference is not None:
        expected = fingerprint(workload.reference(args.seed))
        if expected != sample["fingerprint"]:
            sample["failures"].append(
                f"{workload.name}: fingerprint {sample['fingerprint']} differs "
                f"from the library entry point's {expected}"
            )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
