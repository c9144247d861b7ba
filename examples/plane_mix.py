#!/usr/bin/env python
"""Mixing measurement planes: C-Saw users, Encore probes, probe lists.

README's "Measurement planes" sample at a smaller scale: a fleet of
8 ASes x 1,000 clients sees a blocking wave reported through three
planes at once.  The plane-mix table shows each plane's volume and
convergence; the robustness sweep then weights Encore's coarse reports
down and counts what the ASes' blocked lists keep under each reporter
threshold: at a quarter weight, the ~40 Encore probes that report a URL
in an AS count as about 10 reporters.  A report's plane is its
reporter's registration, and the weighted criterion reads the per-plane
vote statistics the voting ledger derives from it.

Run:  python examples/plane_mix.py
"""

from repro.analysis import (
    plane_convergence_curves,
    render_plane_mix,
    voting_robustness,
)
from repro.core.fleet import run_fleet_storm
from repro.core.globaldb import ServerDB

N_ASES = 8
ASN_BASE = 40000


def main() -> None:
    server = ServerDB(entry_ttl=None)
    metrics = run_fleet_storm(
        n_ases=N_ASES, clients_per_as=1000, server=server,
        asn_base=ASN_BASE,
        planes=[{"kind": "csaw", "fraction": 0.01},
                {"kind": "encore", "fraction": 0.05, "miss_rate": 0.2},
                {"kind": "problist", "fraction": 0.005, "coverage": 0.9}],
    )
    print("plane mix (volume + convergence per plane):")
    print(render_plane_mix(metrics))

    print("\nfraction of the fleet converged, per plane:")
    for plane, points in plane_convergence_curves(metrics).items():
        at, fraction = points[-1]
        print(f"  {plane:9s} {fraction:.3f} by {at:.0f} s after the wave")

    rows = voting_robustness(
        server, asns=[ASN_BASE + i for i in range(N_ASES)],
        weight_grids={"encore": (1.0, 0.5, 0.25)},
        min_reporters=(1, 25, 50),
    )
    print("\nentries listed under fidelity weights x reporter thresholds:")
    for row in rows:
        print(
            f"  encore weight {row['weights']['encore']:4.2f}  "
            f"min_reporters {row['min_reporters']}  "
            f"listed {row['listed']}"
        )


if __name__ == "__main__":
    main()
