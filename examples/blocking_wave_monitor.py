#!/usr/bin/env python
"""Monitoring a live blocking wave (§7.5, "C-Saw in the wild").

Replays the November 2017 Twitter/Instagram blocking wave across four
Pakistani ASes and prints the measurement timeline exactly as C-Saw's
global database collected it — each AS blocking each service with its own
mechanism, at its own time, detected by ordinary users' browsing.

Run:  python examples/blocking_wave_monitor.py
"""

from repro.workloads.events import BlockingWave


def main() -> None:
    wave = BlockingWave(seed=5, users_per_as=4)
    wave.build()
    print("censor timeline (ground truth):")
    for event in sorted(wave.events, key=lambda e: e.time):
        print(
            f"  t+{event.time / 3600:5.1f}h  AS {event.asn} starts blocking "
            f"{event.domain} via {' + '.join(event.mechanisms)}"
        )

    observations = wave.run()
    print("\nwhat C-Saw's global DB collected:")
    for obs in observations:
        print(f"  {obs.render()}")

    print("\ninsights (as in the paper):")
    twitter_symptoms = {
        o.asn: o.symptom for o in observations if o.service == "Twitter"
    }
    print(
        f"  - different ASes blocked Twitter differently: {twitter_symptoms}"
    )
    instagram_ases = sorted(
        o.asn for o in observations if o.service == "Instagram"
    )
    print(f"  - Instagram was DNS-blocked from ASes {instagram_ases}")


if __name__ == "__main__":
    main()
