#!/usr/bin/env python
"""Monitoring a live blocking wave (§7.5, "C-Saw in the wild").

Replays the November 2017 Twitter/Instagram blocking wave across four
Pakistani ASes and prints the measurement timeline exactly as C-Saw's
global database collected it — each AS blocking each service with its own
mechanism, at its own time, detected by ordinary users' browsing.

Run:  python examples/blocking_wave_monitor.py
"""

from repro.scenarios import ScenarioRunner, wave_spec


def main() -> None:
    spec = wave_spec(seed=5, users_per_as=4)
    print("censor timeline (ground truth):")
    for event in sorted(spec.events, key=lambda e: e.time):
        print(
            f"  t+{event.time / 3600:5.1f}h  AS {event.asn} starts blocking "
            f"{event.domain} via {' + '.join(event.mechanisms)}"
        )

    observations = ScenarioRunner(workers=1).run(spec).observations
    service = {url: label.capitalize() for label, url in spec.urls.items()}
    print("\nwhat C-Saw's global DB collected:")
    for obs in observations:
        print(
            f"  {service[obs.url]} found blocked at "
            f"t+{obs.detected_at / 3600:.1f}h from AS {obs.asn} "
            f"(Response: {obs.symptom})"
        )

    print("\ninsights (as in the paper):")
    twitter_symptoms = {
        o.asn: o.symptom for o in observations if service[o.url] == "Twitter"
    }
    print(
        f"  - different ASes blocked Twitter differently: {twitter_symptoms}"
    )
    instagram_ases = sorted(
        o.asn for o in observations if service[o.url] == "Instagram"
    )
    print(f"  - Instagram was DNS-blocked from ASes {instagram_ases}")


if __name__ == "__main__":
    main()
