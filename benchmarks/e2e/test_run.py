"""Harness checks that need no workload run."""

import json
import math
import os

import run
from sample import fingerprint

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _sample(material, failures=()):
    return {"workload": "storm_1m", "fingerprint": fingerprint(material),
            "failures": list(failures)}


def test_a_perturbed_fingerprint_fails_the_check():
    material = {"summary": {"sync_bytes": 2212.350838, "pending": 0}}
    same = [_sample(material), _sample(json.loads(json.dumps(material)))]
    assert run.agreement(same) == []

    perturbed = {"summary": {"sync_bytes": math.nextafter(2212.350838, 3000.0),
                             "pending": 0}}
    problems = run.agreement(same + [_sample(perturbed)])
    assert len(problems) == 1 and "disagree" in problems[0]


def test_failed_checks_are_reported():
    problems = run.agreement([_sample({}, ["storm_1m: 3 ASes never converged"])])
    assert problems == ["storm_1m: 3 ASes never converged"]


def test_benchmark_json_matches_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.registry.WORKLOADS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.registry.WORKLOADS)
    for entry in spec["end_to_end"]:
        unit, better, bound = run.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (unit, better, bound)
    assert [e["name"] for e in spec["end_to_end"]] == list(run.HOST_METRICS)
    assert {e["name"]: (e["unit"], e["better"]) for e in spec["per_layer"]} == run.PER_LAYER
