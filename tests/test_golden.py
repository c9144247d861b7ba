"""The golden kit's report: a mismatch names the path where it is."""

import copy
import re

import pytest

from tests._golden import check, load


def _locate(doc, path):
    """The container holding ``path``'s last step, and that step."""
    steps = [
        int(token[1:-1]) if token.startswith("[") else token
        for token in re.findall(r"\[\d+\]|[^.\[\]]+", path)
    ]
    for step in steps[:-1]:
        doc = doc[step]
    return doc, steps[-1]


def _report(name, captured, at=""):
    with pytest.raises(AssertionError) as failure:
        check(name, captured, at)
    return str(failure.value)


# Per committed golden: a leaf to change, a key to drop and a list to
# shorten, each spelled as ``check`` names it.
@pytest.mark.parametrize("name,leaf,key,items", [
    ("scenario_golden", "case_study.flow.stats.plt_breakdown.session",
     "case_study.flow.stats.full_syncs", "case_study.flow.paths"),
    ("plane_golden", "spec.shards[2].converged_at",
     "spec.shards[2].target_version", "spec.shards[2].next_pull_at"),
    ("session_refactor_golden", "requests[3].plt",
     "requests[3].detection_time", "requests"),
    ("construction_golden", "oni.fractions.8511.RST",
     "pilot.blockpage_ip", "pilot.transports"),
])
def test_check_names_the_first_differing_path(name, leaf, key, items):
    golden = load(name)
    check(name, copy.deepcopy(golden))

    changed = copy.deepcopy(golden)
    parent, step = _locate(changed, leaf)
    original, parent[step] = parent[step], "changed"
    assert _report(name, changed) == f"{name}: {leaf}: 'changed' != {original!r}"
    del parent[step]
    assert _report(name, changed).startswith(f"{name}: {leaf}: missing")
    parent[step], parent["unexpected"] = original, 1
    assert _report(name, changed).startswith(
        f"{name}: {leaf.rsplit('.', 1)[0]}.unexpected: not in golden"
    )

    dropped = copy.deepcopy(golden)
    parent, step = _locate(dropped, key)
    del parent[step]
    assert _report(name, dropped).startswith(f"{name}: {key}: missing")

    shortened = copy.deepcopy(golden)
    parent, step = _locate(shortened, items)
    length = len(parent[step])
    parent[step] = parent[step][:-1]
    assert _report(name, shortened) == (
        f"{name}: {items}: length {length - 1} != {length}"
    )


def test_check_at_names_the_full_path():
    case_study = copy.deepcopy(load("scenario_golden")["case_study"])
    case_study["flow"]["stats"]["full_syncs"] += 1
    assert _report("scenario_golden", case_study, at="case_study") == (
        "scenario_golden: case_study.flow.stats.full_syncs: 2 != 1"
    )
