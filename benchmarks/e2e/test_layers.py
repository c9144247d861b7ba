"""Layer map and profile fold (no workload runs)."""

import cProfile
import os

import pytest

from layers import LAYERS, Attribution, layer_of, repro_modules, shares

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
REPRO = os.path.join(SRC, "repro")


def _func(path, name, line=1):
    return (path, line, name)


def test_every_repro_module_maps_to_a_layer():
    modules = list(repro_modules(SRC))
    assert "simnet/engine.py" in modules
    unmapped = [m for m in modules if layer_of(m) is None]
    assert not unmapped, f"add these modules to LAYER_RULES: {unmapped}"
    assert {layer_of(m) for m in modules} <= set(LAYERS)


def test_a_new_package_is_not_silently_other():
    assert layer_of("observability/registry.py") is None


@pytest.mark.parametrize("module, layer", [
    ("simnet/engine.py", "kernel"),
    ("simnet/tcp.py", "net"),
    ("urlkit.py", "net"),
    ("core/voting.py", "voting"),
    ("core/reputation.py", "voting"),
    ("core/session.py", "session"),
    ("core/fleet.py", "fleet"),
    ("planes/encore.py", "planes"),
])
def test_layer_rules_first_match_wins(module, layer):
    assert layer_of(module) == layer


def test_fold_charges_stdlib_and_builtins_to_nearest_repro_caller():
    kernel = _func(os.path.join(REPRO, "simnet", "engine.py"), "step")
    tcp = _func(os.path.join(REPRO, "simnet", "tcp.py"), "connect")
    builtin = ("~", 0, "<method 'append' of 'list' objects>")
    heap = _func("/usr/lib/python3/heapq.py", "heappush")
    inner = ("~", 0, "<built-in method _heapq.heappush>")
    root = _func(os.path.join(HERE, "registry.py"), "execute")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        kernel: (1, 1, 2.0, 5.0, {root: (1, 1, 2.0, 5.0)}),
        tcp: (1, 1, 1.0, 2.0, {kernel: (1, 1, 1.0, 2.0)}),
        # 3 s of builtin time: 2 s on the kernel's behalf, 1 s on tcp's.
        builtin: (9, 9, 3.0, 3.0, {kernel: (6, 6, 2.0, 2.0),
                                   tcp: (3, 3, 1.0, 1.0)}),
        # stdlib called only through another builtin: walk up two hops.
        heap: (4, 4, 0.8, 1.2, {tcp: (4, 4, 0.8, 1.2)}),
        inner: (4, 4, 0.4, 0.4, {heap: (4, 4, 0.4, 0.4)}),
    }
    seconds = Attribution(SRC, HERE).fold(stats)
    assert seconds["kernel"] == pytest.approx(2.0 + 2.0)
    assert seconds["net"] == pytest.approx(1.0 + 1.0 + 0.8 + 0.4)
    assert seconds["other"] == pytest.approx(0.5)
    assert sum(seconds.values()) == pytest.approx(sum(e[2] for e in stats.values()))
    assert sum(shares(seconds).values()) == pytest.approx(1.0)


def test_builtins_are_never_harness_code(monkeypatch):
    monkeypatch.chdir(HERE)  # "~" would resolve inside the harness dir
    attribution = Attribution(SRC, HERE)
    assert attribution.owner(("~", 0, "<built-in method builtins.len>")) is None
    assert attribution.owner(("<frozen posixpath>", 1, "join")) is None
    assert attribution.owner((os.path.join(HERE, "run.py"), 1, "main")) == "other"


def test_fold_survives_caller_cycles_and_zero_timings():
    engine = _func(os.path.join(REPRO, "simnet", "engine.py"), "run")
    a = _func("/usr/lib/python3/copy.py", "deepcopy")
    b = _func("/usr/lib/python3/copy.py", "_deepcopy_dict")
    stats = {
        engine: (1, 1, 1.0, 2.0, {}),
        a: (3, 5, 0.6, 1.0, {engine: (1, 1, 0.0, 1.0), b: (4, 2, 0.0, 0.5)}),
        b: (2, 2, 0.4, 0.9, {a: (2, 2, 0.4, 0.9)}),
    }
    seconds = Attribution(SRC, HERE).fold(stats)
    assert seconds["kernel"] == pytest.approx(2.0)
    assert sum(shares(seconds).values()) == pytest.approx(1.0)


def test_fold_of_a_real_profile_sums_to_its_total(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    from repro.urlkit import parse_url

    profiler = cProfile.Profile()
    profiler.enable()
    hosts = [parse_url(f"http://h{i}.example.com/p").host for i in range(300)]
    profiler.disable()
    profiler.create_stats()
    assert len(set(hosts)) == 300
    attribution = Attribution(SRC, HERE)
    seconds = attribution.fold(profiler.stats)
    total = sum(entry[2] for entry in profiler.stats.values())
    assert sum(seconds.values()) == pytest.approx(total)
    assert seconds["net"] > 0.0
    assert set(seconds) == set(LAYERS)


def test_call_counts_read_plain_functions_only():
    timeout = _func(os.path.join(REPRO, "simnet", "engine.py"), "timeout")
    process = _func(os.path.join(REPRO, "simnet", "engine.py"), "process")
    other = _func(os.path.join(REPRO, "simnet", "tcp.py"), "timeout")
    stats = {
        timeout: (7, 7, 0.1, 0.1, {}),
        process: (3, 3, 0.1, 0.1, {}),
        other: (100, 100, 0.1, 0.1, {}),
    }
    counts = Attribution(SRC, HERE).call_counts(stats)
    assert counts["kernel.events"] == 10
    assert counts["censor.lookups"] == 0
