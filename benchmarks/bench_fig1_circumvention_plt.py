"""Figure 1 — PLT comparisons motivating data-driven circumvention (§2.3).

(a) HTTPS/Domain-Fronting vs ten static proxies, YouTube homepage
    (~360 KB), 200 back-to-back runs: the direct method beats every proxy
    and the congested proxies (Germany-1, UK, Japan) show wild variance.
(b) HTTPS local-fix vs Tor (several exit locations): HTTPS wins clearly.
(c) Lantern vs "IP as hostname" for a ~50 KB keyword-filtered porn page:
    Lantern is ~1.5× slower.
"""

import pytest

from conftest import run_once
from repro.analysis import percentile, render_table, summarize
from repro.circumvent import DomainFrontingTransport, HttpsTransport, IpAsHostnameTransport
from repro.scenarios.library import FRONT
from repro.workloads.scenarios import pakistan_case_study

RUNS = 200


def collect_plts(scenario, transport, isp, url, runs=RUNS, stream="fig1"):
    world = scenario.world
    client, access = world.add_client(
        f"fig1-{transport.name}-{isp.asn}-{stream}"[:60], [isp]
    )
    plts = []

    def one():
        ctx = world.new_ctx(client, access, stream=f"{stream}/{transport.name}")
        result = yield from transport.fetch(world, ctx, url)
        if result.ok:
            plts.append(result.elapsed)

    for _ in range(runs):
        world.run_process(one())
    return plts


def run_fig1a():
    scenario = pakistan_case_study(seed=101)
    url = scenario.urls["youtube"]
    series = {
        "HTTPS/DF": collect_plts(
            scenario, DomainFrontingTransport(FRONT), scenario.isp_b, url,
            stream="a-df",
        )
    }
    for proxy in scenario.proxy_transports:
        label = proxy.proxy_host.tags["label"]
        series[label] = collect_plts(
            scenario, proxy, scenario.isp_b, url, stream=f"a-{label}"
        )
    return series


def run_fig1b():
    scenario = pakistan_case_study(seed=102, with_proxy_fleet=False)
    url = scenario.urls["youtube"]
    series = {
        "HTTPS": collect_plts(
            scenario, HttpsTransport(), scenario.isp_a, url, stream="b-https"
        )
    }
    for location in ("germany", "netherlands", "france", "us-east", "japan"):
        tor = scenario.tor_transport(f"fig1b-{location}",
                                     tor_exit_location=location,
                                     tor_rotation=600.0)
        series[f"Tor (exit {location})"] = collect_plts(
            scenario, tor, scenario.isp_a, url, stream=f"b-{location}"
        )
    return series


def run_fig1c():
    scenario = pakistan_case_study(seed=103, with_proxy_fleet=False)
    url = scenario.urls["porn"]
    return {
        "IP as hostname": collect_plts(
            scenario, IpAsHostnameTransport(), scenario.isp_a, url, stream="c-ip"
        ),
        "Lantern": collect_plts(
            scenario, scenario.lantern_transport("fig1c"), scenario.isp_a, url,
            stream="c-lantern",
        ),
    }


def series_table(series, title):
    rows = []
    for name, values in series.items():
        if not values:
            rows.append([name, 0, "-", "-", "-", "-"])
            continue
        s = summarize(values)
        rows.append(
            [name, s.count, f"{s.p50:.2f}", f"{s.mean:.2f}", f"{s.p90:.2f}",
             f"{s.p99:.2f}"]
        )
    return render_table(
        ["method", "n", "p50 (s)", "mean (s)", "p90 (s)", "p99 (s)"],
        rows,
        title=title,
    )


def test_fig1a_https_df_vs_static_proxies(benchmark, report):
    series = run_once(benchmark, run_fig1a)
    report(series_table(
        series,
        "Figure 1a — HTTPS/DF vs static proxies (YouTube ~360 KB, "
        f"{RUNS} runs)\npaper: the direct HTTPS/DF method beats every "
        "static proxy; Germany-1/UK/Japan vary wildly",
    ))
    df_median = percentile(series["HTTPS/DF"], 50)
    for label, values in series.items():
        if label == "HTTPS/DF":
            continue
        assert df_median < percentile(values, 50), f"DF should beat {label}"
    # Congested proxies show far heavier tails than the calm ones.
    hot_spread = percentile(series["Germany-1"], 95) - percentile(series["Germany-1"], 50)
    calm_spread = percentile(series["Germany-2"], 95) - percentile(series["Germany-2"], 50)
    assert hot_spread > 2 * calm_spread


def test_fig1b_https_vs_tor(benchmark, report):
    series = run_once(benchmark, run_fig1b)
    report(series_table(
        series,
        f"Figure 1b — HTTPS local-fix vs Tor exits (YouTube, {RUNS} runs)\n"
        "paper: HTTPS yields significantly lower PLTs than every Tor exit",
    ))
    https_median = percentile(series["HTTPS"], 50)
    for label, values in series.items():
        if label == "HTTPS" or not values:
            continue
        assert https_median < 0.6 * percentile(values, 50), label


def test_fig1c_lantern_vs_ip_hostname(benchmark, report):
    series = run_once(benchmark, run_fig1c)
    report(series_table(
        series,
        f"Figure 1c — Lantern vs IP-as-hostname (~50 KB porn page, {RUNS} "
        "runs)\npaper: Lantern is ~1.5x slower than the direct trick",
    ))
    ratio = percentile(series["Lantern"], 50) / percentile(
        series["IP as hostname"], 50
    )
    assert ratio > 1.2, f"Lantern/IP ratio {ratio:.2f} too small"
