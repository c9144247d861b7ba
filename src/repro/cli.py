"""``csaw-sim`` — command-line front door to the reproduction.

Subcommands map to the paper's experiments:

- ``quickstart``   tiny demo world: detect, circumvent, report
- ``casestudy``    Table 1 — ISP-A vs ISP-B filtering mechanisms
- ``pilot``        Table 7 — the 123-user deployment study
- ``wave``         §7.5 — the Twitter/Instagram blocking wave
- ``oni``          Figure 2 — blocking-type mixes across 8 ASes
- ``blockpages``   §4.3.1 — 2-phase detector accuracy on the corpus
- ``scenario``     declarative scenario packs: run / list / run-all

Each command prints a rendered table; ``--seed`` re-rolls the world.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from .analysis import render_table

__all__ = ["main", "build_parser"]


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from .censor.actions import HttpAction, HttpVerdict
    from .censor.blockpages import DEFAULT_BLOCKPAGE_HTML
    from .censor.policy import CensorPolicy, Matcher, Rule
    from .circumvent import HttpsTransport, PublicDnsTransport, TorNetwork, TorTransport
    from .core import CSawClient, ServerDB
    from .simnet.web import WebPage
    from .simnet.world import World

    world = World(seed=args.seed)
    world.add_public_resolver()
    world.web.add_site("news.example.org", location="us-east")
    world.web.add_page("http://news.example.org/", size_bytes=200_000)
    blockpage = world.web.add_site(
        "block.isp.example", location="pakistan", supports_https=False,
        catch_all=lambda path: WebPage(
            url=f"http://block.isp.example{path}",
            size_bytes=len(DEFAULT_BLOCKPAGE_HTML),
            html=DEFAULT_BLOCKPAGE_HTML,
        ),
    )
    policy = CensorPolicy(name="demo")
    policy.add_rule(Rule(
        matcher=Matcher(domains={"news.example.org"}),
        http=HttpVerdict(HttpAction.BLOCKPAGE_REDIRECT,
                         blockpage_ip=blockpage.host.ip),
    ))
    isp = world.add_isp(64500, "Demo-ISP", policy=policy)
    tor = TorNetwork.build(world, n_relays=20)
    client = CSawClient(
        world, "demo-user", [isp],
        transports=[PublicDnsTransport(), HttpsTransport(),
                    TorTransport(tor.client("demo"))],
        server_db=ServerDB(),
    )

    rows = []

    def session():
        yield from client.install()
        for _ in range(4):
            response = yield from client.request("http://news.example.org/")
            yield response.measurement_process
            rows.append([
                "http://news.example.org/",
                response.path,
                f"{response.plt:.2f}s",
                response.status.value,
                ",".join(s.value for s in response.stages) or "-",
            ])

    world.run_process(session())
    print(render_table(
        ["url", "served via", "PLT", "status", "blocking"], rows,
        title="quickstart — C-Saw adapting behind a block-page censor",
    ))
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from .core.detection import measure_direct_path
    from .workloads.scenarios import pakistan_case_study

    scenario = pakistan_case_study(seed=args.seed, with_proxy_fleet=False)
    world = scenario.world
    rows = []
    for isp_name, isp in (("ISP-A", scenario.isp_a), ("ISP-B", scenario.isp_b)):
        for label, url in (("YouTube", scenario.urls["youtube"]),
                           ("blocked content", scenario.urls["porn"])):
            client, access = world.add_client(
                f"cli-{isp.asn}-{label.replace(' ', '')}", [isp]
            )
            ctx = world.new_ctx(client, access, stream=f"cli/{isp.asn}/{label}")
            outcome = world.run_process(measure_direct_path(world, ctx, url))
            rows.append([
                isp_name, label,
                " + ".join(s.value for s in outcome.stages) or "no blocking",
            ])
    print(render_table(
        ["ISP", "target", "mechanism (as inferred by C-Saw)"], rows,
        title="Table 1 — the distributed-censorship case study",
    ))
    return 0


def _cmd_pilot(args: argparse.Namespace) -> int:
    from .workloads.pilot import PilotConfig, run_pilot

    try:
        config = PilotConfig(
            seed=args.seed,
            n_users=args.users,
            n_sites=args.sites,
            duration_days=args.days,
            n_ases=args.ases,
        )
    except ValueError as err:
        print(f"csaw-sim pilot: {err}", file=sys.stderr)
        return 2
    report = run_pilot(config)
    print(render_table(
        ["insight", "value"], report.rows(),
        title=f"Table 7 — pilot study ({args.users} users, "
        f"{args.days:g} days, {args.ases} ASes)",
    ))
    return 0


def _cmd_wave(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioRunner, wave_spec

    outcome = ScenarioRunner(workers=1).run(wave_spec(seed=args.seed))
    service = {url: label.capitalize() for label, url in outcome.spec.urls.items()}
    rows = [
        [f"t+{o.detected_at / 3600:.1f}h", service[o.url], f"AS {o.asn}", o.symptom]
        for o in outcome.observations
    ]
    print(render_table(
        ["detected", "service", "AS", "response"], rows,
        title="§7.5 — the Twitter/Instagram blocking wave, as measured",
    ))
    return 0


def _cmd_oni(args: argparse.Namespace) -> int:
    from .workloads.oni import FIG2_CATEGORIES, OniSweep

    try:
        sweep = OniSweep(seed=args.seed, domains_per_as=args.domains)
    except ValueError as err:
        print(f"csaw-sim oni: {err}", file=sys.stderr)
        return 2
    measured = sweep.run()
    rows = []
    for asn, mix in measured.items():
        spec = sweep.spec_for(asn)
        rows.append([f"AS{asn}", spec.country]
                    + [f"{mix[c]:.2f}" for c in FIG2_CATEGORIES])
    print(render_table(
        ["AS", "country"] + list(FIG2_CATEGORIES), rows,
        title="Figure 2 — blocking-type fractions per AS",
    ))
    return 0


def _cmd_blockpages(args: argparse.Namespace) -> int:
    from .censor.blockpages import build_blockpage_corpus, build_normal_corpus
    from .core.blockpage import phase1_looks_like_blockpage

    rng = random.Random(args.seed)
    try:
        blockpages = build_blockpage_corpus(rng, n_isps=args.isps)
    except ValueError as err:
        print(f"csaw-sim blockpages: {err}", file=sys.stderr)
        return 2
    normals = build_normal_corpus(rng, n_pages=200)
    caught = sum(1 for s in blockpages if phase1_looks_like_blockpage(s.html))
    false_pos = sum(1 for h in normals if phase1_looks_like_blockpage(h))
    print(render_table(
        ["metric", "value"],
        [
            ["ISPs in corpus", args.isps],
            ["phase-1 recall", f"{caught / len(blockpages):.0%} (paper ~80%)"],
            ["false positives on normal pages", f"{false_pos} (paper 0)"],
        ],
        title="§4.3.1 — phase-1 block-page heuristic",
    ))
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import load_spec, shipped_packs

    rows = []
    for name, path in shipped_packs():
        spec = load_spec(path)
        rows.append([name, spec.resolved_mode(), spec.seed, spec.description])
    print(render_table(
        ["pack", "mode", "seed", "description"], rows,
        title="shipped scenario packs (repro/scenarios/packs/)",
    ))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioRunner, SpecError, load_spec

    try:
        spec = load_spec(args.spec)
    except SpecError as err:
        print(f"csaw-sim scenario: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    outcome = ScenarioRunner().run(spec)
    print(outcome.report.render())
    return 0 if outcome.report.ok else 1


def _cmd_scenario_run_all(args: argparse.Namespace) -> int:
    import json
    import time

    from .scenarios import ScenarioRunner, load_spec, shipped_packs

    runner = ScenarioRunner()
    rows, timings, failed = [], [], []
    for name, path in shipped_packs():
        started = time.perf_counter()
        outcome = runner.run(load_spec(path))
        elapsed = time.perf_counter() - started
        report = outcome.report
        # A pack fails when its expectation diff is non-empty — the diff
        # is the artifact CI consumes, so it is also the exit signal
        # (guards against report.ok and diff() ever disagreeing).
        status = "PASS" if report.ok and not report.diff() else "FAIL"
        if status == "FAIL":
            failed.append((name, report))
        rows.append([
            name, outcome.mode, status,
            f"{len(report.checks) - len(report.failures)}/{len(report.checks)}",
            f"{elapsed:.2f}s",
        ])
        timings.append({
            "pack": name,
            "mode": outcome.mode,
            "ok": status == "PASS",
            "checks": len(report.checks),
            "failures": len(report.failures),
            "seconds": round(elapsed, 3),
        })
    print(render_table(
        ["pack", "mode", "status", "expectations", "runtime"], rows,
        title="scenario packs — expectation checks",
    ))
    for name, report in failed:
        print(f"\n{name}:")
        print(report.diff())
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"packs": timings}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\npack runtimes written to {args.record}")
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis.reportgen import generate_report

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no such results directory: {results_dir} — run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    print(generate_report(results_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csaw-sim",
        description="C-Saw (SIGCOMM '18) reproduction: censorship "
        "measurement + adaptive circumvention on a simulated Internet.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1, help="world seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "quickstart", help="tiny demo world", parents=[common]
    ).set_defaults(func=_cmd_quickstart)
    sub.add_parser(
        "casestudy", help="Table 1 case study", parents=[common]
    ).set_defaults(func=_cmd_casestudy)
    pilot = sub.add_parser(
        "pilot", help="Table 7 deployment study", parents=[common]
    )
    pilot.add_argument("--users", type=int, default=123)
    pilot.add_argument("--days", type=float, default=90.0)
    pilot.add_argument("--sites", type=int, default=1700)
    pilot.add_argument("--ases", type=int, default=16)
    pilot.set_defaults(func=_cmd_pilot)
    sub.add_parser(
        "wave", help="§7.5 blocking wave", parents=[common]
    ).set_defaults(func=_cmd_wave)
    oni = sub.add_parser(
        "oni", help="Figure 2 blocking-type mixes", parents=[common]
    )
    oni.add_argument("--domains", type=int, default=60,
                     help="censored domains per AS")
    oni.set_defaults(func=_cmd_oni)
    blockpages = sub.add_parser(
        "blockpages", help="block-page detector eval", parents=[common]
    )
    blockpages.add_argument("--isps", type=int, default=47)
    blockpages.set_defaults(func=_cmd_blockpages)
    scenario = sub.add_parser(
        "scenario", help="declarative scenario packs (run / list / run-all)",
    )
    ssub = scenario.add_subparsers(dest="scenario_command", required=True)
    ssub.add_parser(
        "list", help="list the shipped scenario packs"
    ).set_defaults(func=_cmd_scenario_list)
    scenario_run = ssub.add_parser(
        "run", help="run one pack (by name or .toml path) and check "
        "its expectations",
    )
    scenario_run.add_argument("spec", help="pack name or path to a spec.toml")
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's world seed",
    )
    scenario_run.set_defaults(func=_cmd_scenario_run)
    scenario_run_all = ssub.add_parser(
        "run-all", help="run every shipped pack; non-zero exit on any "
        "expectation mismatch",
    )
    scenario_run_all.add_argument(
        "--record", default=None, metavar="PATH",
        help="write per-pack runtimes to this JSON file",
    )
    scenario_run_all.set_defaults(func=_cmd_scenario_run_all)
    report = sub.add_parser(
        "report", help="combine benchmarks/results/ into one markdown report",
        parents=[common],
    )
    report.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of bench result tables",
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
