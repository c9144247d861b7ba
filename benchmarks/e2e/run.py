"""End-to-end benchmark: four workloads, per-layer attribution, A/B.

Commands (from the repository root)::

    python benchmarks/e2e/run.py run [--seed 1] [--trace]
    python benchmarks/e2e/run.py check [--seed 1]
    python benchmarks/e2e/run.py ab <git-ref> [--seed 1]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``run`` interleaves the workloads for ``SAMPLES`` samples each, prints
every metric by name with its unit and sample count, and exits non-zero
if any check fails; ``--trace`` adds one cProfile sample per workload
for the layer metrics.  ``check`` runs one untimed sample per workload
with every check.  ``ab`` exports ``<git-ref>``'s ``src`` and runs
``PAIRS`` paired samples of both trees with this harness, alternating
which side runs first.
The last form measures one workload for ``S`` seconds and prints one
JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Every sample is a fresh single-threaded child (``sample.py``) with
``PYTHONPATH`` set to the ``src`` under test, run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import registry
from layers import CALL_COUNTS, LAYERS, shares
from verdict import quartiles, verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: name -> (unit, better, bound).  The host metrics come from untraced
#: samples; their bounds cover the run-to-run medians measured across
#: ten seeds on a 2-core box that drifts (README.md).  The sim metrics
#: depend only on the seed, so their bound is zero: any change to one
#: is a change in behaviour, not in speed.
END_TO_END = {
    "run_s": ("s", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "plt_p50_sim_s": ("sim-s", "lower", 0.0),
    "plt_p99_sim_s": ("sim-s", "lower", 0.0),
    "detect_mean_sim_s": ("sim-s", "lower", 0.0),
    "convergence_max_sim_s": ("sim-s", "lower", 0.0),
    "sync_bytes_per_client": ("B", "lower", 0.0),
    "blocked_urls_found": ("count", "higher", 0.0),
    "fail_ratio": ("ratio", "lower", 0.0),
}
HOST_METRICS = ("run_s", "setup_s", "peak_rss_mb")

#: name -> (unit, better); every one is printed for every workload.
PER_LAYER: Dict[str, tuple] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("ratio", "lower")
PER_LAYER.update({name: ("count", "lower") for name in CALL_COUNTS})
PER_LAYER.update({
    "session.requests": ("count", "higher"),
    "session.probes": ("count", "lower"),
    "session.redundant_ratio": ("ratio", "lower"),
    "voting.reports": ("count", "higher"),
    "globaldb.pulls": ("count", "higher"),
    "globaldb.batches_built": ("count", "lower"),
    "globaldb.batch_reuse": ("ratio", "higher"),
    "globaldb.delta_ratio": ("ratio", "higher"),
    "globaldb.sync_rows": ("count", "lower"),
    "planes.reporters": ("count", "higher"),
    "scenarios.checks": ("count", "higher"),
    "trace_overhead": ("ratio", "lower"),
})

#: A child that runs longer than this is killed and the run fails.
SAMPLE_TIMEOUT_S = 170.0
#: Untraced samples per workload in `run`, and pairs per workload in
#: `ab` (the verdict rule needs at least ten).
SAMPLES = 7
PAIRS = 10


class SampleError(RuntimeError):
    pass


def take_sample(src: str, workload: str, seed: int, trace: bool = False,
                reference: bool = False) -> dict:
    """Run one sample in a fresh child and return its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if reference:
        cmd.append("--reference")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src if not path else src + os.pathsep + path,
        REPRO_RUNNER_WORKERS="1",
    )
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SampleError(f"{workload}: sample exceeded {SAMPLE_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise SampleError(f"{workload}: sample failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def require_src(src: str) -> None:
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no repro package under {src}: run from a full checkout")


def layer_metrics(traced: Sequence[dict], untraced: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced samples, counts from the
    first (they are seed-determined), and traced/untraced run time."""
    out: Dict[str, float] = {}
    per_sample = [shares(s["layer_s"]) for s in traced]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = quartiles([s["layer_s"][layer] for s in traced])[1]
        out[f"{layer}.share"] = quartiles([p[layer] for p in per_sample])[1]
    for name in PER_LAYER:
        if name not in out and name != "trace_overhead":
            out[name] = traced[0]["counts"].get(name, 0)
    out["trace_overhead"] = (
        quartiles([s["run_s"] for s in traced])[1]
        / quartiles([s["run_s"] for s in untraced])[1]
    )
    return out


def agreement(samples: Sequence[dict]) -> List[str]:
    """Failed checks across a workload's samples, fingerprint included."""
    problems = [f for s in samples for f in s["failures"]]
    prints = sorted({s["fingerprint"] for s in samples})
    if len(prints) > 1:
        problems.append(
            f"{samples[0]['workload']}: samples disagree on the simulated "
            f"fingerprint: {', '.join(prints)}"
        )
    return problems


# -- fixed-time form: one workload for --seconds ---------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_src(SRC)
    untraced: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    # At least three untraced samples (one traced/untraced pair when
    # tracing) so every reported value is a median.
    while (time.perf_counter() - start < seconds
           or len(untraced) < (1 if trace else 3)):
        record = take_sample(SRC, workload, seed, reference=not untraced)
        if "na" in record:
            raise SystemExit(f"{workload}: n/a in this tree: {record['na']}")
        untraced.append(record)
        if trace:
            traced.append(take_sample(SRC, workload, seed, trace=True))
    problems = agreement(untraced + traced)
    for problem in problems:
        print(problem, file=sys.stderr)
    if trace:
        metrics = layer_metrics(traced, untraced)
        units = {name: PER_LAYER[name][0] for name in PER_LAYER}
    else:
        metrics = {name: quartiles([s[name] for s in untraced])[1]
                   for name in HOST_METRICS}
        units = {name: END_TO_END[name][0] for name in HOST_METRICS}
    result = {
        "correct": not problems,
        "attempted": len(untraced) + len(traced),
        "failed": sum(1 for s in untraced + traced if s["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- run and check -----------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _median_iqr(q: Sequence[float]) -> str:
    return f"{_fmt(q[1])} [{_fmt(q[0])}, {_fmt(q[2])}]"


def summarize(name: str, untraced: Sequence[dict], traced: Sequence[dict]) -> dict:
    """Every metric of one workload with its unit and sample count; host
    metrics carry quartiles, the seed-determined ones a single value."""
    workload = registry.WORKLOADS[name]
    rows = {}
    for metric in HOST_METRICS:
        q1, med, q3 = quartiles([s[metric] for s in untraced])
        rows[metric] = {"unit": END_TO_END[metric][0], "n": len(untraced),
                        "median": med, "q1": q1, "q3": q3}
    for metric in workload.sim_metrics:
        rows[metric] = {"unit": END_TO_END[metric][0], "n": len(untraced),
                        "value": untraced[0]["sim"][metric]}
    if traced:
        for metric, value in layer_metrics(traced, untraced).items():
            rows[metric] = {"unit": PER_LAYER[metric][0], "n": len(traced),
                            "value": value}
    return rows


def print_table(name: str, rows: dict, fingerprint: str) -> None:
    workload = registry.WORKLOADS[name]
    print(f"\n== {name}: {workload.loop}")
    print(f"   why: {workload.why}")
    print(f"   fingerprint {fingerprint}")
    print(f"   {'metric':<26} {'unit':<6} {'n':>3} {'median/value':>13} "
          f"{'q1':>12} {'q3':>12}")
    for metric, row in rows.items():
        spread = (f" {_fmt(row['q1']):>12} {_fmt(row['q3']):>12}"
                  if "median" in row else "")
        print(f"   {metric:<26} {row['unit']:<6} {row['n']:>3} "
              f"{_fmt(row.get('median', row.get('value'))):>13}{spread}")


def checked_samples(src: str, seed: int) -> Dict[str, dict]:
    """One checked sample of every workload whose inputs exist in
    ``src`` (storms cross-checked against the library), by name."""
    first = {}
    for name in registry.WORKLOADS:
        record = take_sample(src, name, seed, reference=True)
        if "na" in record:
            print(f"{name}: n/a ({record['na']})")
        else:
            first[name] = record
    return first


def run_all(seed: int, trace: bool) -> int:
    require_src(SRC)
    first = checked_samples(SRC, seed)
    names = list(first)
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    # Interleave so box drift hits every workload alike; the checked
    # first sample is a warm-up and is not timed.
    for index in range(SAMPLES):
        for name in names:
            untraced[name].append(take_sample(SRC, name, seed))
        print(f"round {index + 1}/{SAMPLES} done", file=sys.stderr)
    traced = {name: [take_sample(SRC, name, seed, trace=True)] if trace else []
              for name in names}
    report = {"seed": seed, "workloads": {}}
    problems: List[str] = []
    for name in names:
        every = [first[name]] + untraced[name] + traced[name]
        problems += agreement(every)
        rows = summarize(name, untraced[name], traced[name])
        print_table(name, rows, every[0]["fingerprint"])
        report["workloads"][name] = {
            "fingerprint": every[0]["fingerprint"], "metrics": rows,
        }
    print()
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    report["checks_passed"] = not problems
    print(json.dumps(report))
    return 1 if problems else 0


def check_all(seed: int) -> int:
    require_src(SRC)
    first = checked_samples(SRC, seed)
    problems: List[str] = []
    for name, record in first.items():
        problems += agreement([record])
        sim = ", ".join(f"{k}={_fmt(v)}" for k, v in record["sim"].items())
        print(f"{name}: fingerprint {record['fingerprint']}  {sim}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    return 1 if problems or len(first) < len(registry.WORKLOADS) else 0


# -- ab ----------------------------------------------------------------------


def export_src(ref: str, dest: str) -> str:
    """Write ``ref``'s ``src`` tree under ``dest``; returns the commit."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha, "src"],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
    return sha


def ab(ref: str, seed: int) -> int:
    require_src(SRC)
    dest = os.path.join(ROOT, ".bench_build", f"ab-{os.getpid()}")
    try:
        sha = export_src(ref, dest)
        base_src = os.path.join(dest, "src")
        names = list(checked_samples(base_src, seed))
        sides = {"base": base_src, "head": SRC}
        runs = {name: {"base": [], "head": []} for name in names}
        for index in range(PAIRS):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for name in names:
                for side in order:
                    runs[name][side].append(take_sample(sides[side], name, seed))
            print(f"pair {index + 1}/{PAIRS} done", file=sys.stderr)
    finally:
        shutil.rmtree(dest, ignore_errors=True)

    report = {"ref": ref, "commit": sha, "seed": seed, "pairs": PAIRS,
              "workloads": {}}
    print(f"\nA/B: base {ref} ({sha[:12]}) vs head (this tree), "
          f"seed {seed}, {PAIRS} pairs, first side alternating")
    print(f"{'workload':<13} {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'head median [q1, q3]':<30} {'head wins':>9} {'change':>8}  verdict")
    for name in names:
        base, head = runs[name]["base"], runs[name]["head"]
        prints_match = (
            {s["fingerprint"] for s in base} == {s["fingerprint"] for s in head}
            and len({s["fingerprint"] for s in base}) == 1
        )
        entry = {"fingerprints_match": prints_match, "metrics": {}}
        for metric in HOST_METRICS:
            unit, better, bound = END_TO_END[metric]
            b = [s[metric] for s in base]
            h = [s[metric] for s in head]
            bq, hq = quartiles(b), quartiles(h)
            result = verdict(b, h, better, bound)
            entry["metrics"][metric] = dict(
                result, unit=unit, base=b, head=h,
                base_quartiles=bq, head_quartiles=hq,
            )
            print(f"{name:<13} {metric:<12} {_median_iqr(bq):<30} "
                  f"{_median_iqr(hq):<30} "
                  f"{result['head_wins']:>4}/{PAIRS:<4} {result['change']:>+8.1%}  "
                  f"{result['verdict']}")
        print(f"{name:<13} simulated fingerprints "
              f"{'match' if prints_match else 'DIFFER'} "
              f"(base {base[0]['fingerprint']}, head {head[0]['fingerprint']})")
        report["workloads"][name] = entry
    print(json.dumps(report))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("run", "check", "ab"):
        parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
        parser.add_argument("command", choices=("run", "check", "ab"))
        parser.add_argument("ref", nargs="?", help="git ref (ab only)")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--trace", action="store_true")
        args = parser.parse_args(argv)
        if args.command == "run":
            return run_all(args.seed, args.trace)
        if args.command == "check":
            return check_all(args.seed)
        if not args.ref:
            parser.error("ab needs a git ref")
        return ab(args.ref, args.seed)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SampleError as exc:
        sys.exit(str(exc))
