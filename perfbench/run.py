"""The repository benchmark: steady, hostile and observed campaigns.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady [--seed N] [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one table

Workload names and metric units come from ``BENCHMARK.json``; campaign
settings, seeds and the per-layer predictions from ``workloads.json``.
A run derives ``seeds_per_run`` campaign seeds from ``--seed`` and runs
each campaign in a fresh single-threaded interpreter (``campaign.py``).

With ``--trace 0`` it runs rounds of one campaign per campaign seed for
about ``--seconds`` (at least two rounds).  The timed metrics are
medians over all campaigns; the exact metrics are means over the
campaign seeds.  Campaigns of one campaign seed must agree on the
observation digest and the exact metrics (the same-seed self-check).
With ``--trace 1`` each round runs an untraced and a traced campaign per
campaign seed and reports the per-layer figures of the traced ones,
whose observation digests must equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts campaign processes and ``failed`` those that crashed or failed
an output check.  Exits 1 when anything failed and 2 without a result
when the repository's sources or ``BENCHMARK.json`` are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: one campaign process may take at most this long
CAMPAIGN_TIMEOUT_S = 150
#: the end-to-end metrics that are host timings (medians over campaigns)
TIMED = ("us_per_query", "setup_s", "peak_rss_mib")
#: the end-to-end metrics that must be identical for identical seeds
EXACT = ("answered_share", "auth_load_per_query", "sim_rtt_mean_ms")


def run_campaign(workload: str, seed: int, trace: bool) -> dict:
    """One campaign in a fresh interpreter; its report, or the failure."""
    command = [sys.executable, str(BENCH / "campaign.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CAMPAIGN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CAMPAIGN_TIMEOUT_S}s",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "wall_s": wall,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report["wall_s"] = wall
    report["ok"] = proc.returncode == 0 and all(report["checks"].values())
    if not report["ok"]:
        failed = [name for name, ok in report["checks"].items() if not ok]
        report["error"] = f"exit {proc.returncode}; failed checks: {failed}"
    return report


def sub_seeds(seed: int, count: int) -> list[int]:
    """The campaign seeds of one run: ``count`` seeds derived from ``seed``.

    Distinct run seeds never share a campaign seed, so runs on different
    seeds stay independent.
    """
    return [seed * count + index for index in range(count)]


def rounds(budget_s: float, minimum: int, one_round) -> list[dict]:
    """Call ``one_round()`` (a list of campaign reports) until the budget is spent.

    Runs at least ``minimum`` rounds, then stops before a round that
    would likely overrun the budget, or at the first failure.
    """
    reports: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        done = one_round()
        reports.extend(done)
        durations.append(time.perf_counter() - begin)
        if not all(report["ok"] for report in done):
            return reports
        elapsed = time.perf_counter() - start
        if (len(durations) >= minimum
                and elapsed + statistics.median(durations) > budget_s):
            return reports


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def same_seed_check(reports: list[dict]) -> list[str]:
    """Problems found comparing campaigns of one seed (empty when none)."""
    first: dict[int, dict] = {}
    problems = []
    for report in reports:
        other = first.setdefault(report["seed"], report)
        if report["digest"] != other["digest"]:
            problems.append("observation digests differ for one seed")
        for name in EXACT:
            if report["metrics"][name] != other["metrics"][name]:
                problems.append(f"{name} differs for one seed")
        if report["sim_rtt_p50_ms"] != other["sim_rtt_p50_ms"]:
            problems.append("sim_rtt_p50_ms differs for one seed")
    return sorted(set(problems))


def print_campaigns(reports: list[dict]) -> None:
    print(f"{'#':>3} {'seed':>10} {'trace':>5} {'us/query':>9} {'raw':>9} "
          f"{'setup_s':>8} {'rss_MiB':>8} {'cpu/wall':>8} {'chunk_us':>8} "
          f"{'wall_s':>7}  digest")
    for number, report in enumerate(reports, 1):
        diag = report["diagnostics"]
        print(f"{number:>3} {report['seed']:>10} {int(report['trace']):>5} "
              f"{report['metrics']['us_per_query']:>9.2f} "
              f"{diag['raw_us_per_query']:>9.2f} "
              f"{report['metrics']['setup_s']:>8.3f} "
              f"{report['metrics']['peak_rss_mib']:>8.1f} "
              f"{diag['measure_cpu_s'] / diag['measure_wall_s']:>8.3f} "
              f"{diag.get('measure_chunk_us', float('nan')):>8.1f} "
              f"{report['wall_s']:>7.2f}  {report['digest'][:16]}")


def end_to_end(spec: dict, catalogue: dict, workload: str, seed: int,
               seconds: float) -> dict:
    seeds = sub_seeds(seed, spec["seeds_per_run"])
    reports = rounds(seconds, 2, lambda: [
        run_campaign(workload, campaign_seed, False) for campaign_seed in seeds])
    good = [report for report in reports if report["ok"]]
    problems = [report["error"] for report in reports if not report["ok"]]
    metrics = {}
    if {report["seed"] for report in good} == set(seeds):
        print_campaigns(good)
        problems += same_seed_check(good)
        for name in TIMED:
            q1, median, q3 = quartiles([r["metrics"][name] for r in good])
            metrics[name] = median
            print(f"    {name}: median {median:.4f}, quartiles {q1:.4f}..{q3:.4f}"
                  f" over {len(good)} campaigns")
        # One campaign per seed: the exact metrics are means over the seeds.
        per_seed = {report["seed"]: report for report in good}
        for name in EXACT:
            metrics[name] = statistics.fmean(
                per_seed[s]["metrics"][name] for s in seeds)
        for s in seeds:
            report = per_seed[s]
            print(f"    seed {s}: rows {report['rows']} = {report['vantage_points']}"
                  f" VPs x {report['ticks']} ticks; sim_rtt_p50_ms "
                  f"{report['sim_rtt_p50_ms']:.4f}; digest {report['digest']}")
    elif not problems:
        problems.append("no campaign of some seed succeeded")
    return finish(catalogue["end_to_end"], workload, reports, problems, metrics)


def per_layer(spec: dict, catalogue: dict, workload: str, seed: int,
              seconds: float) -> dict:
    seeds = sub_seeds(seed, spec["seeds_per_run"])
    reports = rounds(seconds, 1, lambda: [
        run_campaign(workload, campaign_seed, traced)
        for campaign_seed in seeds for traced in (False, True)])
    problems = [report["error"] for report in reports if not report["ok"]]
    bare = [r for r in reports if r["ok"] and not r["trace"]]
    traced = [r for r in reports if r["ok"] and r["trace"]]
    metrics = {}
    if bare and traced:
        print_campaigns(bare + traced)
        problems += same_seed_check(bare + traced)
        for name in catalogue["per_layer"]:
            if name == "trace.overhead_ratio":
                metrics[name] = statistics.median(
                    r["diagnostics"]["raw_us_per_query"] for r in traced
                ) / statistics.median(
                    r["diagnostics"]["raw_us_per_query"] for r in bare)
            else:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        print(f"    spans of the last traced campaign: {traced[-1]['spans']} "
              f"in {traced[-1]['spans_file']}")
    return finish(catalogue["per_layer"], workload, reports, problems, metrics)


def finish(catalogue: dict, workload: str, reports, problems, metrics) -> dict:
    for problem in problems:
        print(f"    FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {workload:<9} {name:<40} {value:>14.6f} {catalogue[name]}")
    return {
        "correct": not problems and len(metrics) == len(catalogue),
        "attempted": len(reports),
        "failed": sum(1 for report in reports if not report["ok"]),
        "metrics": {
            name: {"value": value, "unit": catalogue[name]}
            for name, value in metrics.items()
        },
    }


def load_catalogue() -> dict:
    """Workload names and metric units, from ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [workload["name"] for workload in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="steady, hostile, observed, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.json default_seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
            ROOT / "BENCHMARK.json").is_file():
        print(f"no sources or BENCHMARK.json in {ROOT}: run from a repository"
              " checkout", file=sys.stderr)
        return 2
    spec = json.loads((BENCH / "workloads.json").read_text())
    catalogue = load_catalogue()
    for key in ("workloads", "end_to_end", "per_layer"):
        if set(catalogue[key]) != set(spec[key]):
            print(f"BENCHMARK.json and workloads.json list different {key}",
                  file=sys.stderr)
            return 2
    names = catalogue["workloads"] if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in catalogue["workloads"]]
    if unknown:
        print(f"unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    measure = per_layer if args.trace else end_to_end
    results = {}
    for name in names:
        print(f"== {name} (seed {seed}, trace {args.trace})", flush=True)
        results[name] = measure(spec, catalogue, name, seed, args.seconds)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
