"""One benchmark campaign, run in a fresh interpreter by ``run.py``.

Usage (from the repository root)::

    python3 perfbench/campaign.py --workload steady --seed 20170412 [--trace]

Builds the workload's ``TestbedExperiment`` from ``workloads.json``,
runs it single-threaded, checks the outputs, and prints one JSON object
as the last line of standard output.  Exits 1 when an output check
fails and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: scratch space for event logs, exports and span dumps (git-ignored)
OUT = ROOT / ".perfbench-out"


#: a calibration chunk runs every this many seconds of host time
CALIBRATION_PERIOD_S = 0.005
#: what one calibration chunk takes on the reference host, in µs; the
#: timed metrics are scaled to a host of this speed
REFERENCE_CHUNK_US = 150.0


def calibration_chunk() -> None:
    """A fixed pure-Python workload that runs no repository code."""
    table: dict[int, int] = {}
    for i in range(1000):
        table[i & 255] = table.get(i & 255, 0) + i


class HostSpeed:
    """Tracks host speed by interleaving a calibration chunk with the run.

    On a shared 2-vCPU host, single-thread speed flips between a fast
    and a slow state every few seconds, by up to 60%.  A campaign takes
    one to two seconds, so figures from before or after it miss the
    state it ran in.  Instead a timer signal runs ``calibration_chunk``
    every ``CALIBRATION_PERIOD_S`` while the campaign runs.  ``scaled``
    returns the time of a stretch with the chunks taken out, scaled by
    ``REFERENCE_CHUNK_US`` over the mean chunk time in that stretch.
    """

    def __init__(self):
        self.chunks: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_chunk()
        self.chunks.append((start, time.perf_counter()))
        if collecting:
            gc.enable()

    def scaled(self, begin: float, end: float) -> tuple[float, float, float]:
        """(scaled seconds, unscaled seconds, mean chunk µs) of a stretch."""
        inside = [b - a for a, b in self.chunks if begin <= a and b <= end]
        if not inside:
            raise RuntimeError("no calibration chunk ran in a timed stretch")
        work = end - begin - sum(inside)
        chunk_us = sum(inside) / len(inside) * 1e6
        return work * REFERENCE_CHUNK_US / chunk_us, work, chunk_us


class MeasureProbe:
    """Wraps ``AtlasPlatform.measure`` once: collect garbage, then time it.

    The only change to a run is a ``gc.collect()`` just before the
    measure phase; the collector stays on during it.
    """

    def __init__(self, platform_cls, recorder=None):
        self.platform = None
        self.setup_end = self.start = self.end = 0.0
        self.cpu_start = self.cpu_end = 0.0
        self.before = self.after = None
        inner = platform_cls.measure
        probe = self

        def measure(platform, *args, **kwargs):
            probe.setup_end = time.perf_counter()
            probe.platform = platform
            gc.collect()
            if recorder is not None:
                probe.before = recorder.snapshot()
            probe.cpu_start = time.process_time()
            probe.start = time.perf_counter()
            try:
                return inner(platform, *args, **kwargs)
            finally:
                probe.end = time.perf_counter()
                probe.cpu_end = time.process_time()
                if recorder is not None:
                    probe.after = recorder.snapshot()

        platform_cls.measure = measure


def load_spec() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def build_config(ExperimentConfig, spec: dict, workload: dict, seed: int):
    campaign = spec["campaign"]
    overrides = {
        "num_probes": campaign["num_probes"],
        "interval_s": campaign["interval_s"],
        "duration_s": workload["duration_s"],
        "seed": seed,
        "scenario": workload["scenario"],
        "attack": workload["attack"],
    }
    # The sync engine is slated for removal; once ``kernel`` is gone the
    # event kernel is the only engine and the workload keeps its meaning.
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    if workload["kernel"] and "kernel" in fields:
        overrides["kernel"] = True
    return ExperimentConfig.for_combination(campaign["combo"], **overrides)


def observation_digest(run, workdir: Path) -> str:
    """sha256 of the canonical observation export (``save_run`` JSONL)."""
    from repro.core.results import save_run

    run.store.sort_canonical()
    path = workdir / "observations.jsonl"
    save_run(run, path)
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    path.unlink()
    return digest.hexdigest()


def costs_query_count(event_log: Path) -> int | None:
    """The ``query`` total of the event log's ``costs`` record."""
    from repro.telemetry.events import CostsEvent, read_events

    count = None
    for event in read_events(event_log):
        if isinstance(event, CostsEvent):
            count = event.costs["totals"].get("query", 0)
    return count


def run_campaign(workload_name: str, seed: int, trace: bool) -> dict:
    spec = load_spec()
    workload = spec["workloads"][workload_name]
    # Traced campaigns run no calibration chunks: the span wrappers
    # would count them into whatever call the timer interrupted.
    speed = None if trace else HostSpeed()
    cpu_begin = time.process_time()
    begin = time.perf_counter()
    if speed is not None:
        speed.start()
    sys.path.insert(0, str(SRC))
    import repro
    from repro.atlas.platform import AtlasPlatform
    from repro.core.experiment import ExperimentConfig, TestbedExperiment
    from repro.telemetry import Telemetry

    imported = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    recorder = None
    if trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    probe = MeasureProbe(AtlasPlatform, recorder)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        event_log = workdir / "events.jsonl"
        telemetry = None
        if workload["observers"]:
            telemetry = Telemetry.enabled_bundle(costs=True, event_log=event_log)
        config = build_config(ExperimentConfig, spec, workload, seed)
        experiment = TestbedExperiment(config, telemetry=telemetry)
        result = experiment.run()
        finished = time.perf_counter()
        if speed is not None:
            speed.stop()
        finished_cpu = time.process_time()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if telemetry is not None:
            telemetry.events.close()

        out = measure_outputs(config, experiment, result, probe)
        checks = out.pop("checks")
        event_bytes = event_log.stat().st_size if event_log.exists() else 0
        if workload["observers"]:
            checks["event log costs record counts one query per row"] = (
                costs_query_count(event_log) == out["rows"]
            )
        out["digest"] = observation_digest(result.run, workdir)

    queries = out["rows"]
    measure_s = probe.end - probe.start
    calibration = {}
    if speed is None:
        measure_scaled = measure_work = measure_s
        setup_scaled = setup_work = probe.setup_end - begin
    else:
        measure_scaled, measure_work, calibration["measure_chunk_us"] = (
            speed.scaled(probe.start, probe.end))
        setup_scaled, setup_work, calibration["setup_chunk_us"] = (
            speed.scaled(begin, probe.setup_end))
        calibration["chunks"] = len(speed.chunks)
    metrics = {
        "us_per_query": measure_scaled / queries * 1e6,
        "setup_s": setup_scaled,
        "peak_rss_mib": peak_rss_mib,
        **out.pop("exact"),
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "checks": checks,
        "diagnostics": {
            "measure_wall_s": measure_s,
            "measure_cpu_s": probe.cpu_end - probe.cpu_start,
            "run_wall_s": finished - begin,
            "run_cpu_s": finished_cpu - cpu_begin,
            "raw_us_per_query": measure_work / queries * 1e6,
            "raw_setup_s": setup_work,
            **calibration,
            "import_s": imported - begin,
        },
        **out,
    }
    if recorder is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(
            probe.before, probe.after,
            import_s=imported - begin,
            queries=queries,
            sent=out["queries_sent"],
            nxdomain=sum(server.stats.nxdomain for server in recorder.servers),
            server_queries=sum(server.stats.queries for server in recorder.servers),
            event_bytes=event_bytes,
        )
        spans_path = OUT / f"spans-{workload_name}.jsonl"
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["spans"] = recorder.write(spans_path)
    return report


def measure_outputs(config, experiment, result, probe) -> dict:
    """The exact end-to-end metrics plus the output checks of one run."""
    platform = probe.platform
    store = result.run.store
    rows = len(store)
    ticks = int(config.duration_s // config.interval_s)
    campaign_suffix = f".probe.{config.domain.rstrip('.')}"
    deployed_sites = {
        code
        for deployed in experiment.deployment.deployed
        for code in deployed.engines
    }
    answered = 0
    rtts = []
    stray_sites = 0
    attack_rows = 0
    for row in store.iter_dicts():
        if not row["qname"].endswith(campaign_suffix):
            attack_rows += 1
        if row["ok"]:
            answered += 1
            rtts.append(row["rtt_ms"])
            if row["site"] not in deployed_sites:
                stray_sites += 1
    resolvers = {id(vp.resolver): vp.resolver for vp in platform.vantage_points}
    ns_fetches = sum(r.ns_fetches for r in resolvers.values())
    auth_load = sum(result.server_query_counts.values()) / rows if rows else 0.0
    answered_share = answered / rows if rows else 0.0
    checks = {
        "rows equal VPs x ticks": rows == len(platform.vantage_points) * ticks,
        "every answered row names a deployed site": stray_sites == 0,
        "auth_load_per_query >= answered_share": auth_load >= answered_share,
    }
    plan = experiment.attack_plan
    if plan is not None and plan.profile.vector == "nxns":
        # Unmitigated, one attack query triggers at most fan-out fetches.
        checks["0 < ns_fetches <= fan-out x attack queries"] = (
            0 < ns_fetches <= plan.profile.fan_out * attack_rows
        )
    return {
        "exact": {
            "answered_share": answered_share,
            "auth_load_per_query": auth_load,
            "sim_rtt_mean_ms": statistics.fmean(rtts) if rtts else 0.0,
        },
        "sim_rtt_p50_ms": statistics.median(rtts) if rtts else 0.0,
        "checks": checks,
        "rows": rows,
        "vantage_points": len(platform.vantage_points),
        "ticks": ticks,
        "attack_rows": attack_rows,
        "ns_fetches": ns_fetches,
        "queries_sent": sum(r.queries_sent for r in resolvers.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no sources at {SRC}: run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload not in load_spec()["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = run_campaign(args.workload, args.seed, args.trace)
    print(json.dumps(report))
    return 0 if all(report["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
