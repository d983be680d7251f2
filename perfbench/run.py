#!/usr/bin/env python3
"""Host-time benchmark of the p2pex simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a p2pex source tree. The first call builds the
library and p2pex_perfbench (perfbench/src) into .bench_build/perfbench.

--trace 0 times whole simulations of the workload for --seconds and prints
the end-to-end metrics; --trace 1 makes one traced run and prints the
per-layer metrics. Either way every simulation's outputs are checked, and
the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every simulation passed its checks.
See perfbench/README.md for the workloads, metrics and checks.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "p2pex_perfbench")
SLICES = 200  # equal simulated-time slices per sliced simulation
SIM_TIMEOUT_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(targets=("p2pex_perfbench",)):
    """Configures and builds the benchmark package (a no-op when fresh)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no p2pex source tree at %s" % ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"]
                   + list(targets), stdout=sys.stderr, check=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def call(args, timeout=SIM_TIMEOUT_S):
    """Runs p2pex_perfbench; returns (parsed last line or None, error)."""
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % timeout
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "unparseable output: %r" % proc.stdout[-200:]


def check(result, error, reference, sliced):
    """The output check of one simulation; returns '' when it passed.

    p2pex_perfbench already checked invariants, the pinned thread
    count and the download-time ordering. Here the digest of the
    deterministic metrics JSON must equal the one recorded with the
    repository's scenario_runner (a single run()). Sliced simulations
    may instead match the recorded sliced digest: Simulator::run_until
    re-arms parked periodic tasks behind same-time events, so on some
    workloads stopping at a slice boundary reorders ties (README).
    """
    if error:
        return error
    if result["error"]:
        return result["error"]
    seed = str(result["sim_seed"])
    accepted = {reference["run"][seed]}
    if sliced:
        accepted.add(reference["sliced"][seed])
    if result["digest"] not in accepted:
        return "digest %s is not the recorded %s" % (
            result["digest"], " or ".join(sorted(accepted)))
    return ""


def quantile(values, q):
    """The q-quantile (0 < q < 1) by the 'exclusive' method."""
    cuts = statistics.quantiles(values, n=100, method="exclusive")
    return cuts[round(q * 100) - 1]


def simulate(workload, seed, seconds, reference):
    """Runs simulations for `seconds` and returns the end-to-end metrics,
    attempted and failed counts.

    The first simulation is a single run() of the recorded seed that
    `seed` selects, checked against the scenario_runner digest and not
    timed. The rest run in slices, rotating through the recorded seeds,
    and are timed; each is checked against its recorded digests."""
    seeds = reference["seeds"]
    k = len(seeds)
    per_seed = {s: {"run_s": [], "p50": [], "p90": [], "setup_s": [],
                    "rss": []} for s in seeds}
    attempted = failed = 0
    start = time.monotonic()
    i = 0
    while i < 1 + k or (time.monotonic() - start) * (i + 1) / i < seconds:
        sliced = i > 0
        sim_seed = seeds[(seed + i - sliced) % k]
        i += 1
        result, error = call(
            ["sim", "--workload", workload, "--sim-seed", str(sim_seed),
             "--slices", str(SLICES if sliced else 0)])
        attempted += 1
        problem = check(result, error, reference, sliced)
        if problem:
            failed += 1
            log("FAILED %s seed %d (%s): %s" % (
                workload, sim_seed, "sliced" if sliced else "run()", problem))
            continue
        log("  sim seed %d %-7s %.4f s%s" % (
            sim_seed, "sliced" if sliced else "run()", result["run_s"],
            "" if sliced else " (output check only, not timed)"))
        if not sliced:
            continue
        acc = per_seed[sim_seed]
        acc["setup_s"] += result["setup_s"]
        acc["rss"].append(result["peak_rss_mb"])
        acc["run_s"].append(result["run_s"])
        acc["p50"].append(statistics.median(result["slice_ms"]))
        acc["p90"].append(quantile(result["slice_ms"], 0.9))

    # Medians over a seed's simulations shed the ones a noisy neighbour
    # slowed down. Each seed then weighs the same however many
    # simulations it got, so the figures do not depend on which seed the
    # rotation started at.
    def per_seed_mean(key, unit):
        lists = [acc[key] for acc in per_seed.values()]
        if not all(lists):
            return None, unit
        return statistics.fmean(statistics.median(v) for v in lists), unit

    metrics = {
        "run_s": per_seed_mean("run_s", "s"),
        "slice_ms_p50": per_seed_mean("p50", "ms"),
        "slice_ms_p90": per_seed_mean("p90", "ms"),
        "setup_s": per_seed_mean("setup_s", "s"),
        "peak_rss_mb": per_seed_mean("rss", "MB"),
    }
    log("%s: %d simulations in %.1f s over sim seeds %s" % (
        workload, attempted, time.monotonic() - start, seeds))
    for s, acc in per_seed.items():
        log("  seed %d: %d timed simulations in %d slices, %d set-ups" % (
            s, len(acc["run_s"]), SLICES, len(acc["setup_s"])))
    return metrics, attempted, failed


def self_times(trace_path):
    """Per span name on the coordinator thread (the one that recorded
    bench.slice) and on the worker threads: [count, self ns, total ns],
    where self time is the span's duration minus the same-thread spans
    nested in it. Also returns the event count and the traced wall: from
    the first bench.slice to the end of the last bench.* span."""
    events = [(e["tid"], round(e["ts"] * 1000), round(e["dur"] * 1000),
               e["name"]) for e in load_json(trace_path)["traceEvents"]]
    coordinator = next(e[0] for e in events if e[3] == "bench.slice")
    # Per thread, outer spans first: by start, longer first on ties.
    events.sort(key=lambda e: (e[0], e[1], -e[2]))
    child = [0] * len(events)
    open_spans = []
    for i, (tid, ts, dur, _) in enumerate(events):
        while open_spans:
            top = events[open_spans[-1]]
            if top[0] == tid and top[1] + top[2] > ts:
                break
            open_spans.pop()
        if open_spans:
            child[open_spans[-1]] += dur
        open_spans.append(i)
    rows = ({}, {})  # coordinator, workers
    for (tid, ts, dur, name), nested in zip(events, child):
        row = rows[tid != coordinator].setdefault(name, [0, 0, 0])
        row[0] += 1
        # Clock ticks can round a child a nanosecond past its parent.
        row[1] += dur - min(dur, nested)
        row[2] += dur
    bench = [e for e in events if e[0] == coordinator
             and e[3].startswith("bench.")]
    wall = (max(e[1] + e[2] for e in bench)
            - min(e[1] for e in bench if e[3] == "bench.slice"))
    return rows[0], rows[1], len(events), wall


def layer_metrics(run, probes, coord, wall_ns):
    """The per-layer metrics of one traced run: {name: (value, unit)}."""
    def ms(ns):
        return ns / 1e6

    def ratio(num, base):
        return num / base if base else 0.0

    def self_ns(name):
        return coord.get(name, [0, 0, 0])[1]

    spanned = sum(row[1] for name, row in coord.items()
                  if name not in ("bench.slice", "bench.finalize"))
    lookups = run["requests_issued"] + run["lookup_failures"]
    rows_patched = run["dirty_rows_patched"]
    m = {
        # core.snapshot
        "snapshot.patches": (run["snapshot_patches"], "count"),
        "snapshot.rows_patched": (rows_patched, "count"),
        "snapshot.rebuilds": (run["snapshot_rebuilds"], "count"),
        "snapshot.self_ms": (ms(sum(self_ns(n) for n in (
            "snapshot.patch", "snapshot.rebuild", "bloom.rebuild",
            "bloom.refresh"))), "ms"),
        "snapshot.us_per_row": (
            ratio(self_ns("snapshot.patch") / 1e3, rows_patched), "us"),
        # core.engine
        "drain.self_ms": (ms(self_ns("drain.merge")), "ms"),
        "engine.ring_attempts": (run["ring_attempts"], "count"),
        "engine.rings_per_attempt": (
            ratio(run["rings_formed"], run["ring_attempts"]), "ratio"),
        # core.finder
        "finder.searches": (run["searches"], "count"),
        "finder.nodes_visited": (run["nodes_visited"], "count"),
        "sweep.search_self_ms": (ms(self_ns("sweep.search")), "ms"),
        "finder.probe_searches": (probes["finder_searches"], "count"),
        "finder.us_per_search": (probes["finder_us_per_search"], "us"),
        # core.parallel
        "parallel.speculated": (run["speculated"], "count"),
        "parallel.consumed_ratio": (
            ratio(run["consumed"], run["speculated"]), "ratio"),
        "parallel.speculate_ms": (
            ms(coord.get("drain.speculate", [0, 0, 0])[2]), "ms"),
        # discovery
        "discovery.lookups": (lookups, "count"),
        "discovery.hit_ratio": (
            ratio(run["requests_issued"], lookups), "ratio"),
        "discovery.hops": (run["dht_hops"], "count"),
        "discovery.wire_bytes": (run["lookup_wire_bytes"], "bytes"),
        "discovery.gossip_rounds": (run["gossip_rounds"], "count"),
        "discovery.misses": (run["lookup_misses"], "count"),
        "discovery.stale_served": (run["stale_entries_served"], "count"),
        "discovery.probe_queries": (probes["queries"], "count"),
        "discovery.query_us": (probes["query_us"], "us"),
        "discovery.probe_ticks": (probes["ticks"], "count"),
        "discovery.tick_us": (probes["tick_us"], "us"),
        # Unit costs times the run's own work counts: the host time the
        # run spent in discovery, none of which lies under a library span.
        "discovery.est_ms": ((probes["query_us"] * lookups
                              + probes["tick_us"] * run["gossip_rounds"])
                             / 1e3, "ms"),
        # scenario
        "scenario.actions": (run["actions_applied"], "count"),
        "scenario.self_ms": (ms(sum(row[1] for name, row in coord.items()
                                    if name.startswith("scenario."))), "ms"),
        # fault
        "fault.sessions_failed": (run["sessions_failed"], "count"),
        "fault.retries": (run["transfer_retries"], "count"),
        "fault.retry_exhausted": (run["retry_exhausted"], "count"),
        "fault.stale_proposals": (run["stale_proposals"], "count"),
        # memory / trace
        "mem.graph_bytes": (run["graph_bytes"], "bytes"),
        "mem.download_bytes": (run["download_bytes"], "bytes"),
        "mem.total_bytes": (run["total_bytes"], "bytes"),
        "trace.wall_ms": (ms(wall_ns), "ms"),
        "unattributed_ms": (ms(wall_ns - spanned), "ms"),
        "trace.overhead_s": (
            run["traced_run_s"] - run["untraced_run_s"], "s"),
    }
    return m


def traced(workload, seed, reference):
    """One traced run (plus its untraced twin and the layer probes)."""
    sim_seed = reference["seeds"][seed % len(reference["seeds"])]
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
    result, error = call(
        ["trace", "--workload", workload, "--sim-seed", str(sim_seed),
         "--slices", str(SLICES), "--probe-seed", str(seed),
         "--trace-out", trace_path])
    problem = check(result, error, reference, sliced=True)
    if problem:
        log("FAILED %s seed %d (traced): %s" % (workload, sim_seed, problem))
        return {}, 1, 1
    coord, workers, events, wall_ns = self_times(trace_path)
    m = layer_metrics(result["run"], result["probes"], coord, wall_ns)
    m["trace.events"] = (events, "count")
    print("%s traced run, sim seed %d; Chrome trace: %s" % (
        workload, sim_seed, os.path.relpath(trace_path, ROOT)))
    print("  %-24s %8s %12s %12s" % ("span (coordinator)", "count",
                                      "self ms", "total ms"))
    rows_ms = 0.0
    for name, (count, self_ns, total_ns) in sorted(coord.items()):
        print("  %-24s %8d %12.3f %12.3f" % (name, count, self_ns / 1e6,
                                             total_ns / 1e6))
        if name not in ("bench.slice", "bench.finalize"):
            rows_ms += self_ns / 1e6
    for name, (count, self_ns, total_ns) in sorted(workers.items()):
        print("  %-24s %8d %12.3f %12.3f  (worker threads)" % (
            name, count, self_ns / 1e6, total_ns / 1e6))
    print("  rows %.3f ms + unattributed %.3f ms = traced wall %.3f ms" % (
        rows_ms, m["unattributed_ms"][0], m["trace.wall_ms"][0]))
    print("  (bench.slice/bench.finalize self time is engine work outside "
          "every library span; it is part of unattributed_ms)")
    for name, (value, unit) in m.items():
        print("  %-28s %20.6f %s" % (name, value, unit))
    return m, 1, 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    recorded = load_json(os.path.join(HERE, "reference.json"))
    if recorded["slices"] != SLICES:
        sys.exit("perfbench: reference.json was recorded with %d slices; "
                 "re-record it" % recorded["slices"])
    references = recorded["workloads"]
    if args.workload not in references:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    build()

    reference = references[args.workload]
    if args.trace:
        got, attempted, failed = traced(args.workload, args.seed, reference)
        wanted = spec["per_layer"]
    else:
        got, attempted, failed = simulate(args.workload, args.seed,
                                          args.seconds, reference)
        wanted = spec["end_to_end"]
        print("runs_failed %d/%d = %.3f" % (failed, attempted,
                                           failed / attempted))

    metrics = {}
    for m in wanted:
        value, unit = got.get(m["name"], (None, None))
        if value is None or unit != m["unit"]:
            failed = max(failed, 1)
            log("missing metric %s" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": unit}
        if not args.trace:
            print("%-14s %14.6f %s" % (m["name"], value, unit))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
