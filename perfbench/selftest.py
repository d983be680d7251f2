#!/usr/bin/env python3
"""Self-tests of the benchmark's own assumptions.

    python3 perfbench/selftest.py

Each check prints PASS or FAIL with its evidence; the exit code is 1 if
any check failed. The checks:

  oracle_vs_dht       dht_lookup and paper_oracle at one seed agree on every
                      non-discovery counter and gauge, so a host-time gap
                      between them is discovery cost alone.
  churn_threads       churn_n1000 gives the same digest at threads 1 and 2.
  traced_vs_untraced  the traced run's digest equals an untraced run's.
  sliced_vs_run       Driver::run_to in equal slices gives the digest of a
                      single run(). Fails today on paper_oracle, dht_lookup
                      and churn_n1000: Simulator::run_until re-arms parked
                      periodic tasks behind events scheduled at the same
                      time, so a slice boundary reorders ties (README).
  probes_leave_twin   the layer probes run on the untraced twin, never on
                      the measured System, and leave the twin's outputs
                      (its digest after bringing its snapshot up to date)
                      unchanged.
"""
import os
import sys

import run

DISCOVERY_COUNTERS = {"core.lookup_wire_bytes", "core.dht_hops",
                      "core.gossip_rounds", "core.lookup_misses",
                      "core.stale_entries_served"}

failures = []


def report(name, ok, detail):
    print("%s %-18s %s" % ("PASS" if ok else "FAIL", name, detail),
          flush=True)
    if not ok:
        failures.append(name)


def sim(workload, seed, slices, *extra):
    result, error = run.call(["sim", "--workload", workload, "--sim-seed",
                              str(seed), "--slices", str(slices)]
                             + list(extra))
    if error or result["error"]:
        raise RuntimeError("%s seed %d: %s" % (
            workload, seed, error or result["error"]))
    return result


def oracle_vs_dht(seed, work):
    dumps = {}
    for workload in ("paper_oracle", "dht_lookup"):
        path = os.path.join(work, "%s-%d.json" % (workload, seed))
        sim(workload, seed, 0, "--dump-metrics", path)
        dumps[workload] = run.load_json(path)["deterministic"]
    differing = []
    for kind in ("counters", "gauges"):
        a, b = dumps["paper_oracle"][kind], dumps["dht_lookup"][kind]
        for key in sorted(set(a) | set(b)):
            if key not in DISCOVERY_COUNTERS and a.get(key) != b.get(key):
                differing.append(key)
    report("oracle_vs_dht", not differing,
           "seed %d: %s" % (seed, "differ on " + ", ".join(differing)
                            if differing else "all non-discovery counters "
                            "and gauges equal"))


def churn_threads(seed):
    for slices in (0, run.SLICES):
        one = sim("churn_n1000", seed, slices, "--threads", "1")["digest"]
        two = sim("churn_n1000", seed, slices)["digest"]
        report("churn_threads", one == two,
               "seed %d, %d slices: threads 1 %s, threads 2 %s" % (
                   seed, slices, one, two))


def traced_checks(workload, seed, work):
    untraced = sim(workload, seed, run.SLICES)["digest"]
    result, error = run.call(
        ["trace", "--workload", workload, "--sim-seed", str(seed),
         "--slices", str(run.SLICES),
         "--trace-out", os.path.join(work, "%s.trace.json" % workload)])
    if error:
        report("traced_vs_untraced", False, "%s: %s" % (workload, error))
        return
    problem = result["error"]
    report("traced_vs_untraced",
           result["digest"] == untraced and "traced digest" not in problem,
           "%s seed %d: traced %s, untraced %s" % (
               workload, seed, result["digest"], untraced))
    before, after = result["probe_digests"]
    report("probes_leave_twin", before == after and "probes" not in problem,
           "%s seed %d: probed System before probes %s, after %s" % (
               workload, seed, before, after))


def sliced_vs_run(workload, seed):
    whole = sim(workload, seed, 0)["digest"]
    sliced = sim(workload, seed, run.SLICES)["digest"]
    report("sliced_vs_run", whole == sliced,
           "%s seed %d: run() %s, %d slices %s" % (
               workload, seed, whole, run.SLICES, sliced))


def main():
    run.build()
    references = run.load_json(
        os.path.join(run.HERE, "reference.json"))["workloads"]
    work = os.path.join(run.ROOT, ".bench_build", "selftest")
    os.makedirs(work, exist_ok=True)
    oracle_vs_dht(references["paper_oracle"]["seeds"][0], work)
    churn_threads(references["churn_n1000"]["seeds"][0])
    for workload, ref in references.items():
        traced_checks(workload, ref["seeds"][0], work)
    for workload, ref in references.items():
        for seed in ref["seeds"]:
            sliced_vs_run(workload, seed)
    if not failures:
        print("all checks passed")
        return 0
    print("%d check(s) failed: %s" % (len(failures),
                                      ", ".join(sorted(set(failures)))))
    return 1


if __name__ == "__main__":
    sys.exit(main())
