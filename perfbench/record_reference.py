#!/usr/bin/env python3
"""Records perfbench/reference.json, the outputs the benchmark checks.

    python3 perfbench/record_reference.py

For every workload and recorded simulation seed it writes the workload's
.scn text (as the benchmark generates it), runs the repository's own
scenario_runner on it with --stable --metrics-json, and stores the FNV-1a
64 digest of that deterministic metrics JSON. It also stores the digest of
the same simulation run in the benchmark's equal simulated-time slices
(see README: slicing reorders same-time events on some workloads).

Re-record only when a change is meant to alter simulated outcomes, and
say so in the change.
"""
import json
import os
import subprocess
import sys

import run

SEEDS = {
    "paper_oracle": [1, 2],
    "dht_lookup": [1, 2],
    "churn_n1000": [11, 12],
    "pex_faults": [1, 2],
}


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def main():
    run.build(("p2pex_perfbench", "scenario_runner"))
    runner = os.path.join(run.BUILD, "scenario_runner")
    work = os.path.join(run.ROOT, ".bench_build", "reference")
    os.makedirs(work, exist_ok=True)
    workloads = {}
    for workload, seeds in SEEDS.items():
        entry = {"seeds": seeds, "run": {}, "sliced": {}}
        for seed in seeds:
            scn = os.path.join(work, "%s-%d.scn" % (workload, seed))
            metrics = os.path.join(work, "%s-%d.json" % (workload, seed))
            text = subprocess.run(
                [run.BINARY, "scn", "--workload", workload,
                 "--sim-seed", str(seed)],
                capture_output=True, text=True, check=True).stdout
            with open(scn, "w") as f:
                f.write(text)
            subprocess.run([runner, "--stable", "--metrics-json", metrics,
                            scn], stdout=subprocess.DEVNULL, check=True)
            with open(metrics, "rb") as f:
                entry["run"][str(seed)] = fnv1a64(f.read())
            sliced, error = run.call(
                ["sim", "--workload", workload, "--sim-seed", str(seed),
                 "--slices", str(run.SLICES)])
            if error or sliced["error"]:
                sys.exit("%s seed %d: %s" % (
                    workload, seed, error or sliced["error"]))
            entry["sliced"][str(seed)] = sliced["digest"]
            print("%-13s seed %-3d run() %s  sliced %s" % (
                workload, seed, entry["run"][str(seed)], sliced["digest"]))
        workloads[workload] = entry
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump({"digest": "FNV-1a 64 of MetricsRegistry::to_json(false)",
                   "slices": run.SLICES, "workloads": workloads}, f,
                  indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
