#!/usr/bin/env python3
"""Records perfbench/data/golden.json: the exact simulated outputs
(exec_time, imbalance as hex floats, events) of every run of the corpus
workloads at the golden seed, and of the Table IV/V/VI cases.

    python3 perfbench/record_golden.py

Run it only when a change alters simulated results on purpose, and say
so in the change. The paper entries must equal what bench_table4_metbench,
bench_table5_btmz and bench_table6_siesta print.
"""

import argparse
import json
import os
import shutil
import tempfile

import run


def main():
    run.build()
    args = argparse.Namespace(seed=run.GOLDEN_SEED, trace=0)
    os.makedirs(run.RUN_DIR, exist_ok=True)
    golden = {"seed": run.GOLDEN_SEED, "paper": {}, "workloads": {}}
    for workload in ("sweep-cold", "horizon-warm"):
        workdir = tempfile.mkdtemp(prefix="golden-", dir=run.RUN_DIR)
        try:
            out = run.run_driver(workload, args, workdir, 1.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if out["failures"] or out["mismatches"]:
            raise SystemExit("%s: %s" % (workload, out["failures"] + out["mismatches"]))
        runs = golden["workloads"].setdefault(workload, {})
        for digest in out["digests"]:
            target = golden["paper"] if digest[0].startswith("paper/") else runs
            target[digest[0]] = [digest[2], digest[3], digest[4]]
    path = os.path.join(run.BENCH_DIR, "data", "golden.json")
    with open(path, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
