#!/usr/bin/env python3
"""Check that the serving benchmark's modeled metrics repeat exactly.

Usage (from the repository root):
    python3 perfbench/check_determinism.py [--seed N]

Runs perfbench/run.py twice per workload and mode with one seed and
compares the metrics listed in DETERMINISTIC bit for bit. They come
from the deterministic modeled pass, so host timing must not move them.
dense-accel is reported but not enforced: the accelerator model prices
host heap addresses, so its modeled numbers drift slightly between runs.
Exits non-zero on any mismatch or failed run.
"""
import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

MODELED_E2E = ["modeled_qps", "modeled_p50_us", "modeled_p99_us"]
MODELED_LAYER = ["cpu.codec_cycles_per_call", "rpc.dedup_hits",
                 "rpc.dedup_insertions", "rpc.dedup_evictions",
                 "rpc.crc_rejects", "rpc.resends"]
ACCEL_LAYER = ["accel.deser_cycles_per_call", "accel.ser_cycles_per_call",
               "accel.fields_per_call", "accel.stall_cycles_per_call",
               "accel.queue_wait_cycles_per_call",
               "accel.queue_service_cycles_per_call",
               "sim.port_accesses_per_call",
               "sim.port_latency_cycles_per_call"]

# Metrics that must be bit-identical across runs with one seed, by
# workload and --trace mode.
DETERMINISTIC = {
    "dense-sw": {0: MODELED_E2E, 1: MODELED_LAYER},
    "small-retry": {0: MODELED_E2E, 1: MODELED_LAYER},
}
# Reported with their run-to-run spread only.
EXEMPT = {
    "dense-accel": {0: MODELED_E2E, 1: MODELED_LAYER + ACCEL_LAYER},
}


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} trace={trace}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    plan = [(w, m, names, enforced)
            for table, enforced in ((DETERMINISTIC, True), (EXEMPT, False))
            for w, modes in table.items() for m, names in modes.items()]
    mismatches = 0
    for workload, trace, names, enforced in plan:
        a = run(workload, args.seed, trace)
        b = run(workload, args.seed, trace)
        for name in names:
            same = a[name] == b[name]
            spread = abs(a[name] - b[name]) / abs(a[name]) if a[name] else 0
            verdict = "identical" if same else (
                f"DIFFERS by {spread:.3%}" if enforced
                else f"differs by {spread:.3%} (exempt)")
            print(f"{workload:12s} {name:38s} {a[name]!r:>24} {verdict}")
            mismatches += enforced and not same
    print(f"{mismatches} enforced mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
