#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the benchmark, then runs both workloads at --scale tiny for a
one-second budget, untraced and traced, on two seeds. Every run must
pass all its output checks and print exactly the metrics BENCHMARK.json
names for its mode, each with the unit given there. A last run with a
deliberately wrong expected cost must be reported as failed, which shows
that the checks can fail. Exits 0 when everything holds.
"""

import json
import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling build-and-run script)

SEEDS = (1, 2)


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def tiny_run(binary, workload, seed, trace, *extra):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=1,
                           trace=trace)
    code, out = run.run_binary(binary, args, ["--scale", "tiny", *extra])
    return code, result_of(out)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    binary = run.build()
    problems = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            for seed in SEEDS:
                tag = f"{workload} trace={trace} seed={seed}"
                code, res = tiny_run(binary, workload, seed, trace)
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(res)}")
                    continue
                if code != 0 or not res["correct"] or res["failed"] != 0:
                    problems.append(f"{tag}: exit {code}, failed "
                                    f"{res['failed']} of {res['attempted']}")
                if res["attempted"] < 1:
                    problems.append(f"{tag}: nothing attempted")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(got))
                    extra = sorted(set(got) - set(wanted[trace]))
                    units = sorted(k for k in got.keys() & wanted[trace].keys()
                                   if got[k] != wanted[trace][k])
                    problems.append(f"{tag}: missing {missing}, unexpected "
                                    f"{extra}, wrong units {units}")
                for name, m in res["metrics"].items():
                    if not isinstance(m["value"], (int, float)):
                        problems.append(f"{tag}: {name} is not a number")
                print(f"selftest: {tag}: {res['attempted']} attempted, "
                      f"{res['failed']} failed", flush=True)

    code, res = tiny_run(binary, run.WORKLOADS[0], SEEDS[0], 0,
                         "--inject-wrong-cost")
    if code == 0 or res["correct"] or res["failed"] < 1:
        problems.append("a wrong expected cost was not reported as a failure")
    else:
        print(f"selftest: wrong expected cost reported: {res['failed']} "
              f"failed of {res['attempted']}", flush=True)

    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
