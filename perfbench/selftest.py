#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

Checks, on every workload in BENCHMARK.json:
  1. an untraced and a traced run print exactly the metrics BENCHMARK.json
     names, each with its unit, and pass their output checks;
  2. in the traced run, the layers' self times partition the traced wall
     time within the bound run.py states (PARTITION_BOUND);
  3. for the serial workloads, the exact counts repeat exactly across two
     fresh-process runs;
and that run.py fails without printing a result in a directory holding
only BENCHMARK.json and perfbench/.  Exits non-zero on any failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# Counts that do not depend on timing.  gc.alloc_B_per_pkt is compared in
# whole bytes per packet: the OCaml 5.1 runtime's allocation counters move
# by a few hundred bytes in gigabytes between otherwise identical runs.
EXACT = ["driver.events_per_pkt", "log.rows_per_pkt", "vm.cycles_per_event",
         "driver.conns", "driver.evicted"]
WHOLE_BYTES = ["gc.alloc_B_per_pkt"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, seconds, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def metrics_match(res, spec, label):
    got = res["metrics"]
    names = [s["name"] for s in spec]
    check(sorted(got) == sorted(names), label + ": prints exactly the metrics named")
    check(all(s["name"] in got and got[s["name"]]["unit"] == s["unit"]
              for s in spec), label + ": every metric carries its unit")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for w in [w["name"] for w in spec["workloads"]]:
        rc, lines = bench(w, 0, a.seconds)
        res = result(lines)
        check(rc == 0 and res is not None and res["correct"], w + ": untraced run passes")
        if res:
            metrics_match(res, spec["end_to_end"], w + " untraced")

        runs = []
        for _ in range(1 if w == "dns-sharded" else 2):
            rc, lines = bench(w, 1, a.seconds)
            res = result(lines)
            check(rc == 0 and res is not None and res["correct"],
                  w + ": traced run passes")
            if res is None:
                continue
            metrics_match(res, spec["per_layer"], w + " traced")
            part = [json.loads(l[len("# partition "):]) for l in lines
                    if l.startswith("# partition ")]
            check(len(part) == 1 and part[0]["ok"],
                  w + ": self times partition the traced wall within %s: %s"
                  % (part[0]["bound"] if part else "?", part[0] if part else lines))
            runs.append(res["metrics"])
        if len(runs) == 2:
            a0, a1 = runs
            for k in EXACT:
                check(a0[k]["value"] == a1[k]["value"],
                      "%s: %s repeats exactly (%s, %s)"
                      % (w, k, a0[k]["value"], a1[k]["value"]))
            for k in WHOLE_BYTES:
                check(round(a0[k]["value"]) == round(a1[k]["value"]),
                      "%s: %s repeats in whole bytes (%s, %s)"
                      % (w, k, a0[k]["value"], a1[k]["value"]))

    # Alone, the benchmark cannot build the program: it must fail cleanly.
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, lines = bench(spec["workloads"][0]["name"], 0, a.seconds, cwd=bare)
    check(rc != 0 and result(lines) is None,
          "without the repository it exits %d and prints no result" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
