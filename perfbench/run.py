#!/usr/bin/env python3
"""The repository benchmark: the full HILTI pipeline (pcap -> Iosrc ->
Driver -> Bro_engine scripts -> Bro_log rows) on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds perfbench/pbench.exe into
.bench_build, generates the workload's trace from the seed into a pcap
file, runs the output-check reference once, then runs the measured
pipeline in fresh processes until S seconds have been measured (at least
MIN_REPS runs).  The last line of standard output is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of one traced run (plus untraced runs for the tracing overhead
and the exact counts).  Lines before it start with '#' and give detail.
Exits non-zero if the program cannot be built or any output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "pbench.exe")

# Workload -> pipeline configuration (see pbench.ml), the reference
# configuration its logs are checked against, and for dns-sharded the
# configuration whose logs it must reproduce byte for byte.
WORKLOADS = {
    "dns-hilti": {"proto": "dns", "ref": "dns-ref", "same_as": None},
    "http-std": {"proto": "http", "ref": "http-ref", "same_as": None},
    "dns-sharded": {"proto": "dns", "ref": "dns-ref", "same_as": "dns-hilti"},
}
# Trace sizes: DNS transactions / HTTP sessions.  The reference mismatch
# is a count of a few hundred rows, so it still varies by about a tenth
# from seed to seed; larger traces would leave fewer runs per --seconds.
SIZES = {"dns": 40000, "http": 6000}
STREAMS = {"dns": ["dns"], "http": ["http", "files"]}
MIN_REPS = 3
# Traced run: the layers' self times (decode and parse from their isolated
# passes) must account for the traced wall time; the driver's residual may
# come out below zero by at most this share of it.
PARTITION_BOUND = 0.10
PERCENTILES = [99.9, 99.5, 99, 98, 95, 90, 75, 50]
# A run must end within 180 s of its start (the build aside).
DEADLINE_S = 170


def note(msg):
    print("# " + msg, flush=True)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "perfbench/dune", "perfbench/pbench.ml"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "perfbench/pbench.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=840, env=env)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        die("build failed")


def file_md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pbench(args):
    try:
        r = subprocess.run([EXE] + args, capture_output=True, text=True,
                           timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:  # the child has been killed
        sys.stderr.write("pbench %s: timed out\n" % args[0])
        return None
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        return None
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def cached(path, make):
    """Create [path] once (per program build) through a temporary name."""
    if not os.path.exists(path):
        tmp = path + ".tmp"
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        make(tmp)
        os.replace(tmp, path)
    return path


def run_config(config, pcap, logs, trace=False):
    if os.path.isdir(logs):
        shutil.rmtree(logs)
    os.makedirs(logs)
    args = ["run", "--config", config, "--pcap", pcap, "--logs", logs]
    return pbench(args + (["--trace"] if trace else []))


def make_logs(config, pcap):
    def make(tmp):
        if run_config(config, pcap, tmp) is None:
            die("reference run %s failed" % config, 1)
    return make


def read_logs(logs, streams):
    """Per stream: (md5 of the file, set of its rows).  Rows are compared
    as sets, the paper's normalization (sort, de-duplicate)."""
    out = {}
    for s in streams:
        path = os.path.join(logs, s + ".log")
        with open(path, "rb") as f:
            data = f.read()
        rows = set(data.split(b"\n")[1:])
        rows.discard(b"")
        out[s] = (hashlib.md5(data).hexdigest(), rows)
    return out


def mismatch_ratio(run, ref):
    """Share of reference rows this run's logs miss or alter."""
    same = sum(len(run[s][1] & ref[s][1]) for s in ref)
    total = sum(max(len(run[s][1]), len(ref[s][1])) for s in ref)
    return 1.0 - same / total


def percentile(values, p):
    v = sorted(values)
    return v[max(0, math.ceil(p / 100.0 * len(v)) - 1)]


def median(xs):
    return statistics.median(xs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    wl = WORKLOADS[a.workload]
    proto = wl["proto"]
    streams = STREAMS[proto]

    build()
    global DEADLINE
    DEADLINE = time.monotonic() + DEADLINE_S
    key = file_md5(EXE)[:12]
    top = os.path.join(BUILD_DIR, "perfbench-work")
    work = os.path.join(top, key)
    os.makedirs(work, exist_ok=True)
    for old in os.listdir(top):  # inputs made by an earlier build
        if old != key:
            shutil.rmtree(os.path.join(top, old), ignore_errors=True)
    # The traced run's Runtime_events ring file lives (briefly) here.
    os.environ["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(work)

    # Inputs and references, made once per seed before any timing.
    size = SIZES[proto]
    def make_pcap(tmp):
        if pbench(["gen", "--proto", proto, "--seed", str(a.seed),
                   "--size", str(size), "--out", tmp]) is None:
            die("trace generation failed", 1)

    pcap = cached(os.path.join(work, "%s-s%d-n%d.pcap" % (proto, a.seed, size)),
                  make_pcap)
    tag = "s%d-n%d" % (a.seed, size)
    ref = read_logs(cached(os.path.join(work, "%s-%s" % (wl["ref"], tag)),
                           make_logs(wl["ref"], pcap)), streams)
    expect = None
    if wl["same_as"]:
        expect = read_logs(cached(os.path.join(work, "%s-%s" % (wl["same_as"], tag)),
                                  make_logs(wl["same_as"], pcap)), streams)

    logs = os.path.join(work, "rep-" + a.workload)
    reps, failures, digest, ratio = [], [], None, None

    def one(trace=False):
        nonlocal digest, ratio
        r = run_config(a.workload, pcap, logs, trace)
        if r is None:
            failures.append("run crashed")
            return None
        got = read_logs(logs, streams)
        d = {s: got[s][0] for s in streams}
        if digest is None:
            digest = d
            ratio = mismatch_ratio(got, ref)
        elif d != digest:
            failures.append("log digest differs between runs")
            return None
        if expect is not None and d != {s: expect[s][0] for s in streams}:
            failures.append("logs differ from %s" % wl["same_as"])
            return None
        return r

    traced = None
    start = time.monotonic()
    if a.trace:
        traced = one(trace=True)
    while len(reps) < (2 if a.trace else MIN_REPS) or \
            time.monotonic() - start < a.seconds:
        r = one()
        if r is not None:
            reps.append(r)
        if len(failures) > 2 or time.monotonic() > DEADLINE:
            break
    attempted = len(reps) + len(failures) + (traced is not None)
    ok = not failures and bool(reps) and (traced is not None or not a.trace)
    for f in failures:
        note("FAILED: " + f)
    note("workload %s seed %d: %d packets per run, %d runs, reference mismatch %s"
         % (a.workload, a.seed, reps[0]["packets"] if reps else 0, len(reps), ratio))
    note("host.probe_ms per run: %s" % [round(r["probe_ms"], 3) for r in reps])

    metrics = {}
    if ok and not a.trace:
        metrics = end_to_end(reps, ratio)
    elif ok:
        metrics = per_layer(a.workload, traced, reps)
    result = {"correct": bool(ok), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if ok else 1)


def m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, ratio):
    # Every run holds the same number of windows (the trace is fixed), so
    # each run's tail is taken at the same percentile: the highest that
    # leaves at least ten windows beyond it.
    n = len(reps[0]["window_ns"])
    p = next((p for p in PERCENTILES if n * (1 - p / 100.0) >= 10), 50)
    tails = [percentile(r["window_ns"], p) / 1e6 for r in reps]
    note("window_ms_tail: median over %d runs of each run's p%g of %d windows "
         "of 256 packets" % (len(reps), p, n))
    return {
        "pkts_per_s": m(median([r["packets"] / (r["wall_ns"] / 1e9) for r in reps]), "1/s"),
        "cpu_us_per_pkt": m(median([r["cpu_s"] * 1e6 / r["packets"] for r in reps]), "us"),
        "window_ms_tail": m(median(tails), "ms"),
        "heap_peak_mib": m(median([r["heap_peak_mib"] for r in reps]), "MiB"),
        "setup_s": m(median([r["setup_s"] for r in reps]), "s"),
        "log_mismatch_ratio": m(ratio, "ratio"),
    }


def per_layer(workload, t, reps):
    tr = t["trace"]
    spans = tr["spans"]
    P, wall = t["packets"], t["wall_ns"]
    n_iso = tr["iso_packets"]
    ns = {k: spans[k]["ns"] for k in spans}
    r0 = reps[0]
    # Exact counts come from untraced runs; they must repeat exactly.
    exact = ["alloc_bytes", "events", "log_rows", "cycles",
             "minor_collections", "major_collections"]
    if workload != "dns-sharded":
        for r in reps[1:]:
            for k in exact:
                if r[k] != r0[k]:
                    note("NOTE: %s differs between untraced runs: %s vs %s"
                         % (k, r0[k], r[k]))
    # Serial runs decode and parse on the calling domain, the sharded plane
    # on its worker; there, the calling domain's time outside input,
    # script and log spans (and the tracer's own work) is dispatch, merge
    # and ring wait.
    on_caller = P / n_iso if workload != "dns-sharded" else 0.0
    self_ns = {"input": ns["input"], "decode": tr["decode_ns"] * on_caller,
               "parse": tr["parse_ns"] * on_caller,
               "script": ns["script"] + ns["set_time"], "log": ns["log"],
               "tracer": ns["tracer"]}
    caller_other = wall - self_ns["input"] - self_ns["script"] - self_ns["log"] \
        - self_ns["tracer"]
    driver_self = wall - sum(self_ns.values())
    self_ns["driver"] = driver_self
    ok = driver_self >= -PARTITION_BOUND * wall and tr["overlaps"] == 0 \
        and tr["foreign_domain_spans"] == 0
    note("partition " + json.dumps({
        "wall_ms": wall / 1e6, "bound": PARTITION_BOUND,
        "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
        "overlapping_spans": tr["overlaps"],
        "spans_off_calling_domain": tr["foreign_domain_spans"], "ok": ok}))
    E = spans["script"]["count"]
    untraced_wall = median([r["wall_ns"] for r in reps])
    return {
        "input.ns_per_pkt": m(ns["input"] / P, "ns"),
        "input.bytes_per_pkt": m(tr["input_bytes"] / P, "B"),
        "driver.self_ns_per_pkt": m(driver_self / P, "ns"),
        "driver.conns": m(r0["connections"], "count"),
        "driver.evicted": m(r0["evicted"], "count"),
        "driver.events_per_pkt": m(r0["events"] / r0["packets"], "count"),
        "decode.ns_per_pkt": m(tr["decode_ns"] / n_iso, "ns"),
        "parse.ns_per_pkt": m(tr["parse_ns"] / n_iso, "ns"),
        "parse.std_ns_per_pkt": m(tr["parse_std_ns"] / n_iso, "ns"),
        "parse.pac_over_std": m(tr["parse_pac_ns"] / tr["parse_std_ns"], "ratio"),
        "parse.alloc_B_per_pkt": m(tr["parse_alloc_bytes"] / n_iso, "B"),
        "script.ns_per_event": m(ns["script"] / E, "ns"),
        "script.set_time_ns_per_pkt": m(ns["set_time"] / P, "ns"),
        "script.alloc_B_per_event": m(tr["script_alloc_bytes"] / E, "B"),
        "script.interp_ns_per_event":
            m(tr["replay_interp_ns"] / tr["replay_events"], "ns"),
        "script.compiled_ns_per_event":
            m(tr["replay_compiled_ns"] / tr["replay_events"], "ns"),
        "script.compiled_over_interp":
            m(tr["replay_compiled_ns"] / tr["replay_interp_ns"], "ratio"),
        "vm.cycles_per_event": m(int(r0["cycles"]) / r0["events"], "count"),
        "log.rows_per_pkt": m(r0["log_rows"] / r0["packets"], "count"),
        "log.bytes_per_row": m(r0["log_bytes"] / r0["log_rows"], "B"),
        "log.drain_ns_per_row": m(ns["log"] / t["log_rows"], "ns"),
        "plane.caller_other_share": m(caller_other / wall, "ratio"),
        "plane.cpu_per_wall":
            m(median([r["cpu_s"] / (r["wall_ns"] / 1e9) for r in reps]), "ratio"),
        "gc.alloc_B_per_pkt": m(r0["alloc_bytes"] / r0["packets"], "B"),
        "gc.minor_count": m(r0["minor_collections"], "count"),
        "gc.major_count": m(r0["major_collections"], "count"),
        "gc.pause_ms_total": m(tr["gc_pause_ns_total"] / 1e6, "ms"),
        "gc.pause_ms_max": m(tr["gc_pause_ns_max"] / 1e6, "ms"),
        "host.probe_ms": m(median([r["probe_ms"] for r in reps + [t]]), "ms"),
        "trace.overhead_share": m(wall / untraced_wall, "ratio"),
    }


DEADLINE = None

if __name__ == "__main__":
    main()
