#!/usr/bin/env python3
"""Helix benchmark: one command, one workload, every metric by name.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload team-wire --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (a Release
build of the library sources plus the harness, perfbench/helix_bench.cc)
into .bench_build/; later runs only re-check the build. The harness replays
the workload for the given number of seconds and prints raw samples; this
script turns them into metrics, prints one line per metric with its unit
and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome trace to .bench_build/traces/). See
perfbench/README.md for what each workload and metric means.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("edit-loop", "stream-append", "team-wire")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Operator types reported as their own compute.<name>_ms metric: those
# above 5% of compute time on at least one workload. The rest of compute
# time is compute.other_ms.
COMPUTE_GROUPS = {
    "Learner": "learner",
    "CSVScanner": "scan",
    "FileSource": "source",
    "AssembleExamples": "assemble",
    "SentenceTokenizer": "nlp_tokenize",
    "TokenFeaturizer": "nlp_features",
    "MentionDecoder": "nlp_decode",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); True on exit 0."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(root):
    """Configures (once) and builds the harness; returns its path or None."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", source, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           BUILD_TIMEOUT_S, stdout=sys.stderr):
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_checked(["cmake", "--build", build_dir, "-j", jobs],
                       BUILD_TIMEOUT_S, stdout=sys.stderr):
        return None
    binary = os.path.join(build_dir, "helix_bench")
    return binary if os.path.exists(binary) else None


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw, passes):
    """Each pass replays one session's trace: per-session figures are
    medians over the passes, latency percentiles pool every iteration."""
    latencies = [us for p in passes for us in p["latency_us"]]
    setups = [p["setup_us"] for p in raw["passes"]]
    return {
        "cumulative_s": (median([sum(p["latency_us"]) for p in passes]) / 1e6,
                         "s", len(passes)),
        "iter_p50_ms": (percentile(latencies, 50) / 1e3, "ms",
                        len(latencies)),
        "iter_p90_ms": (percentile(latencies, 90) / 1e3, "ms",
                        len(latencies)),
        "throughput_iters_per_s": (
            median([ratio(len(p["latency_us"]) * 1e6, p["wall_us"])
                    for p in passes]), "1/s", len(passes)),
        "setup_s": (median(setups) / 1e6, "s", len(setups)),
        "store_mb": (median([p["store_bytes"] for p in passes]) / 1e6, "MB",
                     len(passes)),
        "peak_rss_mb": (median([p["peak_rss_kb"] for p in passes]) / 1024,
                        "MB", len(passes)),
    }


def layer_values(p):
    """Per-layer metrics of one traced pass."""
    l = p["layers"]
    m = json.loads(l["metrics_json"]) if l["metrics_json"] else {}
    counters = m.get("counters", {})
    gauges = m.get("gauges", {})
    hists = m.get("histograms", {})

    def counter(name):
        return counters.get(name, 0)

    def gauge_max(name):
        return gauges.get(name, {}).get("max", 0)

    def hist(name, field):
        return hists.get(name, {}).get(field, 0)

    attributed = (l["compute_us"] + l["load_us"] + l["plan_us"]
                  + l["materialize_us"])
    v = {
        "core.compile_ms": (l["compile_us"] / 1e3, "ms"),
        "core.plan_ms": (l["plan_us"] / 1e3, "ms"),
        "core.unattributed_ms": ((l["latency_us"] - attributed) / 1e3, "ms"),
        "core.nodes_computed": (l["nodes_computed"], "count"),
        "core.nodes_loaded": (l["nodes_loaded"], "count"),
        "core.nodes_pruned": (l["nodes_pruned"], "count"),
        "core.nodes_materialized": (l["nodes_materialized"], "count"),
        "core.nodes_shared": (l["nodes_shared"], "count"),
        "core.reuse_ratio": (ratio(l["nodes_loaded"], l["nodes_loaded"]
                                   + l["nodes_computed"]), "ratio"),
        "core.peak_resident_mb": (l["peak_resident_bytes"] / 1e6, "MB"),
        "compute.total_ms": (l["compute_us"] / 1e3, "ms"),
    }
    by_op = l["compute_by_op_us"]
    grouped = 0
    for op, name in COMPUTE_GROUPS.items():
        grouped += by_op.get(op, 0)
        v[f"compute.{name}_ms"] = (by_op.get(op, 0) / 1e3, "ms")
    v["compute.other_ms"] = ((l["compute_us"] - grouped) / 1e3, "ms")
    fetch_us = sum(p["fetch_us"])
    v.update({
        "dataflow.simd_calls": (l["simd_calls"], "count"),
        "dataflow.scalar_calls": (l["scalar_calls"], "count"),
        "dataflow.serialize_mb_per_s": (
            ratio(l["serde_bytes"], l["serialize_us"]), "MB/s"),
        "dataflow.deserialize_mb_per_s": (
            ratio(l["serde_bytes"], l["deserialize_us"]), "MB/s"),
        "storage.load_ms": (l["load_us"] / 1e3, "ms"),
        "storage.load_mb": (counter("store.bytes_read") / 1e6, "MB"),
        "storage.get_mb_per_s": (ratio(l["get_bytes"], l["get_us"]), "MB/s"),
        "storage.write_ms": (l["materialize_us"] / 1e3, "ms"),
        "storage.write_mb": (counter("store.bytes_written") / 1e6, "MB"),
        "storage.hit_ratio": (ratio(counter("store.hits"),
                                    counter("store.hits")
                                    + counter("store.misses")), "ratio"),
        "storage.write_reuse_ratio": (
            ratio(l["written_reused_bytes"], l["written_bytes"]), "ratio"),
        "storage.evictions": (counter("store.evictions"), "count"),
        "runtime.inflight_shared_hits": (counter("inflight.shared_hits"),
                                         "count"),
        "runtime.materializer_queue_max": (
            gauge_max("materializer.queue_depth"), "count"),
        "runtime.pool_queue_max": (gauge_max("pool.queue_depth"), "count"),
        "service.cross_session_loads": (l["cross_session_loads"], "count"),
        "service.saved_ms": (l["saved_us"] / 1e3, "ms"),
    })
    for phase in ("decode", "queue", "execute", "reply_write"):
        name = f"server.{phase}_micros"
        v[f"net.{phase}_ms"] = (hist(name, "sum") / 1e3, "ms")
        v[f"net.{phase}_p50_ms"] = (hist(name, "p50") / 1e3, "ms")
    wire = hist("server.execute_micros", "count") > 0
    v.update({
        "net.rpc_overhead_ms": (
            (l["latency_us"] + fetch_us
             - hist("server.execute_micros", "sum")) / 1e3 if wire else 0.0,
            "ms"),
        "net.bytes_in_mb": (counter("server.bytes_in") / 1e6, "MB"),
        "net.bytes_out_mb": (counter("server.bytes_out") / 1e6, "MB"),
        "net.requests_shed": (counter("server.requests_shed"), "count"),
        "net.reply_drops": (counter("server.reply_drops"), "count"),
        "net.fetch_p50_ms": (
            percentile(p["fetch_us"], 50) / 1e3 if p["fetch_us"] else 0.0,
            "ms"),
        "net.fetch_mb_per_s": (ratio(p["fetch_bytes"], fetch_us), "MB/s"),
        "net.fetch_retries": (p["fetch_retries"], "count"),
    })
    return v


def per_layer(untraced, traced):
    per_pass = [layer_values(p) for p in traced]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (median([pv[name][0] for pv in per_pass]), unit,
                     len(per_pass))
    cum_u = median([sum(p["latency_us"]) for p in untraced])
    cum_t = median([sum(p["latency_us"]) for p in traced])
    out["obs.trace_overhead_pct"] = ((ratio(cum_t, cum_u) - 1) * 100, "%",
                                     len(traced) + len(untraced))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference fingerprint (self-test)")
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        log("build failed")
        return 1

    state = os.path.join(root, BUILD_DIR)
    workdir = os.path.join(state, "work", f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(state, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    ref_cache = os.path.join(state, "refcache", file_digest(binary))
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}",
           f"--ref-cache={ref_cache}",
           f"--trace-out={trace_out}",
           f"--toy={int(args.toy)}",
           f"--corrupt-reference={int(args.corrupt_reference)}"]
    out_path = os.path.join(state, f"raw-{os.getpid()}.json")
    try:
        with open(out_path, "w") as out:
            ok = run_checked(cmd, RUN_TIMEOUT_S, stdout=out)
        with open(out_path) as f:
            lines = f.read().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)
    if not ok or not lines:
        log("helix_bench failed")
        return 1
    raw = json.loads(lines[-1])

    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(raw, untraced)

    stamp = {
        "workload": raw["workload"], "scenario": raw["scenario"],
        "seed": raw["seed"], "nproc": raw["nproc"], "isa": raw["isa"],
        "build_type": raw["build_type"], "users": raw["users"],
        "events_per_pass": raw["events"], "rows": raw["rows"],
        "passes": len(untraced), "traced_passes": len(traced),
        "iterations": sum(len(p["latency_us"]) for p in raw["passes"]),
        "seconds": args.seconds,
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    if raw["build_type"] != "Release":
        print(f"# WARNING: build type is {raw['build_type']}, not Release")
    for error in raw["errors"]:
        print(f"# FAILED {error}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit:6s} (n={n})")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"{'failed_ratio':34s} {ratio(failed, attempted):14.4f} ratio  "
          f"(n={attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
