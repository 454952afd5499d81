#!/usr/bin/env python3
"""Fleet benchmark: builds the simulator from source and measures one run.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (CMake, Release) into .bench_build, runs
the fleet_bench program for one workload and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (perfbench/README.md defines each). Earlier lines carry
the machine fingerprint, one digest per input and every output check.
The exit code is non-zero when the build fails or any check fails.

--selftest runs every workload on a short horizon, traced and untraced,
and asserts that each metric named in BENCHMARK.json is emitted with its
unit and that every check passes.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench")
PROGRAM = os.path.join(BUILD, "fleet_bench")
WORKLOADS = ("steady", "overload", "paper_fig11")

# name -> unit. Values are computed in end_to_end() / per_layer() below.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_game_s": "game_s",
    "served_pct": "%",
    "wait_mean_s": "sim_s",
    "wait_p95_s": "sim_s",
    "qos_violation_pct": "%",
}

# Stage rows of the simulator's profiler table, looked up by the names
# obs::stage_name() gives them.
STAGES = {
    "common.rng_draws.ms": "rng_draws",
    "game.resource_kernels.ms": "resource_kernels",
    "hw.contention_resolve.ms": "contention_resolve",
    "sim.event_queue.ms": "event_queue",
    "platform.fast_forward.ms": "fast_forward",
    "core.predictor_decide.ms": "predictor_decide",
    "core.distributor_decide.ms": "distributor_decide",
    "core.regulator.ms": "regulator",
    "fleet.router.ms": "router",
    "fleet.barrier.ms": "shard_barrier",
}

PER_LAYER = {
    "core.admit.calls": "count",
    "core.admit.accepted": "count",
    "core.admit.accept_ratio": "ratio",
    "core.admit.calls_per_arrival": "count",
    "core.admit.ms": "ms",
    "core.admit.us_p50": "us",
    "core.admit.us_p99": "us",
    "core.control.calls": "count",
    "core.control.ms": "ms",
    "core.control.us_p50": "us",
    "core.control.us_p99": "us",
    "core.control.replace_ms": "ms",
    "core.model_replacements": "count",
    "core.session_hooks.ms": "ms",
    "core.train_game.ms": "ms",
    "core.train_game.ms_max": "ms",
    "traffic.generate.ms": "ms",
    **{name: "ms" for name in STAGES},
    "hw.resolve.lookups": "count",
    "hw.resolve.cache_hit_ratio": "ratio",
    "platform.ticks_skipped": "count",
    "fleet.executor_idle.ms": "ms",
    "fleet.syncs": "count",
    "fleet.steals": "count",
    "fleet.thread_speedup": "x",
    "cocg_gain_pct": "%",
    "trace_overhead_pct": "%",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds fleet_bench; False when either fails."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD, "--target", "fleet_bench", "-j", jobs]]
    if cache_value("CMAKE_HOME_DIRECTORY") is None:
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: command failed:", " ".join(cmd))
            return False
    return True


def fingerprint():
    """The machine and build the numbers come from."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = ""
    try:
        with open(os.path.join(BUILD, "CMakeFiles", "fleet_bench.dir",
                               "flags.make")) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    flags = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": compiler, "compiler_version": version,
            "build_type": cache_value("CMAKE_BUILD_TYPE"), "cxx_flags": flags}


def rank(values, q):
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_input_medians(raw, key):
    by_input = {}
    for rep in raw["reps"]:
        by_input.setdefault(rep["input"], []).append(rep[key])
    return [statistics.median(v) for _, v in sorted(by_input.items())]


def end_to_end(raw):
    sim = raw["sim"]
    waits = [w for s in sim for w in s["waits_ms"]]
    offered = sum(s["offered"] for s in sim)
    delivered = sum(s["throughput"] for s in sim)
    return {
        "wall_s": sum(per_input_medians(raw, "wall_s")),
        "setup_s": statistics.median(r["setup_s"] for r in raw["reps"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "throughput_game_s": delivered / len(sim),
        "served_pct": 100.0 * sum(s["admitted"] for s in sim) / offered,
        "wait_mean_s": statistics.mean(waits) / 1000.0 if waits else 0.0,
        "wait_p95_s": rank(waits, 0.95) / 1000.0 if waits else 0.0,
        "qos_violation_pct": (100.0 * sum(s["qos_violation_s"] for s in sim)
                              / delivered if delivered else 0.0),
    }


def per_layer(raw):
    layers = raw["traced"]["layers"]
    sim = raw["sim"]
    walls = per_input_medians(raw, "wall_s")
    untraced = sum(walls)
    admit_us = [ns / 1e3 for ns in layers["admit_ns"]]
    control_us = [ns / 1e3 for ns in layers["control_ns"]]
    train_ms = [ns / 1e6 for ns in layers["train_ns"]]
    calls = layers["admit_calls"]
    offered = sum(s["offered"] for s in sim)
    lookups = layers["resolve_cache_hits"] + layers["resolve_cache_misses"]
    single = raw["one_thread"]
    out = {
        "core.admit.calls": calls,
        "core.admit.accepted": layers["admit_accepted"],
        "core.admit.accept_ratio": (layers["admit_accepted"] / calls
                                    if calls else 0.0),
        "core.admit.calls_per_arrival": calls / offered if offered else 0.0,
        "core.admit.ms": sum(admit_us) / 1e3,
        "core.admit.us_p50": rank(admit_us, 0.50) if admit_us else 0.0,
        "core.admit.us_p99": rank(admit_us, 0.99) if admit_us else 0.0,
        "core.control.calls": len(control_us),
        "core.control.ms": sum(control_us) / 1e3,
        "core.control.us_p50": rank(control_us, 0.50) if control_us else 0.0,
        "core.control.us_p99": rank(control_us, 0.99) if control_us else 0.0,
        "core.control.replace_ms": layers["replace_ns"] / 1e6,
        "core.model_replacements": layers["model_replacements"],
        "core.session_hooks.ms": layers["hooks_ns"] / 1e6,
        "core.train_game.ms": sum(train_ms),
        "core.train_game.ms_max": max(train_ms),
        "traffic.generate.ms": layers["generate_ns"] / 1e6,
        "hw.resolve.lookups": lookups,
        "hw.resolve.cache_hit_ratio": (layers["resolve_cache_hits"] / lookups
                                       if lookups else 0.0),
        "platform.ticks_skipped": layers["ticks_skipped"],
        "fleet.executor_idle.ms": layers["executor"]["idle_ns"] / 1e6,
        "fleet.syncs": layers["executor"]["syncs"],
        "fleet.steals": layers["executor"]["steals"],
        "fleet.thread_speedup": (
            sum(single["wall_s"]) / sum(walls[:len(single["wall_s"])])
            if single else 0.0),
        "cocg_gain_pct": statistics.mean(s["cocg_gain_pct"] for s in sim),
        "trace_overhead_pct": 100.0 * (sum(raw["traced"]["wall_s"])
                                       / untraced - 1.0),
    }
    stages = layers["stages"]
    for metric, stage in STAGES.items():
        if stage not in stages:
            log(f"perfbench: profiler has no stage {stage!r}; {metric} reads 0")
        out[metric] = stages.get(stage, {"ns": 0})["ns"] / 1e6
    return out


def run(workload, seed, seconds, trace, extra=()):
    """Runs fleet_bench once; returns (result dict, process exit code)."""
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench: fleet_bench exited with {proc.returncode}")
        return None, proc.returncode or 1
    raw = json.loads(lines[-1])
    for c in raw["checks"]:
        state = "ok  " if c["failed"] == 0 else "FAIL"
        print(f"check {state} {c['name']}: {c['passed']} passed, "
              f"{c['failed']} failed ({c['detail']})")
    values = per_layer(raw) if trace else end_to_end(raw)
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    correct = raw["failed"] == 0 and all(c["failed"] == 0
                                         for c in raw["checks"])
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, 0 if correct else 1


def selftest():
    """Short-horizon run of every workload against BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names}")
    for workload in WORKLOADS:
        for trace in (False, True):
            listed = spec["per_layer" if trace else "end_to_end"]
            result, code = run(workload, 0, 0, trace,
                               ["--minutes", "10", "--inputs", "2"])
            where = f"{workload} trace={int(trace)}"
            if result is None:
                problems.append(f"{where}: no result")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed")
            emitted = result["metrics"]
            if sorted(emitted) != sorted(m["name"] for m in listed):
                problems.append(f"{where}: metric names differ from "
                                "BENCHMARK.json")
            for m in listed:
                got = emitted.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or has "
                                    "the wrong unit")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: {m['name']} is not a number")
    for p in problems:
        log("selftest:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    if not build():
        return 2
    print("fingerprint", json.dumps(fingerprint(), sort_keys=True))
    if args.selftest:
        return selftest()
    result, code = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
