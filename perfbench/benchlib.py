"""Shared pieces of the benchmark runner: environment pinning, the build,
statistics, the metric definitions and the result line.

run.py performs one run; selftest.py checks these functions and that
what a run prints matches BENCHMARK.json.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "psa_perfbench"
BUILD_TYPE = "Release"

# Variables the library reads at start-up. Each changes the code that runs
# (pool size, SIMD dispatch, cache capacities, obs export, blackbox dumps),
# so a run sets PSA_THREADS to the CPU count and clears the rest.
PINNED_UNSET = (
    "PSA_SIMD",
    "PSA_ACTIVITY_CACHE_CAP",
    "PSA_FLUXMAP_CACHE_CAP",
    "PSA_OBS_OUT",
    "PSA_OBS_FLUSH_SEC",
    "PSA_BLACKBOX_DIR",
)

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

# Which workloads must have enough samples for a p90.
TAIL_WORKLOADS = ("fleet_monitor", "scan_serve")


def nproc():
    return len(os.sched_getaffinity(0))


def pinned_env(base):
    env = dict(base)
    env["PSA_THREADS"] = str(nproc())
    for name in PINNED_UNSET:
        env.pop(name, None)
    return env


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_layers():
    with open(BENCH_DIR / "LAYERS.json") as f:
        return json.load(f)


def library_present():
    return (ROOT / "src" / "CMakeLists.txt").is_file()


def build(log=sys.stderr):
    """Configure once, then build incrementally. Raises on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
        stdout=log, stderr=log, check=True)
    return BINARY


# ---------------------------------------------------------------------------
# Statistics.

def percentile(samples, q):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples
    lie beyond it (the run was too short to report that percentile)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else None


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(raw):
    """The gated end-to-end metrics, from one untraced run's measurements."""
    return {
        "throughput_per_s": raw["work"] / raw["timed_s"] if raw["timed_s"] > 0 else None,
        "latency_ms_p50": median(raw["op_ms"]),
        "setup_s": median(raw["setup_s"]),
        "bytes_per_session": median(raw["bytes_per_session"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def named_metrics(workload, raw, e2e):
    """The workload's metrics under the names a reader of the paper's
    deployment would use, with units, for the report lines."""
    attempted = raw["attempted"]
    failed_ratio = raw["failed"] / attempted if attempted else None
    p90 = percentile(raw["op_ms"], 0.9)
    rows = [("setup_s", e2e["setup_s"], "s")]
    if workload == "fleet_monitor":
        rows += [
            ("fleet_chips_per_s", e2e["throughput_per_s"], "1/s"),
            ("tick_ms_p50", e2e["latency_ms_p50"], "ms"),
            ("tick_ms_p90", p90, "ms"),
            ("mttd_ticks", raw["simulated"].get("mttd_ticks"), "ticks"),
            ("detected_share", raw["simulated"].get("detected_share"), "ratio"),
        ]
    elif workload == "fleet_enroll":
        rows += [
            ("enroll_chips_per_s", e2e["throughput_per_s"], "1/s"),
            ("enroll_ms_p50", e2e["latency_ms_p50"], "ms"),
        ]
    else:
        rows += [
            ("scan_rps", e2e["throughput_per_s"], "1/s"),
            ("scan_ms_p50", e2e["latency_ms_p50"], "ms"),
            ("scan_ms_p90", p90, "ms"),
        ]
    rows += [
        ("failed_ratio", failed_ratio, f"of {attempted} {raw['work_unit']}"),
        ("bytes_per_session", e2e["bytes_per_session"], "B"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
    ]
    return rows


def too_short(workload, raw):
    """True when a workload that reports a p90 lacks the samples for it."""
    return workload in TAIL_WORKLOADS and percentile(raw["op_ms"], 0.9) is None


def select(values, specs):
    """Exactly the metrics `specs` names, with their units. Raises KeyError
    when one is missing and ValueError when one is not a finite number."""
    out = {}
    for spec in specs:
        v = values[spec["name"]]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"{spec['name']} has no finite value: {v!r}")
        out[spec["name"]] = {"value": v, "unit": spec["unit"]}
    return out


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
