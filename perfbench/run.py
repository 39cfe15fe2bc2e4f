#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet_monitor --seed 1 --seconds 10 --trace 0

Builds the measurement program (perfbench/CMakeLists.txt, which compiles
the library from src/) into .bench_build/, pins the library's environment,
runs the workload and prints a readable report followed, as the last line
of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from a separate run that replays
the workload layer by layer (spans are written under .bench_build/spans/).
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import benchlib  # noqa: E402

RUN_TIMEOUT_S = 170


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report_header(raw):
    env = raw["env"]
    print(f"perfbench {raw['workload']} seed={raw['seed']} "
          f"trace={int(raw['trace'])} threads={env['threads']} "
          f"nproc={env['nproc']} simd_best={env['simd_best']} "
          f"simd_active={env['simd_active']} build={env['build_type']}")
    print("pinned environment: " + " ".join(
        f"{k}={v}" for k, v in env["pinned"].items()))
    print(f"inputs: {raw['inputs_count']} generated, digest "
          f"{raw['inputs_digest']}")


def report_checks(raw):
    for name, ok in raw["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    failures = ", ".join(f"{k}={v}" for k, v in raw["failures"].items())
    print(f"failures: {raw['failed']} of {raw['attempted']} attempted"
          + (f" ({failures})" if failures else ""))
    if raw["failure_note"]:
        print(f"flag: {raw['failure_note']}")


def report_untraced(workload, raw, e2e):
    for name, value, unit in benchlib.named_metrics(workload, raw, e2e):
        print(f"  {name:<20} {fmt(value):>14}  {unit}")
    n = len(raw["op_ms"])
    print(f"  op: {raw['op_name']}; {n} samples, p90 needs "
          f">= {benchlib.MIN_BEYOND} beyond it; {len(raw['setup_s'])} set-ups")


def report_traced(raw, bench, layers_doc):
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    info = layers_doc["per_layer"]
    for name, value in sorted(raw["layers"].items()):
        moves = "; ".join(info.get(name, {}).get("moves", []))
        print(f"  {name:<28} {fmt(value):>12} {units.get(name, ''):<6} {moves}")
    print(f"self time under {layers_doc['op_roots'][raw['workload']]} "
          "(serial replay):")
    for row in raw["self_time_table"]:
        print(f"  {row['name']:<24} {row['count']:>7} calls "
              f"{row['self_s']:>10.4f} s self  {row['self_share']:.3f}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = benchlib.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload}; have {names}", file=sys.stderr)
        return 2
    if not benchlib.library_present():
        print("perfbench: the library sources (src/) are not in this "
              "checkout; nothing to build", file=sys.stderr)
        return 3
    try:
        binary = benchlib.build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 4

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        benchlib.SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(benchlib.SPANS_DIR /
                                   f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=benchlib.pinned_env(os.environ),
                              cwd=benchlib.ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 5
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: psa_perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 6
    raw = json.loads(lines[-1])

    report_header(raw)
    report_checks(raw)
    correct = all(raw["checks"].values()) and raw["attempted"] > 0
    try:
        if args.trace:
            report_traced(raw, bench, benchlib.load_layers())
            metrics = benchlib.select(raw["layers"], bench["per_layer"])
        else:
            e2e = benchlib.end_to_end(raw)
            report_untraced(args.workload, raw, e2e)
            if benchlib.too_short(args.workload, raw):
                print("flag: run too short: fewer than "
                      f"{benchlib.MIN_BEYOND} samples beyond p90")
                correct = False
            metrics = benchlib.select(e2e, bench["end_to_end"])
    except (KeyError, ValueError) as e:
        print(f"perfbench: metric missing or invalid: {e}", file=sys.stderr)
        return 7
    print(f"wall: {time.monotonic() - started:.1f} s")
    print(benchlib.result_line(correct, raw["attempted"], raw["failed"],
                               metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
