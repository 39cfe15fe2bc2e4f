// psa_perfbench — measures one benchmark workload against the library's
// public API and prints one JSON object of raw measurements as the last
// line of standard output. perfbench/run.py turns it into metrics.
//
//   psa_perfbench --workload fleet_monitor|fleet_enroll|scan_serve
//                 --seed N --seconds S --trace 0|1 [--spans-out FILE]
//   psa_perfbench --workload W --seed N --dump-inputs [--dump-count K]
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string object(const std::map<std::string, double>& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.done();
}

std::string render(const Args& args, const EnvInfo& env, const RunResult& r) {
  Json pinned;
  for (const auto& [k, v] : env.pinned) pinned.str(k, v);
  Json e;
  e.integer("threads", env.threads)
      .integer("nproc", env.nproc)
      .str("simd_best", env.simd_best)
      .str("simd_active", env.simd_active)
      .str("build_type", env.build_type)
      .raw("pinned", pinned.done());

  std::map<std::string, bool> merged;  // probes may repeat a check
  for (const auto& [name, ok] : r.checks) {
    const auto it = merged.find(name);
    merged[name] = (it == merged.end() || it->second) && ok;
  }
  Json checks;
  for (const auto& [name, ok] : merged) checks.boolean(name, ok);
  Json failures;
  for (const auto& [k, v] : r.failures) failures.integer(k, v);

  Json j;
  j.str("workload", args.workload)
      .integer("seed", args.seed)
      .boolean("trace", args.trace)
      .raw("env", e.done())
      .array("setup_s", r.setup_s)
      .array("bytes_per_session", r.bytes_per_session)
      .array("op_ms", r.op_ms)
      .str("op_name", r.op_name)
      .num("work", r.work)
      .str("work_unit", r.work_unit)
      .num("timed_s", r.timed_s)
      .integer("attempted", r.attempted)
      .integer("failed", r.failed)
      .raw("failures", failures.done())
      .str("failure_note", r.failure_note)
      .raw("checks", checks.done())
      .raw("simulated", object(r.simulated))
      .str("inputs_digest", r.inputs_digest)
      .integer("inputs_count", r.inputs_count)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("layers", object(r.layers))
      .raw("self_time_table", r.self_time_table);
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psa_perfbench: %s\n", e.what());
    return 2;
  }
  using Runner = RunResult (*)(const Args&);
  const std::map<std::string, Runner> runners = {
      {"fleet_monitor", run_fleet_monitor},
      {"fleet_enroll", run_fleet_enroll},
      {"scan_serve", run_scan_serve}};
  const auto it = runners.find(args.workload);
  if (it == runners.end()) {
    std::fprintf(stderr, "psa_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.dump_inputs) {
    std::cout << dump_inputs(args) << std::endl;
    return 0;
  }
  try {
    const EnvInfo env = read_environment();
    const RunResult r = it->second(args);
    if (args.trace && !args.spans_out.empty()) {
      r.native.write_json(args.spans_out, args.workload);
      r.probe.write_json(args.spans_out + ".probe", args.workload + " probes");
    }
    std::cout << render(args, env, r) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psa_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
