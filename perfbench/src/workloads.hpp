// workloads.hpp — the three benchmark workloads. Each one builds its
// inputs from the seed, sets up (timed, several times), measures its
// operation for the requested seconds, checks the outputs, and in a traced
// run also replays the operation layer by layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "replay.hpp"

namespace perfbench {

struct RunResult {
  // End to end.
  std::vector<double> setup_s;            // one per setup
  std::vector<double> bytes_per_session;  // RSS growth per session, per setup
  std::vector<double> op_ms;              // one latency sample per operation
  std::string op_name;                    // what one op_ms sample times
  double work = 0.0;                      // units of work completed
  double timed_s = 0.0;                   // wall time of the measured part
  std::string work_unit;

  // Failure accounting over the measured part.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;
  std::string failure_note;  // e.g. a scan_serve run that shed load

  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> simulated;  // seed-fixed statistics
  std::string inputs_digest;
  std::uint64_t inputs_count = 0;

  // Traced run only.
  std::map<std::string, double> layers;
  std::string self_time_table = "[]";
  std::string op_root;
  SpanLog native{true};
  SpanLog probe{true};
};

RunResult run_fleet_monitor(const Args& args);
RunResult run_fleet_enroll(const Args& args);
RunResult run_scan_serve(const Args& args);

/// The generated inputs of a workload, as JSON, with their digest.
std::string dump_inputs(const Args& args);

// Shared between the workloads (defined in fleet_workloads.cpp /
// scan_workload.cpp).

/// Digest of a fleet's specs, as handed to FleetEngine.
std::string fleet_digest(const std::vector<psa::fleet::ChipSpec>& specs);
std::vector<psa::fleet::ChipSpec> fleet_specs(std::uint64_t seed);

/// Digest of the served chip seed and the first `n` scan requests.
std::string scan_digest(std::uint64_t seed, std::size_t n);

/// Drives the layers a fleet workload does not exercise (detector bank,
/// scan, detect, localize, HTTP serving) on `pipeline`, recording spans in
/// `log` and net counters in `c`, with the generated scan requests of
/// `seed`.
/// `normal_seed` is the baseline scenario seed the pipeline enrolled on.
void probe_detection_path(SpanLog& log, const psa::analysis::Pipeline& pipeline,
                          std::uint64_t normal_seed, std::uint64_t seed,
                          Counters& c, RunResult& r);

/// Drives the fleet monitor layers (window push, session tick, scheduler)
/// for scan_serve's traced run: a one-chip fleet built from the seed.
void probe_fleet_path(SpanLog& log, std::uint64_t seed, Counters& c,
                      RunResult& r);

}  // namespace perfbench
