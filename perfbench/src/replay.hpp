// replay.hpp — the traced replays. Each one re-drives a workload's
// operation through the public functions of every layer, with a span
// around each call, and returns the results so the caller can check them
// bit-for-bit against what the untraced program produced.
//
// Replays run serially (on a pool worker, where the library's own
// parallel_for calls run inline), so spans nest without overlap and a
// layer's self time is its CPU cost. The parallel side is measured apart:
// fleet.parallel_efficiency and common.fork_join_us.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/detector.hpp"
#include "analysis/detector_bank.hpp"
#include "analysis/pipeline.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "sim/chip_simulator.hpp"

namespace perfbench {

/// Runs `fn` on a worker of the library's pool, so that every parallel_for
/// the library calls underneath runs inline (the execution context of a
/// fleet shard). Falls back to the calling thread when the pool has no
/// workers.
void run_serial(const std::function<void()>& fn);

/// Pays the process's one-time lazy set-up (thread pool, FFT plans, window
/// tables, allocator arenas) on a throwaway chip, then drops the flux maps
/// it computed, so every timed set-up that follows starts equally cold.
void warm_process();

/// Named views of one session, built like Pipeline's constructor does.
struct ReplaySession {
  std::unique_ptr<psa::sim::ChipSimulator> chip;
  std::vector<psa::sim::SensorView> views;  // 16 standard sensors
};

/// Chip build + 16 view builds ("layout.chip_build", "em.view_build").
ReplaySession replay_session_build(SpanLog& log, std::uint64_t placement_seed);

/// Pipeline::enroll through its parts: per enrollment trace one synthesis,
/// one 16-view measure_batch and 16 sweeps, then one
/// GoldenFreeDetector::enroll fold per sensor.
std::vector<psa::analysis::GoldenFreeDetector> replay_enroll(
    SpanLog& log, const psa::sim::ChipSimulator& chip,
    const std::vector<psa::sim::SensorView>& views,
    const psa::analysis::PipelineConfig& cfg,
    const psa::sim::Scenario& normal);

/// True when `a` and `b` carry bit-identical verdicts.
bool same_detection(const psa::analysis::DetectionResult& a,
                    const psa::analysis::DetectionResult& b);

/// The scenario ChipSession::tick measures at fleet tick `tick`.
psa::sim::Scenario tick_scenario(const psa::fleet::ChipSpec& spec,
                                 std::size_t tick);

/// Replays fleet ticks [0, ticks) of every session of an enrolled engine
/// that has already run at least that many ticks, one "op.tick" root per
/// fleet tick with a "fleet.session_tick" per session. A second, untraced
/// pass of the same ticks is interleaved (order alternating per tick, with
/// the cohort caches dropped before every pass) to measure span overhead.
struct TickReplay {
  bool z_identical = true;          // both passes match every z_history()
  std::size_t sessions_compared = 0;
  double traced_s = 0.0;            // op time of the traced pass
  double untraced_s = 0.0;          // op time of the untraced pass
  std::vector<double> work_s;       // per tick: sum of session tick times
};
TickReplay replay_ticks(SpanLog& log, psa::fleet::FleetEngine& engine,
                        std::size_t ticks);

/// One scan request's in-process job (what ScanService executes), direct.
struct ScanJobResult {
  std::array<double, 16> scores{};
  psa::analysis::LocalizationResult localization;
  psa::analysis::DetectionResult detection;
  psa::analysis::EnsembleVerdict ensemble;
};
ScanJobResult run_scan_job(const psa::analysis::Pipeline& pipeline,
                           const psa::analysis::DetectorBank& bank,
                           const psa::sim::Scenario& scenario);

/// The same job through its parts, one "op.request" root: scan_scores as
/// synthesis + measure_batch + sweeps + averages + score_spectrum, then
/// localize_from_scores, detect (as measure_spectrum + score_spectrum),
/// and the bank's observe and score_all.
ScanJobResult replay_scan_job(SpanLog& log,
                              const psa::analysis::Pipeline& pipeline,
                              const psa::analysis::DetectorBank& bank,
                              const psa::sim::Scenario& scenario);

bool same_scan(const ScanJobResult& a, const ScanJobResult& b);

/// The scenario ScanService builds from a request body.
psa::sim::Scenario scan_scenario(const ScanRequest& r);

/// Median wall time of an empty 16-item parallel_for, in microseconds.
double fork_join_us();

/// Counters gathered outside spans, keyed by per-layer metric name.
using Counters = std::map<std::string, double>;

/// Per-layer metrics from a native log (the workload's own replay, root
/// span `op_root`, each root covering `units_per_root` workload units) and
/// a probe log (layers the workload does not exercise, driven on its own
/// objects). Counters fill in the ratios and counts measured untraced.
std::map<std::string, double> layer_metrics(const SpanLog& native,
                                            const SpanLog& probe,
                                            const std::string& op_root,
                                            double units_per_root,
                                            const Counters& c);

/// Self-time table of `log` under roots named `op_root`, as JSON rows.
std::string self_time_table(const SpanLog& log, const std::string& op_root);

}  // namespace perfbench
