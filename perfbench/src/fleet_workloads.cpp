// fleet_workloads.cpp — fleet_monitor (steady-state run-time monitoring
// with FleetEngine::run_ticks) and fleet_enroll (bring-up of the same
// fleet shape with FleetEngine::enroll).
#include <algorithm>
#include <memory>
#include <set>

#include "em/fluxmap_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace psa;
using Scope = SpanLog::Scope;

namespace {

constexpr std::size_t kSetups = 3;       // set-ups per run (median reported)
constexpr std::size_t kMaxEnrolls = 12;  // fleet_enroll cap per run
constexpr std::size_t kWarmupTicks = 3;  // fill caches before timing
constexpr std::size_t kCheckTicks = 20;  // untraced z-stream check
constexpr std::size_t kTraceTicks = 100; // traced replay, fleet_monitor
constexpr std::size_t kProbeTicks = 30;  // traced replay, other workloads

/// One timed set-up: construction (and enrollment) from a cold flux-map
/// cache, like a fresh process, with the RSS it added per session.
struct FleetSetup {
  std::unique_ptr<fleet::FleetEngine> engine;
  double construct_s = 0.0;
  double enroll_s = 0.0;
  double bytes_per_session = 0.0;
  double fluxmap_hit_ratio = 0.0;
};

FleetSetup build_fleet(const std::vector<fleet::ChipSpec>& specs,
                       bool enroll) {
  FleetSetup f;
  em::FluxMapCache& flux = em::FluxMapCache::global();
  flux.clear();
  release_free_memory();
  const std::size_t rss0 = rss_bytes();
  const auto s0 = flux.stats();
  const auto t0 = Clock::now();
  f.engine = std::make_unique<fleet::FleetEngine>(specs);
  f.construct_s = seconds_since(t0);
  if (enroll) {
    const auto t1 = Clock::now();
    f.engine->enroll();
    f.enroll_s = seconds_since(t1);
  }
  f.bytes_per_session =
      (static_cast<double>(rss_bytes()) - static_cast<double>(rss0)) /
      static_cast<double>(specs.size());
  const auto s1 = flux.stats();
  const double lookups =
      static_cast<double>((s1.hits - s0.hits) + (s1.misses - s0.misses));
  f.fluxmap_hit_ratio =
      lookups > 0 ? static_cast<double>(s1.hits - s0.hits) / lookups : 0.0;
  return f;
}

std::set<sim::ActivitySynthesis*> cohort_caches(fleet::FleetEngine& e) {
  std::set<sim::ActivitySynthesis*> caches;
  for (std::size_t k = 0; k < e.size(); ++k) {
    caches.insert(&e.session(k).chip().synthesis());
  }
  return caches;
}

/// Activity-cache misses per unit and hit ratio between two snapshots.
void cache_counters(const std::vector<sim::ActivitySynthesis::Stats>& before,
                    const std::set<sim::ActivitySynthesis*>& caches,
                    double units, Counters& c) {
  double hits = 0.0, misses = 0.0;
  std::size_t i = 0;
  for (sim::ActivitySynthesis* cache : caches) {
    const auto now = cache->stats();
    hits += static_cast<double>(now.hits - before[i].hits);
    misses += static_cast<double>(now.misses - before[i].misses);
    ++i;
  }
  c["sim.synth_per_op"] = units > 0 ? misses / units : 0.0;
  c["sim.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

std::vector<sim::ActivitySynthesis::Stats> snapshot(
    const std::set<sim::ActivitySynthesis*>& caches) {
  std::vector<sim::ActivitySynthesis::Stats> out;
  for (sim::ActivitySynthesis* cache : caches) out.push_back(cache->stats());
  return out;
}

std::size_t ticks_done(const fleet::FleetEngine& e) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < e.size(); ++k) n += e.session(k).ticks_done();
  return n;
}

std::size_t quarantined(const fleet::FleetEngine& e) {
  return e.rollup().quarantined;
}

/// Every infected session must have raised its debounced alarm; reports
/// the seed-fixed detection statistics.
void check_alarms(const fleet::FleetEngine& e, RunResult& r) {
  std::size_t infected = 0, alarmed = 0;
  double mttd_sum = 0.0;
  for (std::size_t k = 0; k < e.size(); ++k) {
    const fleet::ChipSession& s = e.session(k);
    if (!s.spec().trojan) continue;
    ++infected;
    if (s.mttd_ticks() > 0) {
      ++alarmed;
      mttd_sum += static_cast<double>(s.mttd_ticks());
    }
  }
  r.checks.emplace_back("every_infected_session_alarms", alarmed == infected);
  r.simulated["detected_share"] =
      infected ? static_cast<double>(alarmed) / static_cast<double>(infected)
               : 1.0;
  r.simulated["mttd_ticks"] =
      alarmed ? mttd_sum / static_cast<double>(alarmed) : 0.0;
}

/// Replays session `k`'s enrollment through GoldenFreeDetector::enroll and
/// checks the replayed detectors score probe sweeps exactly like the
/// session's own pipeline. Spans go to `log` (disabled in untraced runs).
bool enroll_replay_matches(SpanLog& log, fleet::FleetEngine& e,
                           std::size_t k) {
  fleet::ChipSession& session = e.session(k);
  const fleet::ChipSpec& spec = session.spec();
  bool same = true;
  run_serial([&] {
    ReplaySession rs = replay_session_build(log, spec.placement_seed);
    const auto detectors =
        replay_enroll(log, *rs.chip, rs.views, spec.pipeline,
                      sim::Scenario::baseline(spec.seed));
    const sim::Scenario probe = tick_scenario(spec, spec.activate_at);
    for (std::size_t sensor = 0; sensor < 16; ++sensor) {
      const dsp::Spectrum sweep = session.pipeline().single_sweep(sensor, probe);
      same = same &&
             same_detection(detectors[sensor].score(sweep),
                            session.pipeline().score_spectrum(sensor, sweep));
    }
  });
  return same;
}

/// Runs `ticks` engine ticks (timing each), replays them layer by layer
/// into `log`, and fills the scheduler counters; a `native` replay (the
/// workload's own operation) also fills the cache and overhead counters.
void trace_ticks(SpanLog& log, fleet::FleetEngine& e, std::size_t ticks,
                 Counters& c, RunResult& r, bool native) {
  const auto caches = cohort_caches(e);
  const auto before = snapshot(caches);
  const std::size_t first = e.tick_index();
  const std::size_t done0 = ticks_done(e);
  std::vector<double> wall_s;
  for (std::size_t t = 0; t < ticks; ++t) {
    const auto t0 = Clock::now();
    e.run_ticks(1);
    wall_s.push_back(seconds_since(t0));
  }
  r.attempted += ticks * e.size();
  r.failed += ticks * e.size() - (ticks_done(e) - done0);
  if (native) {
    cache_counters(before, caches,
                   static_cast<double>(ticks * e.size()), c);
  }
  const TickReplay tr = replay_ticks(log, e, first + ticks);
  r.checks.emplace_back("tick_replay_z_bit_identical", tr.z_identical);
  const double nproc = std::max(1u, read_environment().nproc);
  double eff = 0.0;
  for (std::size_t t = 0; t < ticks; ++t) {
    eff += tr.work_s[first + t] / (nproc * wall_s[t]);
  }
  c["fleet.parallel_efficiency"] = eff / static_cast<double>(ticks);
  if (native) {
    c["obs.trace_overhead_pct"] =
        (tr.traced_s - tr.untraced_s) / tr.untraced_s * 100.0;
  }
}

}  // namespace

std::vector<fleet::ChipSpec> fleet_specs(std::uint64_t seed) {
  const FleetShape f = fleet_shape(seed);
  return fleet::make_fleet_specs(f.chips, f.cohort_size, f.fleet_seed, {}, {},
                                 f.activate_at);
}

std::string fleet_digest(const std::vector<fleet::ChipSpec>& specs) {
  Digest d;
  for (const fleet::ChipSpec& s : specs) {
    d.add(s.label);
    d.add(s.seed);
    d.add(s.placement_seed);
    d.add(static_cast<std::uint64_t>(s.cohort));
    d.add(s.trojan ? static_cast<std::uint64_t>(*s.trojan) + 1 : 0);
    d.add(static_cast<std::uint64_t>(s.activate_at));
  }
  return d.hex();
}

RunResult run_fleet_monitor(const Args& args) {
  RunResult r;
  r.op_name = "wall time of FleetEngine::run_ticks(1)";
  r.work_unit = "session_ticks";
  r.op_root = "op.tick";
  const std::vector<fleet::ChipSpec> specs = fleet_specs(args.seed);
  r.inputs_digest = fleet_digest(specs);
  r.inputs_count = specs.size();
  Counters c;

  if (!args.trace) warm_process();
  FleetSetup setup;
  for (std::size_t rep = 0; rep < (args.trace ? 1 : kSetups); ++rep) {
    setup = FleetSetup{};  // release the previous fleet first
    setup = build_fleet(specs, true);
    r.setup_s.push_back(setup.construct_s + setup.enroll_s);
    r.bytes_per_session.push_back(setup.bytes_per_session);
    c["em.fluxmap_hit_ratio"] = setup.fluxmap_hit_ratio;
  }
  fleet::FleetEngine& engine = *setup.engine;
  const std::size_t n = engine.size();
  r.failures["quarantined_at_enroll"] = quarantined(engine);

  if (!args.trace) {
    engine.run_ticks(kWarmupTicks);
    const std::size_t done0 = ticks_done(engine);
    const auto start = Clock::now();
    while (seconds_since(start) < args.seconds) {
      const auto t0 = Clock::now();
      if (engine.run_ticks(1) == 0) break;  // whole fleet quarantined
      r.op_ms.push_back(ms_since(t0));
    }
    r.timed_s = seconds_since(start);
    r.work = static_cast<double>(ticks_done(engine) - done0);
    r.attempted = n * r.op_ms.size();
    r.failed = r.attempted - static_cast<std::uint64_t>(r.work);
    r.failures["quarantined"] = quarantined(engine);
    check_alarms(engine, r);
    SpanLog off(false);
    const TickReplay tr = replay_ticks(off, engine, kCheckTicks);
    r.checks.emplace_back("tick_replay_z_bit_identical", tr.z_identical);
  } else {
    // Set-up replay: every session's chip and views from a cold flux-map
    // cache, and one session's enrollment through its parts.
    em::FluxMapCache::global().clear();
    run_serial([&] {
      Scope op(r.native, "op.setup");
      std::vector<ReplaySession> built;
      for (const fleet::ChipSpec& spec : specs) {
        built.push_back(replay_session_build(r.native, spec.placement_seed));
      }
    });
    {
      Scope op(r.native, "op.setup");
      r.checks.emplace_back("enroll_replay_bit_identical",
                            enroll_replay_matches(r.native, engine, 0));
    }
    trace_ticks(r.native, engine, kTraceTicks, c, r, true);
    check_alarms(engine, r);
    probe_detection_path(r.probe, engine.session(0).pipeline(),
                         engine.session(0).spec().seed, args.seed, c, r);
    c["common.fork_join_us"] = fork_join_us();
    r.layers = layer_metrics(r.native, r.probe, r.op_root,
                             static_cast<double>(n), c);
    r.self_time_table = self_time_table(r.native, r.op_root);
  }
  return r;
}

RunResult run_fleet_enroll(const Args& args) {
  RunResult r;
  r.op_name = "wall time of FleetEngine::enroll()";
  r.work_unit = "chips_enrolled";
  r.op_root = "op.enroll";
  const std::vector<fleet::ChipSpec> specs = fleet_specs(args.seed);
  r.inputs_digest = fleet_digest(specs);
  r.inputs_count = specs.size();
  const std::size_t n = specs.size();
  Counters c;

  if (!args.trace) warm_process();
  FleetSetup setup;
  double enrolled_s = 0.0;
  const std::size_t min_reps = args.trace ? 1 : kSetups;
  const std::size_t max_reps = args.trace ? 1 : kMaxEnrolls;
  for (std::size_t rep = 0;
       rep < max_reps && (rep < min_reps || enrolled_s < args.seconds); ++rep) {
    setup = FleetSetup{};
    setup = build_fleet(specs, false);
    r.setup_s.push_back(setup.construct_s);
    const auto caches = cohort_caches(*setup.engine);
    const auto before = snapshot(caches);
    const std::size_t rss0 = rss_bytes();
    const auto t0 = Clock::now();
    setup.engine->enroll();
    const double s = seconds_since(t0);
    enrolled_s += s;
    r.op_ms.push_back(s * 1e3);
    r.bytes_per_session.push_back(
        setup.bytes_per_session +
        (static_cast<double>(rss_bytes()) - static_cast<double>(rss0)) /
            static_cast<double>(n));
    cache_counters(before, caches, static_cast<double>(n), c);
    c["em.fluxmap_hit_ratio"] = setup.fluxmap_hit_ratio;
    const std::size_t q = quarantined(*setup.engine);
    r.attempted += n;
    r.failed += q;
    r.failures["quarantined_at_enroll"] += q;
  }
  r.timed_s = enrolled_s;
  r.work = static_cast<double>(r.attempted - r.failed);
  fleet::FleetEngine& engine = *setup.engine;
  const std::size_t check_k = args.seed % n;

  if (!args.trace) {
    SpanLog off(false);
    r.checks.emplace_back("enroll_replay_bit_identical",
                          enroll_replay_matches(off, engine, check_k));
  } else {
    // Native replay: cohort 0's sessions built and enrolled through their
    // parts, sharing one activity cache like the engine's cohort does; a
    // traced and an untraced pass measure the span overhead.
    std::vector<const fleet::ChipSpec*> cohort;
    for (const fleet::ChipSpec& s : specs) {
      if (s.cohort == 0) cohort.push_back(&s);
    }
    double traced_s = 0.0, untraced_s = 0.0;
    bool same = true;
    for (int arm = 0; arm < 4; ++arm) {
      const bool traced = arm == 0 || arm == 3;  // ABBA: drift cancels
      r.native.set_enabled(traced);
      em::FluxMapCache::global().clear();
      run_serial([&] {
        std::vector<ReplaySession> built;
        {
          Scope op(r.native, "op.setup");
          for (const fleet::ChipSpec* spec : cohort) {
            built.push_back(replay_session_build(r.native, spec->placement_seed));
            if (built.size() > 1) {
              built.back().chip->share_synthesis_with(*built.front().chip);
            }
          }
        }
        for (std::size_t i = 0; i < cohort.size(); ++i) {
          const auto t0 = Clock::now();
          Scope op(r.native, "op.enroll");
          const auto detectors = replay_enroll(
              r.native, *built[i].chip, built[i].views, cohort[i]->pipeline,
              sim::Scenario::baseline(cohort[i]->seed));
          (traced ? traced_s : untraced_s) += seconds_since(t0);
          if (arm != 0) continue;
          fleet::ChipSession& session = engine.session(i);
          const sim::Scenario probe =
              tick_scenario(session.spec(), session.spec().activate_at);
          for (std::size_t k = 0; k < 16; ++k) {
            const dsp::Spectrum sweep = session.pipeline().single_sweep(k, probe);
            same = same && same_detection(
                               detectors[k].score(sweep),
                               session.pipeline().score_spectrum(k, sweep));
          }
        }
      });
    }
    r.native.set_enabled(true);
    r.checks.emplace_back("enroll_replay_bit_identical", same);
    c["obs.trace_overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0;
    Counters tick;
    trace_ticks(r.probe, engine, kProbeTicks, tick, r, false);
    c["fleet.parallel_efficiency"] = tick["fleet.parallel_efficiency"];
    probe_detection_path(r.probe, engine.session(0).pipeline(),
                         engine.session(0).spec().seed, args.seed, c, r);
    c["common.fork_join_us"] = fork_join_us();
    r.layers = layer_metrics(r.native, r.probe, r.op_root, 1.0, c);
    r.self_time_table = self_time_table(r.native, r.op_root);
  }
  return r;
}

void probe_fleet_path(SpanLog& log, std::uint64_t seed, Counters& c,
                      RunResult& r) {
  const FleetShape f = fleet_shape(seed);
  fleet::FleetEngine engine(fleet::make_fleet_specs(1, 1, f.fleet_seed, {}, {},
                                                    f.activate_at));
  engine.enroll();
  Counters tick;
  trace_ticks(log, engine, kProbeTicks, tick, r, false);
  c["fleet.parallel_efficiency"] = tick["fleet.parallel_efficiency"];
}

std::string dump_inputs(const Args& args) {
  Json j;
  j.str("workload", args.workload).integer("seed", args.seed);
  if (args.workload == "scan_serve") {
    std::string reqs = "[";
    for (std::size_t i = 0; i < args.dump_count; ++i) {
      if (i) reqs += ',';
      reqs += scan_request(args.seed, i).body();
    }
    j.integer("chip_seed", serve_chip_seed(args.seed))
        .raw("requests", reqs + "]")
        .integer("count", args.dump_count)
        .str("digest", scan_digest(args.seed, args.dump_count));
  } else {
    const std::vector<fleet::ChipSpec> specs = fleet_specs(args.seed);
    std::string rows = "[";
    for (std::size_t k = 0; k < specs.size(); ++k) {
      Json row;
      row.str("label", specs[k].label)
          .integer("seed", specs[k].seed)
          .integer("placement_seed", specs[k].placement_seed)
          .integer("cohort", specs[k].cohort)
          .integer("trojan",
                   specs[k].trojan ? static_cast<std::uint64_t>(*specs[k].trojan) + 1
                                   : 0);
      if (k) rows += ',';
      rows += row.done();
    }
    j.raw("specs", rows + "]")
        .integer("count", specs.size())
        .str("digest", fleet_digest(specs));
  }
  return j.done();
}

}  // namespace perfbench
