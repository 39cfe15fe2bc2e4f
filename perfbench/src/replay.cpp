#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <span>

#include "afe/spectrum_analyzer.hpp"
#include "analysis/localizer.hpp"
#include "analysis/monitor.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsp/spectrum.hpp"
#include "em/fluxmap_cache.hpp"
#include "layout/floorplan.hpp"
#include "psa/programmer.hpp"

namespace perfbench {

using namespace psa;
using Scope = SpanLog::Scope;

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One activity synthesis (or cache hit) ahead of the measurement that
/// consumes it, so "sim.tail" below times the per-view tail alone.
void timed_synth(SpanLog& log, const sim::ChipSimulator& chip,
                 const sim::Scenario& s, std::size_t cycles) {
  const std::size_t m0 = log.enabled() ? chip.synthesis().stats().misses : 0;
  {
    Scope span(log, "sim.synth");
    (void)chip.synthesis().get_or_synthesize(s, cycles, chip.timing());
  }
  if (log.enabled()) {
    log.add("sim.synth.misses",
            static_cast<double>(chip.synthesis().stats().misses - m0));
  }
}

}  // namespace

void run_serial(const std::function<void()>& fn) {
  ThreadPool& pool = ThreadPool::global();
  if (pool.size() == 0) {
    fn();
    return;
  }
  pool.submit(fn).get();
}

void warm_process() {
  {
    const sim::ChipSimulator chip(sim::SimTiming{},
                                  layout::Floorplan::aes_testchip(), 1);
    analysis::Pipeline pipeline(chip);
    pipeline.enroll(sim::Scenario::baseline(1));
    (void)pipeline.scan_scores(
        sim::Scenario::with_trojan(trojan::TrojanKind::kT1AmCarrier, 2));
  }
  em::FluxMapCache::global().clear();
  release_free_memory();
}

ReplaySession replay_session_build(SpanLog& log,
                                   std::uint64_t placement_seed) {
  ReplaySession s;
  {
    Scope span(log, "layout.chip_build");
    s.chip = std::make_unique<sim::ChipSimulator>(
        sim::SimTiming{}, layout::Floorplan::aes_testchip(), placement_seed);
  }
  s.views.reserve(16);
  for (std::size_t k = 0; k < 16; ++k) {
    Scope span(log, "em.view_build");
    s.views.push_back(s.chip->view_from_program(
        sensor::CoilProgrammer::standard_sensor(k),
        "sensor" + std::to_string(k)));
  }
  return s;
}

std::vector<analysis::GoldenFreeDetector> replay_enroll(
    SpanLog& log, const sim::ChipSimulator& chip,
    const std::vector<sim::SensorView>& views,
    const analysis::PipelineConfig& cfg, const sim::Scenario& normal) {
  const afe::SpectrumAnalyzer analyzer(cfg.analyzer);
  std::vector<const sim::SensorView*> ptrs;
  for (const sim::SensorView& v : views) ptrs.push_back(&v);
  std::vector<std::vector<dsp::Spectrum>> spectra(
      views.size(), std::vector<dsp::Spectrum>(cfg.enrollment_traces));
  for (std::size_t i = 0; i < cfg.enrollment_traces; ++i) {
    sim::Scenario s = normal;
    s.seed = normal.seed + 1000 + i;  // Pipeline::enroll's seeding
    timed_synth(log, chip, s, cfg.cycles_per_trace);
    std::vector<sim::MeasuredTrace> batch;
    {
      Scope span(log, "sim.tail");
      batch = chip.measure_batch(std::span<const sim::SensorView* const>(ptrs),
                                 s, cfg.cycles_per_trace);
    }
    log.add("sim.tail.views", static_cast<double>(ptrs.size()));
    for (std::size_t k = 0; k < views.size(); ++k) {
      Scope span(log, "afe.sweep");
      spectra[k][i] = analyzer.sweep(batch[k].samples, batch[k].sample_rate_hz);
    }
  }
  std::vector<analysis::GoldenFreeDetector> detectors(
      views.size(), analysis::GoldenFreeDetector(cfg.detector));
  for (std::size_t k = 0; k < views.size(); ++k) {
    Scope span(log, "analysis.enroll_fold");
    detectors[k].enroll(spectra[k]);
  }
  return detectors;
}

bool same_detection(const analysis::DetectionResult& a,
                    const analysis::DetectionResult& b) {
  return a.detected == b.detected && same_bits(a.score, b.score) &&
         same_bits(a.peak_freq_hz, b.peak_freq_hz) &&
         same_bits(a.peak_delta_v, b.peak_delta_v) &&
         a.peak_is_novel == b.peak_is_novel &&
         a.anomalous_bins == b.anomalous_bins;
}

sim::Scenario tick_scenario(const fleet::ChipSpec& spec, std::size_t tick) {
  const bool trojan_on = spec.trojan.has_value() && tick >= spec.activate_at;
  sim::Scenario s = trojan_on ? sim::Scenario::with_trojan(*spec.trojan, spec.seed)
                              : sim::Scenario::baseline(spec.seed);
  s.seed = spec.seed + 7919 * (tick + 1);  // ChipSession::tick's seeding
  return s;
}

TickReplay replay_ticks(SpanLog& log, fleet::FleetEngine& engine,
                        std::size_t ticks) {
  TickReplay out;
  const std::size_t n = engine.size();
  // The engine's shard order: cohorts ascending, members in index order.
  std::vector<std::size_t> order(n);
  for (std::size_t k = 0; k < n; ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return engine.session(a).spec().cohort < engine.session(b).spec().cohort;
  });
  std::set<sim::ActivitySynthesis*> caches;
  std::vector<afe::SpectrumAnalyzer> analyzers;
  std::vector<analysis::MonitorState> states[2];
  std::vector<std::vector<double>> z[2];
  for (std::size_t k = 0; k < n; ++k) {
    fleet::ChipSession& s = engine.session(k);
    caches.insert(&s.chip().synthesis());
    analyzers.emplace_back(s.pipeline().config().analyzer);
    for (int p = 0; p < 2; ++p) {
      states[p].emplace_back(s.spec().monitor);
      z[p].emplace_back();
      z[p].back().reserve(ticks);
    }
  }
  out.work_s.assign(ticks, 0.0);
  const bool was_enabled = log.enabled();

  run_serial([&] {
    for (std::size_t t = 0; t < ticks; ++t) {
      for (int arm = 0; arm < 2; ++arm) {
        const bool traced = (t % 2 == 0) == (arm == 0);
        const int pass = traced ? 0 : 1;
        for (sim::ActivitySynthesis* c : caches) c->invalidate();
        log.set_enabled(traced && was_enabled);
        const auto t0 = Clock::now();
        {
          Scope op(log, "op.tick");
          for (const std::size_t k : order) {
            fleet::ChipSession& session = engine.session(k);
            const fleet::ChipSpec& spec = session.spec();
            const analysis::Pipeline& pipeline = session.pipeline();
            const sim::ChipSimulator& chip = session.chip();
            const std::size_t sentinel = spec.monitor.sentinel_sensor;
            const std::size_t cycles = pipeline.config().cycles_per_trace;
            const auto s0 = Clock::now();
            {
              Scope st(log, "fleet.session_tick");
              const sim::Scenario scenario = tick_scenario(spec, t);
              timed_synth(log, chip, scenario, cycles);
              sim::MeasuredTrace tr;
              {
                Scope span(log, "sim.tail");
                tr = chip.measure(pipeline.sensor_view(sentinel), scenario,
                                  cycles);
              }
              log.add("sim.tail.views", 1.0);
              dsp::Spectrum sweep;
              {
                Scope span(log, "afe.sweep");
                sweep = analyzers[k].sweep(tr.samples, tr.sample_rate_hz);
              }
              const dsp::Spectrum* avg = nullptr;
              {
                Scope span(log, "analysis.window_push");
                avg = &states[pass][k].push(std::move(sweep));
              }
              analysis::DetectionResult d;
              {
                Scope span(log, "analysis.score");
                d = pipeline.score_spectrum(sentinel, *avg);
              }
              states[pass][k].record(d.detected);
              z[pass][k].push_back(d.score);
            }
            if (traced) out.work_s[t] += seconds_since(s0);
          }
        }
        (traced ? out.traced_s : out.untraced_s) += seconds_since(t0);
      }
    }
    log.set_enabled(was_enabled);
  });

  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<double>& history = engine.session(k).z_history();
    const std::size_t m = std::min(ticks, history.size());
    for (int p = 0; p < 2; ++p) {
      if (m == 0 || z[p][k].size() < m ||
          std::memcmp(z[p][k].data(), history.data(), m * sizeof(double)) != 0) {
        out.z_identical = false;
      }
    }
    ++out.sessions_compared;
  }
  return out;
}

ScanJobResult run_scan_job(const analysis::Pipeline& pipeline,
                           const analysis::DetectorBank& bank,
                           const sim::Scenario& scenario) {
  ScanJobResult r;
  r.scores = pipeline.scan_scores(scenario);
  r.localization =
      analysis::localize_from_scores(r.scores, pipeline.sensor_mask());
  r.detection = pipeline.detect(r.localization.best_sensor, scenario);
  r.ensemble = bank.scan(scenario);
  return r;
}

ScanJobResult replay_scan_job(SpanLog& log, const analysis::Pipeline& pipeline,
                              const analysis::DetectorBank& bank,
                              const sim::Scenario& scenario) {
  ScanJobResult r;
  Scope op(log, "op.request");
  const analysis::PipelineConfig& cfg = pipeline.config();
  const sim::ChipSimulator& chip = pipeline.chip();
  const std::array<bool, 16>& mask = pipeline.sensor_mask();
  const afe::SpectrumAnalyzer analyzer(cfg.analyzer);
  const std::size_t cycles = cfg.cycles_per_trace;
  const std::size_t averages = cfg.detection_averages;
  {
    Scope scan(log, "analysis.scan");
    std::vector<const sim::SensorView*> ptrs(16);
    std::size_t live = 0;
    for (std::size_t k = 0; k < 16; ++k) {
      ptrs[k] = mask[k] ? nullptr : &pipeline.sensor_view(k);
      live += mask[k] ? 0 : 1;
    }
    std::vector<std::vector<dsp::Spectrum>> sweeps(
        16, std::vector<dsp::Spectrum>(averages));
    for (std::size_t i = 0; i < averages; ++i) {
      sim::Scenario s = scenario;
      std::uint64_t mix = scenario.seed ^ (17 * 0x9E3779B97F4A7C15ULL);
      s.seed = splitmix64(mix) + i + 1;  // Pipeline::scan_scores' seeding
      timed_synth(log, chip, s, cycles);
      std::vector<sim::MeasuredTrace> batch;
      {
        Scope span(log, "sim.tail");
        batch = chip.measure_batch(
            std::span<const sim::SensorView* const>(ptrs), s, cycles);
      }
      log.add("sim.tail.views", static_cast<double>(live));
      for (std::size_t k = 0; k < 16; ++k) {
        if (mask[k]) continue;
        Scope span(log, "afe.sweep");
        sweeps[k][i] = analyzer.sweep(batch[k].samples, batch[k].sample_rate_hz);
      }
    }
    for (std::size_t k = 0; k < 16; ++k) {
      if (mask[k]) continue;
      dsp::Spectrum avg;
      {
        Scope span(log, "dsp.average");
        avg = dsp::average_spectra(sweeps[k]);
      }
      Scope span(log, "analysis.score");
      r.scores[k] = pipeline.score_spectrum(k, avg).peak_delta_v;
    }
  }
  {
    Scope span(log, "analysis.localize");
    r.localization = analysis::localize_from_scores(r.scores, mask);
  }
  {
    Scope detect(log, "analysis.detect");
    const std::size_t sensor = r.localization.best_sensor;
    std::vector<dsp::Spectrum> sweeps(averages);
    for (std::size_t i = 0; i < averages; ++i) {
      sim::Scenario s = scenario;
      // Pipeline::detect measures with seed salt sensor + 1.
      std::uint64_t mix = scenario.seed ^ ((sensor + 1) * 0x9E3779B97F4A7C15ULL);
      s.seed = splitmix64(mix) + i + 1;
      timed_synth(log, chip, s, cycles);
      sim::MeasuredTrace tr;
      {
        Scope span(log, "sim.tail");
        tr = chip.measure(pipeline.sensor_view(sensor), s, cycles);
      }
      log.add("sim.tail.views", 1.0);
      Scope span(log, "afe.sweep");
      sweeps[i] = analyzer.sweep(tr.samples, tr.sample_rate_hz);
    }
    dsp::Spectrum avg;
    {
      Scope span(log, "dsp.average");
      avg = dsp::average_spectra(sweeps);
    }
    Scope span(log, "analysis.score");
    r.detection = pipeline.score_spectrum(sensor, avg);
  }
  analysis::Observation obs;
  {
    Scope span(log, "analysis.bank_observe");
    obs = bank.observe(scenario);
  }
  {
    Scope span(log, "analysis.bank_score");
    r.ensemble = bank.score_all(obs);
  }
  return r;
}

bool same_scan(const ScanJobResult& a, const ScanJobResult& b) {
  for (std::size_t k = 0; k < 16; ++k) {
    if (!same_bits(a.scores[k], b.scores[k])) return false;
  }
  if (a.localization.best_sensor != b.localization.best_sensor ||
      a.localization.localized != b.localization.localized ||
      !same_detection(a.detection, b.detection) ||
      !same_bits(a.ensemble.score, b.ensemble.score) ||
      a.ensemble.detected != b.ensemble.detected ||
      a.ensemble.parts.size() != b.ensemble.parts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ensemble.parts.size(); ++i) {
    const analysis::DetectorVerdict& x = a.ensemble.parts[i].verdict;
    const analysis::DetectorVerdict& y = b.ensemble.parts[i].verdict;
    if (a.ensemble.parts[i].name != b.ensemble.parts[i].name ||
        !same_bits(x.score, y.score) || !same_bits(x.threshold, y.threshold) ||
        x.detected != y.detected || x.peak_tile != y.peak_tile) {
      return false;
    }
  }
  return true;
}

sim::Scenario scan_scenario(const ScanRequest& r) {
  static const std::pair<const char*, trojan::TrojanKind> kKinds[] = {
      {"t1", trojan::TrojanKind::kT1AmCarrier},
      {"t2", trojan::TrojanKind::kT2KeyLeak},
      {"t3", trojan::TrojanKind::kT3CdmaLeak},
      {"t4", trojan::TrojanKind::kT4DoS}};
  for (const auto& [name, kind] : kKinds) {
    if (r.trojan == name) return sim::Scenario::with_trojan(kind, r.seed);
  }
  return sim::Scenario::baseline(r.seed);
}

double fork_join_us() {
  constexpr int kCalls = 200;
  std::vector<double> per_call_us;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      parallel_for(0, 16, 1, [](std::size_t, std::size_t) {});
    }
    per_call_us.push_back(ms_since(t0) * 1e3 / kCalls);
  }
  return median(per_call_us);
}

namespace {

struct Picked {
  const SpanLog* log = nullptr;
  SpanLog::Totals totals;
};

}  // namespace

std::map<std::string, double> layer_metrics(const SpanLog& native,
                                            const SpanLog& probe,
                                            const std::string& op_root,
                                            double units_per_root,
                                            const Counters& c) {
  const auto nat = native.totals();
  const auto prb = probe.totals();
  // A layer the workload exercises is read from its own replay; the others
  // from the probe that drove them on the workload's objects.
  auto pick = [&](const std::string& name) {
    Picked p;
    if (const auto it = nat.find(name); it != nat.end()) {
      p.log = &native;
      p.totals = it->second;
    } else if (const auto jt = prb.find(name); jt != prb.end()) {
      p.log = &probe;
      p.totals = jt->second;
    }
    return p;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto mean = [&](const std::string& name, double scale) {
    const Picked p = pick(name);
    return p.log ? p.totals.total_s / static_cast<double>(p.totals.count) * scale
                 : nan;
  };
  auto per_count = [&](const std::string& name, const std::string& key,
                       double scale) {
    const Picked p = pick(name);
    if (!p.log) return nan;
    const double n = p.log->count(key);
    return n > 0 ? p.totals.total_s / n * scale : nan;
  };
  auto counter = [&](const std::string& key) {
    const auto it = c.find(key);
    return it == c.end() ? nan : it->second;
  };

  std::map<std::string, double> m;
  m["sim.synth_ms"] = per_count("sim.synth", "sim.synth.misses", 1e3);
  m["sim.synth_per_op"] = counter("sim.synth_per_op");
  m["sim.tail_us_per_view"] = per_count("sim.tail", "sim.tail.views", 1e6);
  m["sim.cache_hit_ratio"] = counter("sim.cache_hit_ratio");
  m["layout.chip_build_ms"] = mean("layout.chip_build", 1e3);
  m["em.view_build_ms"] = mean("em.view_build", 1e3);
  m["em.fluxmap_hit_ratio"] = counter("em.fluxmap_hit_ratio");
  m["afe.sweep_us"] = mean("afe.sweep", 1e6);
  m["dsp.average_us"] = mean("dsp.average", 1e6);
  m["analysis.enroll_fold_ms"] = mean("analysis.enroll_fold", 1e3);
  m["analysis.window_push_us"] = mean("analysis.window_push", 1e6);
  m["analysis.score_us"] = mean("analysis.score", 1e6);
  m["analysis.scan_ms"] = mean("analysis.scan", 1e3);
  m["analysis.detect_ms"] = mean("analysis.detect", 1e3);
  m["analysis.localize_us"] = mean("analysis.localize", 1e6);
  m["analysis.bank_observe_ms"] = mean("analysis.bank_observe", 1e3);
  m["analysis.bank_score_ms"] = mean("analysis.bank_score", 1e3);
  m["analysis.bank_calibrate_ms"] = mean("analysis.bank_calibrate", 1e3);
  m["fleet.session_tick_us"] = mean("fleet.session_tick", 1e6);
  for (const char* key :
       {"fleet.parallel_efficiency", "common.fork_join_us", "net.overhead_ms",
        "net.queue_depth_mean", "net.coalesced_ratio", "net.shed",
        "obs.trace_overhead_pct"}) {
    m[key] = counter(key);
  }

  // Shares of the workload's own operation, from its native replay.
  const auto under = native.totals(op_root);
  const auto root = under.find(op_root);
  const double root_s = root == under.end() ? 0.0 : root->second.total_s;
  const double roots = root == under.end() ? 0.0
                                           : static_cast<double>(root->second.count);
  double sweeps = 0.0;
  std::map<std::string, double> share;
  for (const auto& [name, t] : under) {
    if (name == op_root) continue;
    share[name.substr(0, name.find('.'))] += t.self_s;
    if (name == "afe.sweep") sweeps = static_cast<double>(t.count);
  }
  m["afe.sweeps_per_op"] = roots > 0 ? sweeps / (roots * units_per_root) : nan;
  m["trace.coverage"] =
      root_s > 0 ? 1.0 - root->second.self_s / root_s : nan;
  for (const char* layer : {"sim", "afe", "dsp", "analysis", "fleet"}) {
    m[std::string("self_share.") + layer] =
        root_s > 0 ? share[layer] / root_s : nan;
  }
  const auto fold = under.find("analysis.enroll_fold");
  m["self_share.enroll_fold"] =
      root_s > 0 ? (fold == under.end() ? 0.0 : fold->second.self_s) / root_s
                 : nan;
  return m;
}

std::string self_time_table(const SpanLog& log, const std::string& op_root) {
  const auto under = log.totals(op_root);
  const auto root = under.find(op_root);
  const double root_s = root == under.end() ? 0.0 : root->second.total_s;
  std::vector<std::pair<std::string, SpanLog::Totals>> rows(under.begin(),
                                                            under.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Json row;
    row.str("name", rows[i].first)
        .integer("count", rows[i].second.count)
        .num("total_s", rows[i].second.total_s)
        .num("self_s", rows[i].second.self_s)
        .num("self_share", root_s > 0 ? rows[i].second.self_s / root_s : 0.0);
    if (i) out += ',';
    out += row.done();
  }
  return out + "]";
}

}  // namespace perfbench
