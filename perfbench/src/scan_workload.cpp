// scan_workload.cpp — scan_serve: on-demand detect + localize over HTTP.
// A closed loop of nproc clients posts /scan?detectors=all to an
// in-process ScanService with a scales-2 DetectorBank; every request is a
// fresh scenario, so nothing hits the activity cache or coalesces.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "em/fluxmap_cache.hpp"
#include "layout/floorplan.hpp"
#include "net/serving.hpp"
#include "psa/programmer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace psa;
using Scope = SpanLog::Scope;

namespace {

constexpr std::size_t kSetups = 5;  // set-ups per run (median reported)
constexpr const char* kTarget = "/scan?detectors=all";

/// The served bank: whole-die coil + standard sensors, every detector.
analysis::BankConfig bank_config() {
  analysis::BankConfig cfg;
  cfg.scales = 2;
  return cfg;
}

struct HttpReply {
  int status = 0;  // 0: could not connect or no response
  std::string body;
};

HttpReply http_post(std::uint16_t port, const std::string& target,
                    const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{};
  tv.tv_sec = 60;  // a wedged server fails the request, not the benchmark
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string wire = "POST " + target +
                           " HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
                           "application/json\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  std::string resp;
  char buf[8192];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (resp.compare(0, 9, "HTTP/1.1 ") == 0 && resp.size() >= 12) {
    reply.status = std::atoi(resp.c_str() + 9);
  }
  const std::size_t split = resp.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = resp.substr(split + 4);
  return reply;
}

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Every quoted value of `"key":"..."` after `from` in `body`, in order.
std::vector<std::string> quoted_values(const std::string& body,
                                       const std::string& key,
                                       std::size_t from) {
  std::vector<std::string> out;
  const std::string needle = "\"" + key + "\":\"";
  for (std::size_t at = body.find(needle, from); at != std::string::npos;
       at = body.find(needle, at + 1)) {
    const std::size_t start = at + needle.size();
    const std::size_t end = body.find('"', start);
    if (end == std::string::npos) break;
    out.push_back(body.substr(start, end - start));
  }
  return out;
}

/// scores_hex and the detector/ensemble score_hex of a response must equal
/// the direct in-process calls for the same scenario, bit for bit.
bool response_matches(const std::string& body, const ScanJobResult& direct) {
  const std::size_t scores_at = body.find("\"scores_hex\":[");
  if (scores_at == std::string::npos) return false;
  const std::size_t scores_end = body.find(']', scores_at);
  std::vector<std::string> scores;
  for (std::size_t at = body.find('"', scores_at + 14);
       at != std::string::npos && at < scores_end;
       at = body.find('"', body.find('"', at + 1) + 1)) {
    const std::size_t end = body.find('"', at + 1);
    scores.push_back(body.substr(at + 1, end - at - 1));
  }
  if (scores.size() != 16) return false;
  for (std::size_t k = 0; k < 16; ++k) {
    if (scores[k] != hex_bits(direct.scores[k])) return false;
  }
  const std::size_t det_at = body.find("\"detectors\":{");
  if (det_at == std::string::npos) return false;
  const std::vector<std::string> hexes =
      quoted_values(body, "score_hex", det_at);
  if (hexes.size() != direct.ensemble.parts.size() + 1) return false;
  for (std::size_t i = 0; i < direct.ensemble.parts.size(); ++i) {
    if (hexes[i] != hex_bits(direct.ensemble.parts[i].verdict.score)) {
      return false;
    }
  }
  return hexes.back() == hex_bits(direct.ensemble.score);
}

/// The served session: chip, enrolled pipeline, calibrated bank, service
/// and its HTTP front end.
class Served {
 public:
  Served(std::uint64_t chip_seed, std::size_t clients) {
    chip_ = std::make_unique<sim::ChipSimulator>(
        sim::SimTiming{}, layout::Floorplan::aes_testchip(), chip_seed);
    pipeline_ = std::make_unique<analysis::Pipeline>(*chip_);
    pipeline_->enroll(sim::Scenario::baseline(chip_seed));
    attach(*pipeline_, chip_seed, clients, nullptr);
  }

  /// Serve an existing pipeline (the fleet workloads' detection probe).
  Served(const analysis::Pipeline& pipeline, std::uint64_t normal_seed,
         std::size_t clients, SpanLog* log) {
    attach(pipeline, normal_seed, clients, log);
  }

  ~Served() {
    service_->stop();  // before the server: handlers block on the queue
    server_->stop();
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  const analysis::Pipeline& pipeline() const { return *pipeline_ref_; }
  const analysis::DetectorBank& bank() const { return *bank_; }
  net::ScanService& service() { return *service_; }
  std::uint16_t port() const { return server_->port(); }

 private:
  /// Calibrates the bank (serially into `log` when given, else like a
  /// production set-up on the calling thread) and starts serving.
  void attach(const analysis::Pipeline& pipeline, std::uint64_t normal_seed,
              std::size_t clients, SpanLog* log) {
    pipeline_ref_ = &pipeline;
    bank_ = std::make_unique<analysis::DetectorBank>(pipeline, bank_config());
    auto calibrate = [&] {
      bank_->calibrate(sim::Scenario::baseline(normal_seed));
    };
    if (log != nullptr) {
      run_serial([&] {
        Scope span(*log, "analysis.bank_calibrate");
        calibrate();
      });
    } else {
      calibrate();
    }
    service_ = std::make_unique<net::ScanService>(pipeline);
    service_->attach_detector_bank(bank_.get());
    server_ = std::make_unique<net::HttpServer>();
    service_->install(*server_);
    net::HttpServer::Options options;
    options.connection_threads = clients + 2;
    if (!server_->start(options)) {
      throw std::runtime_error("cannot bind a loopback port");
    }
  }

  std::unique_ptr<sim::ChipSimulator> chip_;
  std::unique_ptr<analysis::Pipeline> pipeline_;
  const analysis::Pipeline* pipeline_ref_ = nullptr;
  std::unique_ptr<analysis::DetectorBank> bank_;
  std::unique_ptr<net::ScanService> service_;
  std::unique_ptr<net::HttpServer> server_;
};

struct LoadResult {
  std::vector<double> latency_ms;  // completed 200s
  std::map<std::string, std::uint64_t> failures;
  std::uint64_t sent = 0;
  std::vector<std::pair<std::size_t, std::string>> kept;  // index, body
  std::vector<double> depth_samples;
  double wall_s = 0.0;
};

/// Closed loop: `clients` threads, each with one request in flight, until
/// `seconds` have passed. Request indices come from `next`.
LoadResult run_load(Served& srv, std::uint64_t seed,
                    std::atomic<std::size_t>& next, std::size_t clients,
                    double seconds, bool sample_depth) {
  LoadResult out;
  std::mutex mu;
  const std::size_t first = next.load();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<double> mine;
      std::map<std::string, std::uint64_t> fails;
      std::uint64_t sent = 0;
      while (Clock::now() < deadline) {
        const std::size_t idx = next.fetch_add(1);
        const ScanRequest req = scan_request(seed, idx);
        const auto r0 = Clock::now();
        const HttpReply reply = http_post(srv.port(), kTarget, req.body());
        const double ms = ms_since(r0);
        ++sent;
        if (reply.status == 200) {
          mine.push_back(ms);
          // Keep the first two bodies and about one in a hundred after
          // them (at most five) to check against in-process calls.
          const std::size_t rel = idx - first;
          if (rel < 2 || (rel % 97 == 50 && rel < 400)) {
            std::lock_guard<std::mutex> lock(mu);
            out.kept.emplace_back(idx, reply.body);
          }
        } else if (reply.status == 0) {
          ++fails["connect_failed"];
        } else if (reply.status == 429 || reply.status == 503) {
          ++fails["status_" + std::to_string(reply.status)];
        } else {
          ++fails["status_other"];
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      out.latency_ms.insert(out.latency_ms.end(), mine.begin(), mine.end());
      for (const auto& [k, v] : fails) out.failures[k] += v;
      out.sent += sent;
    });
  }
  if (sample_depth) {
    while (Clock::now() < deadline) {
      out.depth_samples.push_back(
          static_cast<double>(srv.service().queue().depth()));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = seconds_since(t0);
  return out;
}

/// Net-layer measurements on a running service: a closed-loop burst for
/// queue depth, coalescing and shedding, then single requests whose client
/// latency is set against the in-process time of the same job, each
/// followed by a traced and an untraced replay of that job.
void measure_net(SpanLog& log, Served& srv, std::uint64_t seed,
                 std::atomic<std::size_t>& next, std::size_t clients,
                 double burst_s, std::size_t singles, Counters& c,
                 RunResult& r) {
  sim::ActivitySynthesis& cache = srv.pipeline().chip().synthesis();
  const auto s0 = cache.stats();
  const std::uint64_t sub0 = srv.service().queue().submitted();
  const std::uint64_t coal0 = srv.service().queue().coalesced();
  const std::uint64_t shed0 = srv.service().queue().shed();
  const LoadResult burst = run_load(srv, seed, next, clients, burst_s, true);
  r.attempted += burst.sent + singles;
  for (const auto& [k, v] : burst.failures) {
    r.failures[k] += v;
    r.failed += v;
  }
  const auto s1 = cache.stats();
  const double requests = static_cast<double>(burst.sent);
  const double lookups =
      static_cast<double>((s1.hits - s0.hits) + (s1.misses - s0.misses));
  c["sim.synth_per_op"] =
      requests > 0 ? static_cast<double>(s1.misses - s0.misses) / requests : 0.0;
  c["sim.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(s1.hits - s0.hits) / lookups : 0.0;
  double depth_sum = 0.0;
  for (const double d : burst.depth_samples) depth_sum += d;
  c["net.queue_depth_mean"] =
      burst.depth_samples.empty()
          ? 0.0
          : depth_sum / static_cast<double>(burst.depth_samples.size());
  const double submitted =
      static_cast<double>(srv.service().queue().submitted() - sub0);
  c["net.coalesced_ratio"] =
      submitted > 0
          ? static_cast<double>(srv.service().queue().coalesced() - coal0) /
                submitted
          : 0.0;
  c["net.shed"] = static_cast<double>(srv.service().queue().shed() - shed0);

  std::vector<double> overhead_ms;
  double traced_s = 0.0, untraced_s = 0.0;
  bool http_ok = true, replay_ok = true;
  for (std::size_t i = 0; i < singles; ++i) {
    const std::size_t idx = next.fetch_add(1);
    const ScanRequest req = scan_request(seed, idx);
    const sim::Scenario scenario = scan_scenario(req);
    const auto h0 = Clock::now();
    const HttpReply reply = http_post(srv.port(), kTarget, req.body());
    const double client_ms = ms_since(h0);
    cache.invalidate();  // the direct job must miss like the request did
    const auto j0 = Clock::now();
    const ScanJobResult direct =
        run_scan_job(srv.pipeline(), srv.bank(), scenario);
    overhead_ms.push_back(client_ms - ms_since(j0));
    if (reply.status != 200) ++r.failed;
    http_ok = http_ok && reply.status == 200 &&
              response_matches(reply.body, direct);
    for (int arm = 0; arm < 2; ++arm) {
      const bool traced = (i % 2 == 0) == (arm == 0);
      cache.invalidate();
      log.set_enabled(traced);
      ScanJobResult replayed;
      const auto t0 = Clock::now();
      run_serial([&] {
        replayed = replay_scan_job(log, srv.pipeline(), srv.bank(), scenario);
      });
      (traced ? traced_s : untraced_s) += seconds_since(t0);
      log.set_enabled(true);
      replay_ok = replay_ok && same_scan(replayed, direct);
    }
  }
  c["net.overhead_ms"] = median(overhead_ms);
  c["obs.trace_overhead_pct"] =
      untraced_s > 0 ? (traced_s - untraced_s) / untraced_s * 100.0 : 0.0;
  r.checks.emplace_back("net_responses_match_in_process", http_ok);
  r.checks.emplace_back("scan_replay_bit_identical", replay_ok);
}

std::size_t client_count() {
  const EnvInfo env = read_environment();
  return std::max<std::size_t>(env.nproc, 1);
}

}  // namespace

std::string scan_digest(std::uint64_t seed, std::size_t n) {
  Digest d;
  d.add(serve_chip_seed(seed));
  for (std::size_t i = 0; i < n; ++i) d.add(scan_request(seed, i).body());
  return d.hex();
}

RunResult run_scan_serve(const Args& args) {
  RunResult r;
  r.op_name = "client latency of POST /scan?detectors=all";
  r.work_unit = "requests";
  r.op_root = "op.request";
  const std::uint64_t chip_seed = serve_chip_seed(args.seed);
  const std::size_t clients = client_count();

  // Set-up, several times from a cold flux-map cache (a fresh process).
  if (!args.trace) warm_process();
  std::unique_ptr<Served> srv;
  em::FluxMapCache& flux = em::FluxMapCache::global();
  Counters c;
  for (std::size_t rep = 0; rep < (args.trace ? 1 : kSetups); ++rep) {
    srv.reset();
    flux.clear();
    release_free_memory();
    const std::size_t rss0 = rss_bytes();
    const auto f0 = flux.stats();
    const auto t0 = Clock::now();
    srv = std::make_unique<Served>(chip_seed, clients);
    r.setup_s.push_back(seconds_since(t0));
    r.bytes_per_session.push_back(static_cast<double>(rss_bytes()) -
                                  static_cast<double>(rss0));
    const auto f1 = flux.stats();
    const double lookups =
        static_cast<double>((f1.hits - f0.hits) + (f1.misses - f0.misses));
    c["em.fluxmap_hit_ratio"] =
        lookups > 0 ? static_cast<double>(f1.hits - f0.hits) / lookups : 0.0;
  }

  std::atomic<std::size_t> next{0};
  // Warm-up: first requests pay lazy set-up (FFT plans, connection workers).
  for (int i = 0; i < 2; ++i) {
    (void)http_post(srv->port(), kTarget,
                    scan_request(args.seed, next.fetch_add(1)).body());
  }

  if (!args.trace) {
    const LoadResult load =
        run_load(*srv, args.seed, next, clients, args.seconds, false);
    r.op_ms = load.latency_ms;
    r.work = static_cast<double>(load.latency_ms.size());
    r.timed_s = load.wall_s;
    r.attempted = load.sent;
    r.failures = load.failures;
    for (const auto& [k, v] : load.failures) r.failed += v;
    if (r.failures.count("status_429") || r.failures.count("status_503")) {
      r.failure_note = "the service shed load at " + std::to_string(clients) +
                       " closed-loop clients";
    }
    // Sampled responses against direct in-process calls.
    bool match = !load.kept.empty();
    for (const auto& [idx, body] : load.kept) {
      const sim::Scenario scenario = scan_scenario(scan_request(args.seed, idx));
      match = match && response_matches(body, run_scan_job(srv->pipeline(),
                                                           srv->bank(),
                                                           scenario));
    }
    r.checks.emplace_back("responses_match_in_process", match);
  } else {
    // Set-up replay: chip, views (16 sensors + the bank's die coil), the
    // enrollment through its parts, and a bank calibration.
    flux.clear();
    run_serial([&] {
      Scope op(r.native, "op.setup");
      ReplaySession rs = replay_session_build(r.native, chip_seed);
      {
        Scope span(r.native, "em.view_build");
        (void)rs.chip->view_from_program(
            sensor::CoilProgrammer::whole_die_coil(), "die");
      }
      const auto detectors =
          replay_enroll(r.native, *rs.chip, rs.views, srv->pipeline().config(),
                        sim::Scenario::baseline(chip_seed));
      {
        Scope span(r.native, "analysis.bank_calibrate");
        analysis::DetectorBank bank(srv->pipeline(), bank_config());
        bank.calibrate(sim::Scenario::baseline(chip_seed));
      }
      bool same = true;
      const sim::Scenario probe = scan_scenario(scan_request(args.seed, 1));
      for (std::size_t k = 0; k < 16; ++k) {
        const dsp::Spectrum sweep = srv->pipeline().single_sweep(k, probe);
        same = same && same_detection(detectors[k].score(sweep),
                                      srv->pipeline().score_spectrum(k, sweep));
      }
      r.checks.emplace_back("enroll_replay_bit_identical", same);
    });
    measure_net(r.native, *srv, args.seed, next, clients,
                std::min(3.0, args.seconds / 2), 6, c, r);
    probe_fleet_path(r.probe, args.seed, c, r);
    c["common.fork_join_us"] = fork_join_us();
    r.layers = layer_metrics(r.native, r.probe, r.op_root, 1.0, c);
    r.self_time_table = self_time_table(r.native, r.op_root);
  }
  r.inputs_count = next.load();
  r.inputs_digest = scan_digest(args.seed, r.inputs_count);
  return r;
}

void probe_detection_path(SpanLog& log, const analysis::Pipeline& pipeline,
                          std::uint64_t normal_seed, std::uint64_t seed,
                          Counters& c, RunResult& r) {
  const std::size_t clients = client_count();
  Served srv(pipeline, normal_seed, clients, &log);
  std::atomic<std::size_t> next{0};
  Counters net;
  measure_net(log, srv, seed, next, clients, 1.0, 2, net, r);
  // The fleet's own cache counters and trace overhead stay authoritative.
  for (const char* key : {"net.overhead_ms", "net.queue_depth_mean",
                          "net.coalesced_ratio", "net.shed"}) {
    c[key] = net[key];
  }
}

}  // namespace perfbench
