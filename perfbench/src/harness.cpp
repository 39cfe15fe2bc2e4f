#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"

#ifndef PSA_PERFBENCH_BUILD_TYPE
#define PSA_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

namespace {

std::uint64_t parse_u64(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    throw std::invalid_argument(flag + " needs a non-negative integer");
  }
  return x;
}

/// The seed expanded into an independent 64-bit stream per use.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return psa::splitmix64(state);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value());
    } else if (flag == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) {
        throw std::invalid_argument("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value());
      if (t > 1) throw std::invalid_argument("--trace is 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--spans-out") {
      a.spans_out = value();
    } else if (flag == "--dump-inputs") {
      a.dump_inputs = true;
    } else if (flag == "--dump-count") {
      a.dump_count = parse_u64(flag, value());
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

FleetShape fleet_shape(std::uint64_t seed) {
  FleetShape f;
  // 40 bits: make_fleet_specs adds cohort and chip offsets on top.
  f.fleet_seed = mix(seed, 1) >> 24;
  return f;
}

std::string ScanRequest::body() const {
  return "{\"trojan\":\"" + trojan + "\",\"seed\":" + std::to_string(seed) +
         "}";
}

ScanRequest scan_request(std::uint64_t seed, std::size_t index) {
  static const char* const kKinds[5] = {"none", "t1", "t2", "t3", "t4"};
  ScanRequest r;
  r.trojan = kKinds[index % 5];
  // The service parses seeds as JSON numbers (doubles), so stay below 2^53:
  // a 40-bit base plus the index is exact and distinct per request.
  r.seed = (mix(seed, 2) >> 24) + index;
  return r;
}

std::uint64_t serve_chip_seed(std::uint64_t seed) {
  return 1 + (mix(seed, 3) >> 40);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ULL;
}

void Digest::add(std::uint64_t v) { add(std::to_string(v)); }

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---------------------------------------------------------------------------
// SpanLog

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
  if (!log_.enabled_) return;
  Span s;
  s.name = name;
  s.parent = log_.current_;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - log_.origin_)
                   .count();
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(s));
  log_.current_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = log_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - log_.origin_)
                 .count();
  log_.current_ = s.parent;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(
    const std::string& root) const {
  // Parents precede their children in spans_, so one forward pass resolves
  // every span's root ancestor.
  std::vector<std::size_t> root_of(spans_.size(), 0);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    root_of[i] = p < 0 ? i : root_of[static_cast<std::size_t>(p)];
    if (p >= 0) {
      child_s[static_cast<std::size_t>(p)] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!root.empty() && spans_[root_of[i]].name != root) continue;
    const double dur = static_cast<double>(spans_[i].end_ns -
                                           spans_[i].start_ns) * 1e-9;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

void SpanLog::add(const std::string& key, double n) {
  if (enabled_) counts_[key] += n;
}

double SpanLog::count(const std::string& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0.0 : it->second;
}

void SpanLog::write_json(const std::string& path,
                         const std::string& process) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << "{\"name\":\"" << json_escape(s.name) << "\"," << buf
        << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"otherData\":{\"process\":\"" << json_escape(process) << "\"}}\n";
}

// ---------------------------------------------------------------------------
// Environment and memory.

EnvInfo read_environment() {
  EnvInfo e;
  e.threads = psa::thread_count();
  cpu_set_t set;
  CPU_ZERO(&set);
  e.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  e.simd_best = psa::simd::isa_name(psa::simd::best_supported_isa());
  e.simd_active = psa::simd::isa_name(psa::simd::active_isa());
  e.build_type = PSA_PERFBENCH_BUILD_TYPE;
  for (const char* name :
       {"PSA_THREADS", "PSA_SIMD", "PSA_ACTIVITY_CACHE_CAP",
        "PSA_FLUXMAP_CACHE_CAP", "PSA_OBS_OUT", "PSA_OBS_FLUSH_SEC",
        "PSA_BLACKBOX_DIR"}) {
    const char* v = std::getenv(name);
    e.pinned.emplace_back(name, v ? v : "(unset)");
  }
  return e;
}

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void release_free_memory() { malloc_trim(0); }

// ---------------------------------------------------------------------------
// Statistics and JSON.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + json_escape(k) + "\":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"' + json_escape(v) + '"';
  return *this;
}

Json& Json::array(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ',';
    body_ += json_number(v[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
