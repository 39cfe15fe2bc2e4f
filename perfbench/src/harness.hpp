// harness.hpp — measurement plumbing shared by the benchmark workloads:
// command-line arguments, the seeded input generator, an in-memory span
// log with self-time aggregation, memory probes and a small JSON writer.
//
// Nothing here reaches into the library's internals: spans are recorded
// around calls into the library's public functions, so the program under
// test runs exactly as shipped (its own obs layer stays disabled).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;     // traced run: where to write the span log
  bool dump_inputs = false;  // print the generated inputs and exit
  std::size_t dump_count = 8;
};

/// Parses the command line; throws std::invalid_argument on bad input.
Args parse_args(int argc, char** argv);

// ---------------------------------------------------------------------------
// Inputs. Everything the library receives is derived here from --seed.

/// Fleet shape shared by fleet_monitor and fleet_enroll.
struct FleetShape {
  std::size_t chips = 16;
  std::size_t cohort_size = 2;
  std::size_t activate_at = 2;
  std::uint64_t fleet_seed = 0;
};
FleetShape fleet_shape(std::uint64_t seed);

/// One POST /scan body. The Trojan kind rotates none/t1..t4 with the
/// request index and every index gets a distinct scenario seed, so no two
/// requests share an activity bundle or a coalescing key.
struct ScanRequest {
  std::string trojan;
  std::uint64_t seed = 0;
  std::string body() const;
};
ScanRequest scan_request(std::uint64_t seed, std::size_t index);

/// Seed of the served chip's placement and enrollment (scan_serve).
std::uint64_t serve_chip_seed(std::uint64_t seed);

/// FNV-1a over every input handed to the library, so a run can prove which
/// inputs it consumed.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Spans.

/// Serial span recorder: one thread opens and closes nested scopes; each
/// span keeps its name, start, end and parent. A disabled log records
/// nothing (the untraced arm of the overhead measurement).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// Per-name aggregate. Self time is the span's duration minus the time
  /// its direct children cover (children are serial, so they never
  /// overlap).
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Aggregates over every span, or only over spans whose root ancestor is
  /// named `root` when it is non-empty.
  std::map<std::string, Totals> totals(const std::string& root = "") const;

  /// Work counts recorded beside the spans ("sim.tail.views", ...); only
  /// accumulated while the log is enabled.
  void add(const std::string& key, double n);
  double count(const std::string& key) const;

  /// Chrome-trace JSON (complete events, one per span, with parent ids).
  void write_json(const std::string& path, const std::string& process) const;

 private:
  bool enabled_ = true;
  int current_ = -1;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
  Clock::time_point origin_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Environment and memory.

struct EnvInfo {
  std::size_t threads = 0;  // the library's pool size
  unsigned nproc = 0;       // CPUs this process may run on
  std::string simd_best;
  std::string simd_active;
  std::string build_type;
  std::vector<std::pair<std::string, std::string>> pinned;  // name -> value
};
EnvInfo read_environment();

std::size_t rss_bytes();    // current resident set
double peak_rss_mb();       // process high-water mark
void release_free_memory(); // hand freed heap back to the OS between setups

// ---------------------------------------------------------------------------
// Statistics and JSON.

double median(std::vector<double> v);

/// Minimal JSON object writer: numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::uint64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& array(const std::string& key, const std::vector<double>& v);
  Json& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_number(double v);
std::string json_escape(const std::string& s);

}  // namespace perfbench
