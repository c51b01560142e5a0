// Shared plumbing of the benchmark binary: clocks, the in-memory span
// recorder used by traced runs, latency summaries and the one-line JSON
// result every workload prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Options shared by every in-process workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span dump into ("" = none).
  std::string out_dir;
};

/// Named metric with its unit, as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one run reports: the contract's last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Human-readable reasons for correct == false (printed to stderr).
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Prints errors to stderr and the result as one JSON line on stdout.
void print_result(const Result& r);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 when
/// empty. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Machine-speed gauge. sample() runs one pass of a fixed reference
/// kernel on the calling thread — the benchmark's own code (ordered-map
/// inserts, lookups and erases plus a sort over seeded keys), so nothing the
/// program changes can speed it up or slow it down; only the machine can.
/// Workloads sample it every ~50 ms on the thread doing the measured work
/// and keep the passes out of their own timing. factor_since() is the mean
/// pass time since a mark divided by the kernel's nominal pass time: 1.1
/// means the machine ran 10% slow over that stretch, and the workload's
/// rates and latencies are reported at nominal machine speed (rate x
/// factor, latency / factor), one round at a time.
class SpeedGauge {
 public:
  struct Mark {
    double total_s = 0;
    std::uint64_t passes = 0;
  };
  /// Runs one pass if `every` has elapsed since the last one; returns the
  /// pass's length in seconds (0 when none ran).
  double maybe_sample(std::chrono::milliseconds every = std::chrono::milliseconds(50));
  [[nodiscard]] Mark mark() const { return {total_s_, passes_}; }
  /// Slowdown over the passes since `m` (1 when none ran).
  [[nodiscard]] double factor_since(const Mark& m) const;

 private:
  double total_s_ = 0;
  std::uint64_t passes_ = 0;
  Clock::time_point last_{};
};

/// xorshift64* stream: every workload derives its inputs from --seed
/// through this, so the same seed gives the same inputs.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

/// In-memory span recorder for traced runs. Spans are kept per name (a
/// count and total, plus every individual duration up to a cap so the dump
/// can show distributions) and written out once, at the end of the run —
/// nothing touches the disk while the workload is being measured.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  void add(const std::string& name, double seconds);
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Mean span length in seconds (0 when no span was recorded).
  [[nodiscard]] double mean_s(const std::string& name) const;
  /// Writes every series as JSON to `path`; false when the file cannot be
  /// written.
  bool dump(const std::string& path, const Metrics& extra) const;

 private:
  struct Series {
    std::uint64_t count = 0;
    double total = 0;
    std::vector<float> samples;
  };
  bool enabled_;
  std::map<std::string, Series> series_;
};

/// RAII span: adds its lifetime to `tracer` under `name` when tracing.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name),
        start_(tracer.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (tracer_.enabled()) tracer_.add(name_, seconds_since(start_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  Clock::time_point start_;
};

/// Writes the traced run's span dump next to the other outputs.
void dump_trace(const RunOptions& opt, const std::string& workload,
                const Tracer& tracer, const Metrics& extra);

// Workloads (one function each; they fill a Result).
Result run_dst_grid(const RunOptions& opt);
Result run_smr_wal(const RunOptions& opt);
Result run_smr_real(const RunOptions& opt);

/// Closed-loop client of the node_tcp workload; see node_client.cpp.
int node_client_main(int argc, char** argv);

/// Feeds the correctness checks tampered inputs; 0 when every one is
/// caught and every untampered input passes.
int selftest_main();

}  // namespace perfbench
