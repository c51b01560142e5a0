#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void print_result(const Result& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

namespace {

/// One pass of the reference kernel; returns its duration in seconds.
double reference_pass_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x243f6a8885a308d3ull, sink = 0;
  std::map<std::uint64_t, std::uint64_t> m;
  std::vector<std::uint64_t> v;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 100003] = x;
    v.push_back(x);
  }
  for (const std::uint64_t k : v) {
    const auto it = m.find(k % 100003);
    if (it != m.end()) sink += it->second;
    if (k & 1) m.erase(k % 100003);
  }
  std::sort(v.begin(), v.end());
  sink += v[v.size() / 2] + m.size();
  static volatile std::uint64_t g_sink;
  g_sink = sink;
  return seconds_since(t0);
}

/// Nominal pass time of the reference kernel: its median on an idle 4-core
/// Xeon (see README). Only the ratio to it matters.
constexpr double kNominalPassS = 0.0015;

}  // namespace

double SpeedGauge::maybe_sample(std::chrono::milliseconds every) {
  if (Clock::now() - last_ < every) return 0;
  const double s = reference_pass_s();
  total_s_ += s;
  ++passes_;
  last_ = Clock::now();
  return s;
}

double SpeedGauge::factor_since(const Mark& m) const {
  if (passes_ == m.passes) return 1.0;
  return (total_s_ - m.total_s) / static_cast<double>(passes_ - m.passes) /
         kNominalPassS;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Tracer::add(const std::string& name, double seconds) {
  Series& s = series_[name];
  ++s.count;
  s.total += seconds;
  if (s.samples.size() < 100000) s.samples.push_back(static_cast<float>(seconds));
}

double Tracer::total_s(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.total;
}

std::uint64_t Tracer::count(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.count;
}

double Tracer::mean_s(const std::string& name) const {
  const std::uint64_t c = count(name);
  return c == 0 ? 0 : total_s(name) / static_cast<double>(c);
}

bool Tracer::dump(const std::string& path, const Metrics& extra) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : extra) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << "}";
    first = false;
  }
  out << "},\n \"spans\": {";
  first = true;
  for (const auto& [name, s] : series_) {
    std::vector<double> xs(s.samples.begin(), s.samples.end());
    out << (first ? "\n  " : ",\n  ") << json_string(name)
        << ": {\"count\": " << s.count << ", \"total_s\": "
        << json_number(s.total) << ", \"p50_us\": "
        << json_number(percentile(xs, 0.5) * 1e6) << ", \"p90_us\": "
        << json_number(percentile(xs, 0.9) * 1e6) << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

void dump_trace(const RunOptions& opt, const std::string& workload,
                const Tracer& tracer, const Metrics& extra) {
  if (opt.out_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/trace-" + workload + "-" +
                           std::to_string(opt.seed) + ".json";
  if (!tracer.dump(path, extra)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
