#include "probes.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "ba/weak_ba/messages.hpp"
#include "check/checkers.hpp"
#include "check/runner.hpp"
#include "crypto/family.hpp"
#include "crypto/realcurve.hpp"
#include "net/arena.hpp"
#include "net/tcp.hpp"
#include "wire/codec.hpp"

namespace perfbench {

using namespace mewc;

void probe_wire(const std::vector<check::CellSpec>& cells, Tracer& tracer,
                Metrics& m) {
  std::uint64_t msgs = 0, bytes = 0, bad = 0;
  double enc_s = 0, dec_s = 0;
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const check::CellSpec& cell : cells) {
    const check::RunRecord rec = check::run_cell(cell);
    encoded.clear();
    auto t0 = Clock::now();
    for (const auto& msg : rec.log.messages) {
      if (auto b = wire::encode(*msg.body)) encoded.push_back(std::move(*b));
    }
    enc_s += seconds_since(t0);
    t0 = Clock::now();
    for (const auto& b : encoded) {
      bad += wire::decode(b) == nullptr ? 1 : 0;
      bytes += b.size();
    }
    dec_s += seconds_since(t0);
    msgs += encoded.size();
  }
  if (bad != 0) std::fprintf(stderr, "perfbench: %llu recorded messages did "
                             "not decode\n", static_cast<unsigned long long>(bad));
  tracer.add("wire.encode", enc_s);
  tracer.add("wire.decode", dec_s);
  const double per = msgs == 0 ? 0 : 1.0 / static_cast<double>(msgs);
  m.try_emplace("wire.encode_us_per_msg", Metric{enc_s * 1e6 * per, "us"});
  m.try_emplace("wire.decode_us_per_msg", Metric{dec_s * 1e6 * per, "us"});
  m.try_emplace("wire.bytes_per_msg",
                Metric{static_cast<double>(bytes) * per, "B"});
}

namespace {

/// kReal trusted setup, partial signing, certificate verification and the
/// bare pairing, on a family of shape (n, t). Every certificate signs a
/// fresh digest, so the family's verification memo never answers.
void probe_crypto(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                  Metrics& m) {
  constexpr int kReps = 64;
  auto t0 = Clock::now();
  const ThresholdFamily fam(n, t, ThresholdBackend::kReal, seed);
  m.try_emplace("crypto.setup_ms", Metric{seconds_since(t0) * 1e3, "ms"});

  const std::uint32_t k = t + 1;
  const ThresholdScheme& scheme = fam.scheme(k);
  std::vector<KeyBundle> bundles;
  for (ProcessId p = 0; p < k; ++p) bundles.push_back(fam.issue_bundle(p));
  std::vector<ThresholdSig> sigs;
  double sign_s = 0;
  for (int i = 0; i < kReps; ++i) {
    const Digest d{seed * 7919 + static_cast<std::uint64_t>(i) + 1};
    std::vector<PartialSig> parts;
    t0 = Clock::now();
    for (const KeyBundle& b : bundles) parts.push_back(b.share(k).partial_sign(d));
    sign_s += seconds_since(t0);
    if (auto sig = scheme.combine(parts)) sigs.push_back(*sig);
  }
  t0 = Clock::now();
  std::uint64_t ok = 0;
  for (const ThresholdSig& s : sigs) ok += scheme.verify(s) ? 1 : 0;
  const double verify_s = seconds_since(t0);
  if (ok != sigs.size() || sigs.size() != kReps) {
    std::fprintf(stderr, "perfbench: crypto probe: %llu of %d certificates "
                 "verified\n", static_cast<unsigned long long>(ok), kReps);
  }
  m.try_emplace("crypto.sign_us",
                Metric{sign_s * 1e6 / (kReps * static_cast<double>(k)), "us"});
  m.try_emplace("crypto.verify_us", Metric{verify_s * 1e6 / kReps, "us"});

  std::vector<std::pair<rc::Point, rc::Point>> points;
  for (std::uint64_t i = 0; i < kReps; ++i) {
    points.emplace_back(rc::hash_to_point(seed + 2 * i),
                        rc::hash_to_point(seed + 2 * i + 1));
  }
  std::vector<rc::Fp2> values;
  t0 = Clock::now();
  for (const auto& [p, q] : points) values.push_back(rc::pairing(p, q));
  m.try_emplace("crypto.pairing_us",
                Metric{seconds_since(t0) * 1e6 / kReps, "us"});
  // Workloads on the ideal backends evaluate no pairings and hit no memo.
  m.try_emplace("crypto.memo_hit_ratio", Metric{0, "ratio"});
  m.try_emplace("crypto.pairings_per_op", Metric{0, "pairings/op"});
}

/// One fault-free cell per protocol at (n, t): sim, ba, check and the
/// payload pool.
void probe_cells(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                 Tracer& tracer, Metrics& m) {
  constexpr int kReps = 8;
  check::RunOptions opts;
  opts.record_messages = false;
  std::uint64_t reused = 0, fresh = 0, cells = 0, fallbacks = 0;
  double checkers_s = 0;
  for (const check::Protocol p : check::all_protocols()) {
    check::CellSpec cell;
    cell.protocol = p;
    cell.n = n;
    cell.t = t;
    cell.seed = seed;
    double run_s = 0;
    for (int i = 0; i < kReps; ++i) {
      const pool::StatsScope scope;
      auto t0 = Clock::now();
      const check::RunRecord rec = check::run_cell(cell, opts);
      run_s += seconds_since(t0);
      t0 = Clock::now();
      const auto violations = check::run_checkers(rec, {});
      checkers_s += seconds_since(t0);
      const pool::Stats d = scope.delta();
      reused += d.reused;
      fresh += d.fresh;
      ++cells;
      fallbacks += rec.any_fallback ? 1 : 0;
      if (!violations.empty()) {
        std::fprintf(stderr, "perfbench: probe cell %s violates %s\n",
                     cell.label().c_str(), violations[0].checker.c_str());
      }
      if (p == check::Protocol::kBb && i == 0) {
        m.try_emplace("sim.rounds_per_instance",
                      Metric{static_cast<double>(rec.rounds), "rounds"});
        m.try_emplace("ba.words_per_op",
                      Metric{static_cast<double>(rec.meter.words_correct),
                             "words/op"});
      }
    }
    tracer.add(std::string("probe.sim.instance.") + check::protocol_name(p),
               run_s / kReps);
    m.try_emplace(std::string("sim.instance_ms.") + check::protocol_name(p),
                  Metric{run_s * 1e3 / kReps, "ms"});
  }
  const double c = static_cast<double>(cells);
  m.try_emplace("check.checkers_ms_per_cell", Metric{checkers_s * 1e3 / c, "ms"});
  m.try_emplace("ba.fallback_ratio",
                Metric{static_cast<double>(fallbacks) / c, "ratio"});
  m.try_emplace("net.pool_reuse_ratio",
                Metric{static_cast<double>(reused) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, reused + fresh)),
                       "ratio"});
}

std::uint16_t free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

/// Median round trip of one envelope between two net::TcpTransport
/// endpoints on loopback. Returns 0 when the pair never connects.
double tcp_rtt_us() {
  const std::uint16_t pa = free_port(), pb = free_port();
  if (pa == 0 || pb == 0 || pa == pb) return 0;
  const auto config = [&](ProcessId self) {
    net::TcpTransportConfig c;
    c.self = self;
    c.n = 2;
    c.listen_port = self == 0 ? pa : pb;
    c.peers = {{0, "127.0.0.1", pa}, {1, "127.0.0.1", pb}};
    c.cluster_token = 0x7065726662656e63ull;
    return c;
  };
  net::TcpTransport a(config(0)), b(config(1));
  std::string error;
  if (!a.start(&error) || !b.start(&error) ||
      !a.wait_connected(std::chrono::seconds(5)) ||
      !b.wait_connected(std::chrono::seconds(5))) {
    std::fprintf(stderr, "perfbench: tcp probe: %s\n", error.c_str());
    return 0;
  }
  std::vector<double> rtts;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t instance = 10 + i;
    auto body = pool::make<wba::ProposeMsg>();
    body->phase = 1;
    body->value = WireValue::plain(Value(i + 1));
    const auto t0 = Clock::now();
    a.send(net::Envelope{0, 1, 1, instance, body});
    net::Envelope in;
    if (!b.receive(instance, in, 2000)) break;
    b.send(net::Envelope{1, 0, 1, instance, in.body});
    if (!a.receive(instance, in, 2000)) break;
    rtts.push_back(seconds_since(t0) * 1e6);
  }
  a.shutdown();
  b.shutdown();
  return percentile(rtts, 0.5);
}

}  // namespace

void probe_layers(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                  Tracer& tracer, Metrics& m) {
  probe_crypto(n, t, seed, m);
  probe_cells(n, t, seed, tracer, m);
  if (!m.count("wire.encode_us_per_msg")) {
    check::CellSpec cell;
    cell.protocol = check::Protocol::kBb;
    cell.n = n;
    cell.t = t;
    cell.seed = seed;
    probe_wire({cell, cell, cell, cell}, tracer, m);
  }
  if (!m.count("smr.commit_us")) probe_smr(n, t, seed, tracer, m);
  m.try_emplace("net.tcp_rtt_us", Metric{tcp_rtt_us(), "us"});
}

}  // namespace perfbench
