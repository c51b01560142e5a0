// mewc_loadgen — open-loop client load generator for a mewc_node cluster.
//
// Sends kv commands (node/client.hpp wire format: framed op/ack) to the
// clusters' client ports on a fixed schedule: op i is sent at
// start + i/rate regardless of ack progress, so the measured latency
// includes queueing when the cluster cannot keep up (the open-loop
// discipline that avoids coordinated omission). Targets are used
// round-robin, which matches the cluster's rotating proposer: node j only
// proposes (and thus acks) ops sent to node j.
//
// Reports wall-clock throughput and p50/p99/p999 ack latency on stdout,
// and optionally as JSON (--json) for EXPERIMENTS.md / CI artifacts. An op
// a node refused because its slot loop had ended (ack status 2, see
// node/client.hpp) counts as refused, not acked. Exits 0 only when every
// op was acked or refused within the drain window.
//
// Usage:
//   mewc_loadgen --targets host:port[,host:port...] [--ops N] [--rate R]
//                [--key-space K] [--seed SEED] [--drain-ms MS] [--json F]
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "argparse.hpp"
#include "node/client.hpp"
#include "smr/kv_store.hpp"
#include "wire/frame.hpp"

namespace {

using namespace mewc;
using tools::parse_u32;
using tools::parse_u64;

constexpr std::uint8_t kFrameOp = 0x10;
constexpr std::uint8_t kFrameAck = 0x11;

struct Options {
  std::vector<std::string> targets;  // "host:port"
  std::uint64_t ops = 64;
  std::uint64_t rate = 100;  // ops per second, across all targets
  std::uint32_t key_space = 16;
  std::uint64_t seed = 0x10ad;
  std::uint64_t drain_ms = 30000;
  std::string json_path;
};

// The tool name is literal (not argv[0]) so the --help output is stable
// under any invocation path — tests/tools/mewc_loadgen_help.txt pins it.
void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: mewc_loadgen --targets host:port[,host:port...] [--ops N] "
      "[--rate R]\n"
      "          [--key-space K] [--seed SEED] [--drain-ms MS] [--json F]\n"
      "\n"
      "Open-loop load generator for a mewc_node cluster: op i is sent at\n"
      "start + i/rate to the targets round-robin, acks are collected on\n"
      "reader threads, and p50/p99/p999 ack latency plus throughput are\n"
      "reported. Exits 0 only when every op was acked or refused.\n");
}

[[noreturn]] void usage_and_exit() {
  print_usage(stderr);
  std::exit(2);
}

std::vector<std::string> split_targets(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        usage_and_exit();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--help")) {
      print_usage(stdout);
      std::exit(0);
    } else if (!std::strcmp(argv[i], "--targets")) {
      o.targets = split_targets(need());
    } else if (!std::strcmp(argv[i], "--ops")) {
      o.ops = parse_u64("--ops", need());
    } else if (!std::strcmp(argv[i], "--rate")) {
      o.rate = parse_u64("--rate", need());
    } else if (!std::strcmp(argv[i], "--key-space")) {
      o.key_space = parse_u32("--key-space", need(), 1u << 20);
    } else if (!std::strcmp(argv[i], "--seed")) {
      o.seed = parse_u64("--seed", need());
    } else if (!std::strcmp(argv[i], "--drain-ms")) {
      o.drain_ms = parse_u64("--drain-ms", need());
    } else if (!std::strcmp(argv[i], "--json")) {
      o.json_path = need();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage_and_exit();
    }
  }
  if (o.targets.empty()) {
    std::fprintf(stderr, "--targets is required\n");
    usage_and_exit();
  }
  if (o.rate == 0 || o.key_space == 0) {
    std::fprintf(stderr, "--rate and --key-space must be positive\n");
    usage_and_exit();
  }
  return o;
}

int dial(const std::string& target, std::string* error) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    *error = "target '" + target + "' is not host:port";
    return -1;
  }
  const std::string host = target.substr(0, colon);
  const std::string port = target.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    *error = "cannot resolve " + target;
    return -1;
  }
  // Nodes are usually launched in the same breath as the load generator
  // (tools/run_cluster.sh), so retry refused connections briefly instead
  // of failing on the startup race.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const int fd = socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    if (fd >= 0 && connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
      freeaddrinfo(res);
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (fd >= 0) close(fd);
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  *error = "cannot connect to " + target + ": " + strerror(errno);
  freeaddrinfo(res);
  return -1;
}

/// xorshift64* — deterministic key/value stream from --seed.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dull;
}

struct AckState {
  std::mutex mu;
  /// Send timestamp per op id; reset to time_point{} once acked.
  std::vector<std::chrono::steady_clock::time_point> sent_at;
  std::vector<std::int64_t> latency_us;  // one entry per acked op
  std::uint64_t acked = 0;
  std::uint64_t acked_ok = 0;
  std::uint64_t acked_retry = 0;
  std::uint64_t refused = 0;  // status 2: the node had stopped
  std::uint64_t decode_errors = 0;
};

void reader_loop(int fd, AckState* state, const std::atomic<bool>* stop) {
  std::vector<std::uint8_t> inbuf;
  std::uint8_t chunk[16384];
  while (!stop->load(std::memory_order_relaxed)) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // blocking socket: 0 = peer closed, <0 = error
    inbuf.insert(inbuf.end(), chunk, chunk + n);
    std::size_t offset = 0;
    for (;;) {
      const auto frame = wire::read_frame(inbuf, offset);
      if (!frame) break;
      wire::Reader r(frame->body);
      const std::uint8_t kind = r.u8();
      const std::uint64_t op_id = r.u64();
      r.u64();  // slot
      r.u64();  // kv digest (audited via the nodes' exit lines)
      const std::uint8_t status = r.u8();
      const auto now = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lock(state->mu);
      if (kind != kFrameAck || !r.done() || op_id >= state->sent_at.size() ||
          state->sent_at[op_id] == std::chrono::steady_clock::time_point{}) {
        ++state->decode_errors;
      } else {
        if (status == node::kAckStopping) {
          ++state->refused;  // never ran: no latency to record
        } else {
          state->latency_us.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - state->sent_at[op_id])
                  .count());
          ++state->acked;
          ++(status == 0 ? state->acked_ok : state->acked_retry);
        }
        state->sent_at[op_id] = {};
      }
      offset += frame->frame_size;
    }
    if (offset > 0) {
      inbuf.erase(inbuf.begin(),
                  inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
    }
  }
}

std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[rank];
}

int run(const Options& o) {
  std::vector<int> fds;
  std::string error;
  for (const auto& target : o.targets) {
    const int fd = dial(target, &error);
    if (fd < 0) {
      std::fprintf(stderr, "loadgen: %s\n", error.c_str());
      for (const int open_fd : fds) close(open_fd);
      return 1;
    }
    fds.push_back(fd);
  }

  AckState state;
  state.sent_at.resize(o.ops);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (const int fd : fds) {
    readers.emplace_back([fd, &state, &stop] { reader_loop(fd, &state, &stop); });
  }

  // Open loop: op i's send time is fixed up front. Falling behind the
  // schedule (slow write) is not compensated — the deadline discipline is
  // the point.
  std::uint64_t rng = o.seed;
  std::uint64_t sent = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < o.ops; ++i) {
    const auto deadline =
        start + std::chrono::microseconds(i * 1'000'000 / o.rate);
    std::this_thread::sleep_until(deadline);
    const smr::Command cmd = smr::Command::put(
        static_cast<std::uint32_t>(next_rand(rng) % o.key_space),
        next_rand(rng) & ((1ull << 40) - 1));
    wire::Writer w;
    w.u8(kFrameOp);
    w.u64(i);
    w.u64(cmd.pack().raw);
    const std::vector<std::uint8_t> body = w.take();
    std::vector<std::uint8_t> framed;
    wire::append_frame(framed, body);
    {
      std::lock_guard<std::mutex> lock(state.mu);
      state.sent_at[i] = std::chrono::steady_clock::now();
    }
    const int fd = fds[i % fds.size()];
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = write(fd, framed.data() + off, framed.size() - off);
      if (n <= 0) {
        std::fprintf(stderr, "loadgen: write to %s failed: %s\n",
                     o.targets[i % fds.size()].c_str(), strerror(errno));
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (stop.load(std::memory_order_relaxed)) break;
    ++sent;
  }
  const auto send_done = std::chrono::steady_clock::now();

  // Drain: wait (bounded) for the cluster to work through the backlog.
  const auto drain_deadline =
      send_done + std::chrono::milliseconds(o.drain_ms);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.acked + state.refused >= sent) break;
    }
    if (std::chrono::steady_clock::now() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (auto& t : readers) t.join();
  for (const int fd : fds) close(fd);

  const auto end = std::chrono::steady_clock::now();
  const double elapsed_s =
      std::chrono::duration<double>(end - start).count();
  std::sort(state.latency_us.begin(), state.latency_us.end());
  const std::int64_t p50 = percentile(state.latency_us, 0.50);
  const std::int64_t p99 = percentile(state.latency_us, 0.99);
  const std::int64_t p999 = percentile(state.latency_us, 0.999);
  const double throughput =
      elapsed_s > 0 ? static_cast<double>(state.acked) / elapsed_s : 0.0;

  std::printf("loadgen: sent=%llu acked=%llu ok=%llu retry=%llu "
              "refused=%llu unacked=%llu decode_errors=%llu\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(state.acked),
              static_cast<unsigned long long>(state.acked_ok),
              static_cast<unsigned long long>(state.acked_retry),
              static_cast<unsigned long long>(state.refused),
              static_cast<unsigned long long>(sent - state.acked -
                                              state.refused),
              static_cast<unsigned long long>(state.decode_errors));
  std::printf("loadgen: throughput=%.1f ops/s over %.2f s\n", throughput,
              elapsed_s);
  std::printf("loadgen: latency p50=%lld us p99=%lld us p999=%lld us\n",
              static_cast<long long>(p50), static_cast<long long>(p99),
              static_cast<long long>(p999));

  if (!o.json_path.empty()) {
    FILE* f = std::fopen(o.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", o.json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"targets\": %zu,\n"
                 "  \"ops\": %llu,\n"
                 "  \"rate\": %llu,\n"
                 "  \"sent\": %llu,\n"
                 "  \"acked\": %llu,\n"
                 "  \"acked_ok\": %llu,\n"
                 "  \"acked_retry\": %llu,\n"
                 "  \"refused\": %llu,\n"
                 "  \"elapsed_s\": %.4f,\n"
                 "  \"throughput_ops_s\": %.2f,\n"
                 "  \"latency_us\": {\"p50\": %lld, \"p99\": %lld, "
                 "\"p999\": %lld}\n"
                 "}\n",
                 o.targets.size(), static_cast<unsigned long long>(o.ops),
                 static_cast<unsigned long long>(o.rate),
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(state.acked),
                 static_cast<unsigned long long>(state.acked_ok),
                 static_cast<unsigned long long>(state.acked_retry),
                 static_cast<unsigned long long>(state.refused), elapsed_s,
                 throughput, static_cast<long long>(p50),
                 static_cast<long long>(p99), static_cast<long long>(p999));
    std::fclose(f);
  }
  return state.acked + state.refused >= sent && sent == o.ops ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
