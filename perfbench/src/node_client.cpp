// Closed-loop client of the node_tcp workload. One connection per node
// (node::ClientServer's framed op/ack protocol, src/node/client.hpp), one
// outstanding op per connection, all on one thread: the next op goes out
// the moment the previous ack arrives. mewc_node runs a fixed --slots and
// proposes a client op only in its own rotation slots, so with one op in
// flight per node the load finishes inside the slot budget at any speed —
// an open-loop schedule of fixed length would leave ops unacked as soon as
// the slot loop got faster than the schedule.
//
//   perfbench node-client --ports P0,P1,.. --ops-per-node K --slots S
//                         --seed N [--t T] [--timeout-s T]
//
// Prints one JSON line: counts, client-side timing and the audit verdict
// (checks.hpp audit_acks) including the serially replayed final kv digest
// the launcher compares with the nodes' exit lines.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ba/harness.hpp"
#include "bench.hpp"
#include "check/crash.hpp"
#include "checks.hpp"
#include "smr/kv_store.hpp"
#include "wire/frame.hpp"

namespace perfbench {

using namespace mewc;

namespace {

constexpr std::uint8_t kFrameOp = 0x10;
constexpr std::uint8_t kFrameAck = 0x11;

int dial(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_op(int fd, std::uint64_t op_id, std::uint64_t word) {
  wire::Writer w;
  w.u8(kFrameOp);
  w.u64(op_id);
  w.u64(word);
  const std::vector<std::uint8_t> body = w.take();
  std::vector<std::uint8_t> framed;
  wire::append_frame(framed, body);
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = write(fd, framed.data() + off, framed.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Conn {
  int fd = -1;
  std::uint32_t node = 0;
  std::uint64_t next = 0;  // ops sent on this connection
  std::vector<std::uint8_t> inbuf;
};

}  // namespace

int node_client_main(int argc, char** argv) {
  std::vector<std::uint16_t> ports;
  std::uint64_t per_node = 0, slots = 0, seed = 1;
  std::uint32_t t = 1;
  double timeout_s = 170;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--ports") {
      for (std::size_t p = 0; p < val.size();) {
        const std::size_t comma = val.find(',', p);
        ports.push_back(static_cast<std::uint16_t>(
            std::stoul(val.substr(p, comma - p))));
        p = comma == std::string::npos ? val.size() : comma + 1;
      }
    } else if (flag == "--ops-per-node") {
      per_node = std::stoull(val);
    } else if (flag == "--slots") {
      slots = std::stoull(val);
    } else if (flag == "--seed") {
      seed = std::stoull(val);
    } else if (flag == "--t") {
      t = static_cast<std::uint32_t>(std::stoul(val));
    } else if (flag == "--timeout-s") {
      timeout_s = std::stod(val);
    } else {
      std::fprintf(stderr, "node-client: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const auto n = static_cast<std::uint32_t>(ports.size());
  if (n == 0 || per_node == 0 || slots == 0) {
    std::fprintf(stderr, "node-client: need --ports, --ops-per-node, --slots\n");
    return 2;
  }

  // Every op's command is fixed up front from the seed, by the same
  // generator the in-process SMR workloads use.
  std::vector<Ack> acks(n * per_node);
  for (std::uint64_t id = 0; id < acks.size(); ++id) {
    acks[id].op_id = id;
    acks[id].node = static_cast<std::uint32_t>(id / per_node);
    acks[id].word = check::crash_proposal(seed, id).pack().raw;
  }
  std::vector<Clock::time_point> sent_at(acks.size());
  std::vector<double> latency_ms;

  std::vector<Conn> conns(n);
  std::vector<pollfd> pfds(n);
  const auto start = Clock::now();
  for (std::uint32_t j = 0; j < n; ++j) {
    conns[j].node = j;
    conns[j].fd = dial(ports[j]);
    if (conns[j].fd < 0) {
      std::fprintf(stderr, "node-client: cannot connect to port %u\n", ports[j]);
      for (const Conn& c : conns) if (c.fd >= 0) close(c.fd);
      return 1;
    }
    pfds[j] = {conns[j].fd, POLLIN, 0};
  }
  const auto send_next = [&](Conn& c) {
    const std::uint64_t id = c.node * per_node + c.next++;
    sent_at[id] = Clock::now();
    return send_op(c.fd, id, acks[id].word);
  };
  std::vector<std::string> errors;
  for (Conn& c : conns) {
    if (!send_next(c)) errors.push_back("write to node " + std::to_string(c.node) + " failed");
  }
  std::uint64_t received = 0;
  Clock::time_point last_ack = start;
  while (errors.empty() && received < acks.size()) {
    if (seconds_since(start) > timeout_s) {
      errors.push_back("timed out with " + std::to_string(acks.size() - received) +
                       " ops unacked");
      break;
    }
    if (poll(pfds.data(), pfds.size(), 200) < 0) break;
    for (std::uint32_t j = 0; j < n; ++j) {
      if ((pfds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[j];
      std::uint8_t chunk[4096];
      const ssize_t got = read(c.fd, chunk, sizeof chunk);
      if (got <= 0) {
        errors.push_back("node " + std::to_string(j) + " closed its client connection");
        pfds[j].fd = -1;
        continue;
      }
      c.inbuf.insert(c.inbuf.end(), chunk, chunk + got);
      std::size_t off = 0;
      while (const auto frame = wire::read_frame(c.inbuf, off)) {
        wire::Reader r(frame->body);
        const std::uint8_t kind = r.u8();
        const std::uint64_t op_id = r.u64();
        const std::uint64_t slot = r.u64();
        const std::uint64_t kv = r.u64();
        const std::uint8_t status = r.u8();
        off += frame->frame_size;
        if (kind != kFrameAck || !r.done() || op_id >= acks.size() ||
            acks[op_id].node != j || acks[op_id].acked) {
          errors.push_back("unexpected ack frame on node " + std::to_string(j));
          continue;
        }
        const auto now = Clock::now();
        Ack& a = acks[op_id];
        a.acked = true;
        a.slot = slot;
        a.kv_digest = kv;
        a.status = status;
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sent_at[op_id]).count());
        last_ack = now;
        ++received;
        if (c.next < per_node && !send_next(c)) {
          errors.push_back("write to node " + std::to_string(j) + " failed");
        }
      }
      c.inbuf.erase(c.inbuf.begin(), c.inbuf.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  for (const Conn& c : conns) close(c.fd);

  std::uint64_t final_kv = 0;
  for (std::string& e : audit_acks(acks, n, slots, &final_kv)) {
    errors.push_back(std::move(e));
  }
  std::uint64_t ok = 0;
  for (const Ack& a : acks) ok += a.acked && a.status == 0 ? 1 : 0;
  const double span_s = std::chrono::duration<double>(last_ack - start).count();
  std::string line = "{\"attempted\": " + std::to_string(acks.size()) +
                     ", \"acked_ok\": " + std::to_string(ok) +
                     ", \"span_s\": " + std::to_string(span_s) +
                     ", \"final_kv\": \"" + hex(final_kv) + "\"" +
                     ", \"bb_rounds\": " +
                     std::to_string(harness::find_driver("bb")->total_rounds(n, t)) +
                     ", \"latency_ms\": [";
  char buf[32];
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.4f", i == 0 ? "" : ",", latency_ms[i]);
    line += buf;
  }
  line += "], \"errors\": [";
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::string e;
    for (const char ch : errors[i]) e += ch == '"' ? '\'' : ch;
    line += (i == 0 ? "\"" : ", \"") + e + "\"";
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench
