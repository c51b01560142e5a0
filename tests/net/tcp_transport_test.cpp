// TcpTransport integration tests over real localhost sockets: directed
// connect topology, cluster-token handshake, authenticated from-stamping,
// envelope exchange in both directions, self-delivery without a socket,
// and mark frames feeding the watermark table.
#include "net/tcp.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>

#include "ba/weak_ba/messages.hpp"
#include "net/arena.hpp"

namespace mewc::net {
namespace {

/// Reserves a free localhost port by binding an ephemeral socket, reading
/// the assignment back, and closing it. Racy in principle; fine in a test.
std::uint16_t probe_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  return ntohs(addr.sin_port);
}

PayloadPtr ping(std::uint64_t phase, Value v) {
  auto m = pool::make<wba::ProposeMsg>();
  m->phase = phase;
  m->value = WireValue::plain(v);
  return m;
}

Envelope env(ProcessId from, ProcessId to, Round round,
             std::uint64_t instance, PayloadPtr body) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.round = round;
  e.instance = instance;
  e.body = std::move(body);
  return e;
}

TcpTransportConfig config_for(ProcessId self, std::uint16_t my_port,
                              std::uint16_t peer_port,
                              std::uint64_t token = 0xfeedu) {
  TcpTransportConfig c;
  c.self = self;
  c.n = 2;
  c.listen_port = my_port;
  c.peers = {{0, "127.0.0.1", self == 0 ? my_port : peer_port},
             {1, "127.0.0.1", self == 1 ? my_port : peer_port}};
  c.cluster_token = token;
  return c;
}

TEST(TcpTransport, PairExchangesEnvelopesAndMarks) {
  const std::uint16_t port_a = probe_port();
  const std::uint16_t port_b = probe_port();
  TcpTransport a(config_for(0, port_a, port_b));
  TcpTransport b(config_for(1, port_b, port_a));
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;
  ASSERT_TRUE(b.start(&error)) << error;
  ASSERT_TRUE(a.wait_connected(std::chrono::seconds(10)));
  ASSERT_TRUE(b.wait_connected(std::chrono::seconds(10)));

  // a -> b, and a self-delivery that must never cross a socket.
  a.send(env(0, 1, 1, 3, ping(1, Value(41))));
  a.send(env(0, 0, 1, 3, ping(2, Value(42))));
  b.send(env(1, 0, 1, 3, ping(3, Value(43))));

  Envelope in;
  ASSERT_TRUE(b.receive(3, in, 2000));
  EXPECT_EQ(in.from, 0u);  // stamped from the connection identity
  EXPECT_EQ(in.to, 1u);
  EXPECT_EQ(in.round, 1u);
  const auto* got = payload_cast<wba::ProposeMsg>(in.body);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value.value.raw, 41u);

  // a's two inbound envelopes: the self-copy and b's message, in some
  // order (different sources, no cross-source ordering guarantee).
  std::uint64_t seen = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(a.receive(3, in, 2000));
    const auto* p = payload_cast<wba::ProposeMsg>(in.body);
    ASSERT_NE(p, nullptr);
    seen |= 1u << p->phase;
    if (p->phase == 2) {
      EXPECT_EQ(in.from, 0u);
    }
    if (p->phase == 3) {
      EXPECT_EQ(in.from, 1u);
    }
  }
  EXPECT_EQ(seen, (1u << 2) | (1u << 3));

  // Marks feed the peer's watermark table.
  a.mark(3, 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!b.watermarks().all_at_least(1, 3, 1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "mark lost";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const TcpTransportStats sa = a.stats();
  EXPECT_EQ(sa.envelopes_sent, 1u);  // self-delivery is not a socket send
  EXPECT_EQ(sa.decode_drops, 0u);
  a.shutdown();
  b.shutdown();
}

TEST(TcpTransport, WrongClusterTokenNeverConnects) {
  const std::uint16_t port_a = probe_port();
  const std::uint16_t port_b = probe_port();
  TcpTransport a(config_for(0, port_a, port_b, /*token=*/1));
  TcpTransport b(config_for(1, port_b, port_a, /*token=*/2));
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;
  ASSERT_TRUE(b.start(&error)) << error;
  // Handshakes are refused, so the cluster never becomes ready.
  EXPECT_FALSE(a.wait_connected(std::chrono::milliseconds(400)));
  EXPECT_FALSE(b.wait_connected(std::chrono::milliseconds(400)));
  a.shutdown();
  b.shutdown();
}

TEST(TcpTransport, StaleInstanceEnvelopesAreShed) {
  const std::uint16_t port_a = probe_port();
  const std::uint16_t port_b = probe_port();
  TcpTransport a(config_for(0, port_a, port_b));
  TcpTransport b(config_for(1, port_b, port_a));
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;
  ASSERT_TRUE(b.start(&error)) << error;
  ASSERT_TRUE(a.wait_connected(std::chrono::seconds(10)));
  ASSERT_TRUE(b.wait_connected(std::chrono::seconds(10)));

  a.send(env(0, 1, 1, /*instance=*/4, ping(1, Value(1))));
  a.send(env(0, 1, 1, /*instance=*/9, ping(2, Value(2))));
  Envelope in;
  // Receiving instance 9 ratchets the floor; the instance-4 envelope is
  // dropped as stale, not delivered later.
  ASSERT_TRUE(b.receive(9, in, 2000));
  EXPECT_EQ(in.instance, 9u);
  EXPECT_FALSE(b.receive(4, in, 50));
  a.shutdown();
  b.shutdown();
}

}  // namespace
}  // namespace mewc::net
