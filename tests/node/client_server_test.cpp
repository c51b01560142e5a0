// node::ClientServer over a real localhost socket: once the slot loop ends,
// stop_accepting() refuses the queued backlog and every op that arrives
// afterwards (ack status kAckStopping), and wait_disconnected() returns as
// soon as the client hangs up, or false after its timeout while the client
// stays connected.
#include "node/client.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "wire/frame.hpp"

namespace mewc::node {
namespace {

constexpr std::uint8_t kFrameOp = 0x10;
constexpr std::uint8_t kFrameAck = 0x11;

struct Ack {
  std::uint64_t op_id = 0;
  std::uint64_t slot = 0;
  std::uint64_t kv_digest = 0;
  std::uint8_t status = 0xff;
};

int connect_to(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval tv{5, 0};  // a missing ack fails the test instead of hanging it
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void send_op(int fd, std::uint64_t op_id, std::uint64_t word) {
  wire::Writer w;
  w.u8(kFrameOp);
  w.u64(op_id);
  w.u64(word);
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, w.bytes());
  ASSERT_EQ(write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
}

/// Blocks until one whole ack frame is in `buf`, then pops and decodes it.
Ack read_ack(int fd, std::vector<std::uint8_t>& buf) {
  for (;;) {
    if (const auto frame = wire::read_frame(buf, 0)) {
      wire::Reader r(frame->body);
      EXPECT_EQ(r.u8(), kFrameAck);
      Ack a;
      a.op_id = r.u64();
      a.slot = r.u64();
      a.kv_digest = r.u64();
      a.status = r.u8();
      EXPECT_TRUE(r.done());
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(frame->frame_size));
      return a;
    }
    std::uint8_t chunk[256];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ADD_FAILURE() << "connection closed or timed out before an ack";
      return {};
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

/// Polls the server's stats until `pred` holds (or ~5 s pass).
template <typename Pred>
bool eventually(const ClientServer& server, Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ClientServer, StopRefusesQueuedOpsAndOpsArrivingLater) {
  ClientServer server(0);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int fd = connect_to(server.listen_port());
  std::vector<std::uint8_t> buf;

  send_op(fd, 1, 0x111);
  ASSERT_TRUE(eventually(
      server, [](const ClientServerStats& s) { return s.ops_received == 1; }));

  // The backlog is refused at once, carrying the node's final position.
  server.stop_accepting(7, 0xd1d1);
  const Ack queued = read_ack(fd, buf);
  EXPECT_EQ(queued.op_id, 1u);
  EXPECT_EQ(queued.status, kAckStopping);
  EXPECT_EQ(queued.slot, 7u);
  EXPECT_EQ(queued.kv_digest, 0xd1d1u);

  // An op sent after the stop is refused on arrival, never queued.
  send_op(fd, 2, 0x222);
  const Ack late = read_ack(fd, buf);
  EXPECT_EQ(late.op_id, 2u);
  EXPECT_EQ(late.status, kAckStopping);
  EXPECT_EQ(late.slot, 7u);
  EXPECT_EQ(late.kv_digest, 0xd1d1u);

  ClientOp op;
  EXPECT_FALSE(server.pop(op));
  const ClientServerStats s = server.stats();
  EXPECT_EQ(s.ops_received, 2u);
  EXPECT_EQ(s.acks_sent, 2u);
  EXPECT_EQ(s.refused, 2u);
  close(fd);
  server.shutdown();
}

TEST(ClientServer, WaitDisconnectedTimesOutThenSeesTheHangUp) {
  ClientServer server(0);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int fd = connect_to(server.listen_port());
  ASSERT_TRUE(eventually(
      server, [](const ClientServerStats& s) { return s.accepted == 1; }));
  server.stop_accepting(0, 0);

  // A client that stays connected holds the wait for its whole timeout.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(server.wait_disconnected(std::chrono::milliseconds(100)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));

  // Once it hangs up the wait ends well before its timeout.
  close(fd);
  const auto hung_up = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.wait_disconnected(std::chrono::seconds(5)));
  EXPECT_LT(std::chrono::steady_clock::now() - hung_up,
            std::chrono::seconds(1));
  server.shutdown();
}

}  // namespace
}  // namespace mewc::node
