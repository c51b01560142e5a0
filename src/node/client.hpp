// Client lane of a deployed replica: a small framed-TCP server that
// accepts kv commands from load generators and acks them once their slot
// commits.
//
// Wire format (wire::frame checksummed container, one frame per message):
//
//   op  (client -> node): u8 kind=0x10 | u64 op_id | u64 command-word
//   ack (node -> client): u8 kind=0x11 | u64 op_id | u64 slot
//                         | u64 kv_digest | u8 status
//
// The command word is a packed smr::Command (smr/kv_store.hpp) — one word,
// matching the paper's one-word-per-slot consensus payload. status 0 means
// the op's command committed in `slot`; status 1 means the slot resolved
// to something else (skipped, or a different value won), so the client
// should retry. kv_digest is the node's kv state digest after applying the
// slot — load generators cross-check it across nodes for convergence.
// status 2 means the op was never run: the node's slot loop had ended
// (node stopping), so it refuses every op still queued and every op that
// arrives before it shuts down; `slot` is then the first slot the node
// did not run and kv_digest its final state digest. Every op a node
// accepted is answered with exactly one ack.
//
// Threading: one IO thread owns the sockets (accept/read/write, poll-based,
// mirrors net::TcpTransport's loop). pop() and ack() are called from the
// replica's slot loop; both only touch mutex-guarded queues. Acks for
// connections that have since closed are dropped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mewc::node {

/// Ack status codes (see the wire format above).
inline constexpr std::uint8_t kAckCommitted = 0;
inline constexpr std::uint8_t kAckRetry = 1;
inline constexpr std::uint8_t kAckStopping = 2;

struct ClientOp {
  std::uint64_t conn = 0;  // server-internal connection token
  std::uint64_t op_id = 0;
  std::uint64_t word = 0;  // packed smr::Command
};

struct ClientServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t ops_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t refused = 0;         // ops acked kAckStopping
  std::uint64_t overflow_drops = 0;  // ops shed because the queue was full
  std::uint64_t decode_drops = 0;    // malformed frames
};

class ClientServer {
 public:
  /// `port` 0 binds an ephemeral port (see listen_port()).
  explicit ClientServer(std::uint16_t port) : port_(port) {}
  ~ClientServer();

  ClientServer(const ClientServer&) = delete;
  ClientServer& operator=(const ClientServer&) = delete;

  /// Binds, listens and starts the IO thread. False (with *error set) when
  /// the socket layer refuses.
  bool start(std::string* error);
  void shutdown();

  [[nodiscard]] std::uint16_t listen_port() const { return bound_port_; }

  /// Pops the oldest pending op (non-blocking). The replica's slot loop
  /// calls this when it is the next slot's proposer.
  bool pop(ClientOp& out);

  /// Queues the ack for `op` onto its originating connection.
  void ack(const ClientOp& op, std::uint64_t slot, std::uint64_t kv_digest,
           std::uint8_t status);

  /// Ends the op lane once the slot loop is done: acks every queued op
  /// kAckStopping now, and every op that arrives later on arrival.
  /// `next_slot`/`kv_digest` are the node's final position and state.
  void stop_accepting(std::uint64_t next_slot, std::uint64_t kv_digest);

  /// Waits until every client connection has closed (a client closes once
  /// it holds all its acks), or `timeout` passes. False on timeout.
  bool wait_disconnected(std::chrono::milliseconds timeout);

  [[nodiscard]] ClientServerStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;  // guarded by mu_
    std::size_t out_off = 0;
  };

  void io_loop();
  void wake();
  void handle_readable(std::uint64_t token, Conn& conn);
  /// Appends an ack frame to `conn`'s outbuf; caller holds mu_.
  void queue_ack(Conn& conn, std::uint64_t op_id, std::uint64_t slot,
                 std::uint64_t kv_digest, std::uint8_t status);

  std::uint16_t port_ = 0;
  std::uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::thread io_;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  std::map<std::uint64_t, Conn> conns_;  // token -> connection
  std::uint64_t next_token_ = 1;
  std::deque<ClientOp> ops_;
  ClientServerStats stats_;
  bool stopping_ = false;  // stop_accepting() ran; refuse on arrival
  std::uint64_t final_slot_ = 0;
  std::uint64_t final_kv_digest_ = 0;
};

}  // namespace mewc::node
