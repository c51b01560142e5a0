#include "node/client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>

#include "wire/frame.hpp"

namespace mewc::node {

namespace {

constexpr std::uint8_t kFrameOp = 0x10;
constexpr std::uint8_t kFrameAck = 0x11;
/// Pending-op bound: an open-loop load generator may outrun the slot rate;
/// beyond this the oldest backlog would never commit in time anyway.
constexpr std::size_t kMaxPendingOps = 1u << 16;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

ClientServer::~ClientServer() { shutdown(); }

bool ClientServer::start(std::string* error) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "client socket: " + std::string(strerror(errno));
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port_);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = "client bind: " + std::string(strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_) ||
      pipe(wake_fds_) != 0 || !set_nonblocking(wake_fds_[0])) {
    if (error != nullptr) *error = "client listen: " + std::string(strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  io_ = std::thread([this] { io_loop(); });
  return true;
}

void ClientServer::shutdown() {
  if (!io_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  wake();
  io_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [token, conn] : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

void ClientServer::wake() {
  if (wake_fds_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &b, 1);
  }
}

bool ClientServer::pop(ClientOp& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ops_.empty()) return false;
  out = ops_.front();
  ops_.pop_front();
  return true;
}

void ClientServer::queue_ack(Conn& conn, std::uint64_t op_id,
                             std::uint64_t slot, std::uint64_t kv_digest,
                             std::uint8_t status) {
  wire::Writer w;
  w.u8(kFrameAck);
  w.u64(op_id);
  w.u64(slot);
  w.u64(kv_digest);
  w.u8(status);
  wire::append_frame(conn.outbuf, w.bytes());
  ++stats_.acks_sent;
  if (status == kAckStopping) ++stats_.refused;
}

void ClientServer::ack(const ClientOp& op, std::uint64_t slot,
                       std::uint64_t kv_digest, std::uint8_t status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(op.conn);
    if (it == conns_.end()) return;  // client went away; drop the ack
    queue_ack(it->second, op.op_id, slot, kv_digest, status);
  }
  wake();
}

void ClientServer::stop_accepting(std::uint64_t next_slot,
                                  std::uint64_t kv_digest) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    final_slot_ = next_slot;
    final_kv_digest_ = kv_digest;
    for (const ClientOp& op : ops_) {
      const auto it = conns_.find(op.conn);
      if (it == conns_.end()) continue;  // client went away
      queue_ack(it->second, op.op_id, next_slot, kv_digest, kAckStopping);
    }
    ops_.clear();
  }
  wake();
}

bool ClientServer::wait_disconnected(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.empty()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ClientServerStats ClientServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ClientServer::handle_readable(std::uint64_t token, Conn& conn) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close(conn.fd);
    conn.fd = -1;
    return;
  }

  std::size_t offset = 0;
  for (;;) {
    const auto frame = wire::read_frame(conn.inbuf, offset);
    if (!frame) break;
    // Caller holds mu_ (io_loop's per-pass lock), so the queues and stats
    // are safe to touch directly here.
    wire::Reader r(frame->body);
    const std::uint8_t kind = r.u8();
    const std::uint64_t op_id = r.u64();
    const std::uint64_t word = r.u64();
    if (kind != kFrameOp || !r.done()) {
      ++stats_.decode_drops;
    } else if (stopping_) {
      ++stats_.ops_received;
      queue_ack(conn, op_id, final_slot_, final_kv_digest_, kAckStopping);
    } else if (ops_.size() >= kMaxPendingOps) {
      ++stats_.overflow_drops;
    } else {
      ops_.push_back(ClientOp{token, op_id, word});
      ++stats_.ops_received;
    }
    offset += frame->frame_size;
  }
  if (offset > 0) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

void ClientServer::io_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> tokens;
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [token, conn] : conns_) {
        short events = POLLIN;
        if (conn.outbuf.size() > conn.out_off) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        tokens.push_back(token);
      }
    }

    poll(fds.data(), fds.size(), 50);

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint8_t sink[256];
      while (read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lock(mu_);
        Conn conn;
        conn.fd = fd;
        conns_.emplace(next_token_++, std::move(conn));
        ++stats_.accepted;
      }
    }

    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const auto it = conns_.find(tokens[i]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if (conn.fd != fds[i + 2].fd) continue;  // token reused; skip this pass
      if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        handle_readable(tokens[i], conn);
      }
      while (conn.fd >= 0 && conn.outbuf.size() > conn.out_off) {
        const ssize_t n =
            write(conn.fd, conn.outbuf.data() + conn.out_off,
                  conn.outbuf.size() - conn.out_off);
        if (n > 0) {
          conn.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close(conn.fd);
        conn.fd = -1;
      }
      if (conn.out_off > 0 && conn.out_off == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.out_off = 0;
      }
      if (conn.fd < 0) conns_.erase(it);
    }
  }
}

}  // namespace mewc::node
