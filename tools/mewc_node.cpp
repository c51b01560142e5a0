// mewc_node — one consensus replica of a real deployed cluster.
//
// Runs the SMR ledger's BB-per-slot / strong-BA-per-checkpoint schedule
// over net::TcpTransport: n of these processes (one per --id) form a
// cluster on localhost or across hosts, close rounds via mark watermarks
// with a timeout fallback (net::TimeoutRoundSync), accept client commands
// on a separate framed-TCP port (node::ClientServer, fed by mewc_loadgen),
// and optionally persist a WAL + snapshots via --wal-dir.
//
// Port convention: node j's consensus port is --base-port + j and its
// client port is --base-port + n + j, so a whole local cluster needs only
// one flag. --client-port overrides the latter for multi-host layouts.
//
// The node prints one summary block at exit; "kv digest:" and
// "ledger digest:" lines are the cross-node agreement audit — every node
// of a converged cluster prints identical digests
// (tests/node/node_smoke.sh greps exactly these).
//
// Usage:
//   mewc_node --id I [--n N] [--t T] [--base-port P] [--host H]
//             [--client-port P] [--slots S] [--checkpoint-every C]
//             [--round-timeout-ms MS] [--connect-timeout-ms MS]
//             [--seed SEED] [--backend sim|shamir|real]
//             [--wal-dir DIR] [--recover]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "argparse.hpp"
#include "common/hash.hpp"
#include "net/tcp.hpp"
#include "node/client.hpp"
#include "node/replica.hpp"
#include "smr/recovery.hpp"

namespace {

using namespace mewc;
using tools::parse_u32;
using tools::parse_u64;

struct Options {
  std::uint32_t id = 0;
  bool id_set = false;
  std::uint32_t n = 4;
  std::uint32_t t = 1;
  std::uint32_t base_port = 19000;
  std::string host = "127.0.0.1";
  std::uint32_t client_port = 0;  // 0: derive base_port + n + id
  std::uint64_t slots = 16;
  std::uint32_t checkpoint_every = 0;
  std::uint64_t round_timeout_ms = 1000;
  std::uint64_t connect_timeout_ms = 15000;
  std::uint64_t seed = 0x5e7;
  std::string backend = "sim";
  std::string wal_dir;
  bool recover = false;
};

// The tool name is literal (not argv[0]) so the --help output is stable
// under any invocation path — tests/tools/mewc_node_help.txt pins it.
void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: mewc_node --id I [--n N] [--t T] [--base-port P] [--host H]\n"
      "          [--client-port P] [--slots S] [--checkpoint-every C]\n"
      "          [--round-timeout-ms MS] [--connect-timeout-ms MS]\n"
      "          [--seed SEED] [--backend sim|shamir|real]\n"
      "          [--wal-dir DIR] [--recover]\n"
      "\n"
      "One replica of an n-node BFT SMR cluster over TCP. Node j listens\n"
      "on base-port+j for peers and base-port+n+j for clients; all n nodes\n"
      "must share --n/--t/--seed/--backend (the handshake token refuses\n"
      "mismatched peers). Prints `kv digest:`/`ledger digest:` lines at\n"
      "exit for cross-node convergence audits.\n");
}

[[noreturn]] void usage_and_exit() {
  print_usage(stderr);
  std::exit(2);
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
    } else if (!std::strcmp(argv[i], "--id")) {
      o.id = parse_u32("--id", need());
      o.id_set = true;
    } else if (!std::strcmp(argv[i], "--n")) {
      o.n = parse_u32("--n", need());
    } else if (!std::strcmp(argv[i], "--t")) {
      o.t = parse_u32("--t", need());
    } else if (!std::strcmp(argv[i], "--base-port")) {
      o.base_port = parse_u32("--base-port", need(), 65535);
    } else if (!std::strcmp(argv[i], "--host")) {
      o.host = need();
    } else if (!std::strcmp(argv[i], "--client-port")) {
      o.client_port = parse_u32("--client-port", need(), 65535);
    } else if (!std::strcmp(argv[i], "--slots")) {
      o.slots = parse_u64("--slots", need());
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      o.checkpoint_every = parse_u32("--checkpoint-every", need());
    } else if (!std::strcmp(argv[i], "--round-timeout-ms")) {
      o.round_timeout_ms = parse_u64("--round-timeout-ms", need());
    } else if (!std::strcmp(argv[i], "--connect-timeout-ms")) {
      o.connect_timeout_ms = parse_u64("--connect-timeout-ms", need());
    } else if (!std::strcmp(argv[i], "--seed")) {
      o.seed = parse_u64("--seed", need());
    } else if (!std::strcmp(argv[i], "--backend")) {
      o.backend = need();
    } else if (!std::strcmp(argv[i], "--wal-dir")) {
      o.wal_dir = need();
    } else if (!std::strcmp(argv[i], "--recover")) {
      o.recover = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage_and_exit();
    }
  }
  if (!o.id_set) {
    std::fprintf(stderr, "--id is required\n");
    usage_and_exit();
  }
  return o;
}

/// Shared-configuration handshake token: any node whose (seed, n, t,
/// backend) differs computes a different token and is refused at connect
/// time instead of diverging silently mid-consensus.
std::uint64_t cluster_token(const Options& o, ThresholdBackend backend) {
  std::uint64_t h = hash_combine(0x6d65776e6f646575ull, o.seed);  // "mewnode"
  h = hash_combine(h, o.n);
  h = hash_combine(h, o.t);
  h = hash_combine(h, static_cast<std::uint64_t>(backend));
  return h;
}

int run(const Options& o) {
  const auto backend = parse_backend(o.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend: %s (expected sim|shamir|real)\n",
                 o.backend.c_str());
    return 2;
  }
  if (o.t == 0 || o.n < 2 * o.t + 1) {
    std::fprintf(stderr, "need t >= 1 and n >= 2t+1\n");
    return 2;
  }
  if (o.id >= o.n) {
    std::fprintf(stderr, "--id must be < --n\n");
    return 2;
  }
  if (o.base_port + o.n + o.n > 65536) {
    std::fprintf(stderr, "--base-port leaves no room for %u node+client "
                         "ports\n", 2 * o.n);
    return 2;
  }

  // Node-to-node transport: node j listens on base+j, dials every peer.
  net::TcpTransportConfig tc;
  tc.self = o.id;
  tc.n = o.n;
  tc.listen_port = static_cast<std::uint16_t>(o.base_port + o.id);
  for (std::uint32_t j = 0; j < o.n; ++j) {
    tc.peers.push_back({j, o.host, static_cast<std::uint16_t>(o.base_port + j)});
  }
  tc.cluster_token = cluster_token(o, *backend);
  net::TcpTransport transport(tc);
  std::string error;
  if (!transport.start(&error)) {
    std::fprintf(stderr, "node %u: transport: %s\n", o.id, error.c_str());
    return 1;
  }

  const std::uint16_t client_port = static_cast<std::uint16_t>(
      o.client_port != 0 ? o.client_port : o.base_port + o.n + o.id);
  node::ClientServer clients(client_port);
  if (!clients.start(&error)) {
    std::fprintf(stderr, "node %u: client lane: %s\n", o.id, error.c_str());
    return 1;
  }

  // Durable state: load (or create) the store before consensus starts so a
  // recovering cluster completes its pending checkpoint together.
  smr::Store store;
  if (!o.wal_dir.empty() && o.recover) {
    auto loaded = smr::load_store(o.wal_dir);
    if (!loaded) {
      std::fprintf(stderr, "node %u: cannot read --wal-dir %s\n", o.id,
                   o.wal_dir.c_str());
      return 1;
    }
    store = std::move(*loaded);
  }
  smr::Durability durability(&store);

  net::TimeoutRoundSync sync(transport.watermarks(), o.id,
                             std::chrono::milliseconds(o.round_timeout_ms));
  node::ReplicaConfig rc;
  rc.id = o.id;
  rc.n = o.n;
  rc.t = o.t;
  rc.backend = *backend;
  rc.seed = o.seed;
  rc.checkpoint_every = o.checkpoint_every;
  rc.transport = &transport;
  rc.sync = &sync;
  rc.durability = o.wal_dir.empty() ? nullptr : &durability;
  node::Replica replica(rc);

  std::printf("node %u: listening node=%u client=%u (n=%u t=%u backend=%s "
              "seed=0x%llx)\n",
              o.id, transport.listen_port(), clients.listen_port(), o.n, o.t,
              backend_name(*backend),
              static_cast<unsigned long long>(o.seed));
  std::fflush(stdout);

  if (!transport.wait_connected(
          std::chrono::milliseconds(o.connect_timeout_ms))) {
    std::fprintf(stderr, "node %u: cluster never connected (%llu ms)\n", o.id,
                 static_cast<unsigned long long>(o.connect_timeout_ms));
    return 1;
  }

  // Recovery happens after the cluster is up: completing a pending
  // checkpoint runs a strong-BA instance across all nodes, so every node
  // must already be reachable (whole-cluster restart is the model).
  if (o.recover && !o.wal_dir.empty()) {
    smr::Ledger::Config lc;
    lc.n = o.n;
    lc.t = o.t;
    lc.backend = *backend;
    lc.seed = o.seed;
    lc.checkpoint_every = o.checkpoint_every;
    smr::Recovered rec = smr::recover(lc, store);
    durability.reset_kv(rec.kv);
    std::printf("node %u: recovered %llu slots (snapshot=%d replayed=%llu "
                "pending-checkpoint=%d)\n",
                o.id,
                static_cast<unsigned long long>(rec.state.slots.size()),
                rec.stats.used_snapshot ? 1 : 0,
                static_cast<unsigned long long>(rec.stats.records_replayed),
                rec.stats.checkpoint_pending ? 1 : 0);
    std::fflush(stdout);
    replica.install(std::move(rec.state), std::move(rec.kv));
  }
  std::printf("node %u: cluster up, running %llu slots\n", o.id,
              static_cast<unsigned long long>(o.slots));
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  std::uint64_t acked_ok = 0;
  std::uint64_t acked_retry = 0;
  const std::uint64_t first_slot = replica.next_slot();
  while (replica.next_slot() < first_slot + o.slots) {
    // A client op rides a slot only when this node is its proposer; the BB
    // sender is the only process whose input matters, so popping anywhere
    // else would silently drop the op.
    node::ClientOp op;
    const bool have_op = replica.proposes_next() && clients.pop(op);
    const Value proposal =
        have_op ? Value(op.word) : smr::Command{}.pack();  // noop filler
    const smr::SlotRecord& rec = replica.run_slot(proposal);
    if (have_op) {
      const bool landed = !rec.skipped && rec.value.raw == op.word;
      clients.ack(op, rec.slot, replica.kv().digest(),
                  landed ? node::kAckCommitted : node::kAckRetry);
      ++(landed ? acked_ok : acked_retry);
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  // No slot is left to carry an op: refuse the backlog and every later op
  // at once rather than leave them unanswered.
  clients.stop_accepting(replica.next_slot(), replica.kv().digest());

  if (!o.wal_dir.empty() && !smr::save_store(o.wal_dir, store)) {
    std::fprintf(stderr, "node %u: cannot persist --wal-dir %s\n", o.id,
                 o.wal_dir.c_str());
    return 1;
  }

  // Keep refusing ops until the clients hang up (they do once every op is
  // answered), so an op sent just before the exit still gets its refusal.
  // A client still connected one round timeout later is given up on, as a
  // peer late by a round timeout is: the timeout is the cluster's bound on
  // message delay, so by then every op sent before the stop has arrived.
  clients.wait_disconnected(std::chrono::milliseconds(o.round_timeout_ms));

  const node::ReplicaStats& rs = replica.stats();
  const net::TcpTransportStats ts = transport.stats();
  const node::ClientServerStats cs = clients.stats();
  std::printf("node %u: slots=%llu committed=%llu skipped=%llu "
              "checkpoints=%llu fallbacks=%llu in %lld ms\n",
              o.id, static_cast<unsigned long long>(rs.slots_run),
              static_cast<unsigned long long>(rs.committed),
              static_cast<unsigned long long>(rs.skipped),
              static_cast<unsigned long long>(rs.checkpoint_runs),
              static_cast<unsigned long long>(rs.fallbacks),
              static_cast<long long>(elapsed.count()));
  std::printf("node %u: client ops=%llu acked_ok=%llu acked_retry=%llu "
              "refused=%llu\n",
              o.id, static_cast<unsigned long long>(cs.ops_received),
              static_cast<unsigned long long>(acked_ok),
              static_cast<unsigned long long>(acked_retry),
              static_cast<unsigned long long>(cs.refused));
  std::printf("node %u: round timeouts=%llu late_drops=%llu "
              "foreign_drops=%llu\n",
              o.id, static_cast<unsigned long long>(sync.timeouts()),
              static_cast<unsigned long long>(rs.late_drops),
              static_cast<unsigned long long>(rs.foreign_drops));
  std::printf("node %u: transport sent=%llu received=%llu reconnects=%llu "
              "decode_drops=%llu\n",
              o.id, static_cast<unsigned long long>(ts.envelopes_sent),
              static_cast<unsigned long long>(ts.envelopes_received),
              static_cast<unsigned long long>(ts.reconnects),
              static_cast<unsigned long long>(ts.decode_drops));
  std::printf("node %u: ledger digest: 0x%016llx\n", o.id,
              static_cast<unsigned long long>(replica.ledger().ledger_digest()));
  std::printf("node %u: kv digest: 0x%016llx\n", o.id,
              static_cast<unsigned long long>(replica.kv().digest()));

  // Linger so slower peers can still close their final rounds against our
  // marks before the sockets vanish (they are already in-flight; this just
  // keeps the process from racing its own kernel buffers on exit).
  clients.shutdown();
  transport.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
