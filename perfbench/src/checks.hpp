// Correctness checks of the benchmark. Each is a pure function over the
// numbers a workload observed, so the self-test (selftest.cpp) can feed it
// tampered inputs and prove it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/protocols.hpp"

namespace perfbench {

/// Upper bound on the words correct processes send in one run of
/// `protocol` at (n, t) with `f` corrupted processes, derived from the
/// algorithms' message pattern (PROTOCOLS.md), not from any measured count:
///
///  - every protocol message is at most kMaxMsgWords words (the widest is
///    the weak-BA fallback announcement: certificate + value + proof);
///  - a rotating-leader phase round costs at most 2n messages (one to the
///    leader from each process, one broadcast by the leader), and only
///    phases whose leader is Byzantine or still undecided carry traffic —
///    at most f + 1 of them in the adaptive regime (n - f >= commit
///    quorum), all n of them outside it;
///  - A_fallback is n parallel Dolev-Strong instances in which a correct
///    process relays at most two values per instance to all n processes.
///
/// Adaptive regime: weak BA 10n(f+1) + nf messages (phases + answers to at
/// most f Byzantine help requests), BB adds n for the sender's broadcast
/// and 6n(f+1) for its 3-round phases — Table 1's O(n(f+1)). Strong BA is
/// 4n at f = 0 and may run the fallback otherwise. Outside the adaptive
/// regime the fallback (O(n^3) with the Dolev-Strong substitute) and the
/// help exchange (O(n^2)) are added.
inline constexpr std::uint64_t kMaxMsgWords = 5;
[[nodiscard]] std::uint64_t word_bound(mewc::check::Protocol protocol,
                                       std::uint32_t n, std::uint32_t t,
                                       std::uint32_t f);

/// "" when `words` is within word_bound, else the violation.
[[nodiscard]] std::string word_violation(mewc::check::Protocol protocol,
                                         std::uint32_t n, std::uint32_t t,
                                         std::uint32_t f, std::uint64_t words);

/// One ack the node_tcp client received, with what it had sent.
struct Ack {
  std::uint32_t node = 0;     // connection the op was sent on
  std::uint64_t op_id = 0;
  std::uint64_t word = 0;     // packed command sent
  bool acked = false;
  std::uint64_t slot = 0;
  std::uint64_t kv_digest = 0;
  std::uint8_t status = 0xff;
};

/// Audits a node_tcp run: every op acked with status 0, in a distinct slot
/// below `slots` whose proposer (slot mod n) is the node it was sent to,
/// and every ack's kv digest equal to a serial replay of the acked commands
/// in slot order (every other slot commits the node's noop filler). On
/// return *final_kv holds the replayed digest after all `slots` slots, for
/// comparison with the nodes' exit lines. Returns the violations found.
[[nodiscard]] std::vector<std::string> audit_acks(const std::vector<Ack>& acks,
                                                  std::uint32_t n,
                                                  std::uint64_t slots,
                                                  std::uint64_t* final_kv);

/// Digests a durable SMR run ends with, live or rebuilt by recovery.
struct SmrDigests {
  std::uint64_t ledger = 0;
  std::uint64_t kv = 0;
  std::uint64_t slots = 0;
  std::uint64_t words = 0;
};

/// Appends a violation for every field in which `got` differs from `want`.
void compare_digests(const char* what, const SmrDigests& want,
                     const SmrDigests& got, std::vector<std::string>& errors);

}  // namespace perfbench
