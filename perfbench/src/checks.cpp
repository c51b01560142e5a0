#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/types.hpp"
#include "smr/kv_store.hpp"

namespace perfbench {

using mewc::check::Protocol;

namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Messages of A_fallback: n Dolev-Strong instances, two relays per
/// instance per correct process, each to all n.
std::uint64_t fallback_msgs(std::uint64_t n) { return 2 * n * n * n; }

/// Messages of adaptive weak BA's phases plus its help exchange.
std::uint64_t weak_ba_msgs(std::uint64_t n, std::uint64_t f, bool adaptive) {
  if (adaptive) return 10 * n * (f + 1) + n * f;
  // All n phases may carry traffic; everyone may ask for help, answer it,
  // and broadcast and echo the fallback certificate; then A_fallback.
  return 10 * n * n + 4 * n * n + fallback_msgs(n);
}

}  // namespace

std::uint64_t word_bound(Protocol protocol, std::uint32_t n32,
                         std::uint32_t t32, std::uint32_t f32) {
  const std::uint64_t n = n32;
  const std::uint64_t f = f32;
  const bool adaptive = mewc::adaptive_regime(n32, t32, f32);
  const std::uint64_t phases = adaptive ? f + 1 : n;
  std::uint64_t msgs = 0;
  switch (protocol) {
    case Protocol::kWeakBa:
      msgs = weak_ba_msgs(n, f, adaptive);
      break;
    case Protocol::kBb:
      msgs = n + 6 * n * phases + weak_ba_msgs(n, f, adaptive);
      break;
    case Protocol::kStrongBa:
      // Rounds 1-4 (to leader / from leader, twice); with any fault the
      // leader can withhold QC_decide, so the window echoes and A_fallback
      // may follow.
      msgs = 4 * n + (f == 0 ? 0 : 2 * n * n + fallback_msgs(n));
      break;
    case Protocol::kFallback:
      msgs = fallback_msgs(n);
      break;
    case Protocol::kDsBb:
      msgs = 2 * n * n;  // one Dolev-Strong instance
      break;
  }
  return kMaxMsgWords * msgs;
}

std::string word_violation(Protocol protocol, std::uint32_t n,
                           std::uint32_t t, std::uint32_t f,
                           std::uint64_t words) {
  const std::uint64_t bound = word_bound(protocol, n, t, f);
  if (words <= bound) return "";
  return std::to_string(words) + " words > Table 1 bound " +
         std::to_string(bound) + " (" + mewc::check::protocol_name(protocol) +
         " n=" + std::to_string(n) + " t=" + std::to_string(t) +
         " f=" + std::to_string(f) + ")";
}

std::vector<std::string> audit_acks(const std::vector<Ack>& acks,
                                    std::uint32_t n, std::uint64_t slots,
                                    std::uint64_t* final_kv) {
  std::vector<std::string> errors;
  std::map<std::uint64_t, const Ack*> by_slot;
  for (const Ack& a : acks) {
    const std::string who = "op " + std::to_string(a.op_id) + " (node " +
                            std::to_string(a.node) + ")";
    if (!a.acked) {
      errors.push_back(who + ": never acked");
      continue;
    }
    if (a.status != 0) {
      errors.push_back(who + ": acked with status " +
                       std::to_string(a.status));
      continue;
    }
    if (a.slot >= slots) {
      errors.push_back(who + ": slot " + std::to_string(a.slot) +
                       " beyond the run's " + std::to_string(slots));
      continue;
    }
    if (a.slot % n != a.node) {
      errors.push_back(who + ": committed in slot " + std::to_string(a.slot) +
                       " whose proposer is node " +
                       std::to_string(a.slot % n));
    }
    if (!by_slot.emplace(a.slot, &a).second) {
      errors.push_back(who + ": slot " + std::to_string(a.slot) +
                       " acked twice");
    }
  }
  // Serial replay: the acked command in its slot, the noop filler in
  // every other slot (f = 0, so no slot is skipped).
  mewc::smr::KvState kv;
  for (std::uint64_t s = 0; s < slots; ++s) {
    const auto it = by_slot.find(s);
    if (it == by_slot.end()) {
      kv.apply(mewc::smr::Command{});
      continue;
    }
    kv.apply(mewc::smr::Command::unpack(mewc::Value(it->second->word)));
    if (kv.digest() != it->second->kv_digest) {
      errors.push_back("op " + std::to_string(it->second->op_id) +
                       ": ack kv digest " + hex(it->second->kv_digest) +
                       " != replayed " + hex(kv.digest()) + " at slot " +
                       std::to_string(s));
    }
  }
  if (final_kv != nullptr) *final_kv = kv.digest();
  return errors;
}

void compare_digests(const char* what, const SmrDigests& want,
                     const SmrDigests& got, std::vector<std::string>& errors) {
  const auto cmp = [&](const char* field, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      errors.push_back(std::string(what) + ": " + field + " " + hex(b) +
                       " != " + hex(a));
    }
  };
  cmp("ledger digest", want.ledger, got.ledger);
  cmp("kv digest", want.kv, got.kv);
  cmp("slots", want.slots, got.slots);
  cmp("words", want.words, got.words);
}

}  // namespace perfbench
