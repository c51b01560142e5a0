// Self-test of the benchmark's correctness checks: untampered inputs must
// pass and each tampering — a changed ack digest, a dropped ack, a word
// count over the bound, a recovered digest that differs from the live one —
// must be caught.
#include <cstdio>

#include "bench.hpp"
#include "check/runner.hpp"
#include "checks.hpp"
#include "smr/engine.hpp"
#include "smr/recovery.hpp"

namespace perfbench {

using namespace mewc;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%-58s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

/// A well-formed node_tcp ack set: node j's i-th op lands in slot
/// j + n*i, each ack carrying the kv digest of the serial replay.
std::vector<Ack> honest_acks(std::uint32_t n, std::uint64_t per_node,
                             std::uint64_t slots) {
  std::vector<Ack> acks;
  Rng rng(7);
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint64_t i = 0; i < per_node; ++i) {
      Ack a;
      a.node = j;
      a.op_id = j * per_node + i;
      a.word = smr::Command::put(static_cast<std::uint32_t>(rng.next() % 64),
                                 rng.next() & 0xffff)
                   .pack()
                   .raw;
      a.acked = true;
      a.status = 0;
      a.slot = j + n * i;
      acks.push_back(a);
    }
  }
  smr::KvState kv;
  for (std::uint64_t s = 0; s < slots; ++s) {
    Ack* hit = nullptr;
    for (Ack& a : acks) hit = a.slot == s ? &a : hit;
    kv.apply(hit ? smr::Command::unpack(Value(hit->word)) : smr::Command{});
    if (hit) hit->kv_digest = kv.digest();
  }
  return acks;
}

void test_acks() {
  constexpr std::uint32_t n = 4;
  constexpr std::uint64_t per_node = 5, slots = n * (per_node + 2);
  const std::vector<Ack> good = honest_acks(n, per_node, slots);
  std::uint64_t kv = 0;
  expect(audit_acks(good, n, slots, &kv).empty(), "acks: honest run passes");

  auto bad = good;
  bad[3].kv_digest ^= 1;
  expect(!audit_acks(bad, n, slots, &kv).empty(), "acks: tampered ack digest fails");
  bad = good;
  bad[6].acked = false;
  expect(!audit_acks(bad, n, slots, &kv).empty(), "acks: dropped ack fails");
  bad = good;
  bad[2].status = 1;
  expect(!audit_acks(bad, n, slots, &kv).empty(), "acks: retry status fails");
  bad = good;
  bad[1].slot += 1;
  expect(!audit_acks(bad, n, slots, &kv).empty(), "acks: wrong proposer slot fails");
  bad = good;
  bad[per_node].slot = bad[0].slot;
  bad[per_node].node = bad[0].node;
  expect(!audit_acks(bad, n, slots, &kv).empty(), "acks: slot acked twice fails");
}

void test_word_bound() {
  check::CellSpec cell;
  cell.protocol = check::Protocol::kBb;
  cell.n = 5;
  cell.t = 2;
  const check::RunRecord rec = check::run_cell(cell);
  const std::uint64_t words = rec.meter.words_correct;
  const std::uint64_t bound = word_bound(cell.protocol, cell.n, cell.t, rec.f());
  expect(word_violation(cell.protocol, cell.n, cell.t, rec.f(), words).empty(),
         "words: real bb cell within bound");
  expect(!word_violation(cell.protocol, cell.n, cell.t, rec.f(), bound + 1).empty(),
         "words: one word over the bound fails");
  // The bound is Table 1's adaptive O(n(f+1)): it must not admit a
  // quadratic cost at f = 0 for large n.
  expect(word_bound(check::Protocol::kWeakBa, 101, 50, 0) < 101 * 101,
         "words: adaptive bound is linear in n at f=0");
}

void test_recovery() {
  smr::Store store;
  smr::Durability durability(&store);
  smr::EngineConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.checkpoint_every = 8;
  cfg.durability = &durability;
  SmrDigests live;
  {
    smr::Engine engine(cfg);
    for (std::uint64_t s = 0; s < 100; ++s) {
      engine.submit(smr::Command::put(static_cast<std::uint32_t>(s), s).pack());
    }
    engine.finish();
    live = {engine.ledger().ledger_digest(), durability.kv().digest(),
            engine.ledger().slots().size(), engine.ledger().total_words()};
  }
  smr::Ledger::Config lc;
  lc.n = cfg.n;
  lc.t = cfg.t;
  lc.seed = cfg.seed;
  lc.checkpoint_every = cfg.checkpoint_every;
  const smr::Recovered rec = smr::recover(lc, store);
  const SmrDigests got{smr::Ledger::replay_digest(cfg.seed, rec.state.slots),
                       rec.kv.digest(), rec.state.slots.size(),
                       rec.state.total_words};
  std::vector<std::string> errors;
  compare_digests("recovered", live, got, errors);
  expect(errors.empty(), "recovery: recovered digests match live");
  SmrDigests tampered = got;
  tampered.kv ^= 1;
  compare_digests("recovered", live, tampered, errors);
  expect(!errors.empty(), "recovery: mismatched kv digest fails");
  errors.clear();
  tampered = got;
  tampered.ledger ^= 1;
  compare_digests("recovered", live, tampered, errors);
  expect(!errors.empty(), "recovery: mismatched ledger digest fails");
}

}  // namespace

int selftest_main() {
  test_acks();
  test_word_bound();
  test_recovery();
  std::printf("%s\n", g_failures == 0 ? "selftest: all checks behave"
                                      : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
