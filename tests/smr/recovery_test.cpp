// Recovery and certified catch-up: snapshot round trips and rejection
// paths, crash recovery from real engine runs (with and without a
// snapshot), pending-checkpoint completion, peer state sync, and the
// kv-store determinism pin — replaying from a snapshot cut mid-stream
// must reach the same state digest as replaying from genesis.
#include "smr/recovery.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "smr/engine.hpp"
#include "smr/wal.hpp"
#include "wire/frame.hpp"

namespace mewc::smr {
namespace {

constexpr std::uint64_t kSeed = 0x135;

EngineConfig engine_config(std::uint32_t checkpoint_every,
                           DurabilityHook* hook) {
  EngineConfig c;
  c.n = 5;
  c.t = 2;
  c.seed = kSeed;
  c.workers = 2;
  c.queue_capacity = 4;
  c.checkpoint_every = checkpoint_every;
  c.durability = hook;
  return c;
}

Ledger::Config ledger_config(std::uint32_t checkpoint_every) {
  Ledger::Config c;
  c.n = 5;
  c.t = 2;
  c.seed = kSeed;
  c.checkpoint_every = checkpoint_every;
  return c;
}

Command proposal(std::uint64_t slot) {
  // A deterministic op mix touching few keys, so erase/add paths run.
  Rng rng(hash_combine(0xfeedu, slot));
  const auto key = static_cast<std::uint32_t>(rng.below(8));
  switch (rng.below(4)) {
    case 0:
    case 1:
      return Command::put(key, rng.below(1u << 16));
    case 2:
      return Command::add(key, rng.below(1u << 10));
    default:
      return Command::erase(key);
  }
}

/// Runs `slots` proposals through a durable engine; returns the ledger
/// digest (the store and hook capture the durable side effects).
std::uint64_t run_durable(Store& store, std::uint32_t checkpoint_every,
                          std::uint64_t slots, Durability& hook) {
  Engine engine(engine_config(checkpoint_every, &hook));
  for (std::uint64_t s = 0; s < slots; ++s) {
    engine.submit(proposal(s).pack());
  }
  engine.finish();
  (void)store;
  return engine.ledger().ledger_digest();
}

// ---------------------------------------------------------------------------
// Snapshot round trips and rejection.
// ---------------------------------------------------------------------------

Snapshot sample_snapshot() {
  std::vector<SlotRecord> slots;
  for (std::uint64_t s = 0; s < 3; ++s) {
    SlotRecord rec;
    rec.slot = s;
    rec.proposer = static_cast<ProcessId>(s);
    rec.value = Value(70 + s);
    rec.agreement = true;
    rec.words = 50;
    slots.push_back(rec);
  }
  Snapshot snap;
  snap.after_slot = 3;
  snap.ledger_digest = Ledger::replay_digest(kSeed, slots);
  snap.total_words = 150 + 80;
  snap.since_checkpoint = 0;
  snap.healthy = true;
  snap.slots = std::move(slots);
  CheckpointRecord cp;
  cp.after_slot = 3;
  cp.ledger_digest = snap.ledger_digest;
  cp.accepted = true;
  cp.agreement = true;
  cp.words = 80;
  snap.checkpoints = {cp};
  snap.cert = cp;
  snap.kv_entries = {{1, 11}, {4, 44}};
  snap.kv_digest = 0x77;
  return snap;
}

TEST(Snapshot, RoundTripsAllFields) {
  const Snapshot snap = sample_snapshot();
  ASSERT_TRUE(snap.certified());
  ASSERT_TRUE(snap.valid(kSeed));

  const auto bytes = encode_snapshot(snap);
  const auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->after_slot, snap.after_slot);
  EXPECT_EQ(decoded->ledger_digest, snap.ledger_digest);
  EXPECT_EQ(decoded->total_words, snap.total_words);
  EXPECT_EQ(decoded->healthy, snap.healthy);
  ASSERT_EQ(decoded->slots.size(), snap.slots.size());
  for (std::size_t i = 0; i < snap.slots.size(); ++i) {
    EXPECT_EQ(decoded->slots[i].value.raw, snap.slots[i].value.raw);
  }
  ASSERT_EQ(decoded->checkpoints.size(), 1u);
  EXPECT_EQ(decoded->cert.ledger_digest, snap.cert.ledger_digest);
  EXPECT_EQ(decoded->kv_entries, snap.kv_entries);
  EXPECT_EQ(decoded->kv_digest, snap.kv_digest);
  EXPECT_TRUE(decoded->valid(kSeed));
}

TEST(Snapshot, EveryTruncationAndCorruptionRejected) {
  const auto bytes = encode_snapshot(sample_snapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> torn(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_snapshot(torn).has_value()) << "prefix " << len;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x5a;
    // Header/checksum corruption fails the frame; body corruption either
    // fails the frame checksum or (never) decodes — reject either way.
    EXPECT_FALSE(decode_snapshot(bad).has_value()) << "corrupt byte " << i;
  }
}

TEST(Snapshot, WrongSeedOrTamperedCertificateInvalid) {
  Snapshot snap = sample_snapshot();
  EXPECT_FALSE(snap.valid(kSeed + 1));  // digest chain is seed-bound

  Snapshot unaccepted = sample_snapshot();
  unaccepted.cert.accepted = false;
  EXPECT_FALSE(unaccepted.certified());

  Snapshot mismatched = sample_snapshot();
  mismatched.cert.after_slot = 2;
  EXPECT_FALSE(mismatched.certified());
}

TEST(Snapshot, NonCanonicalBodyRejectedUnderValidChecksum) {
  const auto bytes = encode_snapshot(sample_snapshot());
  // Re-frames a doctored body so only the decoder's own checks can refuse
  // it (a plain flip already fails the frame checksum).
  const auto reframed = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> out = bytes;
    out[at] = value;
    wire::put_frame_header(
        out, static_cast<std::uint32_t>(out.size() - wire::kFrameHeader),
        wire::checksum(std::span(out).subspan(wire::kFrameHeader)));
    return out;
  };
  const std::size_t first_tag = wire::kFrameHeader + 8;  // after magic+version
  const std::uint8_t tag = bytes[first_tag];
  ASSERT_TRUE(decode_snapshot(reframed(first_tag, tag)).has_value());
  EXPECT_FALSE(decode_snapshot(reframed(first_tag, tag | 0x10)).has_value());
  EXPECT_FALSE(decode_snapshot(reframed(first_tag, tag & ~0x03)).has_value());
  // Version 1 is refused outright (recovery falls back to the WAL).
  EXPECT_FALSE(decode_snapshot(reframed(wire::kFrameHeader + 4, 1)).has_value());
}

// ---------------------------------------------------------------------------
// Incremental writer.
// ---------------------------------------------------------------------------

void expect_checkpoint_eq(const CheckpointRecord& a, const CheckpointRecord& b) {
  EXPECT_EQ(a.after_slot, b.after_slot);
  EXPECT_EQ(a.ledger_digest, b.ledger_digest);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.words, b.words);
}

void expect_snapshot_eq(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.after_slot, b.after_slot);
  EXPECT_EQ(a.ledger_digest, b.ledger_digest);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.since_checkpoint, b.since_checkpoint);
  EXPECT_EQ(a.healthy, b.healthy);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].slot, b.slots[i].slot);
    EXPECT_EQ(a.slots[i].proposer, b.slots[i].proposer);
    EXPECT_EQ(a.slots[i].value.raw, b.slots[i].value.raw);
    EXPECT_EQ(a.slots[i].skipped, b.slots[i].skipped);
    EXPECT_EQ(a.slots[i].agreement, b.slots[i].agreement);
    EXPECT_EQ(a.slots[i].fallback, b.slots[i].fallback);
    EXPECT_EQ(a.slots[i].words, b.slots[i].words);
  }
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    expect_checkpoint_eq(a.checkpoints[i], b.checkpoints[i]);
  }
  expect_checkpoint_eq(a.cert, b.cert);
  EXPECT_EQ(a.kv_entries, b.kv_entries);
  EXPECT_EQ(a.kv_digest, b.kv_digest);
}

TEST(SnapshotWriter, EveryCutMatchesOneShotEncoding) {
  // One growing ledger history with skipped slots, a fallback slot and a
  // rejected checkpoint, cut at every accepted checkpoint by one writer.
  Snapshot grown;
  grown.kv_digest = 0x6b76;
  SnapshotWriter writer;
  std::vector<std::uint8_t> blob;
  int cuts = 0;
  int rejected = 0;
  for (std::uint64_t s = 0; s < 48; ++s) {
    SlotRecord rec;
    rec.slot = s;
    rec.proposer = static_cast<ProcessId>(s % 5);
    rec.skipped = s % 7 == 3;
    rec.value = rec.skipped ? kBottom : Value(500 + s);
    rec.agreement = true;
    rec.fallback = s == 10;
    rec.words = 30 + s;
    grown.slots.push_back(rec);
    grown.total_words += rec.words;
    grown.kv_entries[static_cast<std::uint32_t>(s % 6)] = s;
    grown.kv_digest = hash_combine(grown.kv_digest, s);
    if (s % 4 != 3) continue;

    CheckpointRecord cp;
    cp.after_slot = grown.slots.size();
    cp.ledger_digest = Ledger::replay_digest(kSeed, grown.slots);
    cp.accepted = s != 19;
    cp.agreement = true;
    cp.words = 90;
    grown.checkpoints.push_back(cp);
    grown.total_words += cp.words;
    grown.healthy = grown.healthy && cp.accepted;
    if (!cp.accepted) {
      ++rejected;
      continue;
    }
    grown.after_slot = cp.after_slot;
    grown.ledger_digest = cp.ledger_digest;
    grown.cert = cp;

    writer.cut(blob, grown.source());
    ++cuts;
    EXPECT_EQ(blob, encode_snapshot(grown)) << "cut after slot " << s;
    const auto decoded = decode_snapshot(blob);
    ASSERT_TRUE(decoded.has_value()) << "cut after slot " << s;
    expect_snapshot_eq(*decoded, grown);
    EXPECT_EQ(encode_snapshot(*decoded), blob);
    EXPECT_TRUE(decoded->valid(kSeed)) << "cut after slot " << s;
  }
  EXPECT_EQ(cuts, 11);
  EXPECT_EQ(rejected, 1);
}

TEST(SnapshotWriter, BlobChangedBehindTheWriterAborts) {
  const Snapshot snap = sample_snapshot();
  SnapshotWriter writer;
  std::vector<std::uint8_t> blob;
  writer.cut(blob, snap.source());
  blob.clear();
  EXPECT_DEATH(writer.cut(blob, snap.source()), "changed behind");
}

// ---------------------------------------------------------------------------
// Recovery from real runs.
// ---------------------------------------------------------------------------

TEST(Recovery, CleanStoreRecoversToIdenticalState) {
  Store store;
  Durability hook(&store);
  const std::uint64_t digest = run_durable(store, 3, 7, hook);
  EXPECT_GT(hook.snapshots_cut(), 0u);

  Recovered rec = recover(ledger_config(3), store);
  EXPECT_TRUE(rec.stats.used_snapshot);
  EXPECT_EQ(rec.stats.wal_bytes_truncated, 0u);
  EXPECT_EQ(rec.state.slots.size(), 7u);
  EXPECT_EQ(Ledger::replay_digest(kSeed, rec.state.slots), digest);
  EXPECT_EQ(rec.kv.digest(), hook.kv().digest());
}

TEST(Recovery, WithoutSnapshotReplaysFromGenesis) {
  Store store;
  Durability hook(&store);
  const std::uint64_t digest = run_durable(store, 3, 7, hook);

  store.snapshot.clear();  // lost the snapshot; WAL alone must suffice
  Recovered rec = recover(ledger_config(3), store);
  EXPECT_FALSE(rec.stats.used_snapshot);
  EXPECT_EQ(rec.state.slots.size(), 7u);
  EXPECT_EQ(Ledger::replay_digest(kSeed, rec.state.slots), digest);
  EXPECT_EQ(rec.kv.digest(), hook.kv().digest());
  // Recovery healed the snapshot back from the WAL's checkpoint records.
  EXPECT_FALSE(store.snapshot.empty());
}

TEST(Recovery, CorruptSnapshotFallsBackToWalReplay) {
  Store store;
  Durability hook(&store);
  const std::uint64_t digest = run_durable(store, 3, 7, hook);
  ASSERT_FALSE(store.snapshot.empty());
  store.snapshot[store.snapshot.size() / 2] ^= 0x5a;

  Recovered rec = recover(ledger_config(3), store);
  EXPECT_FALSE(rec.stats.used_snapshot);
  EXPECT_EQ(rec.state.slots.size(), 7u);
  EXPECT_EQ(Ledger::replay_digest(kSeed, rec.state.slots), digest);
}

TEST(Recovery, RestoredEngineContinuesBitIdentically) {
  // Reference: 10 slots uninterrupted.
  Store ref_store;
  Durability ref_hook(&ref_store);
  const std::uint64_t ref_digest = run_durable(ref_store, 3, 10, ref_hook);

  // Crash after 6 slots, recover, continue to 10.
  Store store;
  {
    Durability hook(&store);
    run_durable(store, 3, 6, hook);
  }
  Recovered rec = recover(ledger_config(3), store);
  Durability hook2(&store);
  hook2.reset_kv(rec.kv);
  const std::uint64_t first = rec.state.slots.size();
  Engine engine(engine_config(3, &hook2));
  engine.restore(std::move(rec.state));
  for (std::uint64_t s = first; s < 10; ++s) {
    engine.submit(proposal(s).pack());
  }
  engine.finish();

  EXPECT_EQ(engine.ledger().ledger_digest(), ref_digest);
  EXPECT_EQ(hook2.kv().digest(), ref_hook.kv().digest());
  EXPECT_EQ(store.wal, ref_store.wal);          // bit-identical durable log
  EXPECT_EQ(store.snapshot, ref_store.snapshot);  // and snapshot
}

TEST(Recovery, PendingCheckpointCompletedOnRestore) {
  // Cadence 3 with 3 slots: the run seals a checkpoint right after the
  // last slot. Dropping everything after the last slot record models a
  // crash between the slot append and the checkpoint append.
  Store ref_store;
  Durability ref_hook(&ref_store);
  run_durable(ref_store, 3, 3, ref_hook);
  const wal::ScanResult ref_scan = wal::scan(ref_store.wal);
  ASSERT_EQ(ref_scan.records.size(), 4u);  // 3 slots + 1 checkpoint

  Store store;
  store.wal.assign(ref_store.wal.begin(),
                   ref_store.wal.begin() +
                       static_cast<std::ptrdiff_t>(ref_scan.records[3].offset));
  Recovered rec = recover(ledger_config(3), store);
  EXPECT_TRUE(rec.stats.checkpoint_pending);
  EXPECT_TRUE(rec.state.checkpoints.empty());

  Durability hook(&store);
  hook.reset_kv(rec.kv);
  Engine engine(engine_config(3, &hook));
  engine.restore(std::move(rec.state));  // completes the pending checkpoint
  engine.finish();
  ASSERT_EQ(engine.ledger().checkpoints().size(), 1u);
  // The re-run checkpoint seals the identical record (same instance nonce),
  // so the durable bytes converge with the uninterrupted run's.
  EXPECT_EQ(store.wal, ref_store.wal);
  EXPECT_EQ(store.snapshot, ref_store.snapshot);
}

// ---------------------------------------------------------------------------
// Catch-up.
// ---------------------------------------------------------------------------

TEST(CatchUp, AcceptsCertifiedPeerStateWithoutConsensus) {
  Store peer;
  Durability hook(&peer);
  const std::uint64_t digest = run_durable(peer, 3, 8, hook);

  CaughtUp caught = catch_up(ledger_config(3), peer);
  ASSERT_TRUE(caught.stats.ok);
  EXPECT_TRUE(caught.stats.cert_ok);
  EXPECT_EQ(caught.state.slots.size(), 8u);
  EXPECT_EQ(Ledger::replay_digest(kSeed, caught.state.slots), digest);
  EXPECT_EQ(caught.kv.digest(), hook.kv().digest());
  EXPECT_GT(caught.stats.words_transferred, 0u);
  EXPECT_EQ(caught.stats.tail_slots,
            8u - caught.stats.snapshot_slot);
}

TEST(CatchUp, RejectsMissingTornOrForeignSnapshots) {
  Store peer;
  Durability hook(&peer);
  run_durable(peer, 3, 8, hook);

  Store no_snapshot = peer;
  no_snapshot.snapshot.clear();
  EXPECT_FALSE(catch_up(ledger_config(3), no_snapshot).stats.ok);

  Store torn = peer;
  torn.snapshot.pop_back();
  EXPECT_FALSE(catch_up(ledger_config(3), torn).stats.ok);

  // A peer from a different deployment (seed) fails digest validation.
  Ledger::Config foreign = ledger_config(3);
  foreign.seed = kSeed + 1;
  EXPECT_FALSE(catch_up(foreign, peer).stats.ok);
}

// ---------------------------------------------------------------------------
// kv determinism pin (snapshot-resume == genesis-replay), seeded op mixes.
// ---------------------------------------------------------------------------

TEST(KvDeterminism, SnapshotResumeMatchesGenesisReplayAtEveryCut) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    std::vector<Command> ops;
    for (int i = 0; i < 60; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.below(6));
      switch (rng.below(4)) {
        case 0:
        case 1:
          ops.push_back(Command::put(key, rng.below(1u << 20)));
          break;
        case 2:
          ops.push_back(Command::add(key, rng.below(1u << 12)));
          break;
        default:
          ops.push_back(Command::erase(key));
          break;
      }
    }

    // Genesis replay, capturing (entries, digest) after every op.
    KvState genesis;
    std::vector<std::map<std::uint32_t, std::uint64_t>> entries_at{
        genesis.entries()};
    std::vector<std::uint64_t> digest_at{genesis.digest()};
    for (const Command& op : ops) {
      genesis.apply(op);
      entries_at.push_back(genesis.entries());
      digest_at.push_back(genesis.digest());
    }

    // Resume from every cut: the tail replay must land on the same digest
    // and contents as the full replay.
    for (std::size_t cut = 0; cut <= ops.size(); ++cut) {
      KvState resumed;
      resumed.restore(entries_at[cut], digest_at[cut]);
      for (std::size_t i = cut; i < ops.size(); ++i) resumed.apply(ops[i]);
      ASSERT_EQ(resumed.digest(), genesis.digest())
          << "seed " << seed << " cut " << cut;
      ASSERT_EQ(resumed.entries(), genesis.entries())
          << "seed " << seed << " cut " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Directory persistence.
// ---------------------------------------------------------------------------

TEST(StoreFiles, SaveLoadRoundTrip) {
  const std::string dir = ::testing::TempDir() + "mewc_store_roundtrip";
  Store store;
  store.wal = {1, 2, 3, 4, 5};
  store.snapshot = {9, 8, 7};
  ASSERT_TRUE(save_store(dir, store));
  const auto loaded = load_store(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->wal, store.wal);
  EXPECT_EQ(loaded->snapshot, store.snapshot);

  // Overwriting with an empty store truncates both files.
  ASSERT_TRUE(save_store(dir, Store{}));
  const auto empty = load_store(dir);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->wal.empty());
  EXPECT_TRUE(empty->snapshot.empty());
}

TEST(StoreFiles, SaveIsAtomicAndIgnoresStaleTempFiles) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "mewc_store_atomic";
  Store store;
  store.wal = {1, 2, 3};
  store.snapshot = {4, 5, 6, 7};
  ASSERT_TRUE(save_store(dir, store));

  // The temp-then-rename protocol must not leave its scratch files behind.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "wal.bin.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot.bin.tmp"));

  // A stale temp file — the residue of a crash mid-write — is invisible to
  // load (the complete old bytes win) and is replaced by the next save.
  {
    std::ofstream stale(fs::path(dir) / "snapshot.bin.tmp", std::ios::binary);
    stale << "torn";
  }
  const auto loaded = load_store(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->snapshot, store.snapshot);
  store.snapshot = {8, 9};
  ASSERT_TRUE(save_store(dir, store));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot.bin.tmp"));
  const auto reloaded = load_store(dir);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->snapshot, store.snapshot);
}

TEST(StoreFiles, FreshDirectoryLoadsEmptyStore) {
  const std::string dir = ::testing::TempDir() + "mewc_store_fresh";
  const auto loaded = load_store(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->wal.empty());
  EXPECT_TRUE(loaded->snapshot.empty());
}

}  // namespace
}  // namespace mewc::smr
