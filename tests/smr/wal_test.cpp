// WAL format: scan/append round trips, byte-exact golden fixtures for the
// on-disk format (any change to these files is a format break and must be
// deliberate — regenerate with MEWC_UPDATE_GOLDEN=1), and exhaustive
// torn-write coverage: the final record truncated at EVERY byte offset and
// corrupted at EVERY byte offset, through scan() and recover(). Recovery
// must never crash and never surface a partial record as a slot.
#include "smr/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "smr/batch.hpp"
#include "smr/recovery.hpp"
#include "smr/snapshot.hpp"
#include "wire/frame.hpp"

namespace mewc::smr {
namespace {

// ---------------------------------------------------------------------------
// Fixture workload: synthesized records with fixed field values, so the
// bytes depend only on the WAL encoding, not on consensus internals.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeed = 0x90;

SlotRecord slot_record(std::uint64_t slot, std::uint64_t raw, bool skipped) {
  SlotRecord rec;
  rec.slot = slot;
  rec.proposer = static_cast<ProcessId>(slot % 5);
  rec.value = skipped ? kBottom : Value(raw);
  rec.skipped = skipped;
  rec.agreement = true;
  rec.fallback = slot == 2;  // one fallback slot, to pin that bit
  rec.words = 40 + slot;
  return rec;
}

/// Four slots (one skipped) and a correctly-sealed checkpoint after them.
struct FixtureLog {
  std::vector<SlotRecord> slots;
  CheckpointRecord checkpoint;
  std::vector<std::uint8_t> wal;
};

FixtureLog fixture_log() {
  FixtureLog f;
  for (std::uint64_t s = 0; s < 4; ++s) {
    f.slots.push_back(slot_record(s, 1000 + 17 * s, /*skipped=*/s == 1));
    wal::append(f.wal, f.slots.back());
  }
  f.checkpoint.after_slot = 4;
  f.checkpoint.ledger_digest = Ledger::replay_digest(kSeed, f.slots);
  f.checkpoint.accepted = true;
  f.checkpoint.agreement = true;
  f.checkpoint.words = 96;
  wal::append(f.wal, f.checkpoint);
  return f;
}

Ledger::Config fixture_config() {
  Ledger::Config c;
  c.n = 5;
  c.t = 2;
  c.seed = kSeed;
  // Cadence counts non-skipped commits; the fixture has 3 of those before
  // its checkpoint, so cadence 3 makes the seal (and, when the checkpoint
  // record is torn, the pending flag) line up with real ledger semantics.
  c.checkpoint_every = 3;
  return c;
}

void expect_slot_eq(const SlotRecord& a, const SlotRecord& b) {
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(a.proposer, b.proposer);
  EXPECT_EQ(a.value.raw, b.value.raw);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.words, b.words);
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(Wal, ScanRoundTripsAppendedRecords) {
  const FixtureLog f = fixture_log();
  const wal::ScanResult scanned = wal::scan(f.wal);
  EXPECT_FALSE(scanned.torn);
  EXPECT_EQ(scanned.valid_bytes, f.wal.size());
  ASSERT_EQ(scanned.records.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(scanned.records[i].type, wal::RecordType::kSlot);
    expect_slot_eq(scanned.records[i].slot, f.slots[i]);
  }
  const wal::Record& cp = scanned.records[4];
  ASSERT_EQ(cp.type, wal::RecordType::kCheckpoint);
  EXPECT_EQ(cp.checkpoint.after_slot, f.checkpoint.after_slot);
  EXPECT_EQ(cp.checkpoint.ledger_digest, f.checkpoint.ledger_digest);
  EXPECT_EQ(cp.checkpoint.accepted, f.checkpoint.accepted);
  EXPECT_EQ(cp.checkpoint.words, f.checkpoint.words);
  // Offsets are strictly increasing frame starts.
  EXPECT_EQ(scanned.records[0].offset, 0u);
  for (std::size_t i = 1; i < scanned.records.size(); ++i) {
    EXPECT_GT(scanned.records[i].offset, scanned.records[i - 1].offset);
  }
}

TEST(Wal, EmptyLogScansClean) {
  const wal::ScanResult scanned = wal::scan({});
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.valid_bytes, 0u);
  EXPECT_FALSE(scanned.torn);
}

TEST(Wal, NonCanonicalSkippedBitRejected) {
  // skipped must equal value.is_bottom(); a record claiming both a value
  // and the skip is malformed and ends the valid prefix.
  SlotRecord bad = slot_record(0, 77, /*skipped=*/false);
  bad.skipped = true;
  std::vector<std::uint8_t> log;
  wal::append(log, bad);
  const wal::ScanResult scanned = wal::scan(log);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.valid_bytes, 0u);
  EXPECT_TRUE(scanned.torn);
}

// ---------------------------------------------------------------------------
// Golden fixtures: the durable format, byte for byte.
// ---------------------------------------------------------------------------

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", bytes[i]);
    out += buf;
    if (i % 32 == 31) out += '\n';  // wrap for reviewable diffs
  }
  if (out.empty() || out.back() != '\n') out += '\n';
  return out;
}

void expect_matches_golden(const char* name,
                           const std::vector<std::uint8_t>& bytes) {
  const std::string path = std::string(MEWC_GOLDEN_DIR) + "/" + name;
  const std::string hex = hex_of(bytes);
  if (std::getenv("MEWC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << hex;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MEWC_UPDATE_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), hex)
      << "on-disk format drifted from " << path
      << " — if the format change is deliberate, bump the version and "
         "regenerate with MEWC_UPDATE_GOLDEN=1";
}

TEST(WalGolden, WalBytesMatchCheckedInFixture) {
  expect_matches_golden("wal_v1.hex", fixture_log().wal);
}

// ---------------------------------------------------------------------------
// Batch records: the out-of-band blob a batched slot applies, logged ahead
// of its slot record so replay can resolve the handle.
// ---------------------------------------------------------------------------

/// A batched slot preceded by its blob, with fixed commands so the bytes
/// depend only on the encodings.
struct BatchFixtureLog {
  std::vector<smr::Command> commands;
  std::vector<std::uint8_t> blob;
  SlotRecord slot;
  std::vector<std::uint8_t> wal;
};

BatchFixtureLog batch_fixture_log() {
  BatchFixtureLog f;
  f.commands = {Command::put(3, 300), Command::add(3, 45),
                Command::erase(9)};
  f.blob = batch::encode(f.commands);
  f.slot = slot_record(0, batch::handle(f.blob).raw, /*skipped=*/false);
  wal::append_batch(f.wal, f.slot.slot, f.blob);
  wal::append(f.wal, f.slot);
  return f;
}

TEST(Wal, BatchRecordRoundTripsThroughScan) {
  const BatchFixtureLog f = batch_fixture_log();
  const wal::ScanResult scanned = wal::scan(f.wal);
  EXPECT_FALSE(scanned.torn);
  EXPECT_EQ(scanned.valid_bytes, f.wal.size());
  ASSERT_EQ(scanned.records.size(), 2u);
  ASSERT_EQ(scanned.records[0].type, wal::RecordType::kBatch);
  EXPECT_EQ(scanned.records[0].batch_slot, f.slot.slot);
  EXPECT_EQ(scanned.records[0].batch, f.blob);
  ASSERT_EQ(scanned.records[1].type, wal::RecordType::kSlot);
  expect_slot_eq(scanned.records[1].slot, f.slot);
  // The recovered blob still parses and resolves against the slot's value.
  const auto resolved =
      batch::resolve(scanned.records[1].slot.value, scanned.records[0].batch);
  ASSERT_TRUE(resolved.batch.has_value());
  EXPECT_EQ(resolved.batch->size(), f.commands.size());
}

TEST(WalGolden, BatchWalBytesMatchCheckedInFixture) {
  expect_matches_golden("wal_batch_v1.hex", batch_fixture_log().wal);
}

/// The fixture log's state cut at its checkpoint, with a fixed kv map.
Snapshot fixture_snapshot() {
  const FixtureLog f = fixture_log();
  Snapshot snap;
  snap.after_slot = 4;
  snap.ledger_digest = f.checkpoint.ledger_digest;
  snap.total_words = 40 + 41 + 42 + 43 + 96;
  snap.since_checkpoint = 0;
  snap.healthy = true;
  snap.slots = f.slots;
  snap.checkpoints = {f.checkpoint};
  snap.cert = f.checkpoint;
  snap.kv_entries = {{3, 300}, {7, 700}};
  snap.kv_digest = 0xabcdef;
  return snap;
}

TEST(WalGolden, SnapshotBytesMatchCheckedInFixture) {
  expect_matches_golden("snapshot_v2.hex", encode_snapshot(fixture_snapshot()));
}

std::vector<std::uint8_t> read_golden(const char* name) {
  std::ifstream in(std::string(MEWC_GOLDEN_DIR) + "/" + name);
  std::vector<std::uint8_t> out;
  std::string hex;
  while (in >> hex) {
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
      out.push_back(
          static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
    }
  }
  return out;
}

TEST(WalGolden, V1SnapshotRefusedAndRecutFromWal) {
  // snapshot_v1.hex is fixture_snapshot() in the version-1 layout. It is
  // no longer decoded: recovery drops it, replays the WAL from genesis and
  // re-cuts a current-version snapshot at the WAL's checkpoint.
  const std::vector<std::uint8_t> v1 = read_golden("snapshot_v1.hex");
  ASSERT_FALSE(v1.empty());
  ASSERT_TRUE(wire::read_frame(v1, 0).has_value());  // intact, just old
  EXPECT_FALSE(decode_snapshot(v1).has_value());

  const FixtureLog f = fixture_log();
  Store wal_only;
  wal_only.wal = f.wal;
  const Recovered want = recover(fixture_config(), wal_only);

  Store store;
  store.wal = f.wal;
  store.snapshot = v1;
  const Recovered got = recover(fixture_config(), store);
  EXPECT_FALSE(got.stats.used_snapshot);
  EXPECT_EQ(got.stats.records_replayed, want.stats.records_replayed);
  ASSERT_EQ(got.state.slots.size(), want.state.slots.size());
  for (std::size_t i = 0; i < got.state.slots.size(); ++i) {
    expect_slot_eq(got.state.slots[i], want.state.slots[i]);
  }
  EXPECT_EQ(got.state.checkpoints.size(), want.state.checkpoints.size());
  EXPECT_EQ(got.state.total_words, want.state.total_words);
  EXPECT_EQ(got.state.since_checkpoint, want.state.since_checkpoint);
  EXPECT_EQ(got.state.healthy, want.state.healthy);
  EXPECT_EQ(got.kv.digest(), want.kv.digest());
  EXPECT_EQ(store.wal, f.wal);  // the WAL is never cut back

  // The re-cut snapshot is the current version and certifies the state.
  EXPECT_EQ(store.snapshot, wal_only.snapshot);
  const auto recut = decode_snapshot(store.snapshot);
  ASSERT_TRUE(recut.has_value());
  EXPECT_TRUE(recut->valid(kSeed));
  EXPECT_EQ(recut->after_slot, 4u);
  EXPECT_EQ(recut->ledger_digest, f.checkpoint.ledger_digest);
  Store again = store;
  EXPECT_TRUE(recover(fixture_config(), again).stats.used_snapshot);
}

// ---------------------------------------------------------------------------
// Exhaustive torn-write coverage (the satellite requirement): the final
// record truncated and corrupted at every byte offset, driven through the
// full recover() path. Recovery must never crash, never surface a partial
// record, and always resume from the longest verified prefix.
// ---------------------------------------------------------------------------

TEST(WalTornWrites, TruncationAtEveryByteOffsetOfFinalRecord) {
  const FixtureLog f = fixture_log();
  const wal::ScanResult full = wal::scan(f.wal);
  const std::size_t last = full.records.back().offset;

  for (std::size_t cut = last; cut < f.wal.size(); ++cut) {
    Store store;
    store.wal.assign(f.wal.begin(),
                     f.wal.begin() + static_cast<std::ptrdiff_t>(cut));
    Recovered rec = recover(fixture_config(), store);
    // The four slot records survive whole; the torn checkpoint never does.
    EXPECT_EQ(rec.state.slots.size(), 4u) << "cut at " << cut;
    EXPECT_TRUE(rec.state.checkpoints.empty()) << "cut at " << cut;
    // The store shrinks to exactly the verified prefix.
    EXPECT_EQ(store.wal.size(), last) << "cut at " << cut;
    EXPECT_EQ(rec.stats.wal_bytes_truncated, cut - last) << "cut at " << cut;
    // A checkpoint was due after slot 4 and is now missing: pending.
    EXPECT_TRUE(rec.stats.checkpoint_pending) << "cut at " << cut;
  }
}

TEST(WalTornWrites, TruncationInsideEarlierRecordsDropsTheTail) {
  const FixtureLog f = fixture_log();
  const wal::ScanResult full = wal::scan(f.wal);
  // Cut mid-way through each record in turn: recovery keeps exactly the
  // records before it.
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    const std::size_t cut = full.records[i].offset + 1;
    Store store;
    store.wal.assign(f.wal.begin(),
                     f.wal.begin() + static_cast<std::ptrdiff_t>(cut));
    Recovered rec = recover(fixture_config(), store);
    EXPECT_EQ(rec.state.slots.size(), i) << "record " << i;
    EXPECT_EQ(store.wal.size(), full.records[i].offset) << "record " << i;
  }
}

TEST(WalTornWrites, CorruptionAtEveryByteOffsetOfFinalRecord) {
  const FixtureLog f = fixture_log();
  const wal::ScanResult full = wal::scan(f.wal);
  const std::size_t last = full.records.back().offset;

  for (std::size_t i = last; i < f.wal.size(); ++i) {
    Store store;
    store.wal = f.wal;
    store.wal[i] ^= 0x5a;
    Recovered rec = recover(fixture_config(), store);
    EXPECT_EQ(rec.state.slots.size(), 4u) << "corrupt byte " << i;
    EXPECT_TRUE(rec.state.checkpoints.empty()) << "corrupt byte " << i;
    EXPECT_EQ(store.wal.size(), last) << "corrupt byte " << i;
  }
}

TEST(WalTornWrites, CorruptionAtEveryByteOffsetOfWholeLog) {
  // Broader sweep at scan() level: flipping ANY byte ends the valid prefix
  // at the frame containing it; records before it survive untouched.
  const FixtureLog f = fixture_log();
  const wal::ScanResult full = wal::scan(f.wal);

  for (std::size_t i = 0; i < f.wal.size(); ++i) {
    std::vector<std::uint8_t> bad = f.wal;
    bad[i] ^= 0xff;
    // The frame start at or before byte i.
    std::size_t frame_start = 0;
    std::size_t intact = 0;
    for (const wal::Record& r : full.records) {
      if (r.offset <= i) {
        frame_start = r.offset;
        intact = static_cast<std::size_t>(&r - full.records.data());
      }
    }
    const wal::ScanResult scanned = wal::scan(bad);
    EXPECT_TRUE(scanned.torn) << "corrupt byte " << i;
    EXPECT_EQ(scanned.valid_bytes, frame_start) << "corrupt byte " << i;
    ASSERT_EQ(scanned.records.size(), intact) << "corrupt byte " << i;
    for (std::size_t k = 0; k < intact; ++k) {
      EXPECT_EQ(scanned.records[k].offset, full.records[k].offset);
    }
  }
}

// ---------------------------------------------------------------------------
// Structural validation beyond checksums: records that frame clean but lie
// about the history are cut at replay.
// ---------------------------------------------------------------------------

TEST(WalStructure, OutOfOrderSlotEndsTheTrustedPrefix) {
  std::vector<std::uint8_t> log;
  wal::append(log, slot_record(0, 500, false));
  wal::append(log, slot_record(2, 501, false));  // gap: slot 1 missing
  Store store;
  store.wal = log;
  Recovered rec = recover(fixture_config(), store);
  EXPECT_EQ(rec.state.slots.size(), 1u);
  const wal::ScanResult scanned = wal::scan(log);
  EXPECT_EQ(store.wal.size(), scanned.records[1].offset);
}

TEST(WalStructure, CheckpointWithWrongDigestEndsTheTrustedPrefix) {
  std::vector<std::uint8_t> log;
  std::vector<SlotRecord> slots = {slot_record(0, 500, false),
                                   slot_record(1, 501, false)};
  for (const auto& s : slots) wal::append(log, s);
  CheckpointRecord cp;
  cp.after_slot = 2;
  cp.ledger_digest = Ledger::replay_digest(kSeed, slots) ^ 1;  // lies
  cp.accepted = true;
  cp.agreement = true;
  wal::append(log, cp);
  wal::append(log, slot_record(2, 502, false));  // after the lie: untrusted

  Store store;
  store.wal = log;
  Ledger::Config config = fixture_config();
  config.checkpoint_every = 2;
  Recovered rec = recover(config, store);
  EXPECT_EQ(rec.state.slots.size(), 2u);
  EXPECT_TRUE(rec.state.checkpoints.empty());
  EXPECT_TRUE(rec.stats.checkpoint_pending);  // cadence hit, seal missing
}

}  // namespace
}  // namespace mewc::smr
