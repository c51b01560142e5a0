#include "smr/recovery.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/hash.hpp"
#include "smr/batch.hpp"
#include "smr/wal.hpp"

namespace mewc::smr {

// ---------------------------------------------------------------------------
// Durability hook.
// ---------------------------------------------------------------------------

void Durability::on_commit(const SlotRecord& rec, const Ledger& ledger,
                           std::span<const std::uint8_t> batch) {
  (void)ledger;
  if (crashed_) return;
  if (crash_pending_checkpoint_) {
    // after_checkpoint was armed but the crash slot sealed no checkpoint:
    // degrade to a plain crash after the crash slot's record.
    crashed_ = true;
    return;
  }
  // A batch that actually commits (handle matches the agreed value) is
  // persisted immediately before its slot record, so WAL replay sees the
  // blob first and can apply it when the slot arrives. A blob the slot did
  // not commit (skip, or a Byzantine proposer diverging from its handle)
  // is not worth durable bytes.
  const batch::Resolved what = batch::resolve(rec.value, batch);
  if (what.batch) wal::append_batch(store_->wal, rec.slot, batch);
  wal::append(store_->wal, rec);
  if (what.batch) {
    batch::apply(*what.batch, kv_);
  } else if (what.single) {
    kv_.apply(*what.single);
  }
  if (rec.slot == crash_.crash_slot) {
    if (crash_.after_checkpoint || crash_.mid_snapshot) {
      // Die between the checkpoint's WAL append and the snapshot cut
      // (after_checkpoint), or during the snapshot write (mid_snapshot).
      crash_pending_checkpoint_ = true;
    } else {
      crashed_ = true;  // slot record is the torn tail candidate
    }
  }
}

void Durability::on_checkpoint(const CheckpointRecord& rec,
                               const Ledger& ledger) {
  if (crashed_) return;
  wal::append(store_->wal, rec);
  if (crash_pending_checkpoint_ && !(crash_.mid_snapshot && rec.accepted)) {
    // The checkpoint record made it to the WAL; the snapshot did not.
    crashed_ = true;
    return;
  }
  if (!rec.accepted) return;  // only certified cuts become snapshots
  snapshot_.cut(store_->snapshot,
                {.slots = ledger.slots(),
                 .checkpoints = ledger.checkpoints(),
                 .after_slot = rec.after_slot,
                 .ledger_digest = rec.ledger_digest,
                 .total_words = ledger.total_words(),
                 .since_checkpoint = ledger.since_checkpoint(),
                 .healthy = ledger.healthy(),
                 .cert = rec,
                 .kv_entries = kv_.entries(),
                 .kv_digest = kv_.digest()});
  ++snapshots_cut_;
  if (crash_pending_checkpoint_) {
    // mid_snapshot: the write was in flight when the process died; the
    // harness tears store->snapshot to model the incomplete overwrite.
    crashed_ = true;
  }
}

// ---------------------------------------------------------------------------
// WAL tail replay (shared by recovery and catch-up).
// ---------------------------------------------------------------------------

namespace {

struct TailReplay {
  std::uint64_t replayed = 0;
  /// Offset of the first structurally invalid record (out-of-order slot or
  /// a checkpoint whose digest does not match the replayed history); the
  /// log is only trusted up to here. SIZE_MAX = no structural problem.
  std::size_t structural_stop = SIZE_MAX;
  /// Offset of the first record actually applied (for transfer costing).
  std::size_t first_applied = SIZE_MAX;
};

/// Applies the scanned records that extend `state` (records at or before
/// the already-installed prefix are skipped), mirroring Ledger::commit's
/// meter/health/cadence bookkeeping so the restored state is exactly what
/// the uninterrupted ledger held. With `heal_snapshot` set, every accepted
/// checkpoint record re-cuts the snapshot from the replayed state — so a
/// crash between a checkpoint's WAL append and its snapshot write leaves
/// no lasting gap: recovery restores the "snapshot == latest accepted
/// checkpoint" invariant from the WAL alone.
TailReplay replay_records(const Ledger::Config& config,
                          const std::vector<wal::Record>& records,
                          std::uint64_t covered_cut, RestoredState& state,
                          KvState& kv,
                          std::vector<std::uint8_t>* heal_snapshot) {
  TailReplay out;
  std::uint64_t digest = Ledger::replay_digest(config.seed, state.slots);
  // The batch blob written just ahead of its slot record (empty span = no
  // batch pending); views borrow the record's bytes, which outlive the loop.
  std::uint64_t pending_batch_slot = ~0ull;
  std::span<const std::uint8_t> pending_batch;
  // Re-cuts go through one writer, so each encodes only the records
  // replayed since the previous one.
  SnapshotWriter healer;
  for (const wal::Record& rec : records) {
    if (rec.type == wal::RecordType::kBatch) {
      if (rec.batch_slot < state.slots.size()) continue;  // snapshot-covered
      // A batch record always immediately precedes its slot record; any
      // other placement means the log is lying from here on.
      if (rec.batch_slot != state.slots.size()) {
        out.structural_stop = rec.offset;
        break;
      }
      pending_batch_slot = rec.batch_slot;
      pending_batch = rec.batch;
    } else if (rec.type == wal::RecordType::kSlot) {
      if (rec.slot.slot < state.slots.size()) continue;  // snapshot-covered
      if (rec.slot.slot != state.slots.size()) {
        out.structural_stop = rec.offset;
        break;
      }
      digest = hash_combine(digest,
                            hash_combine(rec.slot.slot, rec.slot.value.raw));
      state.slots.push_back(rec.slot);
      state.total_words += rec.slot.words;
      state.healthy = state.healthy && rec.slot.agreement;
      if (!rec.slot.skipped) {
        const auto blob = pending_batch_slot == rec.slot.slot
                              ? pending_batch
                              : std::span<const std::uint8_t>();
        const batch::Resolved what = batch::resolve(rec.slot.value, blob);
        if (what.batch) {
          batch::apply(*what.batch, kv);
        } else if (what.single) {
          kv.apply(*what.single);
        }
        if (config.checkpoint_every != 0) ++state.since_checkpoint;
      }
      pending_batch_slot = ~0ull;
      pending_batch = {};
    } else {
      if (rec.checkpoint.after_slot <= covered_cut) continue;
      // A checkpoint seals the history it claims: wrong cut or wrong
      // digest means the log is lying from here on.
      if (rec.checkpoint.after_slot != state.slots.size() ||
          rec.checkpoint.ledger_digest != digest) {
        out.structural_stop = rec.offset;
        break;
      }
      state.checkpoints.push_back(rec.checkpoint);
      state.total_words += rec.checkpoint.words;
      state.healthy =
          state.healthy && rec.checkpoint.agreement && rec.checkpoint.accepted;
      state.since_checkpoint = 0;
      if (heal_snapshot != nullptr && rec.checkpoint.accepted) {
        healer.cut(*heal_snapshot, {.slots = state.slots,
                                    .checkpoints = state.checkpoints,
                                    .after_slot = rec.checkpoint.after_slot,
                                    .ledger_digest = digest,
                                    .total_words = state.total_words,
                                    .since_checkpoint = 0,
                                    .healthy = state.healthy,
                                    .cert = rec.checkpoint,
                                    .kv_entries = kv.entries(),
                                    .kv_digest = kv.digest()});
      }
    }
    out.first_applied = std::min(out.first_applied, rec.offset);
    ++out.replayed;
  }
  return out;
}

void install_snapshot(Snapshot snap, RestoredState& state, KvState& kv) {
  state.slots = std::move(snap.slots);
  state.checkpoints = std::move(snap.checkpoints);
  state.total_words = snap.total_words;
  state.since_checkpoint = snap.since_checkpoint;
  state.healthy = snap.healthy;
  kv.restore(std::move(snap.kv_entries), snap.kv_digest);
}

}  // namespace

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

Recovered recover(const Ledger::Config& config, Store& store) {
  Recovered out;
  const wal::ScanResult scanned = wal::scan(store.wal);

  std::uint64_t covered_cut = 0;
  if (!store.snapshot.empty()) {
    auto snap = decode_snapshot(store.snapshot);
    if (snap && snap->valid(config.seed)) {
      out.stats.used_snapshot = true;
      out.stats.snapshot_slot = snap->after_slot;
      covered_cut = snap->after_slot;
      install_snapshot(std::move(*snap), out.state, out.kv);
    } else {
      // Torn or invalid snapshot: drop it and rebuild from the WAL alone.
      store.snapshot.clear();
    }
  }

  const TailReplay tail = replay_records(config, scanned.records, covered_cut,
                                         out.state, out.kv, &store.snapshot);
  out.stats.records_replayed = tail.replayed;

  // Truncate the store to the verified prefix: torn frames (scan) and
  // structurally invalid records (replay) are equally untrusted.
  const std::size_t valid =
      std::min(scanned.valid_bytes, tail.structural_stop);
  out.stats.wal_bytes_truncated = store.wal.size() - valid;
  store.wal.resize(valid);

  out.stats.checkpoint_pending =
      config.checkpoint_every != 0 &&
      out.state.since_checkpoint >= config.checkpoint_every;
  return out;
}

// ---------------------------------------------------------------------------
// Catch-up (certified state sync).
// ---------------------------------------------------------------------------

CaughtUp catch_up(const Ledger::Config& config, const Store& peer) {
  CaughtUp out;
  if (peer.snapshot.empty()) return out;  // nothing certified to transfer
  auto snap = decode_snapshot(peer.snapshot);
  if (!snap || !snap->valid(config.seed)) return out;

  out.stats.cert_ok = true;
  out.stats.snapshot_slot = snap->after_slot;
  const std::uint64_t cut = snap->after_slot;
  install_snapshot(std::move(*snap), out.state, out.kv);

  const wal::ScanResult scanned = wal::scan(peer.wal);
  const TailReplay tail = replay_records(config, scanned.records, cut,
                                         out.state, out.kv, nullptr);
  out.stats.tail_slots = out.state.slots.size() - cut;

  std::size_t tail_bytes = 0;
  if (tail.first_applied != SIZE_MAX) {
    tail_bytes = std::min(scanned.valid_bytes, tail.structural_stop) -
                 tail.first_applied;
  }
  out.stats.words_transferred = (peer.snapshot.size() + tail_bytes + 7) / 8;
  out.stats.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// Directory persistence.
// ---------------------------------------------------------------------------

namespace {

namespace fs = std::filesystem;

constexpr const char* kWalFile = "wal.bin";
constexpr const char* kSnapshotFile = "snapshot.bin";

bool read_bytes(const fs::path& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

// Atomic replace: a truncating ofstream on the target destroys the old
// file the moment it opens, so a crash mid-write leaves neither the old
// snapshot nor the new one — exactly the torn-snapshot state the
// mid_snapshot crash cells exercise. Writing a sibling temp file and
// renaming over the target means the directory always holds either the
// complete old bytes or the complete new bytes.
bool write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    if (!outf) return false;
    if (!bytes.empty()) {
      outf.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
    outf.flush();
    if (!outf.good()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

std::optional<Store> load_store(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return std::nullopt;
  Store store;
  // Missing files are a fresh replica, not an error.
  read_bytes(fs::path(dir) / kWalFile, store.wal);
  read_bytes(fs::path(dir) / kSnapshotFile, store.snapshot);
  return store;
}

bool save_store(const std::string& dir, const Store& store) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;
  return write_bytes(fs::path(dir) / kWalFile, store.wal) &&
         write_bytes(fs::path(dir) / kSnapshotFile, store.snapshot);
}

}  // namespace mewc::smr
