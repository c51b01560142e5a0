// Snapshots of the durable ledger, cut at checkpoint-certified slots.
//
// The paper's Algorithm-5 checkpoint instances give us certified cut
// points for free: after a checkpoint is sealed, every correct replica
// agrees the log prefix up to `after_slot` matches `ledger_digest`. A
// snapshot taken there carries the full replayable ledger state, the kv
// application state, and the sealing CheckpointRecord as its certificate —
// which is what lets a restarted replica (or a lagging peer, via catch-up)
// accept the state without re-running any consensus (cf. VABA-style
// certified state transfer, arXiv:1811.01332).
//
// On disk a snapshot is one checksummed wire::frame whose body starts with
// a magic + version, so a torn snapshot write is detected exactly like a
// torn WAL record and recovery falls back to genesis + full WAL replay.
//
// Body layout (version 2):
//
//   u32 magic | u32 version
//   history: slot and checkpoint records in commit order (a checkpoint
//            follows the slot it seals), each led by a tag byte
//   u8 end tag
//   trailer: after_slot, ledger_digest, total_words, since_checkpoint,
//            healthy, record counts, cert, kv entries, kv_digest
//
// The history comes first because it only grows: the next cut's body is
// this one's history plus the records committed since, then a new
// trailer. SnapshotWriter exploits that to cut in O(new records + kv).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "smr/ledger.hpp"
#include "wire/frame.hpp"

namespace mewc::smr {

/// What one cut reads: the history by span and the kv map by reference, so
/// a cut copies nothing it does not encode. Fields mirror Snapshot's.
struct SnapshotSource {
  std::span<const SlotRecord> slots;
  std::span<const CheckpointRecord> checkpoints;
  std::uint64_t after_slot = 0;
  std::uint64_t ledger_digest = 0;
  std::uint64_t total_words = 0;
  std::uint32_t since_checkpoint = 0;
  bool healthy = true;
  const CheckpointRecord& cert;
  const std::map<std::uint32_t, std::uint64_t>& kv_entries;
  std::uint64_t kv_digest = 0;
};

struct Snapshot {
  /// Cut point: the snapshot covers slots [0, after_slot).
  std::uint64_t after_slot = 0;
  /// Rolling ledger digest at the cut (must equal the certificate's).
  std::uint64_t ledger_digest = 0;
  std::uint64_t total_words = 0;
  std::uint32_t since_checkpoint = 0;
  bool healthy = true;

  /// Full slot/checkpoint history up to the cut (the ledger audits per-slot
  /// outcomes, so snapshots carry them; values are one word each).
  std::vector<SlotRecord> slots;
  std::vector<CheckpointRecord> checkpoints;

  /// The Algorithm-5 checkpoint that seals this cut.
  CheckpointRecord cert;

  /// Application state at the cut (kv map + its history-sensitive digest).
  std::map<std::uint32_t, std::uint64_t> kv_entries;
  std::uint64_t kv_digest = 0;

  /// True when the sealing certificate actually certifies this snapshot:
  /// accepted + agreed, and its cut/digest match the carried state.
  [[nodiscard]] bool certified() const;

  /// Internal consistency: the slot history replays to `ledger_digest`
  /// under `seed`, the cut matches the history length, and the certificate
  /// checks out. Catch-up runs this before trusting any peer snapshot.
  [[nodiscard]] bool valid(std::uint64_t seed) const;

  /// This snapshot's contents as a SnapshotWriter input (borrows *this).
  [[nodiscard]] SnapshotSource source() const;
};

/// Incremental snapshot encoder: each cut rewrites one blob in place,
/// encoding only the history records added since the previous cut. The
/// first cut of a writer encodes the whole history once. Between cuts the
/// writer owns the blob — nothing else may change it (a size change
/// aborts) — and each cut's history must extend the previous one
/// (append-only, as a ledger is).
class SnapshotWriter {
 public:
  /// Leaves in `blob` exactly the bytes encode_snapshot() gives for the
  /// same contents.
  void cut(std::vector<std::uint8_t>& blob, const SnapshotSource& src);

 private:
  std::size_t slots_ = 0;        // slot records in the history so far
  std::size_t checkpoints_ = 0;  // checkpoint records in the history so far
  std::size_t history_end_ = 0;  // blob offset of the end tag; 0 = fresh
  std::size_t blob_size_ = 0;    // blob size the last cut left
  wire::Checksum history_sum_;   // over the body bytes before history_end_
};

/// Encodes the snapshot as one framed, checksummed byte blob (a one-shot
/// SnapshotWriter).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap);

/// Decodes a snapshot blob; nullopt on any truncation, corruption, magic or
/// version mismatch, or non-canonical body.
[[nodiscard]] std::optional<Snapshot> decode_snapshot(
    std::span<const std::uint8_t> bytes);

}  // namespace mewc::smr
