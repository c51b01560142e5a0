#include "smr/snapshot.hpp"

#include "common/check.hpp"

namespace mewc::smr {

namespace {

constexpr std::uint32_t kMagic = 0x6d736e70;  // "msnp"
constexpr std::uint32_t kVersion = 2;
// Defensive bound against corrupt counts in a checksum-colliding body.
constexpr std::uint32_t kMaxItems = 1u << 24;

// History tag byte: the record kind in bits 0-1, the record's booleans in
// bits 2-3, every other bit zero. A record's position fixes what v1
// stored explicitly: a slot's index is the number of slots before it, a
// checkpoint's after_slot likewise, and `skipped` is value.is_bottom().
constexpr std::uint8_t kSlotTag = 1;
constexpr std::uint8_t kCheckpointTag = 2;
constexpr std::uint8_t kEndTag = 3;
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kFlagA = 0x04;  // slot: agreement; checkpoint: accepted
constexpr std::uint8_t kFlagB = 0x08;  // slot: fallback; checkpoint: agreement

std::uint8_t tag(std::uint8_t kind, bool a, bool b) {
  return kind | (a ? kFlagA : 0) | (b ? kFlagB : 0);
}

void put_slot(wire::Writer& w, const SlotRecord& rec) {
  w.u8(tag(kSlotTag, rec.agreement, rec.fallback));
  w.u32(rec.proposer);
  w.u64(rec.value.raw);
  w.u64(rec.words);
}

void get_slot(wire::Reader& r, std::uint8_t flags, std::uint64_t index,
              SlotRecord& rec) {
  rec.slot = index;
  rec.agreement = (flags & kFlagA) != 0;
  rec.fallback = (flags & kFlagB) != 0;
  rec.proposer = r.u32();
  rec.value.raw = r.u64();
  rec.skipped = rec.value.is_bottom();
  rec.words = r.u64();
}

void put_checkpoint_record(wire::Writer& w, const CheckpointRecord& rec) {
  w.u8(tag(kCheckpointTag, rec.accepted, rec.agreement));
  w.u64(rec.ledger_digest);
  w.u64(rec.words);
}

void get_checkpoint_record(wire::Reader& r, std::uint8_t flags,
                           std::uint64_t after_slot, CheckpointRecord& rec) {
  rec.after_slot = after_slot;
  rec.accepted = (flags & kFlagA) != 0;
  rec.agreement = (flags & kFlagB) != 0;
  rec.ledger_digest = r.u64();
  rec.words = r.u64();
}

// The certificate, in full: its after_slot is what certified() checks.
void put_cert(wire::Writer& w, const CheckpointRecord& rec) {
  w.u64(rec.after_slot);
  w.u64(rec.ledger_digest);
  w.boolean(rec.accepted);
  w.boolean(rec.agreement);
  w.u64(rec.words);
}

bool get_cert(wire::Reader& r, CheckpointRecord& rec) {
  rec.after_slot = r.u64();
  rec.ledger_digest = r.u64();
  rec.accepted = r.boolean();
  rec.agreement = r.boolean();
  rec.words = r.u64();
  return r.ok();
}

void put_history_slot(wire::Writer& w, const SlotRecord& rec,
                      std::size_t index) {
  MEWC_CHECK_MSG(rec.slot == index, "snapshot slots must be dense");
  MEWC_CHECK_MSG(rec.skipped == rec.value.is_bottom(),
                 "skipped must match the value");
  put_slot(w, rec);
}

void put_trailer(wire::Writer& w, const SnapshotSource& src) {
  w.u8(kEndTag);
  w.u64(src.after_slot);
  w.u64(src.ledger_digest);
  w.u64(src.total_words);
  w.u32(src.since_checkpoint);
  w.boolean(src.healthy);
  w.u32(static_cast<std::uint32_t>(src.slots.size()));
  w.u32(static_cast<std::uint32_t>(src.checkpoints.size()));
  put_cert(w, src.cert);
  w.u32(static_cast<std::uint32_t>(src.kv_entries.size()));
  for (const auto& [key, value] : src.kv_entries) {
    w.u32(key);
    w.u64(value);
  }
  w.u64(src.kv_digest);
}

}  // namespace

bool Snapshot::certified() const {
  return cert.accepted && cert.agreement && cert.after_slot == after_slot &&
         cert.ledger_digest == ledger_digest;
}

bool Snapshot::valid(std::uint64_t seed) const {
  if (!certified()) return false;
  if (after_slot != slots.size()) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].slot != i) return false;
  }
  return Ledger::replay_digest(seed, slots) == ledger_digest;
}

void SnapshotWriter::cut(std::vector<std::uint8_t>& blob,
                         const SnapshotSource& src) {
  MEWC_CHECK_MSG(
      src.slots.size() >= slots_ && src.checkpoints.size() >= checkpoints_,
      "snapshot history only grows");
  wire::Writer w;
  std::size_t from = 0;  // first body byte not yet in history_sum_
  if (history_end_ == 0) {
    w = wire::Writer(std::move(blob));
    for (std::size_t i = 0; i < wire::kFrameHeader; ++i) w.u8(0);
    w.u32(kMagic);
    w.u32(kVersion);
    from = wire::kFrameHeader;
  } else {
    MEWC_CHECK_MSG(blob.size() == blob_size_,
                   "snapshot blob changed behind its writer");
    blob.resize(history_end_);  // drop the old end tag and trailer
    w = wire::Writer::appending(std::move(blob));
    from = history_end_;
  }

  // New records in commit order: the slots each new checkpoint seals, the
  // checkpoint, then any slots committed after the last checkpoint.
  for (; checkpoints_ < src.checkpoints.size(); ++checkpoints_) {
    const CheckpointRecord& cp = src.checkpoints[checkpoints_];
    MEWC_CHECK_MSG(cp.after_slot >= slots_ && cp.after_slot <= src.slots.size(),
                   "checkpoints must follow the slots they seal, in order");
    for (; slots_ < cp.after_slot; ++slots_) {
      put_history_slot(w, src.slots[slots_], slots_);
    }
    put_checkpoint_record(w, cp);
  }
  for (; slots_ < src.slots.size(); ++slots_) {
    put_history_slot(w, src.slots[slots_], slots_);
  }
  history_end_ = w.size();
  history_sum_.update(w.bytes().subspan(from, history_end_ - from));

  put_trailer(w, src);
  wire::Checksum sum = history_sum_;
  sum.update(w.bytes().subspan(history_end_));
  blob = w.take();
  wire::put_frame_header(
      blob, static_cast<std::uint32_t>(blob.size() - wire::kFrameHeader),
      sum.finish());
  blob_size_ = blob.size();
}

SnapshotSource Snapshot::source() const {
  return {.slots = slots,
          .checkpoints = checkpoints,
          .after_slot = after_slot,
          .ledger_digest = ledger_digest,
          .total_words = total_words,
          .since_checkpoint = since_checkpoint,
          .healthy = healthy,
          .cert = cert,
          .kv_entries = kv_entries,
          .kv_digest = kv_digest};
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  std::vector<std::uint8_t> out;
  SnapshotWriter().cut(out, snap.source());
  return out;
}

std::optional<Snapshot> decode_snapshot(std::span<const std::uint8_t> bytes) {
  const auto frame = wire::read_frame(bytes, 0);
  // Exactly one frame, nothing after it.
  if (!frame || frame->frame_size != bytes.size()) return std::nullopt;

  wire::Reader r(frame->body);
  if (r.u32() != kMagic || r.u32() != kVersion) return std::nullopt;

  Snapshot snap;
  for (;;) {
    const std::uint8_t flags = r.u8();
    if (!r.ok()) return std::nullopt;
    // Canonical form: no bits beyond the kind and its two flags.
    if ((flags & ~(kKindMask | kFlagA | kFlagB)) != 0) return std::nullopt;
    const std::uint8_t kind = flags & kKindMask;
    if (kind == kEndTag) {
      if (flags != kEndTag) return std::nullopt;
      break;
    }
    // Position fixes a slot's index and a checkpoint's cut alike.
    const std::uint64_t slots_before = snap.slots.size();
    if (kind == kSlotTag) {
      if (slots_before >= kMaxItems) return std::nullopt;
      get_slot(r, flags, slots_before, snap.slots.emplace_back());
    } else if (kind == kCheckpointTag) {
      if (snap.checkpoints.size() >= kMaxItems) return std::nullopt;
      get_checkpoint_record(r, flags, slots_before,
                            snap.checkpoints.emplace_back());
    } else {
      return std::nullopt;
    }
  }

  snap.after_slot = r.u64();
  snap.ledger_digest = r.u64();
  snap.total_words = r.u64();
  snap.since_checkpoint = r.u32();
  snap.healthy = r.boolean();
  // The counts must agree with the history they close.
  if (r.u32() != snap.slots.size() || r.u32() != snap.checkpoints.size()) {
    return std::nullopt;
  }
  if (!get_cert(r, snap.cert)) return std::nullopt;

  const std::uint32_t n_kv = r.u32();
  if (!r.ok() || n_kv > kMaxItems) return std::nullopt;
  std::uint64_t prev_key = 0;
  for (std::uint32_t i = 0; i < n_kv; ++i) {
    const std::uint32_t key = r.u32();
    const std::uint64_t value = r.u64();
    // Canonical form: strictly ascending keys (it is a serialized map).
    if (i > 0 && key <= prev_key) return std::nullopt;
    prev_key = key;
    snap.kv_entries.emplace_hint(snap.kv_entries.end(), key, value);
  }
  snap.kv_digest = r.u64();

  if (!r.done()) return std::nullopt;
  return snap;
}

}  // namespace mewc::smr
