// State-machine replication over the paper's protocols: a replicated
// append-only log where each slot is one adaptive Byzantine Broadcast
// (rotating proposers) and periodic checkpoints are sealed with the binary
// strong BA of Algorithm 5.
//
// This is the workload the paper's introduction motivates ("BA is a key
// component in many distributed systems ... used at larger scales"): most
// slots are failure-free, and the adaptive protocols make those slots cost
// O(n) instead of the worst case. The ledger records per-slot outcomes,
// costs, and rolling digests so applications (and tests) can audit
// consistency end to end.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ba/harness.hpp"

namespace mewc::smr {

/// Outcome of one log slot (one BB instance).
struct SlotRecord {
  std::uint64_t slot = 0;
  ProcessId proposer = kNoProcess;
  Value value = kBottom;  // the committed entry; kBottom == slot skipped
  bool skipped = false;   // Byzantine/silent proposer yielded ⊥
  bool agreement = false;
  bool fallback = false;
  std::uint64_t words = 0;
};

/// Outcome of one checkpoint vote (one Algorithm 5 instance).
struct CheckpointRecord {
  std::uint64_t after_slot = 0;
  std::uint64_t ledger_digest = 0;
  bool accepted = false;
  bool agreement = false;
  std::uint64_t words = 0;
};

class Ledger;

/// Durability callbacks, invoked synchronously in commit order while the
/// ledger already reflects the event. on_commit fires once per committed
/// slot (before any checkpoint that slot triggers); on_checkpoint fires
/// once per sealed checkpoint. Implementations append WAL records and cut
/// snapshots (src/smr/recovery.hpp); because commits are strictly in order
/// the durable byte stream is deterministic regardless of scheduling.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;
  /// `batch` is the blob attached to this slot via Ledger::attach_payload
  /// (empty when the slot carries a plain one-word command). The span
  /// borrows the ledger's payload table and is only valid for the duration
  /// of the call; implementations verify batch::handle(batch) == rec.value
  /// before trusting it.
  virtual void on_commit(const SlotRecord& rec, const Ledger& ledger,
                         std::span<const std::uint8_t> batch) = 0;
  virtual void on_checkpoint(const CheckpointRecord& rec,
                             const Ledger& ledger) = 0;
};

/// A ledger's complete replayable state, as reconstructed by recovery or
/// received through catch-up. Install into a fresh Ledger/Engine to resume
/// exactly where the durable state ends.
struct RestoredState {
  std::vector<SlotRecord> slots;
  std::vector<CheckpointRecord> checkpoints;
  std::uint64_t total_words = 0;
  std::uint32_t since_checkpoint = 0;
  bool healthy = true;
};

class Ledger {
 public:
  struct Config {
    std::uint32_t n = 0;
    std::uint32_t t = 0;
    ThresholdBackend backend = ThresholdBackend::kSim;
    std::uint64_t seed = 0x5e7u;
    /// Seal a checkpoint after every k committed slots (0 = never).
    std::uint32_t checkpoint_every = 0;
    /// Instance-nonce base; every slot/checkpoint gets a distinct nonce so
    /// no signature is replayable across instances.
    std::uint64_t base_instance = 1000;
    /// Which executor drives simulated instances (prepare_spec copies it
    /// into every slot/checkpoint RunSpec).
    ExecutorKind executor = ExecutorKind::kLockstep;
    /// Optional durability sink (not owned; must outlive the ledger).
    DurabilityHook* durability = nullptr;
    /// Replaces the built-in simulated strong-BA when sealing checkpoints.
    /// `mewc_node` installs a runner that executes the checkpoint instance
    /// across the real cluster; the spec it receives is the same one the
    /// simulation would use (odd instance-nonce lane), so the durable
    /// record stream is shaped identically either way.
    std::function<harness::RunReport(const harness::RunSpec&,
                                     const harness::RunInputs&)>
        checkpoint_runner;
  };

  /// Builds a per-slot adversary. An empty function means no corruption.
  using AdversaryFactory = std::function<std::unique_ptr<Adversary>(
      std::uint64_t slot, ProcessId proposer)>;

  explicit Ledger(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// The proposer the rotation assigns to the next slot.
  [[nodiscard]] ProcessId next_proposer() const;

  /// Runs one slot: the rotation proposer broadcasts `v` through BB. If the
  /// slot index hits the checkpoint cadence, a checkpoint vote follows.
  /// Equivalent to prepare_spec + driver run + commit; kept as the
  /// single-threaded convenience path.
  const SlotRecord& append(Value v,
                           const AdversaryFactory& adversary = nullptr);

  /// The proposer the rotation assigns to slot `slot`.
  [[nodiscard]] ProcessId proposer_of(std::uint64_t slot) const;

  /// Attaches an out-of-band batch blob to slot `slot` ahead of its commit
  /// (see src/smr/batch.hpp: consensus agrees on the blob's one-word
  /// handle; the blob itself is disseminated beside the instance). The
  /// blob is handed to the durability hook when the slot commits and
  /// dropped afterwards; attaching to an already-committed slot is an
  /// error. Thread-safety follows commit(): the engine serializes both
  /// under its commit lock.
  void attach_payload(std::uint64_t slot, std::vector<std::uint8_t> blob);

  /// The blob attached to slot `slot` (empty span when none) — only
  /// meaningful between attach_payload and the slot's commit.
  [[nodiscard]] std::span<const std::uint8_t> payload_of(
      std::uint64_t slot) const;

  /// The RunSpec for slot `slot`'s BB instance (distinct instance nonce per
  /// slot; checkpoints use the odd nonce lane). Pure: safe to call from any
  /// thread for any future slot, which is what lets the SMR engine run many
  /// slots' instances concurrently before committing them in order.
  [[nodiscard]] harness::RunSpec prepare_spec(std::uint64_t slot) const;

  /// Commits the outcome of slot `slot`'s BB instance. Slots must be
  /// committed strictly in order (`slot == slots().size()`); the checkpoint
  /// cadence runs here, serially, so the ledger digest and checkpoint
  /// stream are identical no matter how the instances were scheduled.
  const SlotRecord& commit(std::uint64_t slot, const harness::RunReport& report,
                           const AdversaryFactory& adversary = nullptr);

  [[nodiscard]] const std::vector<SlotRecord>& slots() const { return slots_; }
  [[nodiscard]] const std::vector<CheckpointRecord>& checkpoints() const {
    return checkpoints_;
  }

  /// Committed (non-skipped) entries, in order.
  [[nodiscard]] std::vector<Value> committed() const;

  /// Rolling digest over all slot outcomes (skips included: a skipped slot
  /// is itself agreed state).
  [[nodiscard]] std::uint64_t ledger_digest() const { return digest_; }

  [[nodiscard]] std::uint64_t total_words() const { return total_words_; }

  /// True while every slot and checkpoint reached agreement and every
  /// checkpoint was accepted.
  [[nodiscard]] bool healthy() const { return healthy_; }

  /// Non-skipped commits since the last sealed checkpoint. Recovery uses
  /// this to detect a checkpoint that was due but whose record never made
  /// it to the WAL (crash between the slot append and the checkpoint).
  [[nodiscard]] std::uint32_t since_checkpoint() const {
    return since_checkpoint_;
  }

  /// The rolling digest a ledger with this seed holds after committing
  /// exactly `slots` — how recovery and catch-up validate that a slot
  /// history is internally consistent before trusting it.
  [[nodiscard]] static std::uint64_t replay_digest(
      std::uint64_t seed, const std::vector<SlotRecord>& slots);

  /// Installs recovered/caught-up state into a fresh ledger (no slots
  /// committed yet). Appends resume at slot `state.slots.size()` with the
  /// digest recomputed from the history; the durability hook does NOT fire
  /// for installed slots (they are already durable).
  void install(RestoredState state);

  /// Runs the checkpoint BA that was due after the last committed slot but
  /// is missing from durable state (since_checkpoint() == cadence after a
  /// crash). The instance nonce depends only on the slot count, so the
  /// sealed record is identical to what the uninterrupted run produced.
  /// No-op when no checkpoint is pending.
  void complete_pending_checkpoint(const AdversaryFactory& adversary = nullptr);

 private:
  void run_checkpoint(const AdversaryFactory& adversary);

  Config config_;
  /// Batch blobs awaiting their slot's commit, keyed by slot.
  std::map<std::uint64_t, std::vector<std::uint8_t>> payloads_;
  std::vector<SlotRecord> slots_;
  std::vector<CheckpointRecord> checkpoints_;
  std::uint64_t digest_;
  std::uint64_t total_words_ = 0;
  std::uint32_t since_checkpoint_ = 0;
  bool healthy_ = true;
};

}  // namespace mewc::smr
