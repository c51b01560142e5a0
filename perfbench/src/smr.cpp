// smr_wal and smr_real: smr::Engine driven through its public submit
// path. A round is one fresh engine committing a fixed number of slots;
// the run repeats rounds (each with inputs derived from --seed and the
// round index) until --seconds of engine time have been measured.
//
//  smr_wal  n=4 t=1, ideal crypto, f=0, batches of kBatch commands through
//           submit_batch, smr::Durability keeping WAL + snapshots, a
//           checkpoint every 8 slots, kWal.slots slots per round.
//  smr_real n=9 t=4, the kReal pairing backend, f=0, one command per slot
//           through submit, checkpoints every 8 slots, no durability.
//
// An op is one client command (in smr_real, one slot). Commands come from
// check::crash_proposal, the generator the crash campaign and
// bench/bench_smr_throughput.cpp drive the engine with. An op fails when its
// slot is not committed, is skipped or takes the fallback.
//
// Commit times come from a DurabilityHook decorator (it only timestamps
// unless tracing), submit-side waits from spans around Engine::submit*.
#include <atomic>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "check/crash.hpp"
#include "checks.hpp"
#include "probes.hpp"
#include "smr/engine.hpp"
#include "smr/recovery.hpp"

namespace perfbench {

using namespace mewc;

namespace {

struct Shape {
  std::uint32_t n = 4;
  std::uint32_t t = 1;
  ThresholdBackend backend = ThresholdBackend::kSim;
  std::uint32_t checkpoint_every = 8;
  std::uint32_t batch = 0;  // 0: one plain submit per slot
  std::uint64_t slots = 0;  // per round
  bool durable = false;
  std::uint32_t workers = 1;
};

// Batch 4 is one of the batch sizes bench/bench_smr_throughput.cpp sweeps;
// 20 000 slots is a ledger of tens of thousands of slots, long enough for
// the snapshot path's growth with ledger length to dominate the round.
constexpr std::uint32_t kBatch = 4;
constexpr Shape kWal{4, 1, ThresholdBackend::kSim, 8, kBatch, 20000, true, 1};
constexpr Shape kReal{9, 4, ThresholdBackend::kReal, 8, 0, 400, false, 1};

/// Times the durability callbacks and stamps each slot's commit. It runs
/// on the engine's worker thread, so it also samples the speed gauge there
/// (the thread doing the measured work). The passes stop the hook's clock
/// (unpaused_now), so a span between two of its readings — a round, a
/// slot's submit-to-commit latency — leaves every pass inside it out.
class TimedHook final : public smr::DurabilityHook {
 public:
  TimedHook(smr::DurabilityHook* inner, Tracer& tracer,
            std::vector<Clock::time_point>& commit_at, SpeedGauge* gauge)
      : inner_(inner), tracer_(tracer), commit_at_(commit_at), gauge_(gauge) {}

  [[nodiscard]] Clock::time_point unpaused_now() const {
    return Clock::now() -
           std::chrono::nanoseconds(paused_ns_.load(std::memory_order_relaxed));
  }

  void on_commit(const smr::SlotRecord& rec, const smr::Ledger& ledger,
                 std::span<const std::uint8_t> batch) override {
    commit_at_[rec.slot] = unpaused_now();
    if (gauge_ != nullptr) {
      paused_ns_.fetch_add(
          static_cast<std::int64_t>(gauge_->maybe_sample() * 1e9),
          std::memory_order_relaxed);
    }
    if (inner_ == nullptr) return;
    Span span(tracer_, "smr.durability.on_commit");
    inner_->on_commit(rec, ledger, batch);
  }
  void on_checkpoint(const smr::CheckpointRecord& rec,
                     const smr::Ledger& ledger) override {
    if (inner_ == nullptr) return;
    Span span(tracer_, rec.accepted ? "smr.durability.on_checkpoint"
                                    : "smr.durability.on_checkpoint_rejected");
    inner_->on_checkpoint(rec, ledger);
  }

 private:
  smr::DurabilityHook* inner_;
  Tracer& tracer_;
  std::vector<Clock::time_point>& commit_at_;
  SpeedGauge* gauge_;
  // Written by the worker thread, read by the submitting one.
  std::atomic<std::int64_t> paused_ns_{0};
};

smr::Ledger::Config ledger_config(const Shape& s, std::uint64_t seed) {
  smr::Ledger::Config lc;
  lc.n = s.n;
  lc.t = s.t;
  lc.backend = s.backend;
  lc.seed = seed;
  lc.checkpoint_every = s.checkpoint_every;
  return lc;
}

/// Applies the committed slots' commands to a fresh kv state (the kv
/// digest of a run without a durability sink).
std::uint64_t kv_of(const smr::Ledger& ledger) {
  smr::KvState kv;
  for (const smr::SlotRecord& rec : ledger.slots()) {
    if (!rec.skipped) kv.apply(smr::Command::unpack(rec.value));
  }
  return kv.digest();
}

/// Everything one round leaves behind.
struct RoundOut {
  SmrDigests live;
  std::optional<SmrDigests> recovered;
  smr::EngineStats stats;
  std::uint64_t msgs = 0;
  std::uint64_t words = 0;  // ledger words + batch dissemination words
  std::uint64_t attempted = 0;  // commands submitted
  std::uint64_t done = 0;       // of those, committed in a clean slot
  std::uint64_t fallback_slots = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::vector<std::uint8_t> wal;
  double seconds = 0;  // engine time, gauge passes left out
  double speed = 1;    // the gauge's slowdown factor over the round
  double setup_s = 0;  // engine construction to the first commit
};

RoundOut run_round(const Shape& shape, std::uint64_t seed, Tracer& tracer,
                   std::vector<double>* latency_ms, SpeedGauge* gauge) {
  RoundOut out;
  smr::Store store;
  smr::Durability durability(&store);
  std::vector<Clock::time_point> submit_at(shape.slots), commit_at(shape.slots);
  TimedHook hook(shape.durable ? &durability : nullptr, tracer, commit_at,
                 gauge);
  const SpeedGauge::Mark mark =
      gauge != nullptr ? gauge->mark() : SpeedGauge::Mark{};

  smr::EngineConfig cfg;
  cfg.n = shape.n;
  cfg.t = shape.t;
  cfg.backend = shape.backend;
  cfg.seed = seed;
  cfg.workers = shape.workers;
  cfg.checkpoint_every = shape.checkpoint_every;
  cfg.durability = &hook;

  const std::uint32_t per_slot = shape.batch == 0 ? 1 : shape.batch;
  out.attempted = shape.slots * per_slot;
  std::vector<smr::Command> cmds(per_slot);

  const auto start = hook.unpaused_now();
  {
    smr::Engine engine(cfg);
    for (std::uint64_t s = 0; s < shape.slots; ++s) {
      for (std::uint32_t j = 0; j < per_slot; ++j) {
        cmds[j] = check::crash_proposal(seed, s * per_slot + j);
      }
      submit_at[s] = hook.unpaused_now();
      Span span(tracer, "smr.engine.submit");
      if (shape.batch == 0) {
        engine.submit(cmds[0].pack());
      } else {
        engine.submit_batch(cmds);
      }
    }
    engine.finish();
    out.seconds = std::chrono::duration<double>(hook.unpaused_now() - start).count();
    out.speed = gauge != nullptr ? gauge->factor_since(mark) : 1.0;

    const smr::Ledger& ledger = engine.ledger();
    out.stats = engine.stats();
    out.msgs = engine.meter().messages_correct;
    out.words = ledger.total_words() + out.stats.batch_extra_words;
    for (const smr::SlotRecord& rec : ledger.slots()) {
      out.fallback_slots += rec.fallback ? 1 : 0;
      out.done += rec.skipped || rec.fallback ? 0 : per_slot;
    }
    out.live = {ledger.ledger_digest(),
                shape.durable ? durability.kv().digest() : kv_of(ledger),
                ledger.slots().size(), ledger.total_words()};
  }
  out.setup_s = std::chrono::duration<double>(commit_at[0] - start).count();
  if (latency_ms != nullptr) {
    for (std::uint64_t s = 0; s < shape.slots; ++s) {
      latency_ms->push_back(
          std::chrono::duration<double, std::milli>(commit_at[s] - submit_at[s])
              .count());
    }
  }
  if (shape.durable) {
    out.wal_bytes = store.wal.size();
    out.snapshot_bytes = store.snapshot.size();
    out.wal = store.wal;
    const smr::Recovered rec = smr::recover(ledger_config(shape, seed), store);
    out.recovered = SmrDigests{
        smr::Ledger::replay_digest(seed, rec.state.slots), rec.kv.digest(),
        rec.state.slots.size(), rec.state.total_words};
  }
  return out;
}

void check_round(const Shape& shape, const RoundOut& o, Result& r) {
  if (o.stats.committed != shape.slots || o.stats.skipped != 0) {
    r.fail("committed " + std::to_string(o.stats.committed) + " of " +
           std::to_string(shape.slots) + " slots, skipped " +
           std::to_string(o.stats.skipped));
  }
  if (o.stats.fallbacks != 0 || o.fallback_slots != 0) {
    r.fail(std::to_string(o.fallback_slots) + " slots took the fallback at f=0");
  }
  if (o.recovered) {
    std::vector<std::string> errors;
    compare_digests("recovered vs live", o.live, *o.recovered, errors);
    for (auto& e : errors) r.fail(std::move(e));
  }
}

struct Totals {
  std::uint64_t attempted = 0, done = 0, msgs = 0, words = 0, slots = 0;
  std::uint64_t wal_bytes = 0, snapshot_bytes = 0, rounds = 0;
  std::uint64_t pairings = 0, memo_hits = 0, fallback_slots = 0;
};

Result run_smr(const char* workload, const Shape& shape,
               const RunOptions& opt) {
  Result r;
  Tracer tracer(opt.trace);
  // Per-round rate and latency percentiles at nominal machine speed; the
  // run reports their medians.
  std::vector<double> lat, rates, p50s, p90s;
  double measured = 0;
  double setup_s = 0;
  Totals tot;
  SpeedGauge gauge;
  for (std::uint64_t round = 0; round == 0 || measured < opt.seconds;
       ++round) {
    const std::uint64_t seed = opt.seed * 1000003 + round;
    const RoundOut o = run_round(shape, seed, tracer, &lat, &gauge);
    // Set-up is the process's first, cold engine: round 0 only.
    if (round == 0) setup_s = o.setup_s;
    measured += o.seconds;
    rates.push_back(static_cast<double>(o.done) / o.seconds * o.speed);
    p50s.push_back(percentile(lat, 0.5) / o.speed);
    p90s.push_back(percentile(lat, 0.9) / o.speed);
    lat.clear();
    check_round(shape, o, r);
    if (shape.backend == ThresholdBackend::kReal) {
      // The ideal-crypto twin of the same round must agree on everything
      // the backend cannot change.
      Shape twin = shape;
      twin.backend = ThresholdBackend::kSim;
      Tracer off(false);
      const RoundOut s = run_round(twin, seed, off, nullptr, nullptr);
      std::vector<std::string> errors;
      compare_digests("kReal vs kSim twin", s.live, o.live, errors);
      for (auto& e : errors) r.fail(std::move(e));
    }
    ++tot.rounds;
    tot.attempted += o.attempted;
    tot.done += o.done;
    tot.slots += o.stats.committed;
    tot.msgs += o.msgs;
    tot.words += o.words;
    tot.wal_bytes += o.wal_bytes;
    tot.snapshot_bytes = std::max<std::uint64_t>(tot.snapshot_bytes,
                                                 o.snapshot_bytes);
    tot.pairings += o.stats.crypto_pairings;
    tot.memo_hits += o.stats.crypto_memo_hits;
    tot.fallback_slots += o.fallback_slots;
  }
  if (shape.durable) {
    // Same inputs, 1 vs 2 workers: identical ledger, kv and WAL bytes.
    Shape one = shape;
    one.slots = 2000;
    Shape two = one;
    two.workers = 2;
    Tracer off(false);
    const RoundOut a = run_round(one, opt.seed, off, nullptr, nullptr);
    const RoundOut b = run_round(two, opt.seed, off, nullptr, nullptr);
    std::vector<std::string> errors;
    compare_digests("2 workers vs 1", a.live, b.live, errors);
    if (a.wal != b.wal) errors.push_back("2 workers vs 1: WAL bytes differ");
    for (auto& e : errors) r.fail(std::move(e));
  }
  r.attempted = tot.attempted;
  r.failed = tot.attempted - tot.done;
  const double ops = static_cast<double>(tot.done);
  const double ops_per_s = percentile(rates, 0.5);

  if (!opt.trace) {
    r.set("ops_per_s", ops_per_s, "op/s");
    r.set("op_p50_ms", percentile(p50s, 0.5), "ms");
    r.set("op_p90_ms", percentile(p90s, 0.5), "ms");
    r.set("msgs_per_op", static_cast<double>(tot.msgs) / ops, "msgs/op");
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr, "perfbench: raw %.2f op/s over %.2f s\n",
                 ops / measured, measured);
    return r;
  }

  Metrics& m = r.metrics;
  m["smr.admit_wait_ms_per_op"] = {tracer.total_s("smr.engine.submit") * 1e3 / ops,
                                   "ms"};
  m["ba.words_per_op"] = {static_cast<double>(tot.words) / ops, "words/op"};
  m["ba.fallback_ratio"] = {static_cast<double>(tot.fallback_slots) /
                                static_cast<double>(tot.slots),
                            "ratio"};
  if (shape.durable) {
    m["smr.commit_us"] = {tracer.mean_s("smr.durability.on_commit") * 1e6, "us"};
    m["smr.snapshot_ms"] = {
        tracer.mean_s("smr.durability.on_checkpoint") * 1e3, "ms"};
    m["smr.wal_bytes_per_op"] = {static_cast<double>(tot.wal_bytes) / ops,
                                 "B/op"};
    m["smr.snapshot_kb"] = {static_cast<double>(tot.snapshot_bytes) / 1024.0,
                            "KB"};
  }
  if (shape.backend == ThresholdBackend::kReal) {
    m["crypto.memo_hit_ratio"] = {
        static_cast<double>(tot.memo_hits) /
            static_cast<double>(
                std::max<std::uint64_t>(1, tot.memo_hits + tot.pairings)),
        "ratio"};
    m["crypto.pairings_per_op"] = {static_cast<double>(tot.pairings) / ops,
                                   "pairings/op"};
  }
  probe_layers(shape.n, shape.t, opt.seed, tracer, m);
  dump_trace(opt, workload, tracer, {{"traced_ops_per_s", {ops_per_s, "op/s"}}});
  return r;
}

}  // namespace

Result run_smr_wal(const RunOptions& opt) {
  return run_smr("smr_wal", kWal, opt);
}

Result run_smr_real(const RunOptions& opt) {
  return run_smr("smr_real", kReal, opt);
}

/// Durable-engine layer probe for workloads without an SMR engine: one
/// short smr_wal round at shape (n, t).
void probe_smr(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
               Tracer& tracer, Metrics& m) {
  Shape s = kWal;
  s.n = n;
  s.t = t;
  s.slots = 1024;
  Tracer local(true);
  const RoundOut o = run_round(s, seed, local, nullptr, nullptr);
  const double ops = static_cast<double>(o.done);
  m.try_emplace("smr.admit_wait_ms_per_op",
                Metric{local.total_s("smr.engine.submit") * 1e3 / ops, "ms"});
  m.try_emplace("smr.commit_us",
                Metric{local.mean_s("smr.durability.on_commit") * 1e6, "us"});
  m.try_emplace("smr.snapshot_ms",
                Metric{local.mean_s("smr.durability.on_checkpoint") * 1e3, "ms"});
  m.try_emplace("smr.wal_bytes_per_op",
                Metric{static_cast<double>(o.wal_bytes) / ops, "B/op"});
  m.try_emplace("smr.snapshot_kb",
                Metric{static_cast<double>(o.snapshot_bytes) / 1024.0, "KB"});
  tracer.add("probe.smr_round", o.seconds);
}

}  // namespace perfbench
