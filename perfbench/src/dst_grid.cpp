// dst_grid: an in-process DST campaign (ideal crypto, one job, codec
// round-trip on) over every protocol, five sizes, f <= t and the eleven
// adversaries of tools/grids/full.json. One round is one pass of that grid
// with one seed; the run repeats rounds, each with the next seed derived
// from --seed, until --seconds of campaign time have been measured. An op
// is one grid cell.
#include <cstdio>

#include "bench.hpp"
#include "check/campaign.hpp"
#include "check/runner.hpp"
#include "checks.hpp"
#include "net/arena.hpp"
#include "probes.hpp"

namespace perfbench {

using namespace mewc;

namespace {

check::GridSpec grid_for(std::uint64_t seed) {
  check::GridSpec g;
  g.protocols = check::all_protocols();
  g.sizes = {{0, 2}, {0, 3}, {0, 5}, {9, 2}, {13, 3}};
  g.fs = {0, 1, 2, 3, 5};
  g.adversaries = {"none",          "crash",      "crash-late",
                   "silent-sender", "killer",     "equivocate",
                   "partial-sender", "fuzz",      "fuzz-crash",
                   "random-adaptive", "help-spam"};
  g.seeds = {seed};
  g.codec_roundtrip = true;
  return g;
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return seed * 1000003 + round;
}

/// The benchmark's own check of one cell, beside the program's checkers.
/// A cell that fails either counts as a failed op.
void check_cell(const check::CellSpec& cell, bool passed, std::uint64_t words,
                std::uint32_t f, Result& r) {
  if (!passed) r.fail("cell " + cell.label() + " violates a program checker");
  const std::string over = word_violation(cell.protocol, cell.n, cell.t, f, words);
  if (!over.empty()) r.fail("cell " + cell.label() + ": " + over);
  if (!passed || !over.empty()) ++r.failed;
}

/// Traced round: the campaign loop unrolled so each public call into the
/// sim (run_cell) and check (run_checkers) layers gets its own span.
struct TracedTotals {
  std::uint64_t cells = 0, fallbacks = 0, rounds = 0, words = 0;
  std::uint64_t pool_reused = 0, pool_fresh = 0;
};

std::uint64_t traced_round(const check::GridSpec& grid, Tracer& tracer,
                           TracedTotals& tot, Result& r, SpeedGauge& gauge,
                           double& paused) {
  std::uint64_t cells = 0;
  check::RunOptions opts;
  opts.record_messages = false;
  for (const check::CellSpec& cell : grid.enumerate()) {
    const pool::StatsScope pool_scope;
    const auto t0 = Clock::now();
    const check::RunRecord rec = check::run_cell(cell, opts);
    tracer.add(std::string("sim.instance.") + check::protocol_name(cell.protocol),
               seconds_since(t0));
    const auto t1 = Clock::now();
    const auto violations = check::run_checkers(rec, grid.checkers);
    tracer.add("check.run_checkers", seconds_since(t1));
    const pool::Stats d = pool_scope.delta();
    tot.pool_reused += d.reused;
    tot.pool_fresh += d.fresh;
    ++tot.cells;
    tot.fallbacks += rec.any_fallback ? 1 : 0;
    tot.rounds += rec.rounds;
    tot.words += rec.meter.words_correct;
    check_cell(cell, violations.empty(), rec.meter.words_correct, rec.f(), r);
    paused += gauge.maybe_sample();
    ++cells;
  }
  return cells;
}

}  // namespace

Result run_dst_grid(const RunOptions& opt) {
  Result r;
  Tracer tracer(opt.trace);
  // Per-round rate and latency percentiles at nominal machine speed; the
  // run reports their medians, so a round caught by a hiccup of the
  // machine moves nothing.
  std::vector<double> rates, p50s, p90s, cell_ms;
  double measured = 0;
  double setup_s = 0;
  TracedTotals tot;
  SpeedGauge gauge;
  for (std::uint64_t round = 0; round == 0 || measured < opt.seconds; ++round) {
    const check::GridSpec grid = grid_for(round_seed(opt.seed, round));
    const SpeedGauge::Mark mark = gauge.mark();
    const auto start = Clock::now();
    auto last = start;
    double paused = 0;
    std::uint64_t cells = 0;
    if (opt.trace) {
      cells = traced_round(grid, tracer, tot, r, gauge, paused);
    } else {
      cell_ms.clear();
      cells = check::run_campaign(grid, 1, [&](const check::CellResult& c) {
                const auto now = Clock::now();
                // Set-up: the first (cold) campaign's start to its first cell.
                if (round == 0 && setup_s == 0) setup_s = seconds_since(start);
                cell_ms.push_back(
                    std::chrono::duration<double, std::milli>(now - last).count());
                check_cell(c.cell, c.passed(), c.words_correct, c.f_observed, r);
                // The gauge pass stays outside the next cell's timing.
                paused += gauge.maybe_sample();
                last = Clock::now();
              }).cells_total;
    }
    const double secs = seconds_since(start) - paused;
    const double speed = gauge.factor_since(mark);
    measured += secs;
    r.attempted += cells;
    rates.push_back(static_cast<double>(cells) / secs * speed);
    p50s.push_back(percentile(cell_ms, 0.5) / speed);
    p90s.push_back(percentile(cell_ms, 0.9) / speed);
  }
  const double ops_per_s = percentile(rates, 0.5);

  if (!opt.trace) {
    // Messages are not part of a campaign's cell results: count them in a
    // separate, untimed pass over the first round's cells.
    std::uint64_t msgs = 0;
    check::RunOptions opts;
    opts.record_messages = false;
    const auto cells = grid_for(round_seed(opt.seed, 0)).enumerate();
    for (const auto& cell : cells) {
      msgs += check::run_cell(cell, opts).meter.messages_correct;
    }
    r.set("ops_per_s", ops_per_s, "op/s");
    r.set("op_p50_ms", percentile(p50s, 0.5), "ms");
    r.set("op_p90_ms", percentile(p90s, 0.5), "ms");
    r.set("msgs_per_op",
          static_cast<double>(msgs) / static_cast<double>(cells.size()),
          "msgs/op");
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr, "perfbench: raw %.2f op/s over %.2f s\n",
                 static_cast<double>(r.attempted) / measured, measured);
    return r;
  }

  Metrics& m = r.metrics;
  for (const check::Protocol p : check::all_protocols()) {
    const std::string name = check::protocol_name(p);
    m["sim.instance_ms." + name] = {tracer.mean_s("sim.instance." + name) * 1e3,
                                    "ms"};
  }
  const double cells = static_cast<double>(tot.cells);
  m["check.checkers_ms_per_cell"] = {tracer.mean_s("check.run_checkers") * 1e3,
                                     "ms"};
  m["ba.fallback_ratio"] = {static_cast<double>(tot.fallbacks) / cells,
                            "ratio"};
  m["ba.words_per_op"] = {static_cast<double>(tot.words) / cells, "words/op"};
  m["sim.rounds_per_instance"] = {static_cast<double>(tot.rounds) / cells,
                                  "rounds"};
  m["net.pool_reuse_ratio"] = {
      static_cast<double>(tot.pool_reused) /
          static_cast<double>(std::max<std::uint64_t>(
              1, tot.pool_reused + tot.pool_fresh)),
      "ratio"};
  {
    // A sample of the first round's cells feeds the codec probe.
    const auto all = grid_for(round_seed(opt.seed, 0)).enumerate();
    std::vector<check::CellSpec> sample;
    for (std::size_t i = 0; i < all.size(); i += 8) sample.push_back(all[i]);
    probe_wire(sample, tracer, m);
  }
  // The grid's largest shape stands in for "the workload's shape" in the
  // layers the grid itself does not exercise (crypto, smr, TCP).
  probe_layers(13, 3, opt.seed, tracer, m);
  dump_trace(opt, "dst_grid", tracer,
             {{"traced_ops_per_s", {ops_per_s, "op/s"}}});
  return r;
}

}  // namespace perfbench
