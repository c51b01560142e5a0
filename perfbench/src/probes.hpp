// Layer probes of traced runs. A traced run reports every per-layer
// metric; the layers its workload exercises are measured on the workload
// itself, the others by a short probe of that layer at the workload's
// shape (n, t). The probes only fill metrics the workload left unset.
#pragma once

#include <vector>

#include "bench.hpp"
#include "check/record.hpp"

namespace perfbench {

/// Records the cells' message streams and re-runs every payload through
/// wire::encode and wire::decode: wire.encode_us_per_msg,
/// wire.decode_us_per_msg, wire.bytes_per_msg.
void probe_wire(const std::vector<mewc::check::CellSpec>& cells,
                Tracer& tracer, Metrics& m);

/// One short durable smr_wal round at (n, t): the smr.* metrics.
void probe_smr(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
               Tracer& tracer, Metrics& m);

/// Every in-process layer (crypto, wire, sim, ba, check, net, smr) at
/// (n, t), for the metrics `m` does not hold yet.
void probe_layers(std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                  Tracer& tracer, Metrics& m);

}  // namespace perfbench
