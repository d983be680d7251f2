// Layer probes: unit costs measured from outside the library, after a
// run, through const accessors and copies. Pass them a twin of the
// measured System (same spec, same outputs), not the measured one:
// probe_finder reads System::graph_snapshot(), which patches its lazily
// maintained snapshot and counts that patch in deterministic counters.
#pragma once

#include <cstdint>

#include "core/system.h"

namespace perfbench {

struct FinderProbe {
  std::uint64_t searches = 0;  ///< ExchangeFinder::find calls timed
  double us_per_search = 0.0;
};

/// Times ExchangeFinder::find over the final graph_snapshot() for every
/// root, with a finder configured like the System's own.
[[nodiscard]] FinderProbe probe_finder(const p2pex::System& system);

struct DiscoveryProbe {
  std::uint64_t queries = 0;  ///< LookupBackend::query calls timed
  double query_us = 0.0;
  std::uint64_t ticks = 0;    ///< LookupBackend::tick calls timed
  double tick_us = 0.0;
};

/// Builds the System's configured discovery backend over a copy of its
/// ground-truth owner index and a snapshot of peer liveness, publishes
/// every owner, then times `query` on a sample of requests drawn like
/// the engine's (requester's interests, catalog popularity) from
/// `sample_seed`, and `tick` where the backend gossips (PEX; elsewhere
/// `ticks` and `tick_us` stay 0).
[[nodiscard]] DiscoveryProbe probe_discovery(const p2pex::System& system,
                                             std::uint64_t sample_seed);

}  // namespace perfbench
