// Thread-count invariance fuzzer (threads is an execution knob, never an
// experiment parameter).
//
// For every corpus seed, one (config, workload) pair — plain closed-loop
// runs on even seeds, scenario-driven churn/free-ride/flash-crowd runs
// on odd seeds, alternating full-tree and Bloom search modes — executes
// at K ∈ {1, 2, 3, 8} worker threads. Every K must produce the same
// run bit for bit: identical graph snapshots, identical ring proposals
// from those snapshots, identical system counters, finder stats and
// metrics report. These populations sit below the pooled-sweep floor,
// so the suite pins that no thread count leaks into a small run; the
// pooled paths are covered at scale by ParallelSweeps in
// test_capacity.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/exchange_finder.h"
#include "core/system.h"
#include "metrics/report.h"
#include "scenario/driver.h"
#include "scenario/spec.h"
#include "support/fuzz_corpus.h"
#include "util/rng.h"

namespace p2pex {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8};

/// Derives a varied small config from a corpus seed.
SimConfig config_for_seed(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  SimConfig c = SimConfig::calibrated_defaults();
  c.seed = seed;
  c.num_peers = 40 + static_cast<std::size_t>(rng.index(61));  // 40..100
  c.sim_duration = 1500.0 + 250.0 * static_cast<double>(rng.index(8));
  c.warmup_fraction = 0.2;
  c.tree_mode = seed % 2 == 0 ? TreeMode::kFullTree : TreeMode::kBloom;
  c.policy = rng.chance(0.25) ? ExchangePolicy::kLongestFirst
                              : ExchangePolicy::kShortestFirst;
  c.preemption = !rng.chance(0.25);
  c.max_ring_size = 3 + rng.index(3);  // 3..5
  return c;
}

void expect_counters_equal(const SystemCounters& a, const SystemCounters& b,
                           const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.lookup_failures, b.lookup_failures);
  EXPECT_EQ(a.downloads_completed, b.downloads_completed);
  EXPECT_EQ(a.downloads_starved, b.downloads_starved);
  EXPECT_EQ(a.rings_formed, b.rings_formed);
  EXPECT_EQ(a.ring_attempts, b.ring_attempts);
  EXPECT_EQ(a.ring_rejects, b.ring_rejects);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(a.rings_by_size[i], b.rings_by_size[i]) << "ring size " << i;
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.sessions_started, b.sessions_started);
  EXPECT_EQ(a.peer_departures, b.peer_departures);
  EXPECT_EQ(a.peer_arrivals, b.peer_arrivals);
  EXPECT_EQ(a.sharing_flips, b.sharing_flips);
  EXPECT_EQ(a.downloads_withdrawn, b.downloads_withdrawn);
  EXPECT_EQ(a.snapshot_rebuilds, b.snapshot_rebuilds);
  EXPECT_EQ(a.snapshot_patches, b.snapshot_patches);
  EXPECT_EQ(a.dirty_rows_patched, b.dirty_rows_patched);
  EXPECT_EQ(a.lookup_wire_bytes, b.lookup_wire_bytes);
  EXPECT_EQ(a.gossip_rounds, b.gossip_rounds);
  EXPECT_EQ(a.dht_hops, b.dht_hops);
  EXPECT_EQ(a.lookup_misses, b.lookup_misses);
  EXPECT_EQ(a.stale_entries_served, b.stale_entries_served);
}

/// Ring proposals from a fresh finder over the system's final snapshot,
/// at a deterministic sample of roots.
std::vector<RingProposal> final_proposals(const System& system) {
  const SimConfig& c = system.config();
  ExchangeFinder finder(c.policy, c.max_ring_size, c.tree_mode,
                        c.bloom_hop_budget);
  const GraphSnapshot& snap = system.graph_snapshot();
  if (c.tree_mode == TreeMode::kBloom)
    finder.rebuild_summaries(snap, c.bloom_expected_per_level, c.bloom_fpp);
  std::vector<RingProposal> out;
  for (std::size_t r = 0; r < system.num_peers(); r += 7) {
    auto found =
        finder.find(snap, PeerId{static_cast<std::uint32_t>(r)}, 8);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

class ParallelShardInvariance
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelShardInvariance, IdenticalAcrossThreadCounts) {
  // The K sweep must control the thread count exactly; drop any ambient
  // override (the TSan CI job sets one for the rest of the suite).
  ASSERT_EQ(unsetenv("P2PEX_THREADS"), 0);
  const std::uint64_t seed = GetParam();
  const SimConfig base_cfg = config_for_seed(seed);

  std::unique_ptr<System> baseline;
  std::unique_ptr<scenario::Driver> baseline_driver;
  SystemCounters baseline_counters;
  FinderStats baseline_finder_stats;
  std::string baseline_report;
  std::vector<RingProposal> baseline_proposals;

  for (const std::size_t threads : kThreadCounts) {
    SimConfig c = base_cfg;
    c.threads = threads;
    std::unique_ptr<System> plain;
    std::unique_ptr<scenario::Driver> driver;
    const System* system = nullptr;
    if (seed % 2 == 0) {
      plain = std::make_unique<System>(c);
      plain->run();
      system = plain.get();
    } else {
      scenario::SpecBuilder b;
      b.config() = c;
      b.name("parallel-fuzz-" + std::to_string(seed));
      const double d = c.sim_duration;
      driver = std::make_unique<scenario::Driver>(
          b.churn(0.0, d, 90.0, 0.0008, 0.003)
              .freeride_wave(d * 0.3, 0.3, d * 0.3)
              .flash_crowd(d * 0.5, CategoryId{1}, 0.5, d * 0.2)
              .build());
      driver->run();
      system = &driver->system();
    }
    system->check_invariants();
    // Counters are captured *before* the snapshot/proposal probes below:
    // graph_snapshot() is a caching read that may patch — a
    // test-driven read must not perturb the comparison.
    const SystemCounters counters_at_end = system->counters();
    const FinderStats finder_stats_at_end = system->finder_stats();

    if (threads == kThreadCounts[0]) {
      baseline = std::move(plain);
      baseline_driver = std::move(driver);
      const System& ref = baseline ? *baseline : baseline_driver->system();
      baseline_counters = counters_at_end;
      baseline_finder_stats = finder_stats_at_end;
      baseline_report = format_report(ref.metrics());
      baseline_proposals = final_proposals(ref);
      continue;
    }

    const System& ref = baseline ? *baseline : baseline_driver->system();
    const std::string what =
        "seed " + std::to_string(seed) + ", threads " +
        std::to_string(threads);
    expect_counters_equal(baseline_counters, counters_at_end, what);
    EXPECT_EQ(baseline_finder_stats, finder_stats_at_end) << what;
    EXPECT_EQ(baseline_report, format_report(system->metrics())) << what;
    EXPECT_TRUE(ref.graph_snapshot().rows_equal(system->graph_snapshot()))
        << what;
    EXPECT_EQ(baseline_proposals, final_proposals(*system)) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelShardInvariance,
                         ::testing::ValuesIn(test::kParallelFuzzSeeds),
                         test::fuzz_seed_name);

}  // namespace
}  // namespace p2pex
