// Unit tests for the parallel sweep building blocks (worker pool, shard
// map), FinderStats arithmetic, the threads config plumbing, and the
// System-level contract: a threaded run computes bit-identical results
// to a serial run. The thread-count sweep over both tree modes lives in
// test_capacity.cpp (ParallelSweeps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/parallel/shard_map.h"
#include "core/parallel/worker_pool.h"
#include "core/system.h"
#include "metrics/report.h"
#include "support/system_compare.h"

namespace p2pex {
namespace {

// --- WorkerPool ----------------------------------------------------------

TEST(WorkerPool, RunsEveryShardExactlyOnce) {
  parallel::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  for (const std::size_t shards : {1u, 3u, 4u, 17u}) {
    std::vector<std::atomic<int>> hits(shards);
    pool.run(shards, [&](std::size_t s) { hits[s].fetch_add(1); });
    for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(hits[s].load(), 1);
  }
}

TEST(WorkerPool, SingleThreadRunsInline) {
  parallel::WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.run(5, [&](std::size_t s) {
    order.push_back(static_cast<int>(s));  // inline: no synchronization
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, PropagatesFirstException) {
  parallel::WorkerPool pool(3);
  EXPECT_THROW(
      pool.run(8,
               [](std::size_t s) {
                 if (s % 2 == 1) throw std::runtime_error("shard failed");
               }),
      std::runtime_error);
  // The pool survives a failed phase and keeps working.
  std::atomic<int> ran{0};
  pool.run(6, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);
}

TEST(WorkerPool, ReusableAcrossManyPhases) {
  parallel::WorkerPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int pass = 0; pass < 50; ++pass)
    pool.run(7, [&](std::size_t s) { total.fetch_add(s + 1); });
  EXPECT_EQ(total.load(), 50u * (7u * 8u / 2u));
}

// --- ShardMap ------------------------------------------------------------

TEST(ShardMap, TilesContiguouslyAndBalanced) {
  for (const std::size_t items : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      const parallel::ShardMap map(items, shards);
      std::size_t cursor = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const parallel::ShardRange r = map.range(s);
        EXPECT_EQ(r.begin, cursor);  // contiguous tiling, shard order
        cursor = r.end;
        EXPECT_LE(r.size(), items / shards + 1);  // balanced within one
        EXPECT_GE(r.size(), items / shards);
      }
      EXPECT_EQ(cursor, items);
      for (std::size_t i = 0; i < items; ++i) {
        const std::size_t s = map.shard_of(i);
        EXPECT_GE(i, map.range(s).begin);
        EXPECT_LT(i, map.range(s).end);
      }
    }
  }
}

// --- FinderStats arithmetic ---------------------------------------------

TEST(FinderStats, DeltaRoundTrips) {
  FinderStats a;
  a.searches = 10;
  a.discovered = 4;
  a.nodes_visited = 100;
  FinderStats b = a;
  b.searches = 13;
  b.candidates = 2;
  b.bloom_detections = 5;
  FinderStats delta = b - a;
  EXPECT_EQ(delta.searches, 3u);
  EXPECT_EQ(delta.candidates, 2u);
  EXPECT_EQ(delta.nodes_visited, 0u);
  FinderStats again = a;
  again += delta;
  EXPECT_EQ(again, b);
}

// --- config plumbing -----------------------------------------------------

TEST(ParallelConfig, ThreadsValidation) {
  SimConfig c;
  c.threads = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c.threads = SimConfig::kMaxThreads + 1;
  EXPECT_THROW(c.validate(), ConfigError);
  c.threads = 8;
  EXPECT_NO_THROW(c.validate());
}

TEST(ParallelConfig, EnvOverrideOnlyReplacesTheDefault) {
  SimConfig c;
  ASSERT_EQ(setenv("P2PEX_THREADS", "6", 1), 0);
  EXPECT_EQ(c.effective_threads(), 6u);  // default 1 -> env applies
  c.threads = 2;
  EXPECT_EQ(c.effective_threads(), 2u);  // explicit value wins
  ASSERT_EQ(setenv("P2PEX_THREADS", "bogus", 1), 0);
  c.threads = 1;
  EXPECT_EQ(c.effective_threads(), 1u);  // unparseable -> ignored
  ASSERT_EQ(setenv("P2PEX_THREADS", "-1", 1), 0);
  EXPECT_EQ(c.effective_threads(), 1u);  // negative (strtoul wraps) -> ignored
  ASSERT_EQ(setenv("P2PEX_THREADS", "100000", 1), 0);
  EXPECT_EQ(c.effective_threads(), SimConfig::kMaxThreads);  // clamped
  ASSERT_EQ(unsetenv("P2PEX_THREADS"), 0);
  EXPECT_EQ(c.effective_threads(), 1u);
}

// --- System-level thread-count invariance --------------------------------

// The pool only engages at >= 1,024 peers (System::kParallelSweepMinPeers):
// below that a threaded run is the serial run and the comparison would be
// vacuous, so these runs are sized above it.
SimConfig pooled_busy_config(std::size_t threads) {
  SimConfig c = SimConfig::calibrated_defaults();
  c.num_peers = 1536;
  c.sim_duration = 400.0;
  c.warmup_fraction = 0.2;
  c.seed = 5;
  c.threads = threads;
  return c;
}

TEST(ParallelSystem, ThreadedRunMatchesSerialBitForBit) {
  ASSERT_EQ(unsetenv("P2PEX_THREADS"), 0);
  System serial(pooled_busy_config(1));
  serial.run();
  System threaded(pooled_busy_config(4));
  threaded.run();

  EXPECT_EQ(threaded.threads(), 4u);
  // The workload searched and formed rings: an idle run proves nothing.
  EXPECT_GT(serial.finder_stats().searches, 0u);
  EXPECT_GT(serial.counters().rings_formed, 0u);
  test::expect_counters_equal(serial.counters(), threaded.counters(),
                              "threads 4");
  EXPECT_EQ(serial.finder_stats(), threaded.finder_stats());
  EXPECT_EQ(format_report(serial.metrics()),
            format_report(threaded.metrics()));
  EXPECT_TRUE(
      serial.graph_snapshot().rows_equal(threaded.graph_snapshot()));
  threaded.check_invariants();
}

TEST(ParallelSystem, BloomModeThreadedRunMatchesSerial) {
  ASSERT_EQ(unsetenv("P2PEX_THREADS"), 0);
  SimConfig base = pooled_busy_config(1);
  base.tree_mode = TreeMode::kBloom;
  System serial(base);
  serial.run();
  SimConfig threaded_cfg = base;
  threaded_cfg.threads = 3;
  System threaded(threaded_cfg);
  threaded.run();

  EXPECT_EQ(threaded.threads(), 3u);
  EXPECT_GT(serial.finder_stats().searches, 0u);
  test::expect_counters_equal(serial.counters(), threaded.counters(),
                              "bloom, threads 3");
  EXPECT_EQ(serial.finder_stats(), threaded.finder_stats());
  EXPECT_EQ(format_report(serial.metrics()),
            format_report(threaded.metrics()));
}

}  // namespace
}  // namespace p2pex
