// Field-by-field equality of the deterministic SystemCounters, shared by
// the suites that check a run is identical at every thread count
// (test_parallel.cpp, test_capacity.cpp).
#pragma once

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "core/system.h"

namespace p2pex::test {

/// Every deterministic SystemCounters field the core engine writes
/// (snapshot_build_ns is wall time and legitimately varies).
inline void expect_counters_equal(const SystemCounters& a,
                                  const SystemCounters& b,
                                  const std::string& what) {
  EXPECT_EQ(a.requests_issued, b.requests_issued) << what;
  EXPECT_EQ(a.lookup_failures, b.lookup_failures) << what;
  EXPECT_EQ(a.downloads_completed, b.downloads_completed) << what;
  EXPECT_EQ(a.downloads_starved, b.downloads_starved) << what;
  EXPECT_EQ(a.rings_formed, b.rings_formed) << what;
  EXPECT_EQ(a.ring_attempts, b.ring_attempts) << what;
  EXPECT_EQ(a.ring_rejects, b.ring_rejects) << what;
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(a.rings_by_size[i], b.rings_by_size[i])
        << what << ", ring size " << i;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  EXPECT_EQ(a.sessions_started, b.sessions_started) << what;
  EXPECT_EQ(a.peer_departures, b.peer_departures) << what;
  EXPECT_EQ(a.peer_arrivals, b.peer_arrivals) << what;
  EXPECT_EQ(a.sharing_flips, b.sharing_flips) << what;
  EXPECT_EQ(a.downloads_withdrawn, b.downloads_withdrawn) << what;
  EXPECT_EQ(a.snapshot_rebuilds, b.snapshot_rebuilds) << what;
  EXPECT_EQ(a.snapshot_patches, b.snapshot_patches) << what;
  EXPECT_EQ(a.dirty_rows_patched, b.dirty_rows_patched) << what;
  EXPECT_EQ(a.download_rows_reused, b.download_rows_reused) << what;
  EXPECT_EQ(a.session_rows_reused, b.session_rows_reused) << what;
  EXPECT_EQ(a.ring_rows_reused, b.ring_rows_reused) << what;
}

}  // namespace p2pex::test
