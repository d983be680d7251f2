// Discovery-backend suite (src/discovery).
//
// Unit coverage for the LookupBackend redesign: the ground-truth
// LookupService reverse index, oracle bit-exactness against the old
// query path, PEX gossip semantics (spread, TTL, digest bounds,
// staleness, determinism), DHT routing (store sets, publish/query
// walks, holes, budgets, unpublish, and the trie against a brute-force
// reference) and the oracle-backed audit
// decorator — plus system-level runs per backend and the
// backend-equivalence sweep across thread counts and tree modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/lookup.h"
#include "core/system.h"
#include "discovery/audit_backend.h"
#include "discovery/dht_backend.h"
#include "discovery/lookup_backend.h"
#include "discovery/oracle_backend.h"
#include "discovery/pex_backend.h"
#include "metrics/report.h"
#include "support/scenario.h"
#include "util/assert.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace p2pex {
namespace {

using discovery::AuditBackend;
using discovery::BackendKind;
using discovery::DhtBackend;
using discovery::DiscoveryConfig;
using discovery::DiscoveryCosts;
using discovery::LookupBackend;
using discovery::LookupQuery;
using discovery::LookupResult;
using discovery::OracleBackend;
using discovery::PexBackend;
using discovery::WorldView;

/// Minimal world: everyone online and reachable unless told otherwise;
/// an optional id-space split mirrors the fault model's partitions.
class TestWorld final : public WorldView {
 public:
  explicit TestWorld(std::size_t n) : online_(n, true) {}
  [[nodiscard]] std::size_t num_peers() const override {
    return online_.size();
  }
  [[nodiscard]] bool peer_online(PeerId p) const override {
    return online_[p.value];
  }
  [[nodiscard]] bool peers_reachable(PeerId a, PeerId b) const override {
    if (split_ == 0) return true;
    return (a.value < split_) == (b.value < split_);
  }
  void set_online(PeerId p, bool on) { online_[p.value] = on; }
  void set_split(std::uint32_t s) { split_ = s; }

 private:
  std::vector<bool> online_;
  std::uint32_t split_ = 0;
};

// --- LookupService reverse index (remove_peer must not scan the map) ---

TEST(LookupReverseIndex, RemovePeerDropsEveryEntry) {
  LookupService l;
  for (std::uint32_t o = 0; o < 50; ++o) {
    l.add_owner(ObjectId{o}, PeerId{1});
    l.add_owner(ObjectId{o}, PeerId{2});
  }
  EXPECT_EQ(l.objects_owned(PeerId{1}), 50u);
  l.remove_peer(PeerId{1});
  EXPECT_EQ(l.objects_owned(PeerId{1}), 0u);
  for (std::uint32_t o = 0; o < 50; ++o) {
    EXPECT_FALSE(l.has_owner(ObjectId{o}, PeerId{1}));
    EXPECT_TRUE(l.has_owner(ObjectId{o}, PeerId{2}));
    EXPECT_EQ(l.owner_count(ObjectId{o}), 1u);
  }
  // Idempotent, and re-adding after removal works.
  l.remove_peer(PeerId{1});
  l.add_owner(ObjectId{7}, PeerId{1});
  EXPECT_TRUE(l.has_owner(ObjectId{7}, PeerId{1}));
  EXPECT_EQ(l.objects_owned(PeerId{1}), 1u);
}

TEST(LookupReverseIndex, RemoveOwnerMaintainsBothSides) {
  LookupService l;
  l.add_owner(ObjectId{1}, PeerId{4});
  l.add_owner(ObjectId{2}, PeerId{4});
  l.remove_owner(ObjectId{1}, PeerId{4});
  EXPECT_FALSE(l.has_owner(ObjectId{1}, PeerId{4}));
  EXPECT_EQ(l.objects_owned(PeerId{4}), 1u);
  l.remove_peer(PeerId{4});
  EXPECT_EQ(l.owner_count(ObjectId{2}), 0u);
}

// --- OracleBackend: bit-exact with the pre-redesign query path ---

TEST(OracleBackend, ReproducesLookupServiceDrawForDraw) {
  LookupService truth;
  for (std::uint32_t p = 0; p < 20; ++p)
    for (std::uint32_t o = 0; o < 5; ++o)
      if ((p + o) % 3 != 0) truth.add_owner(ObjectId{o}, PeerId{p});

  for (const double fraction : {0.3, 0.7, 1.0}) {
    Rng a(99);
    Rng b(99);
    OracleBackend oracle(truth, fraction, b);
    for (std::uint32_t i = 0; i < 40; ++i) {
      const ObjectId o{i % 5};
      const PeerId req{i % 20};
      const std::vector<PeerId> want = truth.query(o, req, fraction, a);
      const LookupResult got = oracle.query({o, req, static_cast<double>(i)});
      EXPECT_EQ(got.providers, want) << "fraction " << fraction << " i " << i;
      EXPECT_TRUE(got.ages.empty());  // authoritative answers
      EXPECT_EQ(got.hops, 0u);
      EXPECT_EQ(got.wire_bytes, 0u);
    }
    // The oracle charges nothing: discovery is free by assumption.
    const DiscoveryCosts costs = oracle.drain_costs();
    EXPECT_EQ(costs.wire_bytes, 0u);
    EXPECT_EQ(costs.hops, 0u);
    EXPECT_EQ(costs.gossip_rounds, 0u);
  }
}

// --- PexBackend ---

DiscoveryConfig pex_config() {
  DiscoveryConfig cfg;
  cfg.backend = BackendKind::kPex;
  return cfg;
}

/// Gossips `rounds` ticks at cfg.gossip_interval spacing from t0.
SimTime run_gossip(PexBackend& pex, const DiscoveryConfig& cfg,
                   std::size_t rounds, SimTime t0 = 0.0) {
  SimTime now = t0;
  for (std::size_t i = 0; i < rounds; ++i) {
    now += cfg.gossip_interval;
    pex.tick(now);
  }
  return now;
}

TEST(PexBackend, GossipSpreadsKnowledge) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(8);
  PexBackend pex(cfg, 7, world);
  pex.add_owner(ObjectId{1}, PeerId{0}, 0.0);

  // Before any gossip nobody knows anything.
  EXPECT_TRUE(pex.query({ObjectId{1}, PeerId{5}, 0.0}).providers.empty());

  const SimTime now = run_gossip(pex, cfg, 20);
  std::size_t informed = 0;
  for (std::uint32_t q = 1; q < 8; ++q) {
    const LookupResult r = pex.query({ObjectId{1}, PeerId{q}, now});
    if (r.providers == std::vector<PeerId>{PeerId{0}}) {
      ++informed;
      ASSERT_EQ(r.ages.size(), 1u);
      EXPECT_GE(r.ages[0], 0.0);
      EXPECT_LE(r.ages[0], cfg.pex_entry_ttl);
    }
  }
  EXPECT_GE(informed, 5u) << "gossip failed to spread in 20 rounds";

  const DiscoveryCosts costs = pex.drain_costs();
  EXPECT_EQ(costs.gossip_rounds, 20u);
  EXPECT_GT(costs.wire_bytes, 0u);
  EXPECT_EQ(pex.rounds(), 20u);
}

TEST(PexBackend, EntriesExpireAfterTtl) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(6);
  PexBackend pex(cfg, 11, world);
  pex.add_owner(ObjectId{2}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 15);

  // Somebody learned the fact; long after the TTL it is gone again —
  // with no further gossip, expiry is the only change.
  std::uint32_t informed_peer = 0;
  for (std::uint32_t q = 1; q < 6; ++q) {
    if (!pex.query({ObjectId{2}, PeerId{q}, now}).providers.empty()) {
      informed_peer = q;
      break;
    }
  }
  ASSERT_NE(informed_peer, 0u);
  const SimTime later = now + cfg.pex_entry_ttl + 1.0;
  EXPECT_TRUE(
      pex.query({ObjectId{2}, PeerId{informed_peer}, later}).providers.empty());
}

TEST(PexBackend, RetractedAdvertsLingerAsStaleEntries) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(6);
  PexBackend pex(cfg, 13, world);
  pex.add_owner(ObjectId{3}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 15);

  std::uint32_t informed_peer = 0;
  for (std::uint32_t q = 1; q < 6; ++q) {
    if (!pex.query({ObjectId{3}, PeerId{q}, now}).providers.empty()) {
      informed_peer = q;
      break;
    }
  }
  ASSERT_NE(informed_peer, 0u);

  // The owner retracts (eviction); relayed cache entries are not
  // recalled — the receiver keeps proposing the ex-owner until TTL.
  pex.remove_owner(ObjectId{3}, PeerId{0}, now);
  EXPECT_EQ(pex.query({ObjectId{3}, PeerId{informed_peer}, now + 1.0})
                .providers,
            std::vector<PeerId>{PeerId{0}});
}

TEST(PexBackend, DigestCapBoundsWireBytes) {
  DiscoveryConfig cfg = pex_config();
  cfg.gossip_digest_cap = 4;
  TestWorld world(4);
  PexBackend pex(cfg, 21, world);
  // One hoarder with far more adverts than one digest can carry.
  for (std::uint32_t o = 0; o < 40; ++o)
    pex.add_owner(ObjectId{o}, PeerId{0}, 0.0);
  pex.tick(cfg.gossip_interval);
  const DiscoveryCosts costs = pex.drain_costs();
  // 4 pairs x 2 directions, each at most one header + cap entries.
  const std::uint64_t worst =
      4 * (2 * PexBackend::kMessageBytes +
           2 * cfg.gossip_digest_cap * PexBackend::kEntryBytes);
  EXPECT_GT(costs.wire_bytes, 0u);
  EXPECT_LE(costs.wire_bytes, worst);
}

TEST(PexBackend, DeterministicAcrossInstances) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(10);
  PexBackend a(cfg, 31, world);
  PexBackend b(cfg, 31, world);
  for (std::uint32_t p = 0; p < 10; ++p) {
    a.add_owner(ObjectId{p % 3}, PeerId{p}, 0.0);
    b.add_owner(ObjectId{p % 3}, PeerId{p}, 0.0);
  }
  SimTime now = 0.0;
  for (int i = 0; i < 25; ++i) {
    now += cfg.gossip_interval;
    a.tick(now);
    b.tick(now);
  }
  for (std::uint32_t q = 0; q < 10; ++q) {
    const LookupQuery query{ObjectId{q % 3}, PeerId{q}, now};
    const LookupResult ra = a.query(query);
    const LookupResult rb = b.query(query);
    EXPECT_EQ(ra.providers, rb.providers) << "requester " << q;
    EXPECT_EQ(ra.ages, rb.ages) << "requester " << q;
  }
}

TEST(PexBackend, PartitionConfinesGossip) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(8);
  world.set_split(4);  // {0..3} | {4..7} from the start
  PexBackend pex(cfg, 17, world);
  pex.add_owner(ObjectId{1}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 30);
  for (std::uint32_t q = 4; q < 8; ++q)
    EXPECT_TRUE(pex.query({ObjectId{1}, PeerId{q}, now}).providers.empty())
        << "fact crossed the partition to " << q;
}

// --- PexBackend against a reference model ---
//
// PexBackend keeps each peer's cache in an indexed slot arena (FIFO
// list, per-object chains, an origin guard on the expiry sweep).
// NaivePex below is the plain implementation that layout replaced: one
// FIFO vector per peer, a linear dedupe scan, front erasure on overflow,
// a full erase_if sweep and a sort on every query. Both run the same
// random upkeep / gossip / query sequence and must agree on every
// answer, every age, every cache size and every drained cost.

class NaivePex {
 public:
  NaivePex(const DiscoveryConfig& cfg, std::uint64_t seed,
           const WorldView& world)
      : cfg_(cfg),
        world_(world),
        rng_(seed ^ kPexSeedSalt),
        own_(world.num_peers()),
        cache_(world.num_peers()) {}

  void add_owner(ObjectId object, PeerId peer) {
    std::vector<ObjectId>& own = own_[peer.value];
    if (std::find(own.begin(), own.end(), object) == own.end())
      own.push_back(object);
  }
  void remove_owner(ObjectId object, PeerId peer) {
    std::vector<ObjectId>& own = own_[peer.value];
    const auto it = std::find(own.begin(), own.end(), object);
    if (it != own.end()) own.erase(it);
  }
  void remove_peer(PeerId peer) { own_[peer.value].clear(); }

  void tick(SimTime now) {
    const std::size_t n = world_.num_peers();
    if (n < 2) return;
    ++costs_.gossip_rounds;
    const std::size_t offset = 1 + rng_.index(n - 1);
    ++round_;
    for (std::size_t i = 0; i < n; ++i) {
      const PeerId a = PeerId::from_index(i);
      const PeerId b = PeerId::from_index((i + offset) % n);
      if (!world_.peer_online(a) || !world_.peer_online(b)) continue;
      if (!world_.peers_reachable(a, b)) continue;
      const std::size_t sent = send_digest(a, b, now) + send_digest(b, a, now);
      costs_.wire_bytes += 2 * PexBackend::kMessageBytes +
                           std::uint64_t{sent} * PexBackend::kEntryBytes;
    }
  }

  [[nodiscard]] LookupResult query(const LookupQuery& q) {
    std::vector<Entry>& cache = cache_[q.requester.value];
    std::erase_if(cache, [&](const Entry& e) { return expired(e, q.now); });
    std::vector<Entry> hits;
    for (const Entry& e : cache)
      if (e.object == q.object && e.provider != q.requester) hits.push_back(e);
    std::sort(hits.begin(), hits.end(), [](const Entry& a, const Entry& b) {
      return a.provider < b.provider;
    });
    LookupResult r;
    for (const Entry& e : hits) {
      r.providers.push_back(e.provider);
      r.ages.push_back(q.now - e.origin);
    }
    return r;
  }

  [[nodiscard]] std::size_t cache_size(PeerId peer) const {
    return cache_[peer.value].size();
  }
  [[nodiscard]] std::uint64_t rounds() const { return round_; }
  [[nodiscard]] DiscoveryCosts drain_costs() {
    const DiscoveryCosts c = costs_;
    costs_ = DiscoveryCosts{};
    return c;
  }

 private:
  /// The backend's gossip-stream salt (pex_backend.cpp).
  static constexpr std::uint64_t kPexSeedSalt = 0x9055170FD16E57ULL;

  struct Entry {
    ObjectId object;
    PeerId provider;
    SimTime origin = 0.0;
  };

  [[nodiscard]] bool expired(const Entry& e, SimTime now) const {
    return now - e.origin > cfg_.pex_entry_ttl;
  }

  std::size_t send_digest(PeerId from, PeerId to, SimTime now) {
    std::vector<Entry> digest;
    const std::size_t cap = cfg_.gossip_digest_cap;
    const std::vector<ObjectId>& own = own_[from.value];
    if (!own.empty()) {
      const std::size_t start = static_cast<std::size_t>(round_) % own.size();
      for (std::size_t j = 0; j < own.size() && digest.size() < cap; ++j)
        digest.push_back(Entry{own[(start + j) % own.size()], from, now});
    }
    const std::vector<Entry>& cache = cache_[from.value];
    for (auto it = cache.rbegin(); it != cache.rend() && digest.size() < cap;
         ++it) {
      if (it->provider == to || expired(*it, now)) continue;
      digest.push_back(*it);
    }
    for (const Entry& e : digest) merge_entry(to, e);
    return digest.size();
  }

  void merge_entry(PeerId receiver, const Entry& e) {
    if (e.provider == receiver) return;
    std::vector<Entry>& cache = cache_[receiver.value];
    for (Entry& have : cache) {
      if (have.object == e.object && have.provider == e.provider) {
        have.origin = std::max(have.origin, e.origin);
        return;
      }
    }
    cache.push_back(e);
    if (cache.size() > cfg_.pex_cache_cap) cache.erase(cache.begin());
  }

  DiscoveryConfig cfg_;
  const WorldView& world_;
  Rng rng_;
  std::vector<std::vector<ObjectId>> own_;
  std::vector<std::vector<Entry>> cache_;
  std::uint64_t round_ = 0;
  DiscoveryCosts costs_;
};

enum class PexWorldMode { kAllOnline, kOffline, kPartition };

void assert_same_costs(DiscoveryCosts got, DiscoveryCosts want) {
  ASSERT_EQ(got.wire_bytes, want.wire_bytes);
  ASSERT_EQ(got.hops, want.hops);
  ASSERT_EQ(got.gossip_rounds, want.gossip_rounds);
}

/// Runs one seeded random sequence of upkeep calls, gossip rounds and
/// queries through PexBackend and NaivePex side by side.
void check_pex_against_reference(std::uint64_t seed, std::size_t cache_cap,
                                 double ttl, PexWorldMode mode) {
  DiscoveryConfig cfg = pex_config();
  cfg.pex_cache_cap = cache_cap;
  cfg.pex_entry_ttl = ttl;
  constexpr std::uint32_t kPeers = 16;
  constexpr std::uint32_t kObjects = 120;
  constexpr int kSteps = 1500;
  TestWorld world(kPeers);
  PexBackend pex(cfg, seed, world);
  NaivePex naive(cfg, seed, world);
  Rng rng(seed * 1000003u + cache_cap);
  const auto pick = [&](std::uint32_t n) {
    return narrow_u32(rng.index(n));
  };

  // Enough distinct (object, provider) facts to overflow a 256 cache.
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    for (int k = 0; k < 20; ++k) {
      const ObjectId o{pick(kObjects)};
      pex.add_owner(o, PeerId{p}, 0.0);
      naive.add_owner(o, PeerId{p});
    }
  }

  SimTime now = 0.0;
  std::size_t hits = 0;
  for (int step = 0; step < kSteps; ++step) {
    const double u = rng.uniform01();
    if (u < 0.12) {
      const ObjectId o{pick(kObjects)};
      const PeerId p{pick(kPeers)};
      pex.add_owner(o, p, now);
      naive.add_owner(o, p);
    } else if (u < 0.18) {
      const ObjectId o{pick(kObjects)};
      const PeerId p{pick(kPeers)};
      pex.remove_owner(o, p, now);
      naive.remove_owner(o, p);
    } else if (u < 0.19) {
      const PeerId p{pick(kPeers)};
      pex.remove_peer(p, now);
      naive.remove_peer(p);
    } else if (u < 0.30) {
      if (mode == PexWorldMode::kOffline) {
        for (std::uint32_t p = 0; p < kPeers; ++p)
          if (rng.chance(0.2)) world.set_online(PeerId{p}, rng.chance(0.6));
      } else if (mode == PexWorldMode::kPartition && rng.chance(0.2)) {
        world.set_split(rng.chance(0.5) ? 1 + pick(kPeers - 1) : 0);
      }
      now += cfg.gossip_interval;
      if (rng.chance(0.03)) now += ttl;  // a quiet spell: everything ages
      pex.tick(now);
      naive.tick(now);
      ASSERT_EQ(pex.rounds(), naive.rounds()) << "step " << step;
      for (std::uint32_t p = 0; p < kPeers; ++p)
        ASSERT_EQ(pex.cache_size(PeerId{p}), naive.cache_size(PeerId{p}))
            << "step " << step << " peer " << p;
      assert_same_costs(pex.drain_costs(), naive.drain_costs());
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      now += rng.uniform_real(0.0, 1.0);
      // A tail of never-published objects keeps misses in the mix.
      const LookupQuery q{ObjectId{pick(kObjects + 20)}, PeerId{pick(kPeers)},
                          now};
      const LookupResult got = pex.query(q);
      const LookupResult want = naive.query(q);
      SCOPED_TRACE(::testing::Message() << "step " << step << " object "
                                        << q.object.value << " requester "
                                        << q.requester.value);
      ASSERT_EQ(got.providers, want.providers);
      ASSERT_EQ(got.ages, want.ages);
      ASSERT_EQ(got.hops, 0u);
      ASSERT_EQ(got.wire_bytes, 0u);
      ASSERT_EQ(pex.cache_size(q.requester), naive.cache_size(q.requester));
      assert_same_costs(pex.drain_costs(), naive.drain_costs());
      if (::testing::Test::HasFatalFailure()) return;
      if (!got.providers.empty()) ++hits;
    }
  }
  EXPECT_GT(hits, 0u) << "sequence never exercised a hit";
}

TEST(PexBackend, IndexedCacheMatchesReferenceModel) {
  const std::size_t digest_cap = pex_config().gossip_digest_cap;
  const double interval = pex_config().gossip_interval;
  std::uint64_t seed = 0;
  for (const std::size_t cache_cap :
       {digest_cap, std::size_t{33}, std::size_t{256}, std::size_t{1000}}) {
    // 4 gossip rounds: entries expire between queries mid-run.
    for (const double ttl : {4 * interval, 600.0}) {
      for (const PexWorldMode mode :
           {PexWorldMode::kAllOnline, PexWorldMode::kOffline,
            PexWorldMode::kPartition}) {
        ++seed;
        SCOPED_TRACE(::testing::Message()
                     << "cap=" << cache_cap << " ttl=" << ttl
                     << " mode=" << static_cast<int>(mode) << " seed=" << seed);
        check_pex_against_reference(seed, cache_cap, ttl, mode);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- DhtBackend ---

DiscoveryConfig dht_config() {
  DiscoveryConfig cfg;
  cfg.backend = BackendKind::kDht;
  return cfg;
}

TEST(DhtBackend, StoreSetIsKClosestAndDeterministic) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  const std::vector<PeerId> store = dht.store_peers(ObjectId{9});
  EXPECT_EQ(store.size(), cfg.dht_bucket_size);
  EXPECT_EQ(store, dht.store_peers(ObjectId{9}));  // pure function
  for (std::size_t i = 1; i < store.size(); ++i)
    EXPECT_LT(store[i - 1], store[i]);  // ascending peer order
  // A different seed permutes the key space, hence the placement.
  DhtBackend other(cfg, 6, world);
  EXPECT_NE(other.store_peers(ObjectId{9}), store);
}

TEST(DhtBackend, PublishQueryRoundtrip) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 10.0);
  dht.add_owner(ObjectId{9}, PeerId{40}, 20.0);
  (void)dht.drain_costs();  // publish traffic, tested separately

  // Pick a requester that is not itself a store node, so the walk must
  // route at least one hop.
  const std::vector<PeerId> store = dht.store_peers(ObjectId{9});
  PeerId requester{};
  for (std::uint32_t p = 0; p < 64; ++p) {
    const PeerId cand{p};
    if (std::find(store.begin(), store.end(), cand) == store.end() &&
        cand != PeerId{3} && cand != PeerId{40}) {
      requester = cand;
      break;
    }
  }
  const LookupResult r = dht.query({ObjectId{9}, requester, 30.0});
  EXPECT_EQ(r.providers, (std::vector<PeerId>{PeerId{3}, PeerId{40}}));
  ASSERT_EQ(r.ages.size(), 2u);
  EXPECT_DOUBLE_EQ(r.ages[0], 20.0);  // published at 10, queried at 30
  EXPECT_DOUBLE_EQ(r.ages[1], 10.0);
  EXPECT_GT(r.hops, 0u);
  EXPECT_GT(r.wire_bytes, 0u);
  const DiscoveryCosts costs = dht.drain_costs();
  EXPECT_EQ(costs.hops, r.hops);
  EXPECT_GT(costs.wire_bytes, 0u);
}

TEST(DhtBackend, PublishChargesWire) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  const DiscoveryCosts costs = dht.drain_costs();
  EXPECT_GT(costs.wire_bytes, 0u);  // replication records at least
}

TEST(DhtBackend, UnpublishAndRemovePeer) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  dht.add_owner(ObjectId{9}, PeerId{40}, 0.0);
  dht.add_owner(ObjectId{12}, PeerId{40}, 0.0);

  dht.remove_owner(ObjectId{9}, PeerId{3}, 1.0);
  LookupResult r = dht.query({ObjectId{9}, PeerId{50}, 2.0});
  EXPECT_EQ(r.providers, std::vector<PeerId>{PeerId{40}});

  dht.remove_peer(PeerId{40}, 3.0);
  EXPECT_TRUE(dht.query({ObjectId{9}, PeerId{50}, 4.0}).providers.empty());
  EXPECT_TRUE(dht.query({ObjectId{12}, PeerId{50}, 4.0}).providers.empty());
}

TEST(DhtBackend, OfflineStoreSetIsARoutingHole) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  for (const PeerId p : dht.store_peers(ObjectId{9})) world.set_online(p, false);
  // Records exist, but no live node can answer for that key range.
  const LookupResult r = dht.query({ObjectId{9}, PeerId{50}, 1.0});
  EXPECT_TRUE(r.providers.empty());
}

TEST(DhtBackend, HopBudgetCutsWalks) {
  DiscoveryConfig strict = dht_config();
  strict.dht_hop_budget = 1;
  DiscoveryConfig roomy = dht_config();
  TestWorld world(256);
  DhtBackend cut(strict, 5, world);
  DhtBackend free_walk(roomy, 5, world);

  // With 256 peers most walks need several hops (some object keys land
  // so close to their bucket's edge that every walk resolves in one —
  // scan a few objects); find an (object, requester) whose unbudgeted
  // walk takes >1 hop and assert the budgeted one misses.
  for (std::uint32_t o = 0; o < 16; ++o) {
    cut.add_owner(ObjectId{o}, PeerId{3}, 0.0);
    free_walk.add_owner(ObjectId{o}, PeerId{3}, 0.0);
    for (std::uint32_t p = 0; p < 256; ++p) {
      const LookupResult full = free_walk.query({ObjectId{o}, PeerId{p}, 1.0});
      if (full.hops > 1) {
        const LookupResult r = cut.query({ObjectId{o}, PeerId{p}, 1.0});
        EXPECT_TRUE(r.providers.empty()) << "budget 1 walked " << full.hops;
        return;
      }
    }
  }
  FAIL() << "no multi-hop (object, requester) pair in a 256-peer world";
}

// --- DhtBackend against a brute-force reference ---
//
// The backend answers from a crit-bit trie over its node keys; the
// reference below knows nothing of it. It ranks every node by
// (key ^ target, peer index) for the store set, and each walk hop scans
// the full key order for the nodes sharing one more prefix bit with the
// target — the definition the trie must reproduce exactly, including
// hop counts and every wire byte.

class NaiveDht {
 public:
  NaiveDht(const DhtBackend& dht, const WorldView& world,
           const DiscoveryConfig& cfg)
      : dht_(dht), world_(world), cfg_(cfg) {
    for (std::uint32_t i = 0; i < world.num_peers(); ++i) by_key_.push_back(i);
    std::sort(by_key_.begin(), by_key_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ka = key(a);
                const std::uint64_t kb = key(b);
                return ka != kb ? ka < kb : a < b;
              });
  }

  /// The k smallest nodes by (key ^ target, index), ascending index.
  [[nodiscard]] std::vector<PeerId> store(ObjectId object) const {
    const std::uint64_t target = dht_.object_key(object);
    std::vector<std::uint32_t> all = by_key_;
    std::sort(all.begin(), all.end(), [&](std::uint32_t a, std::uint32_t b) {
      const std::uint64_t da = key(a) ^ target;
      const std::uint64_t db = key(b) ^ target;
      return da != db ? da < db : a < b;
    });
    all.resize(std::min(cfg_.dht_bucket_size, all.size()));
    std::sort(all.begin(), all.end());
    std::vector<PeerId> out;
    for (const std::uint32_t i : all) out.push_back(PeerId{i});
    return out;
  }

  struct Walk {
    std::uint32_t hops = 0;  ///< hops taken, charged even on a failure
    bool reached = false;
  };

  /// `members` is store(object).
  [[nodiscard]] Walk walk(PeerId from, ObjectId object,
                          const std::vector<PeerId>& members) const {
    const std::uint64_t target = dht_.object_key(object);
    const auto in_store = [&](std::uint32_t idx) {
      return std::find(members.begin(), members.end(), PeerId{idx}) !=
             members.end();
    };
    const std::size_t k = std::max<std::size_t>(cfg_.dht_bucket_size, 1);
    Walk w;
    std::uint32_t cur = from.value;
    while (!in_store(cur)) {
      const int cpl = std::countl_zero(key(cur) ^ target);
      if (w.hops >= cfg_.dht_hop_budget || cpl >= 64) return w;
      std::optional<std::uint32_t> best;
      std::size_t live = 0;
      for (const std::uint32_t idx : by_key_) {
        if (live == k) break;
        if (std::countl_zero(key(idx) ^ target) <= cpl) continue;
        if (!world_.peer_online(PeerId{idx}) ||
            !world_.peers_reachable(from, PeerId{idx}))
          continue;
        ++live;
        const std::uint64_t d = key(idx) ^ target;
        if (!best || d < (key(*best) ^ target) ||
            (d == (key(*best) ^ target) && idx < *best))
          best = idx;
      }
      if (!best) return w;
      ++w.hops;
      cur = *best;
    }
    w.reached = true;
    return w;
  }

  [[nodiscard]] std::uint64_t hop_bytes(std::uint32_t hops) const {
    return std::uint64_t{hops} * cfg_.dht_alpha * DhtBackend::kMessageBytes;
  }

 private:
  [[nodiscard]] std::uint64_t key(std::uint32_t idx) const {
    return dht_.node_key(PeerId{idx});
  }

  const DhtBackend& dht_;
  const WorldView& world_;
  DiscoveryConfig cfg_;
  std::vector<std::uint32_t> by_key_;
};

enum class DhtWorldMode { kAllOnline, kHoles, kSplit, kHolesSplitBudget1 };

/// Publishes to half the objects and queries all of them from a spread
/// of requesters, checking every answer and every drained cost against
/// NaiveDht.
void check_against_reference(std::uint64_t seed, std::size_t n,
                             std::size_t bucket, DhtWorldMode mode) {
  DiscoveryConfig cfg = dht_config();
  cfg.dht_bucket_size = bucket;
  TestWorld world(n);
  if (mode != DhtWorldMode::kAllOnline && mode != DhtWorldMode::kSplit)
    for (std::uint32_t p = 0; p < n; ++p)
      if ((p * 2654435761u + seed) % 5 == 0) world.set_online(PeerId{p}, false);
  if (mode == DhtWorldMode::kSplit || mode == DhtWorldMode::kHolesSplitBudget1)
    world.set_split(static_cast<std::uint32_t>(n / 2));
  if (mode == DhtWorldMode::kHolesSplitBudget1) cfg.dht_hop_budget = 1;
  DhtBackend dht(cfg, seed, world);
  const NaiveDht naive(dht, world, cfg);
  const std::uint64_t replicas = std::min(bucket, n);

  constexpr std::uint32_t kObjects = 16;
  std::vector<std::vector<PeerId>> stores;
  for (std::uint32_t o = 0; o < kObjects; ++o)
    stores.push_back(naive.store(ObjectId{o}));
  std::map<std::uint32_t, std::map<std::uint32_t, SimTime>> published;
  SimTime now = 1.0;
  for (std::uint32_t o = 0; o < kObjects; o += 2) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const auto pick = o * 31u + r * 17u + static_cast<std::uint32_t>(seed);
      const PeerId owner{pick % static_cast<std::uint32_t>(n)};
      dht.add_owner(ObjectId{o}, owner, now);
      published[o][owner.value] = now;  // a repeat owner refreshes
      const NaiveDht::Walk w = naive.walk(owner, ObjectId{o}, stores[o]);
      const DiscoveryCosts c = dht.drain_costs();
      ASSERT_EQ(c.hops, w.reached ? w.hops : 0u) << "publish o=" << o;
      ASSERT_EQ(c.wire_bytes,
                naive.hop_bytes(w.hops) + replicas * DhtBackend::kRecordBytes)
          << "publish o=" << o;
      now += 1.0;
    }
  }

  const auto stride = static_cast<std::uint32_t>(n <= 64 ? 1 : n / 40);
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    ASSERT_EQ(dht.store_peers(ObjectId{o}), stores[o]) << "object " << o;
    for (std::uint32_t p = 0; p < n; p += stride) {
      const LookupResult r = dht.query({ObjectId{o}, PeerId{p}, now});
      const DiscoveryCosts c = dht.drain_costs();
      const NaiveDht::Walk w = naive.walk(PeerId{p}, ObjectId{o}, stores[o]);
      SCOPED_TRACE(::testing::Message()
                   << "object " << o << " requester " << p);
      std::vector<PeerId> providers;
      std::vector<SimTime> ages;
      if (w.reached && published.count(o) != 0) {
        for (const auto& [owner, t] : published[o]) {
          if (owner == p) continue;
          providers.push_back(PeerId{owner});
          ages.push_back(now - t);
        }
      }
      ASSERT_EQ(r.providers, providers);
      ASSERT_EQ(r.ages, ages);
      ASSERT_EQ(r.hops, w.reached ? w.hops : 0u);
      const std::uint64_t record_bytes =
          w.reached && w.hops > 0 ? providers.size() * DhtBackend::kRecordBytes
                                  : 0;
      ASSERT_EQ(r.wire_bytes,
                w.reached ? naive.hop_bytes(w.hops) + record_bytes : 0u);
      ASSERT_EQ(c.hops, r.hops);
      ASSERT_EQ(c.wire_bytes, naive.hop_bytes(w.hops) + record_bytes);
    }
  }
}

TEST(DhtBackend, TrieMatchesBruteForceReference) {
  for (const std::size_t bucket : {1u, 8u, 20u}) {
    std::set<std::size_t> sizes = {1, 2, bucket + 1, bucket, 64, 200, 1000};
    if (bucket > 1) sizes.insert(bucket - 1);
    for (const std::size_t n : sizes) {
      for (const std::uint64_t seed : {1u, 5u, 77u}) {
        for (const DhtWorldMode mode :
             {DhtWorldMode::kAllOnline, DhtWorldMode::kHoles,
              DhtWorldMode::kSplit, DhtWorldMode::kHolesSplitBudget1}) {
          SCOPED_TRACE(::testing::Message()
                       << "k=" << bucket << " n=" << n << " seed=" << seed
                       << " mode=" << static_cast<int>(mode));
          check_against_reference(seed, n, bucket, mode);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// --- AuditBackend ---

/// Canned inner backend: answers every query with a fixed provider
/// list, ignoring upkeep — the audit's mirror is the only bookkeeping.
class CannedBackend final : public LookupBackend {
 public:
  explicit CannedBackend(std::vector<PeerId> answer)
      : answer_(std::move(answer)) {}
  [[nodiscard]] BackendKind kind() const override { return BackendKind::kPex; }
  void add_owner(ObjectId, PeerId, SimTime) override {}
  void remove_owner(ObjectId, PeerId, SimTime) override {}
  void remove_peer(PeerId, SimTime) override {}
  [[nodiscard]] LookupResult query(const LookupQuery&) override {
    LookupResult r;
    r.providers = answer_;
    return r;
  }

 private:
  std::vector<PeerId> answer_;
};

TEST(AuditBackend, AcceptsTruthfulAnswers) {
  AuditBackend audit(std::make_unique<CannedBackend>(
                         std::vector<PeerId>{PeerId{2}, PeerId{5}}),
                     /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.add_owner(ObjectId{1}, PeerId{5}, 0.0);
  const LookupResult r = audit.query({ObjectId{1}, PeerId{9}, 1.0});
  EXPECT_EQ(r.providers.size(), 2u);
}

TEST(AuditBackend, RejectsInventedProvider) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{7}}),
      /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);  // 7 was never an owner
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

TEST(AuditBackend, HorizonAllowsDeclaredStalenessOnly) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{2}}),
      /*horizon=*/100.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.remove_owner(ObjectId{1}, PeerId{2}, 10.0);
  // Inside the horizon: a declared-stale answer, accepted.
  EXPECT_EQ(audit.query({ObjectId{1}, PeerId{9}, 50.0}).providers.size(), 1u);
  // Past it: the backend should have forgotten long ago.
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 200.0}),
               AssertionError);
}

TEST(AuditBackend, RejectsUnsortedAnswers) {
  AuditBackend audit(std::make_unique<CannedBackend>(
                         std::vector<PeerId>{PeerId{5}, PeerId{2}}),
                     /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.add_owner(ObjectId{1}, PeerId{5}, 0.0);
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

TEST(AuditBackend, RejectsSelfProposal) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{9}}),
      /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{9}, 0.0);
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

// --- factory ---

TEST(MakeBackend, BuildsTheConfiguredKind) {
  LookupService truth;
  Rng rng(1);
  TestWorld world(8);
  for (const BackendKind kind :
       {BackendKind::kOracle, BackendKind::kPex, BackendKind::kDht}) {
    DiscoveryConfig cfg;
    cfg.backend = kind;
    const std::unique_ptr<LookupBackend> b =
        discovery::make_backend(cfg, 0.5, truth, rng, 42, world);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->kind(), kind);
  }
  EXPECT_EQ(discovery::to_string(BackendKind::kOracle), "oracle");
  EXPECT_EQ(discovery::to_string(BackendKind::kPex), "pex");
  EXPECT_EQ(discovery::to_string(BackendKind::kDht), "dht");
}

// --- system-level runs per backend ---

SimConfig backend_config(BackendKind kind, std::uint64_t seed) {
  test::Scenario s = test::Scenario::small(seed);
  s.raw().discovery.backend = kind;
  return s.build();
}

TEST(SystemDiscovery, OracleChargesNothing) {
  System system(backend_config(BackendKind::kOracle, 42));
  system.run();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kOracle);
  EXPECT_EQ(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.gossip_rounds, 0u);
  EXPECT_EQ(c.dht_hops, 0u);
  EXPECT_EQ(c.lookup_misses, 0u);
  EXPECT_EQ(c.stale_entries_served, 0u);
}

TEST(SystemDiscovery, PexRunGossipsAndCharges) {
  System system(backend_config(BackendKind::kPex, 42));
  system.run();
  system.check_invariants();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kPex);
  EXPECT_GT(c.gossip_rounds, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.dht_hops, 0u);
  EXPECT_GT(c.requests_issued, 0u);  // partial knowledge still sustains work
}

TEST(SystemDiscovery, DhtRunWalksAndCharges) {
  System system(backend_config(BackendKind::kDht, 42));
  system.run();
  system.check_invariants();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kDht);
  EXPECT_GT(c.dht_hops, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.gossip_rounds, 0u);
  EXPECT_GT(c.requests_issued, 0u);
}

// --- backend equivalence: every backend x tree mode is bit-identical
// across thread counts (the tentpole determinism contract) ---

struct EquivalenceCase {
  BackendKind kind;
  TreeMode tree;
};

class BackendEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(BackendEquivalence, IdenticalAcrossThreadCounts) {
  ASSERT_EQ(unsetenv("P2PEX_THREADS"), 0);
  const EquivalenceCase param = GetParam();
  SimConfig base = backend_config(param.kind, 1234);
  base.tree_mode = param.tree;

  std::string baseline_report;
  SystemCounters baseline{};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SimConfig c = base;
    c.threads = threads;
    System system(c);
    system.run();
    system.check_invariants();
    const SystemCounters& got = system.counters();
    const std::string report = format_report(system.metrics(), got);
    if (threads == 1) {
      baseline = got;
      baseline_report = report;
      continue;
    }
    const std::string what = "threads " + std::to_string(threads);
    EXPECT_EQ(got.requests_issued, baseline.requests_issued) << what;
    EXPECT_EQ(got.rings_formed, baseline.rings_formed) << what;
    EXPECT_EQ(got.downloads_completed, baseline.downloads_completed) << what;
    EXPECT_EQ(got.lookup_wire_bytes, baseline.lookup_wire_bytes) << what;
    EXPECT_EQ(got.gossip_rounds, baseline.gossip_rounds) << what;
    EXPECT_EQ(got.dht_hops, baseline.dht_hops) << what;
    EXPECT_EQ(got.lookup_misses, baseline.lookup_misses) << what;
    EXPECT_EQ(got.stale_entries_served, baseline.stale_entries_served)
        << what;
    EXPECT_EQ(report, baseline_report) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BackendEquivalence,
    ::testing::Values(
        EquivalenceCase{BackendKind::kOracle, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kOracle, TreeMode::kBloom},
        EquivalenceCase{BackendKind::kPex, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kPex, TreeMode::kBloom},
        EquivalenceCase{BackendKind::kDht, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kDht, TreeMode::kBloom}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& tpi) {
      return discovery::to_string(tpi.param.kind) + "_" +
             std::string(tpi.param.tree == TreeMode::kBloom ? "bloom"
                                                            : "full");
    });

}  // namespace
}  // namespace p2pex
