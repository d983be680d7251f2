// PexBackend: peer-exchange gossip discovery (ROADMAP: modeled on the
// torrent-style PEX manager designs).
//
// Every peer keeps (a) the set of objects it currently serves (its own
// adverts, maintained by the upkeep calls) and (b) a bounded FIFO cache
// of provider entries it has *heard about*. On a deterministic schedule
// (SimConfig::discovery.gossip_interval, one coordinator tick per
// round), each online peer exchanges a bounded digest with one ring
// partner: own-object adverts first (rotating through the storage so a
// small digest still cycles full coverage), then its freshest relayed
// entries. The partner offset is drawn per round from the backend's own
// salted stream, so gossip never perturbs the main stream and replays
// bit-exact at every thread count.
//
// Knowledge is therefore partial (nothing is known until gossip has
// carried it over), second-hand (entries relay with their original
// learn time) and stale (entries expire after pex_entry_ttl but are
// never re-validated — evicted or crashed providers keep being proposed
// until their entries age out). Queries are free on the wire: the cost
// was paid by the gossip rounds, which charge per-entry wire bytes.
//
// Cache layout (one PeerCache per peer, built on its first entry):
//   slots    an arena of at most pex_cache_cap entries with 32-bit
//            links; freed slots go on a free list and are reused;
//   FIFO     an intrusive doubly linked list over the slots in arrival
//            order: O(1) append, O(1) shedding of the oldest entry, and
//            the digest walks it newest to oldest;
//   index    per-bucket chains over the slots, bucket = multiplicative
//            hash of the object id, each chain kept in ascending
//            provider order. The (object, provider) dedupe walks one
//            chain, and a query reads one chain and emits its providers
//            already sorted — a miss allocates nothing, a hit only the
//            answer's two vectors;
//   guard    a lower bound on the peer's live origins: the query-time
//            expiry sweep (O(entries)) runs only once the bound is past
//            pex_entry_ttl, i.e. only when something may have expired.
// A merge costs one chain walk (plus the evicted entry's chain when the
// cache is full), a query one chain walk, a digest the entries it skips
// or ships; nothing scans the whole cache except the expiry sweep.
//
// Exactness contract — the cache behaves as the plain FIFO vector it
// replaces, so every answer, age and wire byte is unchanged: a refresh
// raises the entry's origin in place and keeps its FIFO position; the
// cap evicts the oldest arrival; a query first removes every expired
// entry of the requester (the survivors keep their order), while a
// digest skips expired entries without removing them; cache_size counts
// every stored entry, expired ones not yet swept included.
#pragma once

#include <limits>
#include <vector>

#include "discovery/lookup_backend.h"
#include "util/rng.h"

namespace p2pex::discovery {

class PexBackend final : public LookupBackend {
 public:
  PexBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
             const WorldView& world);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kPex; }

  void add_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_peer(PeerId peer, SimTime now) override;

  [[nodiscard]] LookupResult query(const LookupQuery& q) override;

  [[nodiscard]] SimTime tick_interval() const override {
    return cfg_.gossip_interval;
  }
  void tick(SimTime now) override;

  /// Gossip rounds executed so far (tests).
  [[nodiscard]] std::uint64_t rounds() const { return round_; }
  /// Cached entries `peer` currently holds (tests).
  [[nodiscard]] std::size_t cache_size(PeerId peer) const {
    return cache_[peer.value].size;
  }

  /// Modeled wire cost per digest entry / per message header, bytes.
  static constexpr std::uint64_t kEntryBytes = 16;
  static constexpr std::uint64_t kMessageBytes = 24;

 private:
  /// One relayed provider fact: "at `origin`, `provider` served
  /// `object`". Relays keep the origin, so age is end-to-end.
  struct Entry {
    ObjectId object;
    PeerId provider;
    SimTime origin = 0.0;
  };

  /// Link value for "no slot".
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One cached entry's key and links (its origin lives in the
  /// parallel `origins` column, which keeps a slot at 20 bytes).
  struct Slot {
    ObjectId object;
    PeerId provider;
    std::uint32_t older = kNil;  ///< FIFO neighbour toward the oldest
    std::uint32_t newer = kNil;  ///< FIFO neighbour toward the newest
    std::uint32_t next = kNil;   ///< bucket chain, or the free list
  };

  struct PeerCache {
    std::vector<Slot> slots;
    std::vector<SimTime> origins;      ///< parallel to slots
    std::vector<std::uint32_t> heads;  ///< bucket -> first chain slot
    std::uint32_t oldest = kNil;
    std::uint32_t newest = kNil;
    std::uint32_t free = kNil;
    std::uint32_t size = 0;
    /// Lower bound on every stored origin (+inf when empty).
    SimTime min_origin = std::numeric_limits<SimTime>::infinity();
  };

  /// Where (object, provider) sits in its bucket chain: `match` is its
  /// slot (kNil if absent) and `prev` the slot after which it belongs
  /// (kNil: at the chain head).
  struct ChainPos {
    std::uint32_t match = kNil;
    std::uint32_t prev = kNil;
  };

  [[nodiscard]] bool expired(SimTime origin, SimTime now) const {
    return now - origin > cfg_.pex_entry_ttl;
  }
  [[nodiscard]] std::uint32_t bucket(ObjectId object) const {
    return (object.value * 0x9E3779B1u) >> bucket_shift_;
  }
  [[nodiscard]] ChainPos find(const PeerCache& c, ObjectId object,
                              PeerId provider) const;
  /// Unlinks slot `s` from the FIFO and its chain and frees it.
  void erase_slot(PeerCache& c, std::uint32_t s);

  /// Sends one digest from `from` to `to` and merges it (one gossip
  /// direction); returns the entries shipped (wire accounting).
  std::size_t send_digest(PeerId from, PeerId to, SimTime now);
  void merge_entry(PeerId receiver, const Entry& e);

  DiscoveryConfig cfg_;
  const WorldView* world_;
  Rng rng_;  ///< salted fork: gossip draws never touch the main stream
  std::vector<std::vector<ObjectId>> own_;  ///< per-peer advertised objects
  std::vector<PeerCache> cache_;            ///< per-peer learned entries
  std::size_t buckets_ = 2;  ///< chain heads per peer (a power of two)
  int bucket_shift_ = 31;    ///< 32 - log2(buckets_)
  std::uint64_t round_ = 0;
  std::vector<Entry> digest_scratch_;
};

}  // namespace p2pex::discovery
