// DhtBackend: Kademlia-flavored DHT discovery (ROADMAP: modeled on the
// torrent-style dht_routing_table / dht_manager designs — bucketed ids,
// iterative lookup with hop accounting).
//
// Every peer and object gets a 64-bit key (splitmix-mixed from the run
// seed, so the id space is deterministic per seed and never draws from
// any stream). Provider records for an object live at the k nodes whose
// keys are XOR-closest to the object key (`dht_bucket_size`). A query
// walks iteratively from the requester toward the object key: at each
// hop the current node consults the bucket of nodes sharing one more
// key-prefix bit with the target (at most k visible per bucket, chosen
// deterministically by key order; offline nodes punch holes in it) and
// forwards to the XOR-closest online, reachable candidate. Every hop
// charges `dht_alpha` messages of wire bytes; a walk that exhausts
// `dht_hop_budget` or hits a routing hole reports a miss — even though
// the object may well have owners (lookup_misses counts exactly this).
//
// The node-key set is fixed for the run, so the constructor builds a
// crit-bit trie over it once. A lookup descends it once along the
// object key: the descent yields every prefix range a walk hop scans,
// and ranking the k-th closest node by subtree sizes bounds the store
// set, so membership is a comparison. A miss allocates nothing.
//
// Publishes (add_owner) walk from the owner to the store set and charge
// replication traffic; remove_owner unpublishes synchronously, so DHT
// answers are always a subset of the ground truth *except* for crashed
// owners, whose retraction the fault model's stale-TTL machinery delays
// — those records are served stale until the late retraction fires.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "discovery/lookup_backend.h"

namespace p2pex::discovery {

class DhtBackend final : public LookupBackend {
 public:
  DhtBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
             const WorldView& world);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kDht; }

  void add_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_peer(PeerId peer, SimTime now) override;

  [[nodiscard]] LookupResult query(const LookupQuery& q) override;

  /// Node key of `peer` (tests).
  [[nodiscard]] std::uint64_t node_key(PeerId peer) const {
    return key_[peer.value];
  }
  /// Key of `object`: its store set is the k nodes XOR-closest to it
  /// (tests).
  [[nodiscard]] std::uint64_t object_key(ObjectId object) const;
  /// The store set of `object`: the k peers XOR-closest to its key,
  /// ascending peer order (tests).
  [[nodiscard]] std::vector<PeerId> store_peers(ObjectId object) const;

  /// Modeled wire cost per routing message / stored record, bytes.
  static constexpr std::uint64_t kMessageBytes = 48;
  static constexpr std::uint64_t kRecordBytes = 16;

 private:
  /// One published provider record: "`provider` served the object,
  /// published/refreshed at `origin`".
  struct Record {
    PeerId provider;
    SimTime origin = 0.0;
  };

  /// Internal node of the crit-bit trie over `sorted_keys_`. Its keys
  /// share their first `bit` bits (counted from the MSB) and differ at
  /// bit `bit`: key-order positions below `split` have it clear, the
  /// rest set. The subtree's range is implied by the descent from the
  /// root, so it is not stored.
  struct TrieNode {
    std::uint32_t split = 0;
    std::uint32_t child[2] = {};  ///< trie_ index, or kLeaf
    std::uint8_t bit = 0;
  };
  /// Child marker for a leaf: one key (or a run of colliding keys).
  static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
  /// Builds the subtree over key-order positions [lo, hi); returns its
  /// trie_ index or kLeaf.
  std::uint32_t build_trie(std::uint32_t lo, std::uint32_t hi);

  /// The last member of a store set in (key ^ target, peer index)
  /// order: the set is every node at or before it, so membership is one
  /// comparison.
  struct StoreBound {
    std::uint64_t dist = 0;
    std::uint32_t peer = 0;
  };
  /// Store-set size k: min(dht_bucket_size, n).
  [[nodiscard]] std::size_t store_size() const {
    return std::min(cfg_.dht_bucket_size, key_.size());
  }
  /// Bound of the k nodes XOR-closest to `target`; requires k >= 1.
  [[nodiscard]] StoreBound store_bound(std::uint64_t target) const;
  [[nodiscard]] bool in_store(std::uint32_t peer, std::uint64_t target,
                              StoreBound store) const {
    const std::uint64_t dist = key_[peer] ^ target;
    return dist < store.dist || (dist == store.dist && peer <= store.peer);
  }

  /// One span of the descent along a target key: positions [lo, hi)
  /// are exactly the nodes sharing an L-bit prefix with the target for
  /// every L from the previous span's `cap` + 1 up to `cap`. Past the
  /// last span's cap no node shares the prefix.
  struct PrefixSpan {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    int cap = 0;
  };
  /// Caps strictly increase from >= 0 to <= 64 along a descent.
  static constexpr std::size_t kMaxSpans = 65;
  /// Descends the trie along `target`, filling `spans`; returns how
  /// many it filled.
  std::size_t descend(std::uint64_t target, PrefixSpan* spans) const;

  /// Iterative walk from `from` toward `target` until a member of
  /// `store` is reached. Charges wire/hop costs; returns the hop count
  /// or, on miss (routing hole / budget exhausted), returns
  /// `kWalkFailed`.
  [[nodiscard]] std::uint32_t walk(PeerId from, std::uint64_t target,
                                   StoreBound store);
  static constexpr std::uint32_t kWalkFailed = 0xFFFFFFFFu;

  DiscoveryConfig cfg_;
  const WorldView* world_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> key_;       ///< peer index -> node key
  std::vector<std::uint32_t> by_key_;    ///< peer indices sorted by key
  std::vector<std::uint64_t> sorted_keys_;  ///< key_[by_key_[i]]
  /// Crit-bit trie over sorted_keys_, built once: the key set is fixed
  /// for the run. n - 1 internal nodes for n distinct keys.
  std::vector<TrieNode> trie_;
  std::uint32_t trie_root_ = kLeaf;
  /// Published records per object in ascending provider order, so a
  /// hit is answered in one pass (the store set's shared contents; the
  /// population is fixed, so the set of responsible nodes is static and
  /// one record list per object models all k replicas). Keyed access
  /// only — never iterated.
  std::unordered_map<ObjectId, std::vector<Record>> store_;
  /// provider -> published objects (reverse index for remove_peer).
  std::vector<std::vector<ObjectId>> published_;
};

}  // namespace p2pex::discovery
