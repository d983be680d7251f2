#include "discovery/dht_backend.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/contracts.h"

namespace p2pex::discovery {

namespace {

/// Distinct salts for the two key populations so peer i and object i
/// never land on the same id by construction.
constexpr std::uint64_t kDhtPeerKeySalt = 0xD47000FEEDB0B5ULL;
constexpr std::uint64_t kDhtObjectKeySalt = 0xD47CA7A10906B1ULL;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// splitmix64 finalizer: deterministic, seed-salted id hashing. Keys
/// are pure functions of (seed, index) — no stream is ever consumed.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

DhtBackend::DhtBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
                       const WorldView& world)
    : cfg_(cfg),
      world_(&world),
      seed_(seed),
      published_(world.num_peers()) {
  const std::size_t n = world.num_peers();
  key_.resize(n);
  by_key_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    key_[i] = mix64((seed_ ^ kDhtPeerKeySalt) + kGolden * (i + 1));
    by_key_[i] = narrow_u32(i);
  }
  std::sort(by_key_.begin(), by_key_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (key_[a] != key_[b]) return key_[a] < key_[b];
              return a < b;  // 64-bit collisions: break ties stably
            });
  sorted_keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) sorted_keys_[i] = key_[by_key_[i]];
  if (n > 0) {
    trie_.reserve(n - 1);
    trie_root_ = build_trie(0, narrow_u32(n));
  }
}

std::uint32_t DhtBackend::build_trie(std::uint32_t lo, std::uint32_t hi) {
  const std::uint64_t diff = sorted_keys_[lo] ^ sorted_keys_[hi - 1];
  if (diff == 0) return kLeaf;  // one key, or a run of colliding keys
  const int bit = std::countl_zero(diff);
  const std::uint64_t mask = std::uint64_t{1} << (63 - bit);
  const auto first = sorted_keys_.begin() + lo;
  const auto split = std::partition_point(
      first, sorted_keys_.begin() + hi,
      [mask](std::uint64_t key) { return (key & mask) == 0; });
  const auto id = narrow_u32(trie_.size());
  TrieNode node;
  node.split = lo + narrow_u32(static_cast<std::size_t>(split - first));
  node.bit = static_cast<std::uint8_t>(bit);
  trie_.push_back(node);
  const std::uint32_t left = build_trie(lo, node.split);
  const std::uint32_t right = build_trie(node.split, hi);
  trie_[id].child[0] = left;
  trie_[id].child[1] = right;
  return id;
}

std::uint64_t DhtBackend::object_key(ObjectId object) const {
  return mix64((seed_ ^ kDhtObjectKeySalt) +
               kGolden * (static_cast<std::uint64_t>(object.value) + 1));
}

DhtBackend::StoreBound DhtBackend::store_bound(std::uint64_t target) const {
  // At every internal node each key in the child that agrees with the
  // target on the crit bit is XOR-closer than every key in its sibling,
  // so ranking by subtree sizes finds the k-th closest node in one
  // root-to-leaf pass.
  // Colliding keys tie on distance; by_key_ orders them by peer index.
  std::size_t rank = store_size();
  std::uint32_t lo = 0;
  std::uint32_t hi = narrow_u32(key_.size());
  for (std::uint32_t id = trie_root_; id != kLeaf;) {
    const TrieNode& node = trie_[id];
    std::uint32_t dir = (target >> (63 - node.bit)) & 1;
    const std::size_t near = dir != 0 ? hi - node.split : node.split - lo;
    if (rank > near) {
      rank -= near;
      dir ^= 1;
    }
    if (dir != 0) {
      lo = node.split;
    } else {
      hi = node.split;
    }
    id = node.child[dir];
  }
  const std::uint32_t peer = by_key_[lo + rank - 1];
  return StoreBound{key_[peer] ^ target, peer};
}

std::vector<PeerId> DhtBackend::store_peers(ObjectId object) const {
  std::vector<PeerId> out;
  if (store_size() == 0) return out;
  const std::uint64_t target = object_key(object);
  const StoreBound store = store_bound(target);
  for (std::uint32_t idx = 0; idx < key_.size(); ++idx)
    if (in_store(idx, target, store)) out.push_back(PeerId{idx});
  return out;
}

std::size_t DhtBackend::descend(std::uint64_t target,
                                PrefixSpan* spans) const {
  // Nodes sharing an L-bit prefix with the target are contiguous in key
  // order and nest as L grows. A subtree whose keys share `bit` bits,
  // all matched by the target, is that range for every L up to `bit`;
  // the next bit picks the child. A subtree the target leaves earlier
  // (or a leaf) is the range up to the shared length, and nothing is
  // beyond it.
  std::size_t count = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = narrow_u32(key_.size());
  std::uint32_t id = trie_root_;
  while (true) {
    const int shared = std::countl_zero(target ^ sorted_keys_[lo]);
    if (id == kLeaf || shared < trie_[id].bit) {
      spans[count++] = PrefixSpan{lo, hi, shared};
      return count;
    }
    const TrieNode& node = trie_[id];
    spans[count++] = PrefixSpan{lo, hi, node.bit};
    const std::uint32_t dir = (target >> (63 - node.bit)) & 1;
    if (dir != 0) {
      lo = node.split;
    } else {
      hi = node.split;
    }
    id = node.child[dir];
  }
}

std::uint32_t DhtBackend::walk(PeerId from, std::uint64_t target,
                               StoreBound store) {
  std::uint32_t cur = from.value;
  if (in_store(cur, target, store)) return 0;  // the requester hosts them

  std::array<PrefixSpan, kMaxSpans> spans{};
  const std::size_t num_spans = descend(target, spans.data());
  std::size_t span = 0;
  const std::size_t k = std::max<std::size_t>(cfg_.dht_bucket_size, 1);
  std::uint32_t hops = 0;
  int cpl = std::countl_zero(key_[cur] ^ target);
  while (true) {
    if (hops >= cfg_.dht_hop_budget) return kWalkFailed;  // budget cut
    if (cpl >= 64) return kWalkFailed;  // defensive: key == target hole
    // The next bucket: nodes sharing one more prefix bit with the
    // target than `cur` does. Contiguous in key order; scan it in key
    // order and keep the first k live candidates (offline/unreachable
    // nodes punch holes that the scan skips past). `cpl` only grows, so
    // the span cursor only moves forward.
    while (span < num_spans && spans[span].cap < cpl + 1) ++span;
    if (span == num_spans) return kWalkFailed;  // empty bucket: a hole
    std::uint32_t best = 0;
    std::uint64_t best_dist = ~std::uint64_t{0};
    bool found = false;
    std::size_t live = 0;
    for (std::uint32_t pos = spans[span].lo;
         pos < spans[span].hi && live < k; ++pos) {
      const std::uint32_t idx = by_key_[pos];
      const PeerId node{idx};
      if (!world_->peer_online(node)) continue;
      if (!world_->peers_reachable(from, node)) continue;
      ++live;
      const std::uint64_t dist = key_[idx] ^ target;
      if (!found || dist < best_dist ||
          (dist == best_dist && idx < best)) {
        best = idx;
        best_dist = dist;
        found = true;
      }
    }
    if (!found) return kWalkFailed;  // routing hole: bucket has no one alive
    ++hops;
    costs_.wire_bytes +=
        static_cast<std::uint64_t>(cfg_.dht_alpha) * kMessageBytes;
    cur = best;
    if (in_store(cur, target, store)) return hops;
    cpl = std::countl_zero(key_[cur] ^ target);  // strictly grew: no cycles
  }
}

void DhtBackend::add_owner(ObjectId object, PeerId peer, SimTime now) {
  const std::size_t replicas = store_size();
  if (replicas == 0) return;
  const std::uint64_t target = object_key(object);
  // The publish walk is charged even when routing fails mid-walk: the
  // record still lands (Kademlia republish repairs placement off-path),
  // so discoverability is gated at query time, where it belongs.
  const std::uint32_t hops = walk(peer, target, store_bound(target));
  if (hops != kWalkFailed) costs_.hops += hops;
  costs_.wire_bytes += static_cast<std::uint64_t>(replicas) * kRecordBytes;

  std::vector<Record>& records = store_[object];
  const auto pos = std::lower_bound(
      records.begin(), records.end(), peer,
      [](const Record& r, PeerId p) { return r.provider < p; });
  if (pos != records.end() && pos->provider == peer) {
    pos->origin = now;  // refresh, don't duplicate
    return;
  }
  records.insert(pos, Record{peer, now});
  std::vector<ObjectId>& pub = published_[peer.value];
  if (std::find(pub.begin(), pub.end(), object) == pub.end())
    pub.push_back(object);
}

void DhtBackend::remove_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  const auto it = store_.find(object);
  if (it != store_.end()) {
    std::erase_if(it->second,
                  [&](const Record& r) { return r.provider == peer; });
    if (it->second.empty()) store_.erase(it);
    costs_.wire_bytes += kMessageBytes;  // one unpublish message
  }
  std::vector<ObjectId>& pub = published_[peer.value];
  const auto pit = std::find(pub.begin(), pub.end(), object);
  if (pit != pub.end()) pub.erase(pit);
}

void DhtBackend::remove_peer(PeerId peer, SimTime now) {
  static_cast<void>(now);
  // A vanished node sends nothing: its records are dropped by the model
  // directly (the store nodes notice the dead contact), zero wire cost.
  std::vector<ObjectId>& pub = published_[peer.value];
  for (const ObjectId o : pub) {
    const auto it = store_.find(o);
    if (it == store_.end()) continue;
    std::erase_if(it->second,
                  [&](const Record& r) { return r.provider == peer; });
    if (it->second.empty()) store_.erase(it);
  }
  pub.clear();
}

LookupResult DhtBackend::query(const LookupQuery& q) {
  LookupResult r;
  if (store_size() == 0) return r;
  const std::uint64_t target = object_key(q.object);
  const std::uint32_t hops = walk(q.requester, target, store_bound(target));
  if (hops == kWalkFailed) return r;  // miss: budget cut or routing hole
  r.hops = hops;
  costs_.hops += hops;
  const std::uint64_t route_bytes = static_cast<std::uint64_t>(hops) *
                                    static_cast<std::uint64_t>(cfg_.dht_alpha) *
                                    kMessageBytes;

  const auto it = store_.find(q.object);
  if (it == store_.end()) {
    r.wire_bytes = route_bytes;
    return r;
  }
  // Records are kept in ascending provider order: one pass answers.
  r.providers.reserve(it->second.size());
  r.ages.reserve(it->second.size());
  for (const Record& rec : it->second) {
    if (rec.provider == q.requester) continue;
    r.providers.push_back(rec.provider);
    r.ages.push_back(q.now - rec.origin);
  }
  if (hops > 0) {
    const std::uint64_t record_bytes =
        static_cast<std::uint64_t>(r.providers.size()) * kRecordBytes;
    r.wire_bytes = route_bytes + record_bytes;
    costs_.wire_bytes += record_bytes;
  }
  return r;
}

}  // namespace p2pex::discovery
