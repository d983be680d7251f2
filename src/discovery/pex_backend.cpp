#include "discovery/pex_backend.h"

#include <algorithm>
#include <bit>

#include "util/contracts.h"

namespace p2pex::discovery {

namespace {
/// Salt for the gossip stream: forked off the run seed so enabling PEX
/// never perturbs the System's main stream (same pattern as the fault
/// injector's kFaultSeedSalt).
constexpr std::uint64_t kPexSeedSalt = 0x9055170FD16E57ULL;
/// Chain heads per peer stop doubling here; larger caches just grow
/// longer chains.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
}  // namespace

PexBackend::PexBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
                       const WorldView& world)
    : cfg_(cfg),
      world_(&world),
      rng_(seed ^ kPexSeedSalt),
      own_(world.num_peers()),
      cache_(world.num_peers()) {
  // About two entries per chain at a full cache.
  while (buckets_ * 2 < cfg_.pex_cache_cap && buckets_ < kMaxBuckets)
    buckets_ *= 2;
  bucket_shift_ = 32 - std::countr_zero(buckets_);
}

void PexBackend::add_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  std::vector<ObjectId>& own = own_[peer.value];
  if (std::find(own.begin(), own.end(), object) == own.end())
    own.push_back(object);
}

void PexBackend::remove_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  std::vector<ObjectId>& own = own_[peer.value];
  const auto it = std::find(own.begin(), own.end(), object);
  if (it != own.end()) own.erase(it);
  // Relayed copies in other peers' caches are NOT touched: they linger
  // until pex_entry_ttl ages them out — that is the staleness the
  // backend models (stale_entries_served counts them when proposed).
}

void PexBackend::remove_peer(PeerId peer, SimTime now) {
  static_cast<void>(now);
  // The peer stops advertising everything. Its own learned cache is
  // kept (a rejoining peer remembers what it heard); entries *about*
  // it elsewhere age out via the TTL like any other stale fact.
  own_[peer.value].clear();
}

std::size_t PexBackend::send_digest(PeerId from, PeerId to, SimTime now) {
  std::vector<Entry>& digest = digest_scratch_;
  digest.clear();
  const std::size_t cap = cfg_.gossip_digest_cap;

  // Own adverts first, rotated by round so a digest smaller than the
  // sender's storage still cycles full coverage across rounds.
  const std::vector<ObjectId>& own = own_[from.value];
  if (!own.empty()) {
    const std::size_t start = static_cast<std::size_t>(round_) % own.size();
    for (std::size_t j = 0; j < own.size() && digest.size() < cap; ++j)
      digest.push_back(Entry{own[(start + j) % own.size()], from, now});
  }

  // Then the freshest relayed entries (newest arrival first): relaying
  // keeps the original learn time, so age is end-to-end. Expired entries
  // are skipped here but stay stored until the owner's next query.
  const PeerCache& c = cache_[from.value];
  for (std::uint32_t s = c.newest; s != kNil && digest.size() < cap;
       s = c.slots[s].older) {
    const Slot& slot = c.slots[s];
    if (slot.provider == to || expired(c.origins[s], now)) continue;
    digest.push_back(Entry{slot.object, slot.provider, c.origins[s]});
  }

  for (const Entry& e : digest) merge_entry(to, e);
  return digest.size();
}

PexBackend::ChainPos PexBackend::find(const PeerCache& c, ObjectId object,
                                      PeerId provider) const {
  ChainPos pos;
  for (std::uint32_t s = c.heads[bucket(object)];
       s != kNil && c.slots[s].provider <= provider; s = c.slots[s].next) {
    if (c.slots[s].provider == provider && c.slots[s].object == object) {
      pos.match = s;
      return pos;
    }
    pos.prev = s;
  }
  return pos;
}

void PexBackend::erase_slot(PeerCache& c, std::uint32_t s) {
  Slot& slot = c.slots[s];
  if (slot.older != kNil) c.slots[slot.older].newer = slot.newer;
  else c.oldest = slot.newer;
  if (slot.newer != kNil) c.slots[slot.newer].older = slot.older;
  else c.newest = slot.older;

  std::uint32_t* link = &c.heads[bucket(slot.object)];
  while (*link != s) link = &c.slots[*link].next;
  *link = slot.next;

  slot.next = c.free;
  c.free = s;
  --c.size;
}

void PexBackend::merge_entry(PeerId receiver, const Entry& e) {
  if (e.provider == receiver) return;  // facts about itself are useless
  PeerCache& c = cache_[receiver.value];
  if (c.heads.empty()) c.heads.assign(buckets_, kNil);
  ChainPos pos = find(c, e.object, e.provider);
  if (pos.match != kNil) {  // refresh in place, don't dup or move
    c.origins[pos.match] = std::max(c.origins[pos.match], e.origin);
    return;
  }
  if (c.size == cfg_.pex_cache_cap) {
    // FIFO: oldest knowledge is shed first. If it was the chain slot
    // the new entry follows, the insertion point moved.
    const std::uint32_t victim = c.oldest;
    erase_slot(c, victim);
    if (victim == pos.prev) pos = find(c, e.object, e.provider);
  }

  std::uint32_t s = c.free;
  if (s != kNil) {
    c.free = c.slots[s].next;
  } else {
    s = narrow_u32(c.slots.size());
    c.slots.emplace_back();
    c.origins.push_back(0.0);
  }
  Slot& slot = c.slots[s];
  slot.object = e.object;
  slot.provider = e.provider;
  c.origins[s] = e.origin;

  slot.older = c.newest;
  slot.newer = kNil;
  if (c.newest != kNil) c.slots[c.newest].newer = s;
  else c.oldest = s;
  c.newest = s;

  std::uint32_t& link =
      pos.prev == kNil ? c.heads[bucket(e.object)] : c.slots[pos.prev].next;
  slot.next = link;
  link = s;

  ++c.size;
  c.min_origin = std::min(c.min_origin, e.origin);
}

void PexBackend::tick(SimTime now) {
  const std::size_t n = world_->num_peers();
  if (n < 2) return;
  ++costs_.gossip_rounds;
  // One ring-partner offset per round, drawn from the salted gossip
  // stream (coordinator-only: bit-identical at every thread count).
  const std::size_t offset = 1 + rng_.index(n - 1);
  ++round_;
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId a = PeerId::from_index(i);
    const PeerId b = PeerId::from_index((i + offset) % n);
    if (!world_->peer_online(a) || !world_->peer_online(b)) continue;
    if (!world_->peers_reachable(a, b)) continue;  // partitions cut gossip
    const std::size_t sent = send_digest(a, b, now) + send_digest(b, a, now);
    costs_.wire_bytes +=
        2 * kMessageBytes + static_cast<std::uint64_t>(sent) * kEntryBytes;
  }
}

LookupResult PexBackend::query(const LookupQuery& q) {
  LookupResult r;
  PeerCache& c = cache_[q.requester.value];
  if (c.size == 0) return r;

  // Lazy expiry: age the requester's cache before reading it. Only when
  // the origin bound says something may have expired; the sweep then
  // tightens the bound to the survivors' minimum.
  if (expired(c.min_origin, q.now)) {
    SimTime min_origin = std::numeric_limits<SimTime>::infinity();
    for (std::uint32_t s = c.oldest; s != kNil;) {
      const std::uint32_t newer = c.slots[s].newer;
      if (expired(c.origins[s], q.now)) erase_slot(c, s);
      else min_origin = std::min(min_origin, c.origins[s]);
      s = newer;
    }
    c.min_origin = min_origin;
  }

  // The chain is in ascending provider order and holds each provider
  // once per object (merge_entry dedupes, and never stores the cache
  // owner itself), so the answer is already sorted: count, then fill.
  const std::uint32_t head = c.heads[bucket(q.object)];
  std::size_t hits = 0;
  for (std::uint32_t s = head; s != kNil; s = c.slots[s].next)
    if (c.slots[s].object == q.object) ++hits;
  if (hits == 0) return r;
  r.providers.reserve(hits);
  r.ages.reserve(hits);
  for (std::uint32_t s = head; s != kNil; s = c.slots[s].next) {
    if (c.slots[s].object != q.object) continue;
    r.providers.push_back(c.slots[s].provider);
    r.ages.push_back(q.now - c.origins[s]);
  }
  return r;
}

}  // namespace p2pex::discovery
