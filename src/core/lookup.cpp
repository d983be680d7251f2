#include "core/lookup.h"

#include <algorithm>

namespace p2pex {

void LookupService::add_owner(ObjectId object, PeerId peer) {
  owners_[object].insert(peer);
  by_peer_[peer].insert(object);
}

void LookupService::remove_owner(ObjectId object, PeerId peer) {
  const auto it = owners_.find(object);
  if (it == owners_.end()) return;
  it->second.erase(peer);
  if (it->second.empty()) owners_.erase(it);
  const auto rit = by_peer_.find(peer);
  if (rit != by_peer_.end()) {
    rit->second.erase(object);
    if (rit->second.empty()) by_peer_.erase(rit);
  }
}

void LookupService::remove_peer(PeerId peer) {
  const auto rit = by_peer_.find(peer);
  if (rit == by_peer_.end()) return;
  // p2pex-lint: order-insensitive (erases `peer` from every listed
  // bucket; the final index state is the same whatever order the
  // peer's objects are visited)
  for (ObjectId o : rit->second) {
    const auto it = owners_.find(o);
    if (it == owners_.end()) continue;
    it->second.erase(peer);
    if (it->second.empty()) owners_.erase(it);
  }
  by_peer_.erase(rit);
}

std::vector<PeerId> LookupService::owners(ObjectId object,
                                          PeerId except) const {
  std::vector<PeerId> out;
  const auto it = owners_.find(object);
  if (it == owners_.end()) return out;
  out.reserve(it->second.size());
  // p2pex-lint: order-insensitive (collected set is sorted before return)
  for (PeerId p : it->second)
    if (p != except) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PeerId> LookupService::query(ObjectId object, PeerId except,
                                         double fraction, Rng& rng) const {
  std::vector<PeerId> all = owners(object, except);
  if (fraction >= 1.0) return all;
  // In place: one draw per owner, in ascending order (remove_if visits
  // each element once, front to back).
  std::erase_if(all, [&](PeerId) { return !rng.chance(fraction); });
  return all;
}

std::size_t LookupService::owner_count(ObjectId object) const {
  const auto it = owners_.find(object);
  return it == owners_.end() ? 0 : it->second.size();
}

bool LookupService::has_owner(ObjectId object, PeerId peer) const {
  const auto it = owners_.find(object);
  return it != owners_.end() && it->second.contains(peer);
}

std::size_t LookupService::objects_owned(PeerId peer) const {
  const auto it = by_peer_.find(peer);
  return it == by_peer_.end() ? 0 : it->second.size();
}

}  // namespace p2pex
