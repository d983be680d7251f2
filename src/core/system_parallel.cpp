// Parallel sweeps: the O(population) read-only scans behind the periodic
// sweeps, sharded over the worker pool at >= kParallelSweepMinPeers peers
// (see the design note in system.h). Ring searches stay serial: every
// search reads the snapshot rows the previous ring formation wrote.
#include "core/parallel/shard_map.h"
#include "core/system.h"

namespace p2pex {

parallel::WorkerPool* System::sweep_pool() {
  if (threads_ <= 1 || peers_.size() < kParallelSweepMinPeers) return nullptr;
  if (!pool_) pool_ = std::make_unique<parallel::WorkerPool>(threads_);
  return pool_.get();
}

const std::vector<PeerId>& System::scan_peers(PeerPred pred) {
  scan_out_.clear();
  parallel::WorkerPool* pool = sweep_pool();
  if (pool == nullptr) {
    for (const Peer& p : peers_)
      if (pred(p)) scan_out_.push_back(p.id);
    return scan_out_;
  }
  // Contiguous id-range shards concatenated in shard order == the
  // ascending-id list the serial loop above produces. The predicate is
  // a pure read (enforced by the function-pointer type: no captures,
  // and peers_ is untouched during the scan).
  const std::size_t shards = threads_;
  const parallel::ShardMap map(peers_.size(), shards);
  scan_shards_.resize(shards);
  pool->run(shards, [&](std::size_t s) {
    std::vector<PeerId>& out = scan_shards_[s];
    out.clear();  // keeps the shard slot's capacity across sweeps
    const parallel::ShardRange r = map.range(s);
    for (std::size_t i = r.begin; i < r.end; ++i)
      if (pred(peers_[i])) out.push_back(peers_[i].id);
  });
  for (const std::vector<PeerId>& shard : scan_shards_)
    scan_out_.insert(scan_out_.end(), shard.begin(), shard.end());
  return scan_out_;
}

}  // namespace p2pex
