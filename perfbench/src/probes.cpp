#include "probes.h"

#include <chrono>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/exchange_finder.h"
#include "core/lookup.h"
#include "discovery/lookup_backend.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Repeat `body` (one batch of `per_batch` operations) until at least
/// `min_seconds` have passed; returns microseconds per operation.
template <typename F>
std::pair<std::uint64_t, double> time_batches(std::uint64_t per_batch,
                                              double min_seconds, F&& body) {
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ops += per_batch;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_seconds);
  return {ops, ops == 0 ? 0.0 : elapsed * 1e6 / static_cast<double>(ops)};
}

/// Liveness as the run left it; no partition (the probe measures the
/// backend's own cost, not the fault model's).
class LivenessSnapshot final : public p2pex::discovery::WorldView {
 public:
  explicit LivenessSnapshot(const p2pex::System& system) {
    for (std::size_t i = 0; i < system.num_peers(); ++i)
      online_.push_back(system.peer(p2pex::PeerId::from_index(i)).online);
  }
  [[nodiscard]] std::size_t num_peers() const override {
    return online_.size();
  }
  [[nodiscard]] bool peer_online(p2pex::PeerId p) const override {
    return online_[p.value];
  }
  [[nodiscard]] bool peers_reachable(p2pex::PeerId,
                                     p2pex::PeerId) const override {
    return true;
  }

 private:
  std::vector<bool> online_;
};

constexpr double kMinProbeSeconds = 0.2;
constexpr std::size_t kQuerySample = 20000;
constexpr std::size_t kWarmTicks = 20;

}  // namespace

FinderProbe probe_finder(const p2pex::System& system) {
  const p2pex::SimConfig& cfg = system.config();
  const p2pex::GraphSnapshot& view = system.graph_snapshot();
  p2pex::ExchangeFinder finder(cfg.policy, cfg.max_ring_size, cfg.tree_mode,
                               cfg.bloom_hop_budget);
  if (cfg.tree_mode == p2pex::TreeMode::kBloom)
    finder.rebuild_summaries(view, cfg.bloom_expected_per_level,
                             cfg.bloom_fpp);
  std::size_t proposals = 0;
  const auto [searches, us] =
      time_batches(system.num_peers(), kMinProbeSeconds, [&] {
        for (std::size_t i = 0; i < system.num_peers(); ++i)
          proposals += finder
                           .find(view, p2pex::PeerId::from_index(i),
                                 cfg.max_ring_attempts_per_search)
                           .size();
      });
  static_cast<void>(proposals);
  return FinderProbe{searches, us};
}

DiscoveryProbe probe_discovery(const p2pex::System& system,
                               std::uint64_t sample_seed) {
  const p2pex::SimConfig& cfg = system.config();
  const p2pex::LookupService truth = system.lookup();
  const LivenessSnapshot world(system);
  p2pex::Rng backend_rng(sample_seed);
  const std::unique_ptr<p2pex::discovery::LookupBackend> backend =
      p2pex::discovery::make_backend(cfg.discovery, cfg.lookup_fraction,
                                     truth, backend_rng, cfg.seed, world);
  const p2pex::SimTime now = system.now();
  const p2pex::Catalog& catalog = system.catalog();
  for (std::size_t o = 0; o < catalog.num_objects(); ++o) {
    const auto object = p2pex::ObjectId::from_index(o);
    for (const p2pex::PeerId p : truth.owners(object, p2pex::PeerId{}))
      backend->add_owner(object, p, now);
  }

  DiscoveryProbe out;
  p2pex::SimTime tick_at = now;
  const p2pex::SimTime interval = backend->tick_interval();
  const auto tick = [&] {
    tick_at += interval;
    backend->tick(tick_at);
  };
  // Only gossip backends tick (tick_interval() > 0); elsewhere there is
  // no upkeep to time.
  if (interval > 0.0) {
    for (std::size_t i = 0; i < kWarmTicks; ++i) tick();
    std::tie(out.ticks, out.tick_us) =
        time_batches(1, kMinProbeSeconds, tick);
  }

  // Requests as the engine draws them: an online requester, a category
  // from its interests, an object by catalog popularity.
  p2pex::Rng sample_rng(sample_seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<p2pex::PeerId> online;
  for (std::size_t i = 0; i < system.num_peers(); ++i)
    if (world.peer_online(p2pex::PeerId::from_index(i)))
      online.push_back(p2pex::PeerId::from_index(i));
  std::vector<p2pex::discovery::LookupQuery> sample;
  for (std::size_t i = 0; i < kQuerySample && !online.empty(); ++i) {
    const p2pex::PeerId requester = sample_rng.pick(online);
    const p2pex::CategoryId c =
        system.peer(requester).interests.sample_category(sample_rng);
    sample.push_back(
        {catalog.sample_object_in(c, sample_rng), requester, tick_at});
  }

  std::size_t found = 0;
  std::tie(out.queries, out.query_us) =
      time_batches(sample.size(), kMinProbeSeconds, [&] {
        for (const p2pex::discovery::LookupQuery& q : sample)
          found += backend->query(q).providers.size();
      });
  static_cast<void>(found);
  return out;
}

}  // namespace perfbench
