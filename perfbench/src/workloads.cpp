#include "workloads.h"

#include <stdexcept>

namespace perfbench {

namespace {

// Horizons are the shortest that keep the outputs meaningful: the
// 200-peer economies need 40,000 s before the sharing/non-sharing
// download-time ratio is populated on every recorded seed.
constexpr Workload kWorkloads[] = {
    {"paper_oracle", 1, true, "set duration 40000\n"},
    {"dht_lookup", 1, true,
     "set duration 40000\n"
     "set lookup_backend dht\n"},
    // The ROADMAP N-sweep point at N = 1000 (70% sharers).
    {"churn_n1000", 2, false,
     "set duration 2000\n"
     "set warmup 0.1\n"
     "set categories 300\n"
     "set object_bytes 4000000\n"
     "cohort sharers count=700\n"
     "cohort leechers count=300 share=no\n"
     "at 0 churn duration=2000 interval=60 depart_rate=0.0002 "
     "arrive_rate=0.004\n"},
    // examples/pex_discovery.scn + crash_churn.scn at the paper
    // population: gossip discovery under churn, a crash storm, a
    // transfer-fault window and a partition.
    {"pex_faults", 1, false,
     "set duration 20000\n"
     "set lookup_backend pex\n"
     "set stale_lookup_ttl 45\n"
     "set retry_timeout 20\n"
     "set retry_max_attempts 3\n"
     "at 0 churn duration=20000 interval=120 depart_rate=0.0003 "
     "arrive_rate=0.002\n"
     "at 6000 crash count=20\n"
     "at 8000 faults rate=0.002 lookup_loss=0.1 duration=3000\n"
     "at 14000 partition split=100 duration=1500\n"},
};

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string scenario_text(const Workload& w, std::uint64_t sim_seed) {
  return "scenario " + std::string(w.name) + "\nbase calibrated\nset seed " +
         std::to_string(sim_seed) + "\nset threads " +
         std::to_string(w.threads) + "\n" + w.body;
}

}  // namespace perfbench
