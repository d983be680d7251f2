// The benchmark's workloads: each is a .scn text generated from a
// workload name and a simulation seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct Workload {
  const char* name;
  std::size_t threads;  ///< worker threads the spec pins
  bool check_ratio;     ///< require run.download_time_ratio > 1
  const char* body;     ///< .scn lines after the seed and thread count
};

/// The workload called `name`; throws std::invalid_argument if unknown.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// The .scn text of `w` at simulation seed `sim_seed`.
[[nodiscard]] std::string scenario_text(const Workload& w,
                                        std::uint64_t sim_seed);

}  // namespace perfbench
