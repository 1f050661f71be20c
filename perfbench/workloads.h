// The benchmark's four named workloads (see perfbench/README.md for why
// each exists and which layer metrics it is meant to move).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fabric/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  fabricsim::fabric::ExperimentConfig config;
  /// Simulated time of the leader crash; negative when the workload injects
  /// no fault.
  double crash_at_s = -1.0;
};

/// The workload called `name`, seeded with `seed`; nullopt if unknown.
std::optional<Workload> FindWorkload(const std::string& name,
                                     std::uint64_t seed);

std::vector<std::string> WorkloadNames();

}  // namespace perfbench
