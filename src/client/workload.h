// Workload controller: open-loop transaction generation.
//
// Mirrors the paper's setup: several client machines generate transactions
// at a controlled aggregate arrival rate (the x-axis of every figure),
// asynchronously, without waiting for earlier transactions. Arrivals are a
// Poisson process by default (independent streams per client) or uniform.
#pragma once

#include <functional>
#include <vector>

#include "client/client.h"
#include "metrics/rate_log.h"

namespace fabricsim::client {

enum class ArrivalProcess : std::uint8_t { kPoisson, kUniform };

enum class WorkloadKind : std::uint8_t {
  kKvWrite,        // the paper's workload: write a tiny value to a fresh key
  kKvReadWrite,    // read-modify-write on a shared key space (MVCC conflicts)
  kTokenTransfer,  // token transfers over a preloaded account pool
  kSmallBank,      // SmallBank operation mix
};

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kKvWrite;
  double rate_tps = 100.0;  // aggregate across all clients
  sim::SimTime start = 0;
  sim::SimDuration duration = sim::FromSeconds(60);
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  std::size_t value_size = 1;   // the paper uses 1-byte values
  std::size_t key_space = 1000;  // shared-key workloads draw from this pool
};

/// Drives a set of clients at the configured aggregate rate.
class WorkloadController {
 public:
  WorkloadController(sim::Environment& env, std::vector<Client*> clients,
                     WorkloadConfig config);

  /// Schedules all arrivals (lazily, one timer per client). Each client's
  /// arrival loop is anchored to its machine's scheduler lane.
  void Start();

  [[nodiscard]] std::uint64_t Generated() const { return generated_; }

  /// Per-second generation log (the paper's rate double-check).
  [[nodiscard]] const metrics::RateLog& GeneratedLog() const {
    return generated_log_;
  }

  /// Builds one invocation for client `ci` (exposed for tests).
  proto::ChaincodeInvocation NextInvocation(std::size_t ci);

 private:
  void ScheduleNext(std::size_t ci);

  sim::Environment& env_;
  std::vector<Client*> clients_;
  WorkloadConfig config_;
  // One independent RNG stream per client (forked in client order), so each
  // arrival loop's draws depend only on that client's own history. The
  // pinned chain heads and bench baselines were recorded with these streams.
  std::vector<sim::Rng> rngs_;
  std::vector<std::uint64_t> seq_;
  std::vector<sim::SimTime> next_ideal_;  // per-client ideal arrival clock
  std::uint64_t generated_ = 0;
  metrics::RateLog generated_log_{"generated"};
};

/// Names of the `key_space` accounts that the token/smallbank workloads
/// expect to exist; network builders pre-seed them into peer state.
std::vector<std::string> WorkloadAccounts(std::size_t key_space);

}  // namespace fabricsim::client
