// Periodic resource telemetry for a simulation run.
//
// A `TelemetrySampler` snapshots every monitored resource on a fixed period:
// for each CPU station its busy-core count and queue depth, and for the
// network the total bytes currently in flight (sent but not yet delivered,
// maintained through the `sim::NetworkObserver` hook so the substrate stays
// ignorant of telemetry). The time series dumps as long-format CSV
// (`time_s,resource,metric,value`), ready for pandas/gnuplot — this is the
// simulated analogue of running `dstat`/`sar` on every testbed machine while
// the benchmark drives load, which is how the paper located saturated
// resources.
//
// Like the tracer, the sampler is opt-in: nothing in the simulation knows it
// exists, and an unattached run pays nothing. Tick events are scheduler
// *observer* events: they mutate no simulation state and are excluded from
// ExecutedEvents(), so an attached sampler leaves every simulated result —
// including the event-count fingerprint the bench gate checks — unchanged.
// Beyond CPU and network rows, each sample records the scheduler's pending
// event-queue depth, and callers wire high-watermark gauges for the bounded
// admission queues via AddGauge.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace fabricsim::sim {
class Cpu;
class Environment;
}  // namespace fabricsim::sim

namespace fabricsim::obs {

/// One sampled data point.
struct TelemetrySample {
  sim::SimTime t = 0;
  std::string resource;  // machine or station name, or "network"
  std::string metric;    // busy_cores | queue_len | utilization | bytes_in_flight
  double value = 0.0;
};

class TelemetrySampler : public sim::NetworkObserver {
 public:
  explicit TelemetrySampler(sim::SimDuration period = sim::FromMillis(100))
      : period_(period > 0 ? period : 1) {}

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Adds one CPU station under `name` (machines, but also e.g. a peer's
  /// dedicated disk station).
  void AddCpu(std::string name, const sim::Cpu* cpu);

  /// Adds an arbitrary gauge sampled each tick (e.g. an admission queue's
  /// depth or cumulative shed count). The callback must outlive the sampler.
  void AddGauge(std::string resource, std::string metric,
                std::function<double()> fn);

  /// Convenience: monitors every machine's CPU (by machine name) and the
  /// environment's network.
  void Monitor(sim::Environment& env);

  /// Installs this sampler as the network's observer to track bytes in
  /// flight.
  void WatchNetwork(sim::Network& net);

  /// Starts periodic sampling (first tick one period from now).
  void Start(sim::Scheduler& sched);

  /// Stops sampling; safe to call when not running.
  void Stop();

  /// Takes one snapshot immediately (also called by the periodic tick).
  void SampleNow(sim::SimTime now);

  [[nodiscard]] const std::vector<TelemetrySample>& Samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t BytesInFlight() const { return bytes_in_flight_; }

  /// Writes `time_s,resource,metric,value` rows with a header.
  void WriteCsv(std::ostream& os) const;

  // sim::NetworkObserver
  void OnSend(sim::NodeId from, sim::NodeId to, std::size_t wire_bytes,
              sim::SimTime deliver_at) override;
  void OnDeliver(sim::NodeId from, sim::NodeId to,
                 std::size_t wire_bytes) override;
  void OnDrop(sim::NodeId from, sim::NodeId to,
              std::size_t wire_bytes) override;

 private:
  void Tick();

  struct Station {
    std::string name;
    const sim::Cpu* cpu;
  };

  struct Gauge {
    std::string resource;
    std::string metric;
    std::function<double()> fn;
  };

  sim::SimDuration period_;
  std::vector<Station> stations_;
  std::vector<Gauge> gauges_;
  sim::Scheduler* sched_ = nullptr;
  sim::EventId tick_event_ = 0;
  bool running_ = false;
  std::uint64_t bytes_in_flight_ = 0;
  bool watching_network_ = false;
  std::vector<TelemetrySample> samples_;
};

}  // namespace fabricsim::obs
