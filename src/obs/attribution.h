// Bottleneck attribution: where did each phase's latency actually go?
//
// The paper's §V analysis explains phase-level latency by decomposing it and
// pointing at the saturated resource (endorser CPU in execute, batching in
// order, serial VSCC/MVCC in validate). This module reproduces that
// diagnosis mechanically: for every transaction that completed a phase
// inside the measurement window, the spans recorded for that transaction are
// clipped to the phase interval and swept as an interval union, so wall time
// is charged to *service*, *queueing*, or *wire* exactly once even when
// work proceeds in parallel (e.g. three endorsers concurrently). Overlaps
// resolve by priority service > queue > wire (if any resource is actively
// working, the transaction is not "waiting"), and time covered by no span at
// all is reported as *other* — which doubles as a coverage check on the
// instrumentation itself.
//
// Combined with windowed resource utilizations (the difference of each
// station's Cpu::BusyTime() read at the window's edges), each phase also
// gets a one-line verdict naming its most saturated resource.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/phase_stats.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace fabricsim::obs {

/// Measured utilization of one resource over the window, tagged with the
/// phase it serves so verdicts can name it.
struct ResourceUsage {
  std::string name;      // e.g. "peer-machine0", "validator-machine0 disk"
  std::string phase;     // "execute" | "order" | "validate"
  double utilization = 0.0;  // [0,1] over the measurement window
};

/// Mean per-transaction decomposition of one phase's latency.
struct PhaseBreakdown {
  std::uint64_t tx_count = 0;
  double mean_total_ms = 0.0;    // phase mean latency (tracker timestamps)
  double service_ms = 0.0;       // resource actively working
  double queue_ms = 0.0;         // waiting for a resource / batch / order
  double wire_ms = 0.0;          // on the network
  double other_ms = 0.0;         // uninstrumented remainder
  std::string dominant;          // service | queue | wire | other
  std::string verdict;           // e.g. "queue-bound; most saturated: ..."
};

struct AttributionReport {
  PhaseBreakdown execute;
  PhaseBreakdown order;
  PhaseBreakdown validate;
};

/// Builds the attribution over [window_start, window_end]. A transaction
/// contributes to a phase iff the phase completed inside the window (same
/// rule as TxTracker::BuildReport). `resources` feeds the verdicts and may
/// be empty (verdicts then name only the dominant component).
[[nodiscard]] AttributionReport BuildAttribution(
    const Tracer& tracer, const metrics::TxTracker& tracker,
    sim::SimTime window_start, sim::SimTime window_end,
    const std::vector<ResourceUsage>& resources = {});

/// Renders the report as one row per phase (aligned table, or CSV when
/// `csv`), the same way the CLI and bench binaries print it.
void PrintAttribution(const AttributionReport& report, std::ostream& os,
                      bool csv = false);

}  // namespace fabricsim::obs
