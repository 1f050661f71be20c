// Resource telemetry names, kept for callers written against the former
// standalone sampler. The sampler is the metrics registry itself: attach one
// as `ExperimentConfig::telemetry` and the experiment runner wires the
// standard instruments (per-station busy cores and queue length, network
// bytes in flight, admission and scheduler gauges) and samples them every
// 100 ms of simulated time. `Samples()` and `WriteCsv()` give the
// long-format `time_s,resource,metric,value` view.
#pragma once

#include "metrics/registry.h"

namespace fabricsim::obs {

using TelemetrySampler = metrics::Registry;
using TelemetrySample = metrics::LongSample;

}  // namespace fabricsim::obs
