// perfbench_driver: one measurement process of the host-cost benchmark.
//
//   perfbench_driver --workload <name> --seed <n> --mode run|trace|layers
//                    [--setups <k>]
//
// perfbench/run.py starts a fresh process per experiment, so process-global
// state (the verify cache, the MSP cache counters, the committer's
// precompute pool, SHA dispatch) starts cold every time, and prints one
// JSON object per process on stdout:
//
//   run     one untraced fabric::RunExperiment, then <k> timed builds +
//           Start() of a FabricNetwork with the same options (set-up time);
//   trace   the same experiment with the DES profiler, the span tracer and
//           the telemetry sampler attached (per-layer numbers);
//   layers  the layer pass (layer_pass.h), for about one second.
//
// Only public library headers are used, with the serial engine and the
// host caches as shipped.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/msp_cache.h"
#include "fabric/experiment.h"
#include "layer_pass.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workloads.h"

namespace fabric = fabricsim::fabric;
namespace obs = fabricsim::obs;
namespace sim = fabricsim::sim;
using perfbench::Workload;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The runner's measurement window: the workload's span minus a 5 s lead-in.
sim::SimTime MeasureStart(const Workload& w) {
  return w.config.warmup + sim::FromSeconds(5);
}
sim::SimTime MeasureEnd(const Workload& w) {
  return w.config.warmup + w.config.workload.duration;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One flat JSON object, written field by field. Doubles keep all 17
// significant digits (bench::Json rounds to 12), so simulated values compare
// exactly across processes, and the output format stays independent of the
// library's bench recorder.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":" << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string Done() const {
    return first_ ? "{}" : os_.str() + "}";
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// The simulated outputs that must repeat exactly for a given seed: the
// chain fingerprint and every simulated end-to-end metric.
std::string Fingerprint(const fabric::ExperimentResult& r) {
  const auto& rep = r.report;
  return JsonObject()
      .Str("chain_head_hex", r.chain_head_hex)
      .Int("chain_height", r.chain_height)
      .Int("generated", r.generated)
      .Int("committed_valid", r.client_committed_valid)
      .Int("committed_invalid", r.client_committed_invalid)
      .Num("sim_goodput_tps", rep.goodput_tps)
      .Num("sim_latency_p50_s", rep.end_to_end.p50_latency_s)
      .Num("sim_latency_p99_s", rep.end_to_end.p99_latency_s)
      .Int("sim_latency_samples", rep.end_to_end.completed)
      .Done();
}

// Correctness verdicts and the deterministic counters both modes report.
void AddCommon(JsonObject& out, const Workload& w,
               const fabric::ExperimentResult& r) {
  const auto& rep = r.report;
  out.Raw("fingerprint", Fingerprint(r))
      .Bool("chain_audit_ok", r.chain_audit_ok)
      .Bool("invariants_expected",
            w.config.check_invariants || !w.config.faults.empty())
      .Bool("invariants_checked", r.invariants.has_value())
      .Bool("invariants_ok", !r.invariants || r.invariants->Ok())
      .Int("sched_events", r.sched_events)
      .Int("messages_sent", r.messages_sent)
      .Int("bytes_sent", r.bytes_sent)
      .Num("rate_check_fraction", r.generated_rate_check)
      .Int("tracker_records_hwm", r.tracker.records_hwm)
      .Num("txs_per_block", rep.mean_block_size)
      .Num("order_p50_s", rep.order.p50_latency_s)
      .Num("execute_p50_s", rep.execute.p50_latency_s)
      .Num("validate_p50_s", rep.validate.p50_latency_s)
      .Int("msp_cache_hits", fabricsim::crypto::MspIdentityCache::GlobalHits())
      .Int("msp_cache_misses",
           fabricsim::crypto::MspIdentityCache::GlobalMisses())
      .Num("peak_rss_mb", PeakRssMiB());
}

// Host seconds to build and start the workload's network: the set-up that
// RunExperiment performs before simulated time advances.
double TimeSetup(const Workload& w) {
  const auto t0 = Clock::now();
  fabric::FabricNetwork net(w.config.network);
  net.Start();
  return SecondsSince(t0);
}

int RunMode(const Workload& w, int setups) {
  const auto t0 = Clock::now();
  const fabric::ExperimentResult r = fabric::RunExperiment(w.config);
  const double wall_s = SecondsSince(t0);
  JsonObject out;
  out.Str("mode", "run").Num("wall_s", wall_s);
  AddCommon(out, w, r);
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) setup_s.push_back(TimeSetup(w));
  std::sort(setup_s.begin(), setup_s.end());
  out.Num("setup_s", setup_s[setup_s.size() / 2]);
  std::cout << out.Done() << "\n";
  return 0;
}

// Busiest station's mean simulated utilization per phase over the
// measurement window, from the telemetry sampler's busy-core samples. The
// phase of a machine follows the library's naming convention.
std::map<std::string, double> PhaseUtilization(
    const Workload& w, const obs::TelemetrySampler& telemetry) {
  std::map<std::string, int> cores;
  {
    fabric::NetworkOptions options = w.config.network;
    options.tracer = nullptr;  // a throwaway network, only for core counts
    fabric::FabricNetwork net(options);
    for (std::size_t i = 0; i < net.Env().MachineCount(); ++i) {
      const sim::Machine& m = net.Env().MachineAt(i);
      cores[m.Name()] = m.GetCpu().Cores();
    }
    cores["validator disk"] = net.ValidatorPeer().Disk().Cores();
  }
  const sim::SimTime t0 = MeasureStart(w);
  const sim::SimTime t1 = MeasureEnd(w);
  std::map<std::string, std::pair<double, int>> busy;  // sum, samples
  for (const obs::TelemetrySample& s : telemetry.Samples()) {
    if (s.metric != "busy_cores" || s.t < t0 || s.t > t1) continue;
    auto& b = busy[s.resource];
    b.first += s.value;
    b.second += 1;
  }
  std::map<std::string, double> util = {{"execute", 0.0},
                                        {"order", 0.0},
                                        {"validate", 0.0},
                                        {"validator_disk", 0.0}};
  for (const auto& [name, b] : busy) {
    const auto c = cores.find(name);
    if (c == cores.end() || c->second <= 0 || b.second == 0) continue;
    const double u = b.first / b.second / c->second;
    std::string phase = "order";  // orderer-, broker-, zk- machines
    if (name == "validator disk") {
      phase = "validator_disk";
    } else if (name.starts_with("peer-machine") ||
               name.starts_with("client-machine")) {
      phase = "execute";
    } else if (name.starts_with("validator-machine")) {
      phase = "validate";
    }
    util[phase] = std::max(util[phase], u);
  }
  return util;
}

// Per-tx simulated timestamps recovered from the trace: submission is a
// tx's earliest span, commit the end of its commit span on the validator's
// ledger disk (-1 when it never committed there).
struct TxTimes {
  sim::SimTime submitted = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime committed = -1;
};

std::vector<TxTimes> TxTimesFromTrace(obs::Tracer& tracer) {
  const int validator_disk = tracer.PidFor("validator-machine0/disk");
  std::vector<TxTimes> out;
  for (const auto& [key, spans] : tracer.SpansByKey()) {
    TxTimes t;
    for (const obs::Span* s : spans) {
      t.submitted = std::min(t.submitted, s->begin);
      if (s->pid == validator_disk && s->name == "commit") t.committed = s->end;
    }
    out.push_back(t);
  }
  return out;
}

// Exact end-to-end latency percentiles (nearest rank) of the txs committed,
// valid or invalid, inside the measurement window. The tracker's report
// bins latencies into ~3% buckets; these keep every digit.
void AddExactLatency(JsonObject& out, const std::vector<TxTimes>& txs,
                     sim::SimTime t0, sim::SimTime t1) {
  std::vector<sim::SimDuration> lat;
  for (const TxTimes& t : txs) {
    if (t.committed >= t0 && t.committed <= t1) {
      lat.push_back(t.committed - t.submitted);
    }
  }
  std::sort(lat.begin(), lat.end());
  const auto rank = [&](double p) {
    if (lat.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(lat.size())));
    return sim::ToSeconds(lat[std::max<std::size_t>(k, 1) - 1]);
  };
  out.Num("latency_p50_s", rank(0.50))
      .Num("latency_p99_s", rank(0.99))
      .Int("latency_samples", lat.size());
}

// Simulated seconds from the crash to the validator's first commit of a
// transaction submitted after the crash; negative when there is none.
double UnavailableSeconds(const std::vector<TxTimes>& txs,
                          sim::SimTime crash_at) {
  sim::SimTime first = std::numeric_limits<sim::SimTime>::max();
  for (const TxTimes& t : txs) {
    if (t.submitted >= crash_at && t.committed >= 0) {
      first = std::min(first, t.committed);
    }
  }
  if (first == std::numeric_limits<sim::SimTime>::max()) return -1.0;
  return sim::ToSeconds(first - crash_at);
}

int TraceMode(Workload w) {
  obs::Tracer tracer;
  obs::TelemetrySampler telemetry;
  w.config.network.tracer = &tracer;
  w.config.telemetry = &telemetry;
  w.config.profile = true;
  const auto t0 = Clock::now();
  const fabric::ExperimentResult r = fabric::RunExperiment(w.config);
  const double wall_s = SecondsSince(t0);

  JsonObject out;
  out.Str("mode", "trace").Num("wall_s", wall_s);
  AddCommon(out, w, r);
  const sim::ProfileReport& prof = *r.profile;
  out.Int("profile_events", prof.total_events)
      .Int("profile_handler_ns", prof.total_ns)
      .Num("profile_events_per_sec", prof.events_per_sec);
  JsonObject handlers;
  for (const sim::ProfileEntry& e : prof.entries) {
    handlers.Raw(e.name, JsonObject()
                             .Int("count", e.count)
                             .Int("ns", e.total_ns)
                             .Done());
  }
  out.Raw("handlers", handlers.Done());
  JsonObject util;
  for (const auto& [phase, u] : PhaseUtilization(w, telemetry)) {
    util.Num(phase, u);
  }
  out.Raw("util", util.Done());
  const std::vector<TxTimes> txs = TxTimesFromTrace(tracer);
  AddExactLatency(out, txs, MeasureStart(w), MeasureEnd(w));
  if (w.crash_at_s >= 0) {
    out.Num("unavailable_s",
            UnavailableSeconds(txs, sim::FromSeconds(w.crash_at_s)));
  }
  std::cout << out.Done() << "\n";
  return 0;
}

int LayersMode(const Workload& w) {
  const perfbench::LayerTotals t = perfbench::RunLayerPass(w, 1.0);
  std::cout << JsonObject()
                   .Str("mode", "layers")
                   .Int("txs", t.txs)
                   .Int("blocks", t.blocks)
                   .Int("signs", t.signs)
                   .Int("verifies", t.verifies)
                   .Int("envelope_bytes", t.envelope_bytes)
                   .Int("chaincode_invoke_ns", t.chaincode_invoke_ns)
                   .Int("crypto_sign_ns", t.crypto_sign_ns)
                   .Int("crypto_verify_ns", t.crypto_verify_ns)
                   .Int("policy_evaluate_ns", t.policy_evaluate_ns)
                   .Int("proto_serialize_ns", t.proto_serialize_ns)
                   .Int("proto_block_make_ns", t.proto_block_make_ns)
                   .Int("blockcutter_ns", t.blockcutter_ns)
                   .Int("mvcc_validate_ns", t.mvcc_validate_ns)
                   .Int("state_commit_ns", t.state_commit_ns)
                   .Int("block_append_ns", t.block_append_ns)
                   .Done()
            << "\n";
  return 0;
}

void Usage(std::ostream& os) {
  os << "usage: perfbench_driver --workload <name> --seed <n> "
        "--mode run|trace|layers [--setups <k>]\n"
        "       perfbench_driver --info\n"
        "workloads:";
  for (const std::string& n : perfbench::WorkloadNames()) os << " " << n;
  os << "\n";
}

int UsageError(const std::string& why) {
  std::cerr << "error: " << why << "\n";
  Usage(std::cerr);
  return 2;
}

// Parses a whole unsigned decimal number; false on anything else.
bool ParseUint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string mode;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t setups = 5;
  bool info = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--info") {
      info = true;
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      Usage(std::cout);
      return 0;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--mode" &&
        flag != "--setups") {
      return UsageError("unknown argument: " + flag);
    }
    if (i + 1 >= argc) return UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--mode") {
      if (value != "run" && value != "trace" && value != "layers") {
        return UsageError("unknown mode: " + value);
      }
      mode = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, seed)) return UsageError("bad --seed: " + value);
      have_seed = true;
    } else if (!ParseUint(value, setups) || setups == 0 || setups > 1000) {
      return UsageError("bad --setups: " + value);
    }
  }

  if (info) {
    std::cout << JsonObject()
                     .Str("build_type", PERFBENCH_BUILD_TYPE)
                     .Str("compiler", PERFBENCH_COMPILER)
                     .Bool("optimized", kOptimized)
                     .Bool("sanitized", kSanitized)
                     .Done()
              << "\n";
    return 0;
  }
  if (!kOptimized || kSanitized) {
    std::cerr << "error: refusing to measure a "
              << (kSanitized ? "sanitizer" : "debug")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (workload_name.empty() || mode.empty() || !have_seed) {
    return UsageError("--workload, --seed and --mode are required");
  }
  const auto w = perfbench::FindWorkload(workload_name, seed);
  if (!w) return UsageError("unknown workload: " + workload_name);

  try {
    if (mode == "run") return RunMode(*w, static_cast<int>(setups));
    if (mode == "trace") return TraceMode(*w);
    return LayersMode(*w);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
