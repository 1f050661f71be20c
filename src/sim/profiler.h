// Host-side DES profiler: where does wall-clock time go inside the event
// loop?
//
// The scheduler dispatches every simulation callback; when a profiler is
// attached (off by default, `--profile` in the benches/CLI) each dispatch is
// bracketed with steady_clock reads and attributed to the event's tag — the
// string literal passed at ScheduleAt/ScheduleAfter time. The result is a
// per-handler table (count, total host ns) plus an events/s timeline sampled
// every 2^16 events: the measurement that says which handlers are worth
// optimizing and which account for 2% of host time.
//
// Attribution is by tag identity (pointer), merged by name at report time,
// so tagging costs one stored pointer per event and nothing at dispatch.
// Untagged events land in "untagged". The profiler never touches simulated
// state: attaching it cannot change ExecutedEvents(), event order, or any
// simulated metric — only host wall clock (by a few percent; see
// EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace fabricsim::sim {

/// One row of the top-N handler table.
struct ProfileEntry {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // host nanoseconds inside the handler
};

/// One point of the events/s timeline (taken every 2^16 dispatches).
struct ProfileSample {
  std::uint64_t host_ns = 0;  // since the first profiled dispatch
  std::uint64_t events = 0;   // dispatches so far
  SimTime sim_now = 0;        // simulated clock at the sample
};

/// Everything the profiler measured, as a value (safe to keep after the
/// profiler and the scheduler are gone).
struct ProfileReport {
  std::vector<ProfileEntry> entries;  // sorted by total_ns descending
  std::vector<ProfileSample> timeline;
  std::uint64_t total_events = 0;
  std::uint64_t total_ns = 0;  // sum of handler time (excludes pop/heap cost)
  double events_per_sec = 0.0;  // total_events over first-to-last wall span
};

/// Collects per-tag dispatch counts and host-nanosecond totals. Attach with
/// Scheduler::SetProfiler; detach (nullptr) before the profiler dies.
class DesProfiler {
 public:
  DesProfiler() = default;
  DesProfiler(const DesProfiler&) = delete;
  DesProfiler& operator=(const DesProfiler&) = delete;

  /// Called by the scheduler after each dispatch. `t0_ns`/`t1_ns` are
  /// steady_clock readings bracketing the callback; the scheduler reads the
  /// clock so the profiler never pays for it twice.
  void OnEvent(const char* tag, SimTime sim_now, std::uint64_t t0_ns,
               std::uint64_t t1_ns);

  [[nodiscard]] ProfileReport Report() const;

  void Reset();

  /// Chrome trace-event JSON ("X" complete events, host microseconds) of the
  /// sampled spans — load in chrome://tracing or Perfetto. Spans are sampled
  /// (1 in kSpanSampleEvery dispatches, capped) so the file stays small even
  /// for hundred-million-event runs.
  void WriteChromeTrace(std::ostream& os) const;

  static constexpr std::uint64_t kTimelineEvery = 1u << 16;
  static constexpr std::uint64_t kSpanSampleEvery = 256;
  static constexpr std::size_t kMaxSpans = 100000;

 private:
  struct Counts {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  struct Span {
    const char* tag;
    std::uint64_t start_ns;  // since first profiled dispatch
    std::uint64_t dur_ns;
  };

  // Keyed by tag pointer: tags are string literals, so identity is cheap and
  // stable; distinct literals with equal text merge at Report time.
  std::unordered_map<const char*, Counts> by_tag_;
  std::vector<ProfileSample> timeline_;
  std::vector<Span> spans_;
  std::uint64_t events_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t first_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  bool started_ = false;
};

}  // namespace fabricsim::sim
