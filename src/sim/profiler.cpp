#include "sim/profiler.h"

#include <algorithm>
#include <ostream>

namespace fabricsim::sim {

namespace {

const char* TagName(const char* tag) {
  return tag != nullptr ? tag : "untagged";
}

}  // namespace

void DesProfiler::OnEvent(const char* tag, SimTime sim_now, std::uint64_t t0_ns,
                          std::uint64_t t1_ns) {
  if (!started_) {
    started_ = true;
    first_ns_ = t0_ns;
  }
  last_ns_ = t1_ns;
  const std::uint64_t dur = t1_ns >= t0_ns ? t1_ns - t0_ns : 0;
  Counts& c = by_tag_[tag];
  ++c.count;
  c.total_ns += dur;
  total_ns_ += dur;
  ++events_;
  if (events_ % kTimelineEvery == 0) {
    timeline_.push_back({last_ns_ - first_ns_, events_, sim_now});
  }
  if (events_ % kSpanSampleEvery == 0 && spans_.size() < kMaxSpans) {
    spans_.push_back({tag, t0_ns - first_ns_, dur});
  }
}

ProfileReport DesProfiler::Report() const {
  ProfileReport out;
  out.total_events = events_;
  out.total_ns = total_ns_;
  out.timeline = timeline_;
  const std::uint64_t span = last_ns_ - first_ns_;
  out.events_per_sec =
      span > 0 ? static_cast<double>(events_) * 1e9 / static_cast<double>(span)
               : 0.0;

  // Merge by name: distinct literals with equal text (e.g. the same tag in
  // two translation units) collapse into one row.
  std::unordered_map<std::string, Counts> by_name;
  for (const auto& [tag, counts] : by_tag_) {
    Counts& c = by_name[TagName(tag)];
    c.count += counts.count;
    c.total_ns += counts.total_ns;
  }
  out.entries.reserve(by_name.size());
  for (auto& [name, counts] : by_name) {
    out.entries.push_back({name, counts.count, counts.total_ns});
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

void DesProfiler::Reset() {
  by_tag_.clear();
  timeline_.clear();
  spans_.clear();
  events_ = 0;
  total_ns_ = 0;
  first_ns_ = 0;
  last_ns_ = 0;
  started_ = false;
}

void DesProfiler::WriteChromeTrace(std::ostream& os) const {
  os << "[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) os << ",";
    first = false;
    // Chrome trace wants microseconds; keep three decimals of sub-us detail.
    os << "\n{\"name\":\"" << TagName(s.tag)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3 << "}";
  }
  os << "\n]\n";
}

}  // namespace fabricsim::sim
