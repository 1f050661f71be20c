#include "metrics/registry.h"

#include <cctype>
#include <ostream>
#include <utility>

namespace fabricsim::metrics {

std::size_t Registry::AddSeries(const std::string& name, Series series) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    series_[it->second] = std::move(series);
    return it->second;
  }
  const std::size_t idx = series_.size();
  index_.emplace(name, idx);
  names_.push_back(name);
  series_.push_back(std::move(series));
  return idx;
}

Counter* Registry::AddCounter(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end() && series_[it->second].counter != nullptr) {
    // Counters are shared by name: a second registration hands back the
    // first storage (const_cast is safe — we own the deque).
    return const_cast<Counter*>(series_[it->second].counter);
  }
  counters_.emplace_back();
  Counter* c = &counters_.back();
  Series s;
  s.counter = c;
  AddSeries(name, std::move(s));
  return c;
}

void Registry::AddGauge(const std::string& name, std::function<double()> fn) {
  if (!fn) return;
  Series s;
  s.gauge = std::move(fn);
  AddSeries(name, std::move(s));
}

void Registry::AddHistogram(const std::string& name, const Histogram* hist) {
  if (hist == nullptr) return;
  AddGauge(name + ".count",
           [hist] { return static_cast<double>(hist->Count()); });
  AddGauge(name + ".mean_s", [hist] {
    return sim::ToSeconds(static_cast<sim::SimTime>(hist->Mean()));
  });
  AddGauge(name + ".p99_s",
           [hist] { return sim::ToSeconds(hist->Percentile(99)); });
}

void Registry::StartSampling(sim::Scheduler& sched, sim::SimDuration period) {
  if (running_) return;
  snapshots_.clear();
  sched_ = &sched;
  period_ = period > 0 ? period : 1;
  running_ = true;
  tick_event_ =
      sched_->ScheduleObserverAfter(period_, [this] { Tick(); }, "metrics/tick");
}

void Registry::StopSampling() {
  if (!running_) return;
  running_ = false;
  if (sched_ != nullptr) sched_->Cancel(tick_event_);
  tick_event_ = 0;
}

void Registry::Tick() {
  if (!running_) return;
  SampleNow(sched_->Now());
  tick_event_ =
      sched_->ScheduleObserverAfter(period_, [this] { Tick(); }, "metrics/tick");
}

void Registry::SampleNow(sim::SimTime now) {
  MetricsSnapshot snap;
  snap.t = now;
  snap.values.reserve(series_.size());
  for (const Series& s : series_) {
    if (s.counter != nullptr) {
      snap.values.push_back(static_cast<double>(s.counter->Value()));
    } else if (s.gauge) {
      snap.values.push_back(s.gauge());
    } else {
      snap.values.push_back(0.0);  // dropped instrument: hold zero
    }
  }
  snapshots_.push_back(std::move(snap));
}

void Registry::DropInstruments() {
  StopSampling();
  for (Series& s : series_) {
    s.counter = nullptr;
    s.gauge = nullptr;
  }
  counters_.clear();
}

void Registry::Reset() {
  StopSampling();
  names_.clear();
  series_.clear();
  index_.clear();
  counters_.clear();
  snapshots_.clear();
}

void Registry::WriteJson(std::ostream& os) const {
  os << "{\"period_ms\":" << sim::ToSeconds(period_) * 1e3 << ",\"series\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << names_[i] << '"';
  }
  os << "],\"samples\":[";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    const MetricsSnapshot& s = snapshots_[i];
    os << (i == 0 ? "" : ",") << "\n[" << sim::ToSeconds(s.t);
    for (const double v : s.values) os << ',' << v;
    os << ']';
  }
  os << "\n]}\n";
}

void Registry::WritePrometheus(std::ostream& os) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::string name = "fabricsim_" + names_[i];
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
          c != ':') {
        c = '_';
      }
    }
    os << "# TYPE " << name << " gauge\n";
    for (const MetricsSnapshot& s : snapshots_) {
      if (i >= s.values.size()) continue;  // series added after this sample
      os << name << ' ' << s.values[i] << ' '
         << static_cast<long long>(sim::ToSeconds(s.t) * 1e3) << '\n';
    }
  }
}

std::vector<LongSample> Registry::Samples() const {
  std::vector<std::pair<std::string, std::string>> split;
  split.reserve(names_.size());
  for (const std::string& name : names_) {
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos) {
      split.emplace_back("", name);
    } else {
      split.emplace_back(name.substr(0, dot), name.substr(dot + 1));
    }
  }
  std::vector<LongSample> rows;
  rows.reserve(snapshots_.size() * names_.size());
  for (const MetricsSnapshot& s : snapshots_) {
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      rows.push_back({s.t, split[i].first, split[i].second, s.values[i]});
    }
  }
  return rows;
}

void Registry::WriteCsv(std::ostream& os) const {
  os << "time_s,resource,metric,value\n";
  for (const LongSample& s : Samples()) {
    os << sim::ToSeconds(s.t) << ',' << s.resource << ',' << s.metric << ','
       << s.value << '\n';
  }
}

}  // namespace fabricsim::metrics
