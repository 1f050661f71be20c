#include "sim/scheduler.h"

#include <chrono>
#include <utility>

#include "sim/profiler.h"

namespace fabricsim::sim {

namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchSlot(const void* p) { __builtin_prefetch(p, 0, 1); }
#else
inline void PrefetchSlot(const void*) {}
#endif

}  // namespace

Scheduler::Scheduler() : lane_seq_(1, 0) {}

int Scheduler::AddLane() {
  lane_seq_.push_back(0);
  return LaneCount() - 1;
}

Scheduler::LaneScope::LaneScope(Scheduler& sched, int lane)
    : sched_(sched), prev_lane_(sched.lane_) {
  sched.lane_ = (lane >= 0 && lane < sched.LaneCount()) ? lane : kGlobalLane;
}

Scheduler::LaneScope::~LaneScope() { sched_.lane_ = prev_lane_; }

EventId Scheduler::ScheduleImpl(int sort_lane, int exec_lane, SimTime when,
                                Callback cb, const char* tag, bool observer) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Event& ev = slab_[slot];
  ev.cb = std::move(cb);
  ev.tag = tag;
  ev.exec_lane = exec_lane;
  ev.armed = true;
  ev.observer = observer;
  ++live_;
  HeapEntry e;
  e.when = when < now_ ? now_ : when;
  e.seq = lane_seq_[static_cast<std::size_t>(sort_lane)]++;
  e.sort_lane = sort_lane;
  e.slot = slot;
  e.gen = ev.gen;
  queue_.push(e);
  return MakeId(slot, e.gen);
}

EventId Scheduler::ScheduleAtLane(int exec_lane, SimTime when, Callback cb,
                                  const char* tag) {
  if (exec_lane < 0 || exec_lane >= LaneCount()) exec_lane = kGlobalLane;
  return ScheduleImpl(lane_, exec_lane, when, std::move(cb), tag,
                      /*observer=*/false);
}

void Scheduler::Release(Event& ev, std::uint32_t slot) {
  ev.cb = nullptr;  // release captured state eagerly
  ev.tag = nullptr;
  ev.armed = false;
  ev.observer = false;
  if (++ev.gen == 0) ev.gen = 1;
  free_.push_back(slot);
  --live_;
}

bool Scheduler::Cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slab_.size()) return false;
  Event& ev = slab_[slot];
  if (!ev.armed || ev.gen != gen) return false;
  Release(ev, slot);
  // The heap entry stays behind as a stale (slot, gen) pair and is skipped
  // when it surfaces; the generation bump makes it unambiguous.
  return true;
}

bool Scheduler::SkipStale() {
  while (!queue_.empty()) {
    const HeapEntry& top = queue_.top();
    const Event& ev = slab_[top.slot];
    if (ev.armed && ev.gen == top.gen) return true;
    queue_.pop();  // was cancelled
  }
  return false;
}

void Scheduler::FireTop() {
  const HeapEntry top = queue_.top();
  queue_.pop();
  Event& ev = slab_[top.slot];
  Callback cb = std::move(ev.cb);
  const char* tag = ev.tag;
  const bool observer = ev.observer;
  lane_ = ev.exec_lane;
  Release(ev, top.slot);
  if (!queue_.empty()) PrefetchSlot(&slab_[queue_.top().slot]);
  now_ = top.when;
  if (!observer) ++executed_;
  if (profiler_ != nullptr) {
    const std::uint64_t t0 = SteadyNowNs();
    cb();
    profiler_->OnEvent(tag, now_, t0, SteadyNowNs());
  } else {
    cb();
  }
}

std::uint64_t Scheduler::Run(std::uint64_t limit) {
  const int prev_lane = lane_;
  std::uint64_t n = 0;
  while (n < limit && SkipStale()) {
    FireTop();
    ++n;
  }
  lane_ = prev_lane;
  return n;
}

std::uint64_t Scheduler::RunUntil(SimTime until) {
  const int prev_lane = lane_;
  std::uint64_t n = 0;
  while (SkipStale() && queue_.top().when <= until) {
    FireTop();
    ++n;
  }
  if (now_ < until) now_ = until;
  lane_ = prev_lane;
  return n;
}

bool Scheduler::Step() { return Run(1) == 1; }

}  // namespace fabricsim::sim
