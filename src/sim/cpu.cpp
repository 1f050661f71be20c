#include "sim/cpu.h"

#include <utility>

namespace fabricsim::sim {

Cpu::Cpu(Scheduler& sched, int cores, double speed_factor)
    : sched_(sched),
      cores_(cores < 1 ? 1 : cores),
      inv_speed_(speed_factor > 0 ? 1.0 / speed_factor : 1.0) {}

void Cpu::SetSpeedFactor(double speed_factor) {
  inv_speed_ = speed_factor > 0 ? 1.0 / speed_factor : 1.0;
}

SimDuration Cpu::ScaledCost(SimDuration cost) const {
  if (cost < 0) cost = 0;
  return static_cast<SimDuration>(static_cast<double>(cost) * inv_speed_);
}

void Cpu::Submit(SimDuration cost, Completion done, bool high_priority) {
  Job job{cost < 0 ? 0 : cost, std::move(done)};
  if (busy_cores_ < cores_) {
    StartJob(std::move(job));
  } else if (high_priority) {
    high_queue_.push_back(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void Cpu::AccrueBusyTime() {
  const SimTime now = sched_.Now();
  cum_busy_ += static_cast<SimDuration>(now - last_change_) * busy_cores_;
  last_change_ = now;
}

void Cpu::StartJob(Job job) {
  AccrueBusyTime();
  ++busy_cores_;
  sched_.ScheduleAfter(
      ScaledCost(job.cost),
      [this, done = std::move(job.done)]() mutable {
        OnJobDone(std::move(done));
      },
      "cpu/job_done");
}

void Cpu::OnJobDone(Completion done) {
  AccrueBusyTime();
  --busy_cores_;
  ++completed_;
  // Start the next queued job before running the completion so that a
  // completion which submits new work queues behind already-waiting jobs.
  if (!high_queue_.empty()) {
    Job next = std::move(high_queue_.front());
    high_queue_.pop_front();
    StartJob(std::move(next));
  } else if (!queue_.empty()) {
    Job next = std::move(queue_.front());
    queue_.pop_front();
    StartJob(std::move(next));
  }
  if (done) done();
}

SimDuration Cpu::BusyTime() const {
  return cum_busy_ +
         static_cast<SimDuration>(sched_.Now() - last_change_) * busy_cores_;
}

double Cpu::Utilization() const {
  const SimTime now = sched_.Now();
  if (now <= 0) return 0.0;
  const double capacity = static_cast<double>(now) * cores_;
  const double used = static_cast<double>(BusyTime());
  return used > capacity ? 1.0 : used / capacity;
}

}  // namespace fabricsim::sim
