#include "client/workload.h"

#include "chaincode/smallbank.h"

namespace fabricsim::client {

WorkloadController::WorkloadController(sim::Environment& env,
                                       std::vector<Client*> clients,
                                       WorkloadConfig config)
    : env_(env),
      clients_(std::move(clients)),
      config_(config),
      seq_(clients_.size(), 0),
      next_ideal_(clients_.size(), 0) {
  sim::Rng base = env.ForkRng();
  rngs_.reserve(clients_.size());
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    rngs_.push_back(base.Fork());
  }
}

void WorkloadController::Start() {
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    // Anchor each arrival loop to its client's machine lane.
    sim::Scheduler::LaneScope scope(env_.Sched(), clients_[ci]->Host().Lane());
    ScheduleNext(ci);
  }
}

void WorkloadController::ScheduleNext(std::size_t ci) {
  const double per_client_rate =
      config_.rate_tps / static_cast<double>(clients_.size());
  if (per_client_rate <= 0) return;
  const double mean_gap_s = 1.0 / per_client_rate;

  sim::SimDuration gap;
  if (config_.arrivals == ArrivalProcess::kPoisson) {
    gap = sim::FromSeconds(rngs_[ci].NextExponential(mean_gap_s));
  } else {
    gap = sim::FromSeconds(mean_gap_s);
  }

  // Open-loop arrival schedule, executed through the client's event loop.
  // Each client keeps its ideal (rate-faithful) arrival schedule, but a
  // timer can only fire once the previous callback (proposal build + sign)
  // has left the loop — exactly how Node.js timers behave when the event
  // loop saturates: the schedule slips to back-to-back execution instead
  // of building an unbounded callback queue.
  sim::SimTime& ideal = next_ideal_[ci];
  if (ideal < config_.start) ideal = config_.start;
  ideal += gap;
  if (ideal > config_.start + config_.duration) return;  // window over
  const sim::SimTime when = ideal > env_.Now() ? ideal : env_.Now();

  env_.Sched().ScheduleAt(
      when,
      [this, ci] {
        ++generated_;
        generated_log_.Record(env_.Now());
        clients_[ci]->Submit(NextInvocation(ci),
                             [this, ci] { ScheduleNext(ci); });
      },
      "workload/generate");
}

proto::ChaincodeInvocation WorkloadController::NextInvocation(std::size_t ci) {
  proto::ChaincodeInvocation inv;
  const std::uint64_t seq = seq_[ci]++;
  switch (config_.kind) {
    case WorkloadKind::kKvWrite: {
      inv.chaincode_id = "kvwrite";
      inv.function = "write";
      inv.args.push_back(proto::ToBytes(
          "c" + std::to_string(ci) + "k" + std::to_string(seq)));
      inv.args.push_back(proto::Bytes(config_.value_size, 'x'));
      return inv;
    }
    case WorkloadKind::kKvReadWrite: {
      inv.chaincode_id = "kvwrite";
      inv.function = "readwrite";
      const std::uint64_t k = rngs_[ci].NextBelow(config_.key_space);
      inv.args.push_back(proto::ToBytes("shared" + std::to_string(k)));
      inv.args.push_back(proto::Bytes(config_.value_size, 'x'));
      return inv;
    }
    case WorkloadKind::kTokenTransfer: {
      inv.chaincode_id = "token";
      inv.function = "transfer";
      const std::uint64_t a = rngs_[ci].NextBelow(config_.key_space);
      std::uint64_t b = rngs_[ci].NextBelow(config_.key_space);
      if (b == a) b = (b + 1) % config_.key_space;
      inv.args.push_back(proto::ToBytes("acct" + std::to_string(a)));
      inv.args.push_back(proto::ToBytes("acct" + std::to_string(b)));
      inv.args.push_back(proto::ToBytes("1"));
      return inv;
    }
    case WorkloadKind::kSmallBank: {
      inv.chaincode_id = "smallbank";
      const std::uint64_t op = rngs_[ci].NextBelow(5);
      const std::string cust =
          "acct" + std::to_string(rngs_[ci].NextBelow(config_.key_space));
      switch (op) {
        case 0:
          inv.function = "transact_savings";
          inv.args = {proto::ToBytes(cust), proto::ToBytes("10")};
          break;
        case 1:
          inv.function = "deposit_checking";
          inv.args = {proto::ToBytes(cust), proto::ToBytes("5")};
          break;
        case 2: {
          inv.function = "send_payment";
          std::uint64_t b = rngs_[ci].NextBelow(config_.key_space);
          const std::string other = "acct" + std::to_string(b);
          inv.args = {proto::ToBytes(cust), proto::ToBytes(other),
                      proto::ToBytes("1")};
          break;
        }
        case 3:
          inv.function = "write_check";
          inv.args = {proto::ToBytes(cust), proto::ToBytes("3")};
          break;
        default:
          inv.function = "query";
          inv.args = {proto::ToBytes(cust)};
          break;
      }
      return inv;
    }
  }
  return inv;
}

std::vector<std::string> WorkloadAccounts(std::size_t key_space) {
  std::vector<std::string> out;
  out.reserve(key_space);
  for (std::size_t i = 0; i < key_space; ++i) {
    out.push_back("acct" + std::to_string(i));
  }
  return out;
}

}  // namespace fabricsim::client
