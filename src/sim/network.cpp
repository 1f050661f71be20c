#include "sim/network.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace fabricsim::sim {

namespace {

// SplitMix64 finalizer over (base, from, to): a well-mixed per-directed-pair
// seed that never collides streams of distinct links in practice.
std::uint64_t MixLinkSeed(std::uint64_t base, NodeId from, NodeId to) {
  std::uint64_t x =
      base ^
      ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
       static_cast<std::uint32_t>(to));
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Network::Network(Scheduler& sched, Rng rng, NetworkConfig config)
    : sched_(sched), rng_(rng), link_seed_base_(rng_.Next()), config_(config) {}

NodeId Network::Register(std::string name, Handler handler) {
  Endpoint ep;
  ep.name = std::move(name);
  ep.handler = std::move(handler);
  ep.lane = sched_.CurrentLane();
  nodes_.push_back(std::move(ep));
  return static_cast<NodeId>(nodes_.size() - 1);
}

Rng& Network::LinkRng(Endpoint& src, NodeId from, NodeId to) {
  const auto index = static_cast<std::size_t>(to);
  if (index >= src.link_rng.size()) src.link_rng.resize(index + 1);
  std::optional<Rng>& slot = src.link_rng[index];
  if (!slot.has_value()) slot.emplace(MixLinkSeed(link_seed_base_, from, to));
  return *slot;
}

void Network::SetHandler(NodeId id, Handler handler) {
  nodes_.at(static_cast<std::size_t>(id)).handler = std::move(handler);
}

std::uint64_t Network::PairKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

void Network::Send(NodeId from, NodeId to, MessagePtr msg) {
  auto& src = nodes_.at(static_cast<std::size_t>(from));
  auto& dst = nodes_.at(static_cast<std::size_t>(to));
  ++messages_sent_;
  const std::size_t wire_bytes =
      msg->WireSize() + config_.per_message_overhead_bytes;
  bytes_sent_ += wire_bytes;

  if (src.crashed || dst.crashed || IsPartitioned(from, to) ||
      (from != to &&
       LinkRng(src, from, to).NextBool(config_.loss_probability))) {
    ++messages_dropped_;
    return;
  }

  SimTime deliver_at;
  if (from == to) {
    deliver_at = sched_.Now() + FromMicros(2);  // loopback
  } else {
    // Sender NIC serialization: messages from one sender queue behind each
    // other; the NIC becomes free once the last byte is on the wire.
    const auto serialize = static_cast<SimDuration>(
        static_cast<double>(wire_bytes) * 8.0 * 1e9 / config_.bandwidth_bps);
    const SimTime start =
        src.nic_free_at > sched_.Now() ? src.nic_free_at : sched_.Now();
    src.nic_free_at = start + serialize;
    double jitter = 1.0 + config_.jitter_fraction *
                              (2.0 * LinkRng(src, from, to).NextDouble() - 1.0);
    if (jitter < 0.0) jitter = 0.0;
    const auto latency = static_cast<SimDuration>(
        static_cast<double>(config_.base_latency) * jitter);
    deliver_at = src.nic_free_at + latency;
    // TCP semantics: a directed connection never reorders.
    const auto dst_index = static_cast<std::size_t>(to);
    if (dst_index >= src.last_to.size()) src.last_to.resize(dst_index + 1, 0);
    SimTime& last = src.last_to[dst_index];
    if (deliver_at <= last) deliver_at = last + 1;
    last = deliver_at;
  }

  bytes_in_flight_ += wire_bytes;
  // Delivery executes in the receiver's lane, ordered by the sender's key.
  sched_.ScheduleAtLane(
      dst.lane, deliver_at,
      [this, from, to, wire_bytes, msg = std::move(msg)]() {
        bytes_in_flight_ -= wire_bytes;
        auto& receiver = nodes_.at(static_cast<std::size_t>(to));
        if (receiver.crashed) {
          ++messages_dropped_;
          return;
        }
        ++messages_delivered_;
        if (receiver.handler) receiver.handler(from, msg);
      },
      "net/deliver");
}

void Network::Partition(NodeId a, NodeId b) { partitions_.insert(PairKey(a, b)); }

void Network::Heal(NodeId a, NodeId b) { partitions_.erase(PairKey(a, b)); }

void Network::HealAll() { partitions_.clear(); }

bool Network::IsPartitioned(NodeId a, NodeId b) const {
  return partitions_.count(PairKey(a, b)) != 0;
}

void Network::Crash(NodeId id) {
  nodes_.at(static_cast<std::size_t>(id)).crashed = true;
}

void Network::Revive(NodeId id) {
  nodes_.at(static_cast<std::size_t>(id)).crashed = false;
}

bool Network::IsCrashed(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).crashed;
}

void Network::SetLossProbability(double p) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  config_.loss_probability = p;
}

const std::string& Network::NameOf(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).name;
}

}  // namespace fabricsim::sim
