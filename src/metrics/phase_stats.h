// Per-transaction phase tracking: the instrument behind every figure.
//
// Mirrors the paper's methodology: each transaction is timestamped when the
// client submits the proposal (execute begins), when enough endorsements are
// collected (execute ends / order begins), when the ordering service places
// it in a cut block (order ends / validate begins), and when a committing
// peer commits the block (validate ends). Per-phase throughput is the
// completion rate of that phase inside the measurement window; per-phase
// latency is the mean time spent in the phase.
//
// Two accounting modes share one fold (FoldRecord), so they produce
// identical reports by construction:
//
//  - Full-record mode (default): every TxRecord is kept until BuildReport
//    walks them all post hoc. Memory is O(total transactions); required for
//    span attribution and the fault invariants, which need Records().
//
//  - Streaming mode (EnableStreaming, window known up front): a record is
//    folded into windowed histograms and retired the moment its outcome can
//    no longer change — on commit, or on rejection before broadcast. Memory
//    is O(inflight transactions), which is what makes million-transaction
//    soak runs feasible (see bench/soak.cpp). Records() is empty of retired
//    transactions, so streaming is incompatible with attribution/invariants
//    (the experiment runner falls back to full-record mode for those).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "metrics/histogram.h"
#include "proto/transaction.h"
#include "sim/time.h"

namespace fabricsim::metrics {

/// Why a transaction ended rejected. Shed = an overload-protection layer
/// (client queue, endorser ingress, OSN ingress) refused it with a clean
/// terminal status; failed = every other rejection (timeouts, nacks,
/// policy). Goodput/rejection-rate reporting keys off this split.
enum class RejectKind : std::uint8_t {
  kNone = 0,
  kFailed,
  kShed,
};

/// Lifecycle timestamps of one transaction (-1 = phase not reached).
struct TxRecord {
  sim::SimTime submitted = -1;
  sim::SimTime endorsed = -1;
  sim::SimTime ordered = -1;
  sim::SimTime committed = -1;
  proto::ValidationCode code = proto::ValidationCode::kValid;
  bool rejected = false;  // client gave up (e.g. 3 s ordering timeout)
  RejectKind reject_kind = RejectKind::kNone;
};

/// Aggregate numbers for one phase (or end-to-end) in the window.
struct PhaseSummary {
  std::uint64_t completed = 0;
  double throughput_tps = 0.0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
};

/// Full report over a measurement window.
struct Report {
  double window_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;     // subset of rejected: overload-protection sheds
  std::uint64_t invalid = 0;  // committed but flagged invalid
  /// Valid commits per second — end_to_end throughput restated as the
  /// first-class goodput figure the overload bench plots.
  double goodput_tps = 0.0;
  /// Rejected / submitted within the window (0 when nothing submitted).
  double rejection_rate = 0.0;
  PhaseSummary execute;
  PhaseSummary order;
  PhaseSummary validate;
  PhaseSummary order_and_validate;  // the paper reports these merged
  PhaseSummary end_to_end;
  double mean_block_time_s = 0.0;
  double mean_block_size = 0.0;
  std::uint64_t blocks = 0;
};

/// Central collector; all roles report into it.
class TxTracker {
 public:
  void MarkSubmitted(const std::string& tx_id, sim::SimTime t);
  void MarkEndorsed(const std::string& tx_id, sim::SimTime t);
  void MarkOrdered(const std::string& tx_id, sim::SimTime t);
  void MarkCommitted(const std::string& tx_id, sim::SimTime t,
                     proto::ValidationCode code);
  void MarkRejected(const std::string& tx_id, sim::SimTime t,
                    RejectKind kind = RejectKind::kFailed);

  /// Orderer-side block accounting.
  void RecordBlockCut(sim::SimTime t, std::size_t tx_count);

  /// Switches to streaming (bounded-memory) accounting over the given
  /// measurement window. Must be called before any Mark* call; the window
  /// must match the one later passed to BuildReport. Irreversible for the
  /// tracker's lifetime.
  void EnableStreaming(sim::SimTime window_start, sim::SimTime window_end);
  [[nodiscard]] bool Streaming() const { return stream_.has_value(); }

  [[nodiscard]] const TxRecord* Find(const std::string& tx_id) const;
  /// Live (unretired) records. In full-record mode this is every transaction
  /// ever submitted; in streaming mode, only the in-flight ones.
  [[nodiscard]] std::size_t TxCount() const { return records_.size(); }

  /// Peak concurrent record count (both modes) — the deterministic
  /// bounded-memory witness: flat in streaming mode, == total transactions
  /// in full-record mode.
  [[nodiscard]] std::uint64_t RecordsHighWatermark() const {
    return records_hwm_;
  }
  /// Records folded and dropped so far (streaming mode; 0 otherwise).
  [[nodiscard]] std::uint64_t RetiredCount() const { return retired_; }
  /// Streaming-mode marks that arrived after their record was retired. Must
  /// stay zero for streaming and full mode to agree; the A/B test asserts
  /// it (reachable only via reject-after-commit races, which the experiment
  /// runner rules out by disabling streaming under recovery).
  [[nodiscard]] std::uint64_t LateMarks() const { return late_marks_; }

  /// All per-transaction records (for attribution and post-hoc analysis).
  [[nodiscard]] const std::unordered_map<std::string, TxRecord>& Records()
      const {
    return records_;
  }

  /// Builds the report over [window_start, window_end]; a transaction counts
  /// toward a phase iff the phase *completed* inside the window (the paper's
  /// committed-rate definition of throughput). In streaming mode the window
  /// must equal the one given to EnableStreaming.
  [[nodiscard]] Report BuildReport(sim::SimTime window_start,
                                   sim::SimTime window_end) const;

 private:
  // Windowed accumulator for one phase: completion count + latency sketch.
  struct PhaseAcc {
    Histogram hist;
    std::uint64_t completed = 0;

    void Add(sim::SimTime begin, sim::SimTime end, sim::SimTime w0,
             sim::SimTime w1) {
      if (begin < 0 || end < 0) return;  // phase never completed
      if (end < w0 || end > w1) return;  // completed outside the window
      ++completed;
      hist.Record(end - begin);
    }

    [[nodiscard]] PhaseSummary Summarize(double window_s) const;
  };

  // Everything BuildReport accumulates while folding records and block cuts.
  // Full mode builds one from scratch per report; streaming mode maintains
  // one incrementally and folds only the survivors at report time.
  struct FoldState {
    sim::SimTime w0 = 0;
    sim::SimTime w1 = 0;
    PhaseAcc execute;
    PhaseAcc order;
    PhaseAcc validate;
    PhaseAcc order_validate;
    PhaseAcc e2e;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t invalid = 0;
    // Block stats, streamed (cut times arrive monotonically).
    std::uint64_t blocks = 0;
    std::uint64_t txs_in_blocks = 0;
    std::uint64_t gaps = 0;
    double gap_sum = 0.0;
    sim::SimTime prev_cut = 0;
    bool have_prev_cut = false;
  };

  // The one shared fold: both modes route every record through this, which
  // is what guarantees identical reports.
  static void FoldRecord(const TxRecord& rec, FoldState& s);
  static void FoldBlockCut(sim::SimTime t, std::size_t tx_count, FoldState& s);
  static Report Finalize(const FoldState& s);

  // Streaming only: folds and erases a record whose outcome is final.
  void Retire(std::unordered_map<std::string, TxRecord>::iterator it);
  void NoteRecordCount() {
    if (records_.size() > records_hwm_) records_hwm_ = records_.size();
  }

  std::unordered_map<std::string, TxRecord> records_;
  std::vector<std::pair<sim::SimTime, std::size_t>> block_cuts_;
  std::optional<FoldState> stream_;
  std::uint64_t records_hwm_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t late_marks_ = 0;
};

}  // namespace fabricsim::metrics
