#include "ledger/mvcc.h"

#include <map>
#include <optional>
#include <string_view>

namespace fabricsim::ledger {
namespace {

/// Pending view: committed state overlaid with writes from earlier valid
/// transactions of the block being validated. Overlay keys view the block's
/// own rwset strings, which outlive the view.
class PendingView {
 public:
  explicit PendingView(const StateDb& state) : state_(state) {}

  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const {
    if (auto space = overlay_.find(ns); space != overlay_.end()) {
      auto it = space->second.find(key);
      if (it != space->second.end()) return it->second;  // see ApplyWrites
    }
    return state_.GetVersion(ns, key);
  }

  /// Re-executes a range query against committed state + the in-block
  /// overlay: the (key, version) sequence a transaction validating now
  /// would observe. Used for phantom detection.
  [[nodiscard]] std::vector<std::pair<std::string, proto::KeyVersion>>
  RangeVersions(std::string_view ns, std::string_view start_key,
                std::string_view end_key) const {
    std::map<std::string, std::optional<proto::KeyVersion>> merged;
    for (const auto& [key, value] : state_.GetRange(ns, start_key, end_key)) {
      merged[key] = value.version;
    }
    // Overlay entries within the namespace and range win.
    if (auto space = overlay_.find(ns); space != overlay_.end()) {
      for (const auto& [key, version] : space->second) {
        if (key < start_key) continue;
        if (!end_key.empty() && key >= end_key) continue;
        merged[std::string(key)] = version;  // nullopt = deleted in this block
      }
    }
    std::vector<std::pair<std::string, proto::KeyVersion>> out;
    out.reserve(merged.size());
    for (auto& [key, version] : merged) {
      if (version) out.emplace_back(key, *version);
    }
    return out;
  }

  void ApplyWrites(const proto::TxReadWriteSet& rwset,
                   proto::KeyVersion version) {
    for (const auto& ns : rwset.ns_rwsets) {
      auto& space = overlay_[ns.ns];
      for (const auto& w : ns.writes) {
        space[w.key] =
            w.is_delete ? std::optional<proto::KeyVersion>{} : version;
      }
    }
  }

 private:
  const StateDb& state_;
  // ns -> key -> version; nullopt == key deleted in this block.
  std::unordered_map<
      std::string_view,
      std::unordered_map<std::string_view, std::optional<proto::KeyVersion>>>
      overlay_;
};

}  // namespace

MvccResult MvccValidator::Validate(
    const proto::Block& block, const StateDb& state,
    const std::vector<proto::ValidationCode>* precomputed) {
  MvccResult out;
  out.codes.resize(block.transactions.size(), proto::ValidationCode::kValid);
  PendingView view(state);

  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (precomputed != nullptr && i < precomputed->size() &&
        (*precomputed)[i] != proto::ValidationCode::kValid) {
      out.codes[i] = (*precomputed)[i];
      continue;
    }
    const auto& tx = block.transactions[i];
    bool conflict = false;
    for (const auto& ns : tx.rwset.ns_rwsets) {
      for (const auto& r : ns.reads) {
        const auto current = view.GetVersion(ns.ns, r.key);
        if (current != r.version) {
          conflict = true;
          break;
        }
      }
      // Phantom detection: the range query must observe the same (key,
      // version) sequence now as it did at simulation time.
      for (const auto& rr : ns.range_reads) {
        if (conflict) break;
        const auto now_results =
            view.RangeVersions(ns.ns, rr.start_key, rr.end_key);
        if (proto::RangeRead::HashResults(now_results) != rr.result_digest) {
          conflict = true;
        }
      }
      if (conflict) break;
    }
    if (conflict) {
      out.codes[i] = proto::ValidationCode::kMvccReadConflict;
      ++out.conflict_count;
      continue;
    }
    ++out.valid_count;
    view.ApplyWrites(
        tx.rwset, proto::KeyVersion{block.header.number,
                                    static_cast<std::uint32_t>(i)});
  }
  return out;
}

void MvccValidator::Commit(const proto::Block& block,
                           const std::vector<proto::ValidationCode>& codes,
                           StateDb& state) {
  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (i < codes.size() && codes[i] != proto::ValidationCode::kValid) {
      continue;
    }
    state.ApplyRwSet(block.transactions[i].rwset,
                     proto::KeyVersion{block.header.number,
                                       static_cast<std::uint32_t>(i)});
  }
  state.SetHeight(block.header.number + 1);
}

void MvccValidator::CommitBulk(const proto::Block& block,
                               const std::vector<proto::ValidationCode>& codes,
                               StateDb& state) {
  Commit(block, codes, state);
}

}  // namespace fabricsim::ledger
