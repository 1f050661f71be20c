#include "ledger/state_db.h"

#include <algorithm>
#include <functional>

namespace fabricsim::ledger {
namespace {

std::size_t HashKey(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

void AssignBytes(std::string& dst, const proto::Bytes& src) {
  dst.assign(reinterpret_cast<const char*>(src.data()), src.size());
}

proto::Bytes BytesOf(const std::string& s) {
  return proto::Bytes(s.begin(), s.end());
}

}  // namespace

// --- Namespace: dense entries + linear-probing index -----------------------

std::size_t StateDb::Namespace::SlotOf(std::string_view key,
                                       std::size_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const std::uint32_t e = slots_[s];
    if (e == kEmpty) return s;
    if (entries_[e].hash == hash && entries_[e].key == key) return s;
  }
}

std::size_t StateDb::Namespace::SlotOfEntry(std::uint32_t e) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = entries_[e].hash & mask;
  while (slots_[s] != e) s = (s + 1) & mask;
  return s;
}

const StateDb::Entry* StateDb::Namespace::Find(std::string_view key) const {
  if (entries_.empty()) return nullptr;
  const std::uint32_t e = slots_[SlotOf(key, HashKey(key))];
  return e == kEmpty ? nullptr : &entries_[e];
}

void StateDb::Namespace::Grow() {
  // At most half full, so probe chains stay short.
  const std::size_t size = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(size, kEmpty);
  const std::size_t mask = size - 1;
  for (std::uint32_t e = 0; e < entries_.size(); ++e) {
    std::size_t s = entries_[e].hash & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = e;
  }
}

void StateDb::Namespace::Put(std::string_view key, const proto::Bytes& value,
                             proto::KeyVersion version) {
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const std::size_t hash = HashKey(key);
  const std::size_t s = SlotOf(key, hash);
  if (slots_[s] != kEmpty) {
    // Overwrite: the key set is unchanged and the range index stays warm.
    Entry& entry = entries_[slots_[s]];
    AssignBytes(entry.value, value);
    entry.version = version;
    return;
  }
  slots_[s] = static_cast<std::uint32_t>(entries_.size());
  Entry& entry = entries_.emplace_back();
  entry.key = key;
  AssignBytes(entry.value, value);
  entry.version = version;
  entry.hash = hash;
  sorted_valid_ = false;
}

void StateDb::Namespace::Delete(std::string_view key) {
  if (entries_.empty()) return;
  std::size_t hole = SlotOf(key, HashKey(key));
  const std::uint32_t victim = slots_[hole];
  if (victim == kEmpty) return;

  // Backward-shift deletion: pull each later chain member whose home lies
  // at or before the hole into it, so no tombstone is left behind.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = (hole + 1) & mask; slots_[s] != kEmpty;
       s = (s + 1) & mask) {
    const std::size_t home = entries_[slots_[s]].hash & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = kEmpty;

  // Swap-remove: the last entry takes the victim's number.
  const auto last = static_cast<std::uint32_t>(entries_.size() - 1);
  if (victim != last) {
    slots_[SlotOfEntry(last)] = victim;
    entries_[victim] = std::move(entries_[last]);
  }
  entries_.pop_back();
  sorted_valid_ = false;
}

const std::vector<std::uint32_t>& StateDb::Namespace::Sorted() const {
  if (!sorted_valid_) {
    sorted_.resize(entries_.size());
    for (std::uint32_t e = 0; e < entries_.size(); ++e) sorted_[e] = e;
    std::sort(sorted_.begin(), sorted_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return entries_[a].key < entries_[b].key;
              });
    sorted_valid_ = true;
  }
  return sorted_;
}

// --- StateDb ----------------------------------------------------------------

const StateDb::Namespace* StateDb::FindNamespace(std::string_view ns) const {
  for (const Namespace& space : namespaces_) {
    if (space.Name() == ns) return &space;
  }
  return nullptr;
}

StateDb::Namespace& StateDb::NamespaceFor(std::string_view ns) {
  for (Namespace& space : namespaces_) {
    if (space.Name() == ns) return space;
  }
  return namespaces_.emplace_back(std::string(ns));
}

std::optional<VersionedValue> StateDb::Get(std::string_view ns,
                                           std::string_view key) const {
  const Namespace* space = FindNamespace(ns);
  const Entry* entry = space == nullptr ? nullptr : space->Find(key);
  if (entry == nullptr) return std::nullopt;
  return VersionedValue{BytesOf(entry->value), entry->version};
}

std::optional<proto::KeyVersion> StateDb::GetVersion(
    std::string_view ns, std::string_view key) const {
  const Namespace* space = FindNamespace(ns);
  const Entry* entry = space == nullptr ? nullptr : space->Find(key);
  if (entry == nullptr) return std::nullopt;
  return entry->version;
}

std::size_t StateDb::KeyCount() const {
  std::size_t n = 0;
  for (const Namespace& space : namespaces_) n += space.Size();
  return n;
}

void StateDb::Put(const std::string& ns, const std::string& key,
                  proto::Bytes value, proto::KeyVersion version) {
  NamespaceFor(ns).Put(key, value, version);
}

void StateDb::Delete(std::string_view ns, std::string_view key) {
  for (Namespace& space : namespaces_) {
    if (space.Name() == ns) return space.Delete(key);
  }
}

std::vector<std::pair<std::string, VersionedValue>> StateDb::GetRange(
    std::string_view ns, std::string_view start_key,
    std::string_view end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  const Namespace* space = FindNamespace(ns);
  if (space == nullptr) return out;
  const std::vector<std::uint32_t>& sorted = space->Sorted();
  auto it = std::lower_bound(sorted.begin(), sorted.end(), start_key,
                             [space](std::uint32_t e, std::string_view k) {
                               return space->At(e).key < k;
                             });
  for (; it != sorted.end(); ++it) {
    const Entry& entry = space->At(*it);
    if (!end_key.empty() && entry.key >= end_key) break;
    out.emplace_back(entry.key,
                     VersionedValue{BytesOf(entry.value), entry.version});
  }
  return out;
}

void StateDb::ApplyRwSet(const proto::TxReadWriteSet& rwset,
                         proto::KeyVersion version) {
  for (const auto& ns : rwset.ns_rwsets) {
    Namespace& space = NamespaceFor(ns.ns);
    for (const auto& w : ns.writes) {
      if (w.is_delete) {
        space.Delete(w.key);
      } else {
        space.Put(w.key, w.value, version);
      }
    }
  }
}

}  // namespace fabricsim::ledger
