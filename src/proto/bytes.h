// Canonical byte-buffer utilities shared by all wire structures.
//
// fabricsim does not depend on protobuf; every wire structure provides a
// canonical serialization built from these primitives. Serialization serves
// two purposes: (1) realistic wire-size accounting for the simulated network
// and (2) stable byte strings for hashing and signing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fabricsim::proto {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Converts a string to a byte vector.
Bytes ToBytes(std::string_view s);

/// Converts bytes to a std::string (may contain NULs).
std::string ToString(BytesView b);

/// Lowercase hex encoding.
std::string ToHex(BytesView b);

/// Appends `src` to `dst`.
void Append(Bytes& dst, BytesView src);

/// Little-endian canonical encoder. All integers are fixed-width LE; byte
/// strings and strings are length-prefixed with u32.
class Writer {
 public:
  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Blob(BytesView b);
  void Str(std::string_view s);

  [[nodiscard]] const Bytes& Data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  [[nodiscard]] std::size_t Size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Lazy memoization slot for logically-immutable wire structures.
///
/// Wire structs are built once and then shared read-only (blocks and
/// envelopes are shared_ptr'd across peers), so derived values — canonical
/// bytes, digests — can be memoized. Copying or assigning a structure
/// RESETS the cache: a copy that is then mutated (e.g. a tampering test)
/// recomputes honestly.
///
/// Not thread-safe, by design: an experiment runs on one host thread, and
/// host-parallel sweep points never share wire objects.
template <typename T>
class CachedValue {
 public:
  CachedValue() = default;
  CachedValue(const CachedValue&) noexcept {}             // do not copy cache
  CachedValue& operator=(const CachedValue&) noexcept {   // reset on assign
    Invalidate();
    return *this;
  }
  CachedValue(CachedValue&&) noexcept {}
  CachedValue& operator=(CachedValue&&) noexcept {
    Invalidate();
    return *this;
  }

  /// Returns the cached value, computing it via `build` on first use.
  template <typename F>
  const T& Get(F&& build) const {
    if (!cached_) cached_ = build();
    return *cached_;
  }

  void Invalidate() const { cached_.reset(); }

 private:
  mutable std::optional<T> cached_;
};

using CachedBytes = CachedValue<Bytes>;

/// Matching decoder. Throws std::out_of_range on truncated input.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  Bytes Blob();
  std::string Str();

  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  void Need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace fabricsim::proto
