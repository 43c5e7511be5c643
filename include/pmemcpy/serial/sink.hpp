// Byte sinks/sources for serialization.
//
// The paper's key mechanism is *where* serialized bytes land:
//   * BufferSink/BufferSource — a DRAM staging buffer.  ADIOS-style
//     libraries serialize here first and then copy to storage; each write is
//     charged as a DRAM copy, and the later flush pays the storage cost
//     again.  ("serializes data structures into an in-memory buffer and then
//     copies to PMEM")
//   * SpanSink/SpanSource — a pre-charged span of persistent memory (e.g. a
//     reserved hashtable value blob).  Serializing into it IS the storage
//     write; there is no second copy.  ("pMEMCPY can serialize the data
//     directly into PMEM without first placing it in DRAM")
//   * MappingSink/MappingSource — the same direct idea over a DAX file
//     mapping (hierarchical layout), charged per store.
//
// Every sink/source also feeds the copy audit (DESIGN.md §12/§13), split by
// direction: sink bytes that flow through a DRAM buffer count toward
// copy.staged_bytes (and the first write of a BufferSink marks one
// copy.staged_put) while sink bytes landing in persistent memory count
// toward copy.direct_bytes; source bytes symmetrically feed
// copy.read_staged_bytes (BufferSource — a blob bounced through DRAM before
// decode) or copy.read_direct_bytes (SpanSource/MappingSource — decode
// consuming the mapped blob in place).  `bench/audit` gates these
// totals per library and per direction, so "zero-copy" is an enforced
// invariant of both pMEMCPY data paths, not a comment.
#pragma once

#include <pmemcpy/crc32c.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/sim/context.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace pmemcpy::serial {

struct SerialError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const void* data, std::size_t len) = 0;
  /// Bytes produced so far.
  [[nodiscard]] virtual std::size_t tell() const = 0;
};

class Source {
 public:
  virtual ~Source() = default;
  virtual void read(void* dst, std::size_t len) = 0;
  /// Bytes consumed so far.
  [[nodiscard]] virtual std::size_t tell() const = 0;
};

/// DRAM staging buffer; every write pays a DRAM copy.
class BufferSink final : public Sink {
 public:
  BufferSink() = default;
  explicit BufferSink(std::size_t reserve) { buf_.reserve(reserve); }

  void write(const void* data, std::size_t len) override {
    const std::size_t at = buf_.size();
    buf_.resize(at + len);
    // memcpy with a null pointer is undefined even at length 0.
    if (len != 0) std::memcpy(buf_.data() + at, data, len);
    sim::ctx().charge_cpu_copy(len);
    if (at == 0 && len > 0) trace::count(trace::Counter::kCopyStagedPuts);
    trace::count(trace::Counter::kCopyStagedBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return buf_.size(); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte>&& take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
};

/// Reads from a DRAM buffer; every read pays a DRAM copy.
class BufferSource final : public Source {
 public:
  explicit BufferSource(std::span<const std::byte> data) : data_(data) {}

  void read(void* dst, std::size_t len) override {
    if (pos_ + len > data_.size()) throw SerialError("source underrun");
    if (len != 0) std::memcpy(dst, data_.data() + pos_, len);
    pos_ += len;
    sim::ctx().charge_cpu_copy(len);
    trace::count(trace::Counter::kCopyReadStagedBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Writes into a pre-charged span (a reserved PMEM blob): the zero-copy path.
class SpanSink final : public Sink {
 public:
  explicit SpanSink(std::span<std::byte> out) : out_(out) {}

  void write(const void* data, std::size_t len) override {
    if (pos_ + len > out_.size()) throw SerialError("span sink overflow");
    std::memcpy(out_.data() + pos_, data, len);
    pos_ += len;
    trace::count(trace::Counter::kCopyDirectBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

/// Reads from a pre-charged span (a PMEM blob accessed zero-copy).
class SpanSource final : public Source {
 public:
  explicit SpanSource(std::span<const std::byte> in) : in_(in) {}

  void read(void* dst, std::size_t len) override {
    if (pos_ + len > in_.size()) throw SerialError("source underrun");
    std::memcpy(dst, in_.data() + pos_, len);
    pos_ += len;
    trace::count(trace::Counter::kCopyReadDirectBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// Reads from a DRAM read-cache blob (DESIGN.md §13).  Charged as a DRAM
/// copy like BufferSource, but tallied under the cache's own vocabulary
/// (read_cache_hit_bytes, counted at lookup) instead of the staged/direct
/// read audit: the bytes already took their single PMEM trip when the cache
/// filled, so they are neither a staging bounce nor fresh PMEM traffic.
class CacheSource final : public Source {
 public:
  explicit CacheSource(std::span<const std::byte> in) : in_(in) {}

  void read(void* dst, std::size_t len) override {
    if (pos_ + len > in_.size()) throw SerialError("source underrun");
    std::memcpy(dst, in_.data() + pos_, len);
    pos_ += len;
    sim::ctx().charge_cpu_copy(len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// Streams into a DAX file mapping; each write is charged as a PMEM store.
class MappingSink final : public Sink {
 public:
  MappingSink(fs::Mapping& m, std::uint64_t off) : m_(&m), off_(off) {}

  void write(const void* data, std::size_t len) override {
    m_->store(off_ + pos_, data, len);
    pos_ += len;
    trace::count(trace::Counter::kCopyDirectBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  fs::Mapping* m_;
  std::uint64_t off_;
  std::size_t pos_ = 0;
};

/// Streams out of a DAX file mapping; each read is charged as a PMEM load.
class MappingSource final : public Source {
 public:
  MappingSource(const fs::Mapping& m, std::uint64_t off) : m_(&m), off_(off) {}

  void read(void* dst, std::size_t len) override {
    m_->load(off_ + pos_, dst, len);
    pos_ += len;
    trace::count(trace::Counter::kCopyReadDirectBytes, len);
  }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  const fs::Mapping* m_;
  std::uint64_t off_;
  std::size_t pos_ = 0;
};

/// Forwards to another sink while checksumming every byte that flows
/// through.  The integrity layer stores the resulting CRC32C next to the
/// entry so reads can detect torn or rotted payloads.
class ChecksumSink final : public Sink {
 public:
  explicit ChecksumSink(Sink& inner) : inner_(&inner) {}

  void write(const void* data, std::size_t len) override {
    crc_ = crc32c(data, len, crc_);
    inner_->write(data, len);
  }
  [[nodiscard]] std::size_t tell() const override { return inner_->tell(); }

  /// CRC32C of everything written so far.
  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_; }

 private:
  Sink* inner_;
  std::uint32_t crc_ = 0;
};

/// Measures serialized size without moving (or charging) a single byte.
/// The reserve-then-serialize contract runs the serializer through one of
/// these first, reserves an exactly-sized PMEM span from the answer, then
/// serializes again straight into the span — two cheap passes instead of a
/// DRAM staging copy.
class SizingSink final : public Sink {
 public:
  void write(const void*, std::size_t len) override { pos_ += len; }
  [[nodiscard]] std::size_t tell() const override { return pos_; }

 private:
  std::size_t pos_ = 0;
};

}  // namespace pmemcpy::serial
