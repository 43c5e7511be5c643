// The device's one cache-line model, read by both the crash revert and the
// persist checker (DESIGN.md §6, §7).
//
// Per line it holds the sequence number of the newest store, the durable
// image (what a crash leaves) with the sequence that image holds, and per
// thread the newest store that thread made and its last flush: the sequence
// and line image the flush captured, and whether the thread has fenced it.
// A thread's fence makes only its own flush images durable, because on x86
// an SFENCE orders only the issuing core's CLWBs (Raad et al., POPL 2020).
//
// The device runs the model only when crash_shadow or the checker is on,
// and calls every member under its lock.  A line drops out once it is
// durable and no thread still owes it a flush or a fence.
#pragma once

#include <pmemcpy/pmem/device.hpp>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pmemcpy::pmem {

class LineModel {
 public:
  using Image = std::array<std::byte, kCacheLine>;

  /// One thread's stores to and flushes of one line.
  struct Own {
    std::thread::id tid;
    std::uint64_t stored = 0;   ///< sequence of this thread's newest store
    std::uint64_t flushed = 0;  ///< newest store its last flush covered
    bool pending = false;       ///< that flush is not fenced yet
    Image image{};              ///< the line as that flush saw it
  };

  struct Line {
    std::uint64_t seq = 0;          ///< newest store
    std::uint64_t durable_seq = 0;  ///< newest store the durable image holds
    Image durable{};
    std::vector<Own> threads;

    [[nodiscard]] const Own* find(std::thread::id tid) const {
      for (const Own& o : threads) {
        if (o.tid == tid) return &o;
      }
      return nullptr;
    }
    /// Some store is newer than every flush of the line.
    [[nodiscard]] bool unflushed() const {
      std::uint64_t covered = 0;
      for (const Own& o : threads) covered = std::max(covered, o.flushed);
      return seq > covered;
    }
  };

  explicit LineModel(std::byte* data) : data_(data) {}

  /// The calling thread stores to lines [first, last).  Call before the
  /// bytes change: a line's first store captures its durable image.
  void store(std::size_t first, std::size_t last) {
    const auto tid = std::this_thread::get_id();
    const std::uint64_t seq = ++seq_;
    for (std::size_t line = first; line < last; ++line) {
      auto [it, fresh] = lines_.try_emplace(line);
      if (fresh) copy(it->second.durable.data(), bytes(line));
      it->second.seq = seq;
      own(it->second, tid).stored = seq;
    }
  }

  /// The calling thread flushes lines [first, last).  The CLWB writes back
  /// the image it sees, not any later store: that image is what the
  /// thread's next fence makes durable.
  void flush(std::size_t first, std::size_t last) {
    const auto tid = std::this_thread::get_id();
    for (std::size_t line = first; line < last; ++line) {
      const auto it = lines_.find(line);
      if (it == lines_.end()) continue;  // durable: nothing to write back
      Own& o = own(it->second, tid);
      if (!o.pending) pending_[tid].push_back(line);
      o.pending = true;
      o.flushed = it->second.seq;
      copy(o.image.data(), bytes(line));
    }
  }

  /// The calling thread fences: its own flush images become durable,
  /// unless another thread's fence already made a newer one durable.
  void fence() {
    const auto mine = pending_.find(std::this_thread::get_id());
    if (mine == pending_.end()) return;
    for (const std::size_t line : mine->second) {
      const auto it = lines_.find(line);
      if (it == lines_.end()) continue;  // reverted since the flush
      Line& ln = it->second;
      for (Own& o : ln.threads) {
        if (o.tid != mine->first || !o.pending) continue;
        o.pending = false;
        if (o.flushed > ln.durable_seq) {
          ln.durable = o.image;
          ln.durable_seq = o.flushed;
        }
      }
      const bool owed =
          std::any_of(ln.threads.begin(), ln.threads.end(), [](const Own& o) {
            return o.pending || o.stored > o.flushed;
          });
      if (ln.durable_seq == ln.seq && !owed) lines_.erase(it);
    }
    pending_.erase(mine);
  }

  /// A writeback of lines [first, last) failed: their in-flight stores are
  /// lost, as on a crash.
  void revert(std::size_t first, std::size_t last) {
    for (std::size_t line = first; line < last; ++line) {
      const auto it = lines_.find(line);
      if (it == lines_.end()) continue;
      copy(bytes(line), it->second.durable.data());
      lines_.erase(it);
    }
  }

  /// Power loss: each line reverts to its durable image unless
  /// @p reached_media(line) says it was evicted first.
  template <typename Pred>
  void crash(Pred&& reached_media) {
    for (const auto& [line, ln] : lines_) {
      if (!reached_media(line)) copy(bytes(line), ln.durable.data());
    }
    clear();
  }

  /// Forget every line, leaving the bytes as they are.
  void clear() {
    lines_.clear();
    pending_.clear();
  }

  /// The line's state; nullptr when it is durable and owed nothing.
  [[nodiscard]] const Line* find(std::size_t line) const {
    const auto it = lines_.find(line);
    return it == lines_.end() ? nullptr : &it->second;
  }

  /// Lines whose newest store is not durable.
  [[nodiscard]] std::size_t unpersisted() const {
    return static_cast<std::size_t>(
        std::count_if(lines_.begin(), lines_.end(), [](const auto& kv) {
          return kv.second.seq > kv.second.durable_seq;
        }));
  }

 private:
  static Own& own(Line& ln, std::thread::id tid) {
    for (Own& o : ln.threads) {
      if (o.tid == tid) return o;
    }
    return ln.threads.emplace_back(Own{tid});
  }
  std::byte* bytes(std::size_t line) const { return data_ + line * kCacheLine; }
  static void copy(std::byte* dst, const std::byte* src) {
    std::memcpy(dst, src, kCacheLine);
  }

  std::byte* data_;
  std::uint64_t seq_ = 0;
  std::unordered_map<std::size_t, Line> lines_;
  /// Lines each thread has flushed since its own last fence.
  std::unordered_map<std::thread::id, std::vector<std::size_t>> pending_;
};

}  // namespace pmemcpy::pmem
