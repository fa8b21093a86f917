// Flat physical memory of the simulated platform.
//
// The image lives in one anonymous private mapping that the kernel fills with
// zeros a page at a time on first touch, so a device pays (in time and in
// resident memory) only for the pages its guest, firmware and loader actually
// write.  One inaccessible page follows the image's last page, so an overrun
// that escapes the bounds checks below faults instead of reaching other memory.
//
// Raw accessors perform *no* policy checks and charge *no* cycles; they model
// what the silicon stores.  All guest and firmware accesses must go through
// Machine, which layers the EA-MPU and the cycle clock on top.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/status.h"
#include "sim/memory_map.h"

namespace tytan::sim {

/// Observer of writes landing inside a watched address range (the decode
/// cache registers itself to catch self-modifying code, loader copies, and
/// snapshot restores without instrumenting every caller).
class WriteWatcher {
 public:
  virtual ~WriteWatcher() = default;
  /// A write of `len` bytes at `addr` intersected the watched range.
  virtual void on_watched_write(std::uint32_t addr, std::uint32_t len) = 0;
};

class PhysicalMemory {
 public:
  /// Maps `size` (at most kMemSize) zero bytes; no page is touched until it
  /// is first accessed.
  explicit PhysicalMemory(std::uint32_t size = kMemSize);

  [[nodiscard]] std::uint32_t size() const { return size_; }

  [[nodiscard]] bool in_bounds(std::uint32_t addr, std::uint32_t len) const {
    return addr < size() && len <= size() - addr;
  }

  [[nodiscard]] std::uint8_t read8(std::uint32_t addr) const {
    TYTAN_CHECK(addr < size_, "memory read8 out of bounds");
    return bytes_[addr];
  }
  [[nodiscard]] std::uint32_t read32(std::uint32_t addr) const;
  void write8(std::uint32_t addr, std::uint8_t v) {
    TYTAN_CHECK(addr < size_, "memory write8 out of bounds");
    bytes_[addr] = v;
    touch(addr, 1);
    notify_watch(addr, 1);
  }
  void write32(std::uint32_t addr, std::uint32_t v);

  /// Bulk copy in/out (loader, RTM, tests).
  void write_block(std::uint32_t addr, std::span<const std::uint8_t> data);
  void read_block(std::uint32_t addr, std::span<std::uint8_t> out) const;
  void fill(std::uint32_t addr, std::uint32_t len, std::uint8_t value);

  /// Read-only view of a region (bounds-checked).
  [[nodiscard]] std::span<const std::uint8_t> view(std::uint32_t addr, std::uint32_t len) const;

  // -- snapshot restore (host-side) --------------------------------------------
  // One record: every page not written since the last restore still equals
  // that restore's image, and a fresh memory's image is all zeros.  Writes
  // set their pages' bits in a dirty bitmap (no simulated cycles, not
  // snapshot state).
  static constexpr std::uint32_t kPageSize = 0x1000;
  /// One bit per 4 KB page of the largest image (kMemSize is 257 pages).
  using DirtyPages = std::array<std::uint64_t, (kMemSize / kPageSize + 63) / 64>;

  /// Overwrite memory with `image` (size() bytes), whose identity is
  /// `image_id` (snap::Snapshot::id: never 0, equal ids mean equal bytes).
  /// Writes only the pages that can differ: the dirty ones when `image_id`
  /// was restored last (the fork-fuzzing rewind), those and the image's
  /// non-zero ones on a fresh memory (clones, replay), all otherwise.
  void restore(std::span<const std::uint8_t> image, std::uint64_t image_id);
  /// Pages written since construction or the last restore.
  [[nodiscard]] const DirtyPages& dirty_pages() const { return dirty_; }

  // -- write watch (host-side; decode-cache invalidation) --------------------
  // At most one watcher; [lo, hi) is the union of ranges it cares about.  An
  // empty range (hi <= lo, the default) keeps every write at two compares.
  // Like the dirty bitmap this is host bookkeeping: it charges no simulated
  // cycles and is not snapshot state.
  void set_write_watch(WriteWatcher* watcher, std::uint32_t lo, std::uint32_t hi) {
    watcher_ = watcher;
    watch_lo_ = lo;
    watch_hi_ = hi;
  }
  void clear_write_watch() { set_write_watch(nullptr, 0, 0); }

 private:
  /// Releases the mapping: `length` covers the image pages and the guard.
  struct Unmap {
    std::size_t length;
    void operator()(std::uint8_t* base) const noexcept;
  };
  using Image = std::unique_ptr<std::uint8_t[], Unmap>;

  /// Maps the zero-filled image of `size` bytes and its trailing guard page.
  static Image map_image(std::uint32_t size);

  void notify_watch(std::uint32_t addr, std::uint32_t len) {
    if (watcher_ != nullptr && addr < watch_hi_ && addr + len > watch_lo_) {
      watcher_->on_watched_write(addr, len);
    }
  }

  void touch(std::uint32_t addr, std::uint32_t len) {
    if (len == 0) {
      return;
    }
    const std::uint32_t last = (addr + len - 1) / kPageSize;
    for (std::uint32_t page = addr / kPageSize; page <= last; ++page) {
      dirty_[page / 64] |= std::uint64_t{1} << (page % 64);
    }
  }

  std::uint32_t size_;
  Image bytes_;
  DirtyPages dirty_{};
  /// Id of the image that clean pages equal; 0 is the all-zero image.
  std::uint64_t image_id_ = 0;
  WriteWatcher* watcher_ = nullptr;
  std::uint32_t watch_lo_ = 0;
  std::uint32_t watch_hi_ = 0;
};

}  // namespace tytan::sim
