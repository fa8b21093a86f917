#include "sim/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <new>

#include "common/bytes.h"

namespace tytan::sim {

PhysicalMemory::PhysicalMemory(std::uint32_t size) : size_(size), bytes_(map_image(size)) {
  TYTAN_CHECK(size <= kMemSize, "memory larger than its dirty bitmap");
}

PhysicalMemory::Image PhysicalMemory::map_image(std::uint32_t size) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t image = (static_cast<std::size_t>(size) + page - 1) / page * page;
  const std::size_t length = image + page;
  void* base = ::mmap(nullptr, length, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::bad_alloc();
  }
  Image bytes(static_cast<std::uint8_t*>(base), Unmap{length});
  // The guard splits the mapping in two, which fails once the process is out
  // of mapping entries (vm.max_map_count): a resource limit, like mmap's.
  if (::mprotect(bytes.get() + image, page, PROT_NONE) != 0) {
    throw std::bad_alloc();
  }
  return bytes;
}

void PhysicalMemory::Unmap::operator()(std::uint8_t* base) const noexcept {
  ::munmap(base, length);
}

std::uint32_t PhysicalMemory::read32(std::uint32_t addr) const {
  TYTAN_CHECK(in_bounds(addr, 4), "memory read32 out of bounds");
  return load_le32(bytes_.get() + addr);
}

void PhysicalMemory::write32(std::uint32_t addr, std::uint32_t v) {
  TYTAN_CHECK(in_bounds(addr, 4), "memory write32 out of bounds");
  store_le32(bytes_.get() + addr, v);
  touch(addr, 4);
  notify_watch(addr, 4);
}

void PhysicalMemory::write_block(std::uint32_t addr, std::span<const std::uint8_t> data) {
  TYTAN_CHECK(in_bounds(addr, static_cast<std::uint32_t>(data.size())),
              "memory write_block out of bounds");
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
  touch(addr, static_cast<std::uint32_t>(data.size()));
  notify_watch(addr, static_cast<std::uint32_t>(data.size()));
}

void PhysicalMemory::read_block(std::uint32_t addr, std::span<std::uint8_t> out) const {
  TYTAN_CHECK(in_bounds(addr, static_cast<std::uint32_t>(out.size())),
              "memory read_block out of bounds");
  std::memcpy(out.data(), bytes_.get() + addr, out.size());
}

void PhysicalMemory::fill(std::uint32_t addr, std::uint32_t len, std::uint8_t value) {
  TYTAN_CHECK(in_bounds(addr, len), "memory fill out of bounds");
  std::memset(bytes_.get() + addr, value, len);
  touch(addr, len);
  notify_watch(addr, len);
}

void PhysicalMemory::restore(std::span<const std::uint8_t> image, std::uint64_t image_id) {
  TYTAN_CHECK(image.size() == size_ && image_id != 0, "memory restore needs an image and its id");
  const auto page = [&](std::uint32_t addr) {
    return image.subspan(addr, std::min(kPageSize, size_ - addr));
  };
  if (image_id != image_id_ && image_id_ != 0) {
    write_block(0, image);
  } else {
    if (image_id_ == 0) {
      // A fresh memory's clean pages are zero: they differ where the image is not.
      static constexpr std::array<std::uint8_t, kPageSize> kZeros{};
      for (std::uint32_t addr = 0; addr < size_; addr += kPageSize) {
        const auto bytes = page(addr);
        if (std::memcmp(bytes.data(), kZeros.data(), bytes.size()) != 0) {
          touch(addr, 1);
        }
      }
    }
    for (std::uint32_t word = 0; word < dirty_.size(); ++word) {
      for (std::uint64_t bits = dirty_[word]; bits != 0; bits &= bits - 1) {
        const std::uint32_t addr = (word * 64 + std::countr_zero(bits)) * kPageSize;
        write_block(addr, page(addr));
      }
    }
  }
  dirty_ = {};
  image_id_ = image_id;
}

std::span<const std::uint8_t> PhysicalMemory::view(std::uint32_t addr, std::uint32_t len) const {
  TYTAN_CHECK(in_bounds(addr, len), "memory view out of bounds");
  return {bytes_.get() + addr, len};
}

}  // namespace tytan::sim
