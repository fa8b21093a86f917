#include "sim/decode_cache.h"

#include <algorithm>

namespace tytan::sim {

template <typename Fn>
bool DecodeCache::for_each_granule_word(std::uint32_t addr, std::uint32_t len, Fn fn) {
  const std::size_t first = addr >> kGranuleShift;
  const std::size_t last = (addr + len - 1) >> kGranuleShift;
  const std::size_t last_word = last / kGranulesPerWord;
  for (std::size_t word = first / kGranulesPerWord; word <= last_word; ++word) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (word == first / kGranulesPerWord) {
      mask &= mask << (first % kGranulesPerWord);
    }
    if (word == last_word) {
      mask &= ~std::uint64_t{0} >> (kGranulesPerWord - 1 - last % kGranulesPerWord);
    }
    if (fn(code_bits_[word], mask)) {
      return true;
    }
  }
  return false;
}

const DecodeCache::Block* DecodeCache::insert(Block block) {
  collect();  // find() missed, so no op reference is alive — safe to free
  if (blocks_.size() >= kMaxBlocks) {
    invalidate_all();
  }
  ++stats_.builds;
  const std::uint32_t start = block.start;
  auto owned = std::make_unique<Block>(std::move(block));
  const Block* result = owned.get();
  blocks_[start] = std::move(owned);
  if (memory_ != nullptr && result->end > result->start) {
    if (code_bits_.empty()) {
      code_bits_.assign((memory_->size() + kBytesPerWord - 1) / kBytesPerWord, 0);
    }
    for_each_granule_word(result->start, result->end - result->start,
                          [](std::uint64_t& word, std::uint64_t mask) {
                            word |= mask;
                            return false;
                          });
    if (span_lo_ >= span_hi_) {
      span_lo_ = result->start;
      span_hi_ = result->end;
    } else {
      span_lo_ = std::min(span_lo_, result->start);
      span_hi_ = std::max(span_hi_, result->end);
    }
    memory_->set_write_watch(this, span_lo_, span_hi_);
  }
  return result;
}

void DecodeCache::invalidate_all() {
  ++stats_.invalidations;
  ++generation_;
  for (auto& entry : blocks_) {
    graveyard_.push_back(std::move(entry.second));
  }
  blocks_.clear();
  if (span_lo_ < span_hi_) {
    std::fill(code_bits_.begin() + span_lo_ / kBytesPerWord,
              code_bits_.begin() + (span_hi_ - 1) / kBytesPerWord + 1, 0);
  }
  span_lo_ = 0;
  span_hi_ = 0;
  if (memory_ != nullptr) {
    memory_->clear_write_watch();
  }
}

void DecodeCache::on_watched_write(std::uint32_t addr, std::uint32_t len) {
  // The filter: a write touching no marked granule — every data store,
  // push, and call into memory next to code — costs a bit test.
  if (len == 0 ||
      !for_each_granule_word(addr, len, [](std::uint64_t& word, std::uint64_t mask) {
        return (word & mask) != 0;
      })) {
    return;
  }
  // The precise check: only blocks actually intersecting the written range
  // die.  Writes between blocks must not kill cursors, so the generation
  // only bumps when a block goes.
  bool erased = false;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    const Block& block = *it->second;
    if (addr < block.end && addr + len > block.start) {
      // Defer destruction: the write may come from an op executing out of
      // this very block, and the fast paths hold a reference into it.  The
      // graveyard is drained at the next find()/insert(), which only ever
      // run between instructions.
      graveyard_.push_back(std::move(it->second));
      it = blocks_.erase(it);
      erased = true;
    } else {
      ++it;
    }
  }
  if (erased) {
    ++stats_.code_writes;
    ++generation_;
  }
}

}  // namespace tytan::sim
