// Byte-level helpers: little-endian packing (the simulated Siskiyou-Peak-like
// core is little endian), hex encoding, and constant-time comparison for MACs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tytan {

using ByteVec = std::vector<std::uint8_t>;

/// Load a little-endian 16/32/64-bit value from `p` (must have enough bytes).
std::uint16_t load_le16(const std::uint8_t* p);
std::uint32_t load_le32(const std::uint8_t* p);
std::uint64_t load_le64(const std::uint8_t* p);

/// Store a little-endian value to `p`.
void store_le16(std::uint8_t* p, std::uint16_t v);
void store_le32(std::uint8_t* p, std::uint32_t v);
void store_le64(std::uint8_t* p, std::uint64_t v);

/// `words` as consecutive little-endian 32-bit values: a record of word
/// fields built on the host and moved with one firmware block write.
template <typename... Words>
std::array<std::uint8_t, 4 * sizeof...(Words)> le_words(Words... words) {
  std::array<std::uint8_t, 4 * sizeof...(Words)> out{};
  std::uint8_t* p = out.data();
  ((store_le32(p, static_cast<std::uint32_t>(words)), p += 4), ...);
  return out;
}

/// Append a little-endian value to a byte vector.
void append_le16(ByteVec& out, std::uint16_t v);
void append_le32(ByteVec& out, std::uint32_t v);
void append_le64(ByteVec& out, std::uint64_t v);

/// Lowercase hex string of `data` ("deadbeef").
std::string hex_encode(std::span<const std::uint8_t> data);

/// Parse a hex string; returns empty vector on malformed input of odd length
/// or non-hex characters.
ByteVec hex_decode(std::string_view hex);

/// Constant-time equality (for MAC comparison).
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// [start, start+size) overlaps [other_start, other_start+other_size)?
/// Empty ranges never overlap.
bool ranges_overlap(std::uint64_t a_start, std::uint64_t a_size,
                    std::uint64_t b_start, std::uint64_t b_size);

/// true if [start, start+size) fits inside [outer_start, outer_start+outer_size).
bool range_contains(std::uint64_t outer_start, std::uint64_t outer_size,
                    std::uint64_t inner_start, std::uint64_t inner_size);

}  // namespace tytan
