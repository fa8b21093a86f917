// Access kinds and verdict codes shared by the EA-MPU (sim/eampu.h), the
// machine that consults it on every fetch, load, and store, and the
// execution observatory that buckets its verdicts (obs/heat.h).
#pragma once

#include <cstdint>

namespace tytan::sim {

enum class Access : std::uint8_t { kRead, kWrite, kExecute };

inline const char* access_name(Access a) {
  switch (a) {
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
    case Access::kExecute: return "execute";
  }
  return "?";
}

/// EaMpu::classify() outcome codes.  Non-negative values are the granting
/// EA-MPU slot; the negative codes name every non-slot outcome.  The
/// execution observatory (obs/heat.h) buckets check counters by these
/// values — its bucket table mirrors this list.
inline constexpr int kCheckDenied = -1;        ///< access would be refused
inline constexpr int kCheckUnprotected = -2;   ///< address covered by no rule
inline constexpr int kCheckImplicitSelf = -3;  ///< region's own code touched it
inline constexpr int kCheckOsWindow = -4;      ///< os_accessible + OS kernel IP
inline constexpr int kCheckUnclassified = -5;  ///< code outside this list
inline constexpr int kCheckNoPolicy = -6;      ///< machine runs with no EA-MPU (pre-boot)

}  // namespace tytan::sim
