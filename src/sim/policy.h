// Access-policy interface the machine consults on every fetch, load, store,
// and control transfer.  The EA-MPU (src/hw) implements it; a null policy
// means "allow everything" (pre-secure-boot state).
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

/// classify() outcome codes.  Non-negative values are policy-specific rule
/// indices (the EA-MPU returns the granting slot); the negative codes name
/// every non-slot outcome.  The execution observatory (obs/heat.h) buckets
/// check counters by these values — its bucket table mirrors this list.
inline constexpr int kCheckDenied = -1;        ///< access would be refused
inline constexpr int kCheckUnprotected = -2;   ///< address covered by no rule
inline constexpr int kCheckImplicitSelf = -3;  ///< region's own code touched it
inline constexpr int kCheckOsWindow = -4;      ///< os_accessible + OS kernel IP
inline constexpr int kCheckUnclassified = -5;  ///< code outside this list
inline constexpr int kCheckNoPolicy = -6;      ///< machine runs with no policy

class AccessPolicy {
 public:
  virtual ~AccessPolicy() = default;

  /// Monotonic configuration-change counter.  Implementations bump it on any
  /// mutation that can change an allows()/allows_transfer()/classify()
  /// verdict; consumers that memoize verdicts (the decode cache,
  /// sim/decode_cache.h) compare epochs instead of subscribing to callbacks.
  /// Non-virtual and inline — the comparison sits on the per-instruction
  /// fast path.  Starts at 1 so "no policy observed yet" (0) never matches.
  [[nodiscard]] std::uint64_t config_epoch() const { return config_epoch_; }

  /// Which rule decides whether code at `exec_ip` may perform `access` on
  /// `addr`: a non-negative rule index or one of the kCheck* codes above,
  /// kCheckDenied meaning "refused".  The single policy query behind every
  /// fetch, load and store verdict; the execution observatory buckets the
  /// same answer, so verdict and attribution come from one walk.
  [[nodiscard]] virtual int classify(std::uint32_t exec_ip, std::uint32_t addr,
                                     Access access) const = 0;

  /// May code at `exec_ip` perform `access` on `addr`?
  [[nodiscard]] bool allows(std::uint32_t exec_ip, std::uint32_t addr,
                            Access access) const {
    return classify(exec_ip, addr, access) != kCheckDenied;
  }

  /// May control transfer from `from_ip` to `to_ip`?  This is where dedicated
  /// entry points are enforced (paper §3, EA-MPU property 2).
  [[nodiscard]] virtual bool allows_transfer(std::uint32_t from_ip,
                                             std::uint32_t to_ip) const = 0;

 protected:
  void bump_config_epoch() { ++config_epoch_; }

 private:
  std::uint64_t config_epoch_ = 1;
};

}  // namespace tytan::sim
