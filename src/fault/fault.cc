#include "fault/fault.h"

#include <algorithm>
#include <charconv>

namespace tytan::fault {
namespace {

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(FaultClass::kNumClasses)>
    kClassNames = {"tbf-bitflip", "storage-corrupt", "nonce-replay",
                   "ipc-drop", "task-stall"};

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

Status clause_error(std::string_view clause, const std::string& why) {
  return make_error(Err::kInvalidArgument,
                    "fault plan clause '" + std::string(clause) + "': " + why);
}

/// Strict full-width decimal parse (the plan grammar has no hex or signs).
bool parse_number(std::string_view text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::string_view fault_class_name(FaultClass cls) {
  const auto index = static_cast<std::size_t>(cls);
  return index < kClassNames.size() ? kClassNames[index] : "invalid";
}

std::string FaultSpec::to_string() const {
  std::string out{fault_class_name(cls)};
  switch (cls) {
    case FaultClass::kTbfBitflip:
      out += "@load";
      if (at_count != 0) {
        out += "#" + std::to_string(at_count);
      }
      if (!target.empty()) {
        out += ":" + target;
      }
      break;
    case FaultClass::kStorageCorrupt:
      if (at_cycle != 0) {
        out += "@cycle=" + std::to_string(at_cycle);
      }
      out += ":slot" + std::to_string(slot);
      break;
    case FaultClass::kNonceReplay:
      out += "@attest#" + std::to_string(at_count == 0 ? 1 : at_count);
      break;
    case FaultClass::kIpcDrop:
      out += ":pct=" + std::to_string(pct);
      if (max_fires != 0) {
        out += ",count=" + std::to_string(max_fires);
      }
      break;
    case FaultClass::kTaskStall:
      if (at_cycle != 0) {
        out += "@cycle=" + std::to_string(at_cycle);
      }
      out += ":" + target;
      break;
    case FaultClass::kNumClasses:
      break;
  }
  if (bit >= 0) {
    out += ",bit=" + std::to_string(bit);
  }
  return out;
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find(';', begin), text.size());
    const std::string_view clause = trim(text.substr(begin, end - begin));
    begin = end + 1;
    if (clause.empty()) {
      continue;
    }

    // Split off the class name (up to '@', ':' or ',').
    const std::size_t name_end = std::min(
        {clause.find('@'), clause.find(':'), clause.find(','), clause.size()});
    const std::string_view name = clause.substr(0, name_end);
    FaultSpec spec;
    for (std::size_t i = 0; i < kClassNames.size(); ++i) {
      if (name == kClassNames[i]) {
        spec.cls = static_cast<FaultClass>(i);
        break;
      }
    }
    if (spec.cls == FaultClass::kNumClasses) {
      return clause_error(clause, "unknown fault class '" + std::string(name) + "'");
    }

    // Optional '@trigger' — everything between '@' and the next ':' or ','.
    std::string_view rest = clause.substr(name_end);
    std::string_view trigger;
    if (!rest.empty() && rest.front() == '@') {
      rest.remove_prefix(1);
      const std::size_t trig_end =
          std::min({rest.find(':'), rest.find(','), rest.size()});
      trigger = rest.substr(0, trig_end);
      rest = rest.substr(trig_end);
    }

    // Optional ':target' — up to the next ','.
    std::string_view target;
    if (!rest.empty() && rest.front() == ':') {
      rest.remove_prefix(1);
      const std::size_t target_end = std::min(rest.find(','), rest.size());
      target = trim(rest.substr(0, target_end));
      rest = rest.substr(target_end);
    }

    // Optional ',key=value' parameters.
    bool has_pct_param = false;
    bool has_count_param = false;
    while (!rest.empty() && rest.front() == ',') {
      rest.remove_prefix(1);
      const std::size_t param_end = std::min(rest.find(','), rest.size());
      const std::string_view param = trim(rest.substr(0, param_end));
      rest = rest.substr(param_end);
      const std::size_t eq = param.find('=');
      if (eq == std::string_view::npos) {
        return clause_error(clause, "parameter '" + std::string(param) +
                                        "' is not key=value");
      }
      const std::string_view key = param.substr(0, eq);
      const std::string_view value = param.substr(eq + 1);
      std::uint64_t number = 0;
      if (!parse_number(value, &number)) {
        return clause_error(clause, "parameter '" + std::string(key) +
                                        "' needs a decimal value, got '" +
                                        std::string(value) + "'");
      }
      if (key == "bit") {
        spec.bit = static_cast<std::int64_t>(number);
      } else if (key == "pct" && spec.cls == FaultClass::kIpcDrop) {
        spec.pct = static_cast<std::uint32_t>(number);
        has_pct_param = true;
      } else if (key == "count" && spec.cls == FaultClass::kIpcDrop) {
        spec.max_fires = number;
        has_count_param = true;
      } else {
        return clause_error(clause, "unknown parameter '" + std::string(key) +
                                        "' for class " +
                                        std::string(fault_class_name(spec.cls)));
      }
    }

    // Interpret the trigger against the class.
    if (!trigger.empty()) {
      if (trigger == "load" || trigger.substr(0, 5) == "load#") {
        if (spec.cls != FaultClass::kTbfBitflip) {
          return clause_error(clause, "trigger '@load' only applies to tbf-bitflip");
        }
        if (trigger.size() > 5 && !parse_number(trigger.substr(5), &spec.at_count)) {
          return clause_error(clause, "bad load count in trigger");
        }
      } else if (trigger.substr(0, 7) == "attest#") {
        if (spec.cls != FaultClass::kNonceReplay) {
          return clause_error(clause, "trigger '@attest#N' only applies to nonce-replay");
        }
        if (!parse_number(trigger.substr(7), &spec.at_count) || spec.at_count == 0) {
          return clause_error(clause, "bad attestation index in trigger");
        }
      } else if (trigger.substr(0, 6) == "cycle=") {
        if (spec.cls != FaultClass::kStorageCorrupt &&
            spec.cls != FaultClass::kTaskStall) {
          return clause_error(
              clause, "trigger '@cycle=N' applies to storage-corrupt/task-stall");
        }
        if (!parse_number(trigger.substr(6), &spec.at_cycle)) {
          return clause_error(clause, "bad cycle count in trigger");
        }
      } else {
        return clause_error(clause, "unknown trigger '" + std::string(trigger) + "'");
      }
    }

    // Interpret the target against the class.
    switch (spec.cls) {
      case FaultClass::kTbfBitflip:
      case FaultClass::kTaskStall:
        spec.target = std::string(target);
        if (spec.cls == FaultClass::kTaskStall && spec.target.empty()) {
          return clause_error(clause, "task-stall needs a ':task-name' target");
        }
        break;
      case FaultClass::kStorageCorrupt: {
        if (target.substr(0, 4) != "slot") {
          return clause_error(clause, "storage-corrupt needs a ':slotN' target");
        }
        std::uint64_t slot = 0;
        if (!parse_number(target.substr(4), &slot) || slot > 0xFFFF'FFFFull) {
          return clause_error(clause, "bad slot number in target");
        }
        spec.slot = static_cast<std::uint32_t>(slot);
        spec.has_slot = true;
        break;
      }
      case FaultClass::kIpcDrop: {
        // pct may arrive as the target ("ipc-drop:pct=5") or as a parameter.
        if (!target.empty()) {
          if (target.substr(0, 4) != "pct=") {
            return clause_error(clause, "ipc-drop target must be 'pct=N'");
          }
          std::uint64_t pct = 0;
          if (!parse_number(target.substr(4), &pct) || pct > 100) {
            return clause_error(clause, "ipc-drop pct must be 0..100");
          }
          spec.pct = static_cast<std::uint32_t>(pct);
          has_pct_param = true;
        }
        if (!has_pct_param) {
          return clause_error(clause, "ipc-drop needs pct=N");
        }
        if (spec.pct > 100) {
          return clause_error(clause, "ipc-drop pct must be 0..100");
        }
        if (!has_count_param) {
          spec.max_fires = 0;  // rate-based: unlimited unless capped
        }
        break;
      }
      case FaultClass::kNonceReplay:
        if (!target.empty()) {
          return clause_error(clause, "nonce-replay takes no target");
        }
        if (spec.at_count == 0) {
          spec.at_count = 1;  // default: replay on the first attestation
        }
        break;
      case FaultClass::kNumClasses:
        break;
    }

    plan.specs.push_back(std::move(spec));
  }
  if (plan.specs.empty()) {
    return make_error(Err::kInvalidArgument, "fault plan is empty");
  }
  return plan;
}

FaultEngine::FaultEngine(FaultPlan plan)
    : plan_(std::move(plan)),
      fires_(plan_.specs.size(), 0),
      rng_state_(plan_.seed) {}

std::uint64_t FaultEngine::next_rand() {
  // SplitMix64: tiny, seedable, and plenty for picking bits to flip.
  std::uint64_t z = (rng_state_ += 0x9E37'79B9'7F4A'7C15ull);
  z = (z ^ (z >> 30U)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27U)) * 0x94D0'49BB'1331'11EBull;
  return z ^ (z >> 31U);
}

void FaultEngine::record_fire(std::size_t i) {
  ++fires_[i];
  ++injected_[static_cast<std::size_t>(plan_.specs[i].cls)];
}

std::int64_t FaultEngine::on_load(std::string_view task_name,
                                  std::size_t image_bytes) {
  ++load_count_;
  if (image_bytes == 0) {
    return -1;
  }
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.cls != FaultClass::kTbfBitflip || fires_[i] >= spec.max_fires) {
      continue;
    }
    if (spec.at_count != 0 && spec.at_count != load_count_) {
      continue;
    }
    if (!spec.target.empty() && spec.target != task_name) {
      continue;
    }
    record_fire(i);
    const auto bits = static_cast<std::uint64_t>(image_bytes) * 8;
    return spec.bit >= 0 ? spec.bit % static_cast<std::int64_t>(bits)
                         : static_cast<std::int64_t>(next_rand() % bits);
  }
  return -1;
}

std::int64_t FaultEngine::on_storage_access(std::uint32_t slot,
                                            std::uint64_t cycle,
                                            std::size_t blob_bytes) {
  if (blob_bytes == 0) {
    return -1;
  }
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.cls != FaultClass::kStorageCorrupt || fires_[i] >= spec.max_fires) {
      continue;
    }
    if (!spec.has_slot || spec.slot != slot || cycle < spec.at_cycle) {
      continue;
    }
    record_fire(i);
    const auto bits = static_cast<std::uint64_t>(blob_bytes) * 8;
    return spec.bit >= 0 ? spec.bit % static_cast<std::int64_t>(bits)
                         : static_cast<std::int64_t>(next_rand() % bits);
  }
  return -1;
}

bool FaultEngine::on_attest(std::uint64_t attest_index) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.cls != FaultClass::kNonceReplay || fires_[i] >= spec.max_fires) {
      continue;
    }
    if (spec.at_count != attest_index) {
      continue;
    }
    record_fire(i);
    return true;
  }
  return false;
}

bool FaultEngine::on_ipc_message() {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.cls != FaultClass::kIpcDrop) {
      continue;
    }
    if (spec.max_fires != 0 && fires_[i] >= spec.max_fires) {
      continue;
    }
    if (next_rand() % 100 >= spec.pct) {
      continue;
    }
    record_fire(i);
    return true;
  }
  return false;
}

bool FaultEngine::on_task_dispatch(std::string_view task_name,
                                   std::uint64_t cycle) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.cls != FaultClass::kTaskStall || fires_[i] >= spec.max_fires) {
      continue;
    }
    if (spec.target != task_name || cycle < spec.at_cycle) {
      continue;
    }
    record_fire(i);
    return true;
  }
  return false;
}

void FaultEngine::note_recovery(FaultClass cls) {
  ++recovered_[static_cast<std::size_t>(cls)];
}

std::uint64_t FaultEngine::injected(FaultClass cls) const {
  return injected_[static_cast<std::size_t>(cls)];
}

std::uint64_t FaultEngine::recovered(FaultClass cls) const {
  return recovered_[static_cast<std::size_t>(cls)];
}

std::uint64_t FaultEngine::injected_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : injected_) {
    total += count;
  }
  return total;
}

std::uint64_t FaultEngine::recovered_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : recovered_) {
    total += count;
  }
  return total;
}

Status FaultEngine::state(snap::Io& io) {
  auto count = static_cast<std::uint32_t>(fires_.size());
  io.u32(count);
  if (io.loading() && count != fires_.size()) {
    return make_error(Err::kInvalidArgument,
                      "snapshot fault plan has " + std::to_string(count) +
                          " spec(s), this platform's plan has " +
                          std::to_string(fires_.size()));
  }
  for (std::uint64_t& fire : fires_) {
    io.u64(fire);
  }
  io.u64(rng_state_);
  io.u64(load_count_);
  for (std::uint64_t& tally : injected_) {
    io.u64(tally);
  }
  for (std::uint64_t& tally : recovered_) {
    io.u64(tally);
  }
  return Status::ok();
}

}  // namespace tytan::fault
