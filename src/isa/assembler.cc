#include "isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "isa/isa.h"

namespace tytan::isa {

namespace {

// ---------------------------------------------------------------------------
// Lexing helpers
// ---------------------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Strip a trailing comment, respecting a double-quoted string (for .ascii).
std::string_view strip_comment(std::string_view line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) {
      in_string = !in_string;
    } else if (!in_string && (c == ';' || c == '#')) {
      return line.substr(0, i);
    }
  }
  return line;
}

std::vector<std::string> split_operands(std::string_view s) {
  std::vector<std::string> out;
  bool in_string = false;
  std::string current;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"' && (i == 0 || s[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (c == ',' && !in_string) {
      out.emplace_back(trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  const std::string_view last = trim(current);
  if (!last.empty() || !out.empty()) {
    out.emplace_back(last);
  }
  if (!out.empty() && out.back().empty()) {
    out.pop_back();
  }
  return out;
}

std::optional<unsigned> parse_register(std::string_view tok) {
  const std::string t = lower(trim(tok));
  if (t == "sp") {
    return kSpIndex;
  }
  if (t.size() >= 2 && t[0] == 'r') {
    unsigned idx = 0;
    const auto [ptr, ec] = std::from_chars(t.data() + 1, t.data() + t.size(), idx);
    if (ec == std::errc{} && ptr == t.data() + t.size() && idx < kNumGprs) {
      return idx;
    }
  }
  return std::nullopt;
}

std::optional<std::int64_t> parse_number(std::string_view tok) {
  std::string t(trim(tok));
  if (t.empty()) {
    return std::nullopt;
  }
  bool negative = false;
  std::size_t pos = 0;
  if (t[0] == '-') {
    negative = true;
    pos = 1;
  } else if (t[0] == '+') {
    pos = 1;
  }
  int base = 10;
  if (t.size() > pos + 1 && t[pos] == '0' && (t[pos + 1] == 'x' || t[pos + 1] == 'X')) {
    base = 16;
    pos += 2;
  }
  if (pos >= t.size()) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(t.data() + pos, t.data() + t.size(), value, base);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    return std::nullopt;
  }
  return negative ? -static_cast<std::int64_t>(value) : static_cast<std::int64_t>(value);
}

bool valid_symbol(std::string_view tok) {
  if (tok.empty()) {
    return false;
  }
  if (!std::isalpha(static_cast<unsigned char>(tok[0])) && tok[0] != '_' && tok[0] != '.') {
    return false;
  }
  return std::all_of(tok.begin() + 1, tok.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
  });
}

/// Memory operand "[reg]", "[reg+imm]", "[reg-imm]".
struct MemOperand {
  unsigned reg = 0;
  std::int32_t disp = 0;
};

std::optional<MemOperand> parse_mem(std::string_view tok) {
  std::string_view t = trim(tok);
  if (t.size() < 3 || t.front() != '[' || t.back() != ']') {
    return std::nullopt;
  }
  t = trim(t.substr(1, t.size() - 2));
  std::size_t split = t.find_first_of("+-");
  MemOperand mem;
  if (split == std::string_view::npos) {
    const auto reg = parse_register(t);
    if (!reg) {
      return std::nullopt;
    }
    mem.reg = *reg;
    return mem;
  }
  const auto reg = parse_register(t.substr(0, split));
  if (!reg) {
    return std::nullopt;
  }
  mem.reg = *reg;
  const char sign = t[split];
  const auto disp = parse_number(t.substr(split + 1));
  if (!disp) {
    return std::nullopt;
  }
  mem.disp = static_cast<std::int32_t>(sign == '-' ? -*disp : *disp);
  return mem;
}

std::optional<std::string> parse_string_literal(std::string_view tok) {
  const std::string_view t = trim(tok);
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
    return std::nullopt;
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    char c = t[i];
    if (c == '\\' && i + 2 < t.size()) {
      ++i;
      switch (t[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '0': c = '\0'; break;
        case '\\': c = '\\'; break;
        case '"': c = '"'; break;
        default: return std::nullopt;
      }
    }
    out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement model
// ---------------------------------------------------------------------------

/// Mnemonic -> opcode, built from the ISA's opcode table.
const std::map<std::string, Opcode>& opcode_by_mnemonic() {
  static const auto table = [] {
    std::map<std::string, Opcode> t;
    for (unsigned raw = 0; raw < kOpcodeTable.size(); ++raw) {
      if (const std::string_view name = kOpcodeTable[raw].mnemonic; !name.empty()) {
        t.emplace(name, static_cast<Opcode>(raw));
      }
    }
    return t;
  }();
  return table;
}

struct Statement {
  int line = 0;
  std::string mnemonic;              // lowercase; empty for pure-label lines
  std::vector<std::string> operands;
  std::vector<std::string> labels;   // labels defined at this statement
};

// ---------------------------------------------------------------------------
// Assembler core
// ---------------------------------------------------------------------------

class Assembler {
 public:
  Result<ObjectFile> run(std::string_view source) {
    if (Status s = parse(source); !s.is_ok()) {
      return s;
    }
    if (Status s = layout(); !s.is_ok()) {
      return s;
    }
    if (Status s = emit(); !s.is_ok()) {
      return s;
    }
    // Pad trailing data to a whole instruction word so the image is always
    // word-granular (the TBF reader and the static verifier require it).
    while (object_.image.size() % kInstrSize != 0) {
      object_.image.push_back(0);
    }
    std::sort(object_.relocs.begin(), object_.relocs.end(),
              [](const Relocation& a, const Relocation& b) { return a.offset < b.offset; });
    object_.symbols = symbols_;
    return std::move(object_);
  }

 private:
  Status error(int line, std::string_view what) {
    std::ostringstream os;
    os << "line " << line << ": " << what;
    return make_error(Err::kInvalidArgument, os.str());
  }

  Status parse(std::string_view source) {
    int line_no = 0;
    std::size_t pos = 0;
    std::vector<std::string> pending_labels;
    while (pos <= source.size()) {
      const std::size_t nl = source.find('\n', pos);
      std::string_view raw =
          source.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
      pos = (nl == std::string_view::npos) ? source.size() + 1 : nl + 1;
      ++line_no;

      std::string_view body = trim(strip_comment(raw));
      // Peel off leading labels ("foo: bar: movi r0, 1").
      while (true) {
        const std::size_t colon = body.find(':');
        if (colon == std::string_view::npos) {
          break;
        }
        const std::string_view candidate = trim(body.substr(0, colon));
        if (!valid_symbol(candidate)) {
          break;
        }
        pending_labels.emplace_back(candidate);
        body = trim(body.substr(colon + 1));
      }
      if (body.empty()) {
        continue;
      }
      Statement st;
      st.line = line_no;
      st.labels = std::move(pending_labels);
      pending_labels.clear();
      const std::size_t sp = body.find_first_of(" \t");
      st.mnemonic = lower(body.substr(0, sp));
      if (sp != std::string_view::npos) {
        st.operands = split_operands(body.substr(sp + 1));
      }
      statements_.push_back(std::move(st));
    }
    if (!pending_labels.empty()) {
      Statement st;
      st.line = line_no;
      st.labels = std::move(pending_labels);
      statements_.push_back(std::move(st));
    }
    return Status::ok();
  }

  /// Size in bytes of a statement (pass 1).
  Result<std::uint32_t> statement_size(const Statement& st) {
    const std::string& m = st.mnemonic;
    if (m.empty()) {
      return std::uint32_t{0};
    }
    if (m == "li") {
      return std::uint32_t{2 * kInstrSize};
    }
    if (m == "not") {
      return std::uint32_t{2 * kInstrSize};  // pseudo: expands to two instructions
    }
    if (opcode_by_mnemonic().contains(m)) {
      return std::uint32_t{kInstrSize};
    }
    if (m == ".word") {
      return static_cast<std::uint32_t>(4 * std::max<std::size_t>(1, st.operands.size()));
    }
    if (m == ".byte") {
      return static_cast<std::uint32_t>(std::max<std::size_t>(1, st.operands.size()));
    }
    if (m == ".space") {
      if (st.operands.size() != 1) {
        return error(st.line, ".space takes one operand");
      }
      const auto n = resolve_const(st.operands[0]);
      if (!n || *n < 0) {
        return error(st.line, ".space operand must be a non-negative constant");
      }
      return static_cast<std::uint32_t>(*n);
    }
    if (m == ".ascii") {
      if (st.operands.size() != 1) {
        return error(st.line, ".ascii takes one string operand");
      }
      const auto text = parse_string_literal(st.operands[0]);
      if (!text) {
        return error(st.line, "malformed string literal");
      }
      return static_cast<std::uint32_t>(text->size());
    }
    if (m == ".align") {
      if (st.operands.size() != 1) {
        return error(st.line, ".align takes one operand");
      }
      const auto n = resolve_const(st.operands[0]);
      if (!n || *n <= 0) {
        return error(st.line, ".align operand must be a positive constant");
      }
      const auto align = static_cast<std::uint32_t>(*n);
      const std::uint32_t rem = cursor_ % align;
      return rem == 0 ? 0 : align - rem;
    }
    // Non-size directives.
    if (m == ".equ" || m == ".entry" || m == ".msg" || m == ".stack" || m == ".bss" ||
        m == ".secure") {
      return std::uint32_t{0};
    }
    return error(st.line, "unknown mnemonic or directive '" + m + "'");
  }

  std::optional<std::int64_t> resolve_const(std::string_view tok) {
    if (const auto n = parse_number(tok)) {
      return n;
    }
    const auto it = equ_.find(std::string(trim(tok)));
    if (it != equ_.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  /// Instructions always sit on a word boundary; data directives may leave
  /// the cursor unaligned, so code following them is padded (with zero words,
  /// which decode as nop).  layout() and emit() must agree on this.
  static bool is_instruction(const std::string& mnemonic) {
    return mnemonic == "li" || mnemonic == "not" ||
           opcode_by_mnemonic().contains(mnemonic);
  }

  Status layout() {
    cursor_ = 0;
    for (const Statement& st : statements_) {
      if (is_instruction(st.mnemonic)) {
        cursor_ = (cursor_ + kInstrSize - 1) & ~(kInstrSize - 1);
      }
      for (const std::string& label : st.labels) {
        if (symbols_.contains(label) || equ_.contains(label)) {
          return error(st.line, "duplicate symbol '" + label + "'");
        }
        symbols_[label] = cursor_;
      }
      if (st.mnemonic == ".equ") {
        if (st.operands.size() != 2) {
          return error(st.line, ".equ takes NAME, value");
        }
        const std::string name(trim(st.operands[0]));
        if (!valid_symbol(name) || symbols_.contains(name) || equ_.contains(name)) {
          return error(st.line, "bad or duplicate .equ name '" + name + "'");
        }
        const auto value = resolve_const(st.operands[1]);
        if (!value) {
          return error(st.line, ".equ value must be a constant");
        }
        equ_[name] = *value;
        continue;
      }
      auto size = statement_size(st);
      if (!size.is_ok()) {
        return size.status();
      }
      cursor_ += size.value();
    }
    return Status::ok();
  }

  /// Resolve a symbol-or-number operand; for symbols returns the offset and
  /// marks `is_symbol`.  Supports `symbol+const` / `symbol-const` expressions
  /// (e.g. `li r2, buffer+4`).
  Result<std::int64_t> value_operand(const Statement& st, std::string_view tok,
                                     bool* is_symbol) {
    *is_symbol = false;
    if (const auto n = resolve_const(tok)) {
      return *n;
    }
    std::string name(trim(tok));
    std::int64_t offset = 0;
    // Split a trailing +const / -const (the sign must not be the first char,
    // which would be a plain signed number already handled above).
    const std::size_t sign = name.find_first_of("+-", 1);
    if (sign != std::string::npos) {
      const auto rhs = resolve_const(std::string_view(name).substr(sign + 1));
      if (rhs.has_value()) {
        offset = name[sign] == '-' ? -*rhs : *rhs;
        name = std::string(trim(std::string_view(name).substr(0, sign)));
      }
    }
    const auto it = symbols_.find(name);
    if (it == symbols_.end()) {
      return error(st.line, "undefined symbol '" + name + "'");
    }
    *is_symbol = true;
    return static_cast<std::int64_t>(it->second) + offset;
  }

  void emit_word(std::uint32_t w) { append_le32(object_.image, w); }

  Status emit_instruction(const Statement& st, Opcode opcode) {
    Instruction instr;
    instr.opcode = opcode;
    const auto& ops = st.operands;
    auto need = [&](std::size_t n) -> Status {
      if (ops.size() != n) {
        return error(st.line, "expected " + std::to_string(n) + " operand(s)");
      }
      return Status::ok();
    };

    switch (opcode_info(opcode).form) {
      case OperandForm::kNone: {
        if (Status s = need(0); !s.is_ok()) return s;
        break;
      }
      case OperandForm::kRdRa: {
        if (Status s = need(2); !s.is_ok()) return s;
        const auto rd = parse_register(ops[0]);
        const auto ra = parse_register(ops[1]);
        if (!rd || !ra) return error(st.line, "expected two registers");
        instr.rd = static_cast<std::uint8_t>(*rd);
        instr.ra = static_cast<std::uint8_t>(*ra);
        break;
      }
      case OperandForm::kRdSimm:
      case OperandForm::kRdUimm: {
        if (Status s = need(2); !s.is_ok()) return s;
        const auto rd = parse_register(ops[0]);
        const auto imm = resolve_const(ops[1]);
        if (!rd) return error(st.line, "expected register as first operand");
        if (!imm || *imm < -32768 || *imm > 65535) {
          return error(st.line, "immediate out of 16-bit range");
        }
        instr.rd = static_cast<std::uint8_t>(*rd);
        instr.imm = static_cast<std::uint16_t>(*imm & 0xFFFF);
        break;
      }
      case OperandForm::kRd: {
        if (Status s = need(1); !s.is_ok()) return s;
        const auto rd = parse_register(ops[0]);
        if (!rd) return error(st.line, "expected register");
        instr.rd = static_cast<std::uint8_t>(*rd);
        break;
      }
      case OperandForm::kRa: {
        if (Status s = need(1); !s.is_ok()) return s;
        const auto ra = parse_register(ops[0]);
        if (!ra) return error(st.line, "expected register");
        instr.ra = static_cast<std::uint8_t>(*ra);
        break;
      }
      case OperandForm::kMem: {
        if (Status s = need(2); !s.is_ok()) return s;
        const auto rd = parse_register(ops[0]);
        const auto mem = parse_mem(ops[1]);
        if (!rd || !mem) return error(st.line, "expected register, [reg+imm]");
        if (mem->disp < -32768 || mem->disp > 32767) {
          return error(st.line, "displacement out of range");
        }
        instr.rd = static_cast<std::uint8_t>(*rd);
        instr.ra = static_cast<std::uint8_t>(mem->reg);
        instr.imm = static_cast<std::uint16_t>(mem->disp & 0xFFFF);
        break;
      }
      case OperandForm::kBranch: {
        if (Status s = need(1); !s.is_ok()) return s;
        bool is_symbol = false;
        auto value = value_operand(st, ops[0], &is_symbol);
        if (!value.is_ok()) return value.status();
        std::int64_t disp = *value;
        if (is_symbol) {
          disp = *value - (static_cast<std::int64_t>(cursor_) + kInstrSize);
        }
        if (disp < -32768 || disp > 32767) {
          return error(st.line, "branch target out of range");
        }
        instr.imm = static_cast<std::uint16_t>(disp & 0xFFFF);
        break;
      }
      case OperandForm::kImm: {
        if (Status s = need(1); !s.is_ok()) return s;
        const auto imm = resolve_const(ops[0]);
        if (!imm || *imm < 0 || *imm > 0xFFFF) {
          return error(st.line, "immediate out of range");
        }
        instr.imm = static_cast<std::uint16_t>(*imm);
        break;
      }
    }
    emit_word(encode(instr));
    cursor_ += kInstrSize;
    return Status::ok();
  }

  Status emit_li(const Statement& st) {
    if (st.operands.size() != 2) {
      return error(st.line, "li takes register, symbol-or-constant");
    }
    const auto rd = parse_register(st.operands[0]);
    if (!rd) {
      return error(st.line, "li: expected register");
    }
    bool is_symbol = false;
    auto value = value_operand(st, st.operands[1], &is_symbol);
    if (!value.is_ok()) {
      return value.status();
    }
    const auto v = static_cast<std::uint32_t>(*value);
    if (is_symbol) {
      object_.relocs.push_back({cursor_, RelocKind::kLo16, v});
      object_.relocs.push_back({cursor_ + kInstrSize, RelocKind::kHi16, v});
    }
    Instruction lo{Opcode::kMoviu, static_cast<std::uint8_t>(*rd), 0,
                   static_cast<std::uint16_t>(v & 0xFFFF)};
    Instruction hi{Opcode::kMovhi, static_cast<std::uint8_t>(*rd), 0,
                   static_cast<std::uint16_t>(v >> 16)};
    emit_word(encode(lo));
    emit_word(encode(hi));
    cursor_ += 2 * kInstrSize;
    return Status::ok();
  }

  /// Pseudo `not rd`: bitwise complement, expanding to
  ///   movi r0, -1 ; xor rd, r0
  /// r0 is the ABI's pseudo-scratch (it already carries syscall numbers and
  /// is caller-saved everywhere), so `not r0` is rejected.
  Status emit_not(const Statement& st) {
    if (st.operands.size() != 1) {
      return error(st.line, "not takes one register");
    }
    const auto rd = parse_register(st.operands[0]);
    if (!rd) {
      return error(st.line, "expected register");
    }
    if (*rd == 0) {
      return error(st.line, "not cannot target r0 (pseudo scratch register)");
    }
    emit_word(encode({Opcode::kMovi, 0, 0, 0xFFFF}));
    emit_word(encode({Opcode::kXor, static_cast<std::uint8_t>(*rd), 0, 0}));
    cursor_ += 2 * kInstrSize;
    return Status::ok();
  }

  Status emit_directive(const Statement& st) {
    const std::string& m = st.mnemonic;
    if (m == ".word") {
      for (const std::string& op : st.operands) {
        bool is_symbol = false;
        auto value = value_operand(st, op, &is_symbol);
        if (!value.is_ok()) return value.status();
        if (is_symbol) {
          object_.relocs.push_back(
              {cursor_, RelocKind::kAbs32, static_cast<std::uint32_t>(*value)});
        }
        emit_word(static_cast<std::uint32_t>(*value));
        cursor_ += 4;
      }
      return Status::ok();
    }
    if (m == ".byte") {
      for (const std::string& op : st.operands) {
        const auto value = resolve_const(op);
        if (!value || *value < -128 || *value > 255) {
          return error(st.line, ".byte value out of range");
        }
        object_.image.push_back(static_cast<std::uint8_t>(*value & 0xFF));
        ++cursor_;
      }
      return Status::ok();
    }
    if (m == ".space") {
      const auto n = resolve_const(st.operands[0]);
      object_.image.insert(object_.image.end(), static_cast<std::size_t>(*n), 0);
      cursor_ += static_cast<std::uint32_t>(*n);
      return Status::ok();
    }
    if (m == ".ascii") {
      const auto text = parse_string_literal(st.operands[0]);
      object_.image.insert(object_.image.end(), text->begin(), text->end());
      cursor_ += static_cast<std::uint32_t>(text->size());
      return Status::ok();
    }
    if (m == ".align") {
      const auto align = static_cast<std::uint32_t>(*resolve_const(st.operands[0]));
      while (cursor_ % align != 0) {
        object_.image.push_back(0);
        ++cursor_;
      }
      return Status::ok();
    }
    if (m == ".equ") {
      return Status::ok();  // handled in layout()
    }
    if (m == ".entry" || m == ".msg") {
      if (st.operands.size() != 1) {
        return error(st.line, m + " takes one label");
      }
      const auto it = symbols_.find(std::string(trim(st.operands[0])));
      if (it == symbols_.end()) {
        return error(st.line, m + ": undefined label");
      }
      (m == ".entry" ? object_.entry : object_.msg_handler) = it->second;
      return Status::ok();
    }
    if (m == ".stack" || m == ".bss") {
      if (st.operands.size() != 1) {
        return error(st.line, m + " takes one constant");
      }
      const auto n = resolve_const(st.operands[0]);
      if (!n || *n < 0) {
        return error(st.line, m + " operand must be a non-negative constant");
      }
      (m == ".stack" ? object_.stack_size : object_.bss_size) =
          static_cast<std::uint32_t>(*n);
      return Status::ok();
    }
    if (m == ".secure") {
      object_.flags |= kObjSecure;
      return Status::ok();
    }
    return error(st.line, "unknown directive '" + m + "'");
  }

  Status emit() {
    cursor_ = 0;
    for (const Statement& st : statements_) {
      if (st.mnemonic.empty()) {
        continue;
      }
      if (is_instruction(st.mnemonic)) {
        while (cursor_ % kInstrSize != 0) {
          object_.image.push_back(0);
          ++cursor_;
        }
      }
      if (st.mnemonic == "li") {
        if (Status s = emit_li(st); !s.is_ok()) return s;
        continue;
      }
      if (st.mnemonic == "not") {
        if (Status s = emit_not(st); !s.is_ok()) return s;
        continue;
      }
      const auto it = opcode_by_mnemonic().find(st.mnemonic);
      if (it != opcode_by_mnemonic().end()) {
        if (Status s = emit_instruction(st, it->second); !s.is_ok()) return s;
        continue;
      }
      if (Status s = emit_directive(st); !s.is_ok()) return s;
    }
    return Status::ok();
  }

  std::vector<Statement> statements_;
  std::map<std::string, std::uint32_t> symbols_;
  std::map<std::string, std::int64_t> equ_;
  std::uint32_t cursor_ = 0;
  ObjectFile object_;
};

/// The secure-task entry routine (paper §4: checked via a reason code in r1,
/// "automatically included by the TyTAN tool chain").  `%MSG%` and `%START%`
/// are replaced with the user's handler labels before assembly.
constexpr std::string_view kSecurePrologue = R"(__tytan_entry:
    cmpi r1, 1
    jz __tytan_restore
    cmpi r1, 2
    jz __tytan_message
    jmp %START%
__tytan_restore:
    pop r6
    pop r5
    pop r4
    pop r3
    pop r2
    pop r1
    pop r0
    iret
__tytan_message:
    jmp %MSG%
__tytan_mailbox:
    .space 24
)";

std::string replace_all(std::string text, std::string_view what, std::string_view with) {
  std::size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    text.replace(pos, what.size(), with);
    pos += with.size();
  }
  return text;
}

/// Pre-scan for `.secure` / `.entry` / `.msg` so the prologue can be spliced
/// in front of the user program.
struct PreScan {
  bool secure = false;
  std::string entry_label;
  std::string msg_label;
};

PreScan prescan(std::string_view source) {
  PreScan out;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t nl = source.find('\n', pos);
    std::string_view raw =
        source.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = (nl == std::string_view::npos) ? source.size() + 1 : nl + 1;
    const std::string line(trim(strip_comment(raw)));
    const std::string low = lower(line);
    if (low == ".secure") {
      out.secure = true;
    } else if (low.starts_with(".entry")) {
      out.entry_label = std::string(trim(std::string_view(line).substr(6)));
    } else if (low.starts_with(".msg")) {
      out.msg_label = std::string(trim(std::string_view(line).substr(4)));
    }
  }
  return out;
}

}  // namespace

Result<ObjectFile> assemble(std::string_view source) {
  const PreScan scan = prescan(source);
  if (!scan.secure) {
    Assembler as;
    auto object = as.run(source);
    if (!object.is_ok()) {
      return object;
    }
    // `.entry` was already applied by the directive handler.
    return object;
  }

  // Secure task: splice the entry routine in front of the user program.  The
  // user's `.entry`/`.msg` labels become branch targets of the prologue; the
  // object's real entry is the prologue itself.
  const std::string start = scan.entry_label.empty() ? "__tytan_user_start" : scan.entry_label;
  const std::string msg = scan.msg_label.empty() ? start : scan.msg_label;
  std::string prologue = replace_all(std::string(kSecurePrologue), "%START%", start);
  prologue = replace_all(prologue, "%MSG%", msg);
  std::string combined = prologue;
  if (scan.entry_label.empty()) {
    combined += "__tytan_user_start:\n";
  }
  combined += source;

  Assembler as;
  auto object = as.run(combined);
  if (!object.is_ok()) {
    return object;
  }
  ObjectFile obj = object.take();
  obj.entry = obj.symbols.at("__tytan_entry");
  obj.msg_handler = obj.symbols.at("__tytan_message");
  obj.mailbox = obj.symbols.at("__tytan_mailbox");
  return obj;
}

}  // namespace tytan::isa
