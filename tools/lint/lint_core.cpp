#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string_view>

namespace herolint {
namespace {

struct RuleDoc {
  const char* id = nullptr;
  const char* summary = nullptr;
};

const RuleDoc kRuleDocs[] = {
    {"ambient-rng",
     "ambient randomness outside common/rng; derive from a seeded "
     "hero::Rng (no allow() under src/)"},
    {"include-cycle",
     "cycle in the quoted-include graph; break it with a forward "
     "declaration or a split header"},
    {"iostream",
     "<iostream> in library code; log via common/log"},
    {"layer-violation",
     "include from src/ that leaves src/, or an edge between src/ "
     "subsystems that the declared layer DAG (tools/lint/layers.txt) does "
     "not allow"},
    {"raw-unit-literal",
     "unit-typed variable set from a conversion-factor-shaped literal "
     "without a units:: factor"},
    {"stale-suppression",
     "hero-lint: allow() comment that no longer suppresses any finding"},
    {"uninit-member",
     "scalar/pointer struct member without an initializer"},
    {"unordered-iter",
     "iteration over an unordered container; order depends on the stdlib "
     "hash (no allow() under src/)"},
    {"wall-clock",
     "ambient time source; simulated time comes from "
     "sim::Simulator::now() (no allow() under src/)"},
};

const std::vector<std::string> kRuleIds = [] {
  std::vector<std::string> ids;
  for (const RuleDoc& d : kRuleDocs) ids.push_back(d.id);
  return ids;
}();

/// Text of toks[k], or "" past the end.
std::string_view text_at(std::span<const Token> toks, std::size_t k) {
  return k < toks.size() ? std::string_view(toks[k].text)
                         : std::string_view();
}

bool is_kind(std::span<const Token> toks, std::size_t k, Token::Kind kind) {
  return k < toks.size() && toks[k].kind == kind;
}

void scan_unordered_iter(const MaskedSource& src,
                         const std::vector<Token>& toks,
                         const std::string& path,
                         std::vector<Finding>& out) {
  static const std::set<std::string, std::less<>> kIterators = {
      "begin", "end", "cbegin", "cend", "rbegin", "rend", "crbegin", "crend"};
  const std::set<std::string> names = unordered_names(src);
  if (names.empty()) return;
  auto text = [&](std::size_t k) { return text_at(toks, k); };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    // `for (decl : c)`, `for (decl : *c)`, `for (decl : (c))`: no
    // parentheses in the declaration (`::` is one token, so the first
    // lone ':' is the range colon).
    if (toks[i].text == "for" && text(i + 1) == "(") {
      std::size_t j = i + 2;
      while (j < toks.size() && text(j) != "(" && text(j) != ")" &&
             text(j) != ":") {
        ++j;
      }
      if (text(j) != ":") continue;
      ++j;
      if (text(j) == "(") ++j;
      if (text(j) == "*") ++j;
      if (is_kind(toks, j, Token::Kind::kIdent) && text(j + 1) == ")" &&
          names.contains(toks[j].text)) {
        out.push_back({path, toks[i].line, "unordered-iter",
                       "range-for over unordered container '" +
                           toks[j].text +
                           "': iteration order depends on the stdlib hash; "
                           "use an ordered container or sorted keys"});
      }
      continue;
    }
    // `c.begin(` and friends. `x == c.end()` / `x != c.end()` after
    // find() is a membership test, not a traversal — skip sentinel
    // comparisons.
    if (names.contains(toks[i].text) && text(i + 1) == "." &&
        kIterators.contains(text(i + 2)) && text(i + 3) == "(" &&
        (i == 0 || (text(i - 1) != "==" && text(i - 1) != "!="))) {
      out.push_back({path, toks[i].line, "unordered-iter",
                     "iterator over unordered container '" + toks[i].text +
                         "': traversal order depends on the stdlib hash; "
                         "use an ordered container or sorted keys"});
    }
  }
}

void scan_wall_clock(const MaskedSource& src, const std::string& path,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    for (const char* token :
         {"system_clock", "steady_clock", "high_resolution_clock",
          "gettimeofday", "localtime", "gmtime"}) {
      const std::size_t pos = line.find(token);
      const std::size_t end = pos == std::string::npos
                                  ? std::string::npos
                                  : pos + std::string(token).size();
      if (pos != std::string::npos && freestanding_token(line, pos) &&
          (end >= line.size() || !ident_char(line[end]))) {
        out.push_back({path, static_cast<int>(i) + 1, "wall-clock",
                       std::string("wall-clock source '") + token +
                           "': simulated time must come from "
                           "sim::Simulator::now()"});
      }
    }
    for (const char* fn : {"time", "clock"}) {
      if (!find_calls(line, fn).empty()) {
        out.push_back({path, static_cast<int>(i) + 1, "wall-clock",
                       std::string("wall-clock call '") + fn +
                           "()': simulated time must come from "
                           "sim::Simulator::now()"});
      }
    }
  }
}

void scan_ambient_rng(const MaskedSource& src, const std::string& path,
                      std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    for (const char* token : {"random_device", "mt19937", "drand48"}) {
      const std::size_t pos = line.find(token);
      if (pos != std::string::npos && freestanding_token(line, pos)) {
        out.push_back({path, static_cast<int>(i) + 1, "ambient-rng",
                       std::string("ambient randomness '") + token +
                           "': derive all randomness from a seeded "
                           "hero::Rng (common/rng)"});
      }
    }
    for (const char* fn : {"rand", "srand"}) {
      if (!find_calls(line, fn).empty()) {
        out.push_back({path, static_cast<int>(i) + 1, "ambient-rng",
                       std::string("ambient randomness '") + fn +
                           "()': derive all randomness from a seeded "
                           "hero::Rng (common/rng)"});
      }
    }
  }
}

void scan_iostream(const MaskedSource& src, const std::string& path,
                   std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    const std::size_t pos = include_operand(line);
    if (pos != std::string::npos &&
        line.compare(pos, 10, "<iostream>") == 0) {
      out.push_back({path, static_cast<int>(i) + 1, "iostream",
                     "<iostream> in library code: log via common/log, "
                     "print from examples/bench drivers only"});
    }
  }
}

/// Scalar-ish member types: builtins, fixed-width ints, the repo's
/// numeric/id aliases. Raw pointers are matched by their `*`.
bool scalar_type(std::string_view type) {
  static const std::set<std::string, std::less<>> kBuiltins = {
      "bool", "char", "short", "int", "long", "long long", "unsigned",
      "unsigned int", "unsigned long", "float", "double", "Time", "Bytes",
      "Bandwidth"};
  static const std::set<std::string, std::less<>> kStdInts = {
      "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t", "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t"};
  if (kBuiltins.contains(type)) return true;
  if (type.starts_with("std::")) type.remove_prefix(5);
  return kStdInts.contains(type) || (type.size() > 2 && type.ends_with("Id"));
}

/// The declared names of a bare scalar or pointer member declaration that
/// spans all of `toks` (`int a, b;`, `Foo* p;`, `mutable std::uint64_t
/// n;`), or "" when the line is anything else.
std::string bare_member_names(std::span<const Token> toks) {
  auto text = [&](std::size_t k) { return text_at(toks, k); };
  std::size_t i = text(0) == "mutable" ? 1 : 0;
  if (!is_kind(toks, i, Token::Kind::kIdent)) return {};
  std::string type = toks[i++].text;
  while (text(i) == "::" && is_kind(toks, i + 1, Token::Kind::kIdent)) {
    type += "::" + toks[i + 1].text;
    i += 2;
  }
  if ((type == "long" && text(i) == "long") ||
      (type == "unsigned" && (text(i) == "int" || text(i) == "long"))) {
    type += " " + toks[i++].text;
  }
  bool pointer = false;
  if (text(i) == "<") {
    // Simple template arguments only: `std::vector<int>*`.
    ++i;
    while (!is_kind(toks, i, Token::Kind::kPunct) || text(i) == "::" ||
           text(i) == "," || text(i) == "*" || text(i) == "&") {
      if (i >= toks.size()) return {};
      ++i;
    }
    if (text(i) != ">" || text(i + 1) != "*") return {};
    ++i;
  }
  for (; text(i) == "*"; ++i) pointer = true;
  if (!pointer && !scalar_type(type)) return {};

  std::string names;
  while (is_kind(toks, i, Token::Kind::kIdent)) {
    names += (names.empty() ? "" : ", ") + toks[i++].text;
    if (text(i) != "," || !is_kind(toks, i + 1, Token::Kind::kIdent)) break;
    ++i;
  }
  if (names.empty() || text(i) != ";" || i + 1 != toks.size()) return {};
  return names;
}

/// True when `line` opens a struct: `struct Name` after the line start, a
/// space or one of `;{}`.
bool struct_head(const std::string& line) {
  for (std::size_t pos = line.find("struct"); pos != std::string::npos;
       pos = line.find("struct", pos + 1)) {
    const bool starts =
        pos == 0 || std::string_view(";{} \t").find(line[pos - 1]) !=
                        std::string_view::npos;
    const std::size_t name = skip_space(line, pos + 6);
    if (starts && name > pos + 6 && name < line.size() &&
        (std::isalpha(static_cast<unsigned char>(line[name])) != 0 ||
         line[name] == '_')) {
      return true;
    }
  }
  return false;
}

void scan_uninit_member(const MaskedSource& src,
                        const std::vector<Token>& toks,
                        const std::string& path, std::vector<Finding>& out) {
  static const std::set<std::string> kSkipWords = {
      "using",     "typedef", "friend", "static",
      "constexpr", "inline",  "extern", "return"};

  // Only `struct` scopes are checked: classes establish invariants in
  // constructors, while structs are used as aggregates whose members leak
  // indeterminate values when left bare. `enum class` is not a class.
  struct Scope {
    int depth = 0;      // brace depth of the struct body
    bool is_struct = false;
  };
  std::vector<Scope> scopes;
  int depth = 0;
  bool pending_struct = false;  // saw a struct head, waiting for its '{'
  std::size_t first_tok = 0;    // first token of the current line

  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    std::size_t end_tok = first_tok;
    while (end_tok < toks.size() &&
           toks[end_tok].line == static_cast<int>(i) + 1) {
      ++end_tok;
    }
    const std::span<const Token> line_toks(toks.data() + first_tok,
                                           end_tok - first_tok);
    first_tok = end_tok;
    const bool head_here = struct_head(line) &&
                           line.find(';') == std::string::npos &&
                           line.find("enum") == std::string::npos;

    // Member check happens at the struct body's own depth, before brace
    // bookkeeping for this line (members and braces rarely share a line).
    if (!scopes.empty() && scopes.back().is_struct &&
        depth == scopes.back().depth && !line_toks.empty() &&
        line.find_first_of("(={") == std::string::npos &&
        !kSkipWords.contains(line_toks[0].text)) {
      const std::string names = bare_member_names(line_toks);
      if (!names.empty()) {
        out.push_back({path, static_cast<int>(i) + 1, "uninit-member",
                       "member '" + names +
                           "' has no initializer: aggregate instances "
                           "inherit indeterminate values"});
      }
    }

    bool struct_opens = head_here || pending_struct;
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        scopes.push_back({depth, struct_opens});
        struct_opens = false;
        pending_struct = false;
      } else if (c == '}') {
        if (!scopes.empty() && scopes.back().depth == depth) {
          scopes.pop_back();
        }
        --depth;
      }
    }
    if (head_here && struct_opens) pending_struct = true;
  }
}

// ---------------------------------------------------------------------------
// v2 rule (raw-unit-literal): runs over the shared token stream
// (source_text.hpp) plus a per-file symbol table of unit-typed locals.
// Tokens carry their source line so findings stay clickable.

bool is_unit_type(const std::string& t) {
  static const std::set<std::string> kUnits = {
      "Time",   "Bytes",    "Bandwidth", "Rate",
      "Tokens", "TokenRate", "WorkUnits", "WorkRate"};
  return kUnits.contains(t);
}

/// Per-file symbol table: declared name -> unit type. Built from token
/// patterns `UnitType name` followed by `=`, `;`, `,`, `)` or `{` —
/// declarations and parameters, but not functions returning a unit type
/// (`Time transfer_time(...)`: next punct is '(').
std::map<std::string, std::string> unit_symbols(
    const std::vector<Token>& toks) {
  std::map<std::string, std::string> table;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || !is_unit_type(toks[i].text)) {
      continue;
    }
    // Skip `hero ::` / `units ::` qualifiers backwards only to reject
    // `units::Time`-style nested names declared elsewhere — a qualifier
    // still declares the same unit type, so nothing to do.
    std::size_t j = i + 1;
    if (toks[j].kind != Token::Kind::kIdent) continue;
    const std::string& name = toks[j].text;
    if (j + 1 >= toks.size()) continue;
    const std::string& after = toks[j + 1].text;
    if (after == "=" || after == ";" || after == "," || after == ")" ||
        after == "{") {
      table[name] = toks[i].text;
    }
  }
  return table;
}

/// Absolute value of a numeric literal token, or -1 when unparsable.
double literal_value(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    // Accept trailing f/F/l/L suffixes; reject hex garbage half-parses.
    for (std::size_t k = used; k < text.size(); ++k) {
      const char c = text[k];
      if (c != 'f' && c != 'F' && c != 'l' && c != 'L' && c != 'u' &&
          c != 'U') {
        return -1.0;
      }
    }
    return v < 0 ? -v : v;
  } catch (...) {
    return -1.0;
  }
}

/// "Conversion-factor-shaped": scientific notation, or magnitude >= 1000.
/// Human-scale base-unit values (2.5 s SLA, 0.05 utilization floors) pass.
bool magic_literal(const std::string& text) {
  if (text.find('e') != std::string::npos ||
      text.find('E') != std::string::npos) {
    return true;
  }
  const double v = literal_value(text);
  return v >= 1000.0;
}

void scan_raw_unit_literal(const std::vector<Token>& toks,
                           const std::map<std::string, std::string>& symbols,
                           const std::string& path,
                           std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    // Two shapes: `UnitType name = init ;` and `known_name = init ;`.
    std::string name, unit;
    std::size_t eq = 0;
    if (toks[i].kind == Token::Kind::kIdent && is_unit_type(toks[i].text) &&
        toks[i + 1].kind == Token::Kind::kIdent &&
        toks[i + 2].text == "=") {
      name = toks[i + 1].text;
      unit = toks[i].text;
      eq = i + 2;
    } else if (toks[i].kind == Token::Kind::kIdent &&
               symbols.contains(toks[i].text) && toks[i + 1].text == "=" &&
               (i == 0 || (toks[i - 1].text != "." &&
                           toks[i - 1].text != "->" &&
                           toks[i - 1].kind != Token::Kind::kIdent))) {
      name = toks[i].text;
      unit = symbols.at(toks[i].text);
      eq = i + 1;
    } else {
      continue;
    }
    // Initializer must be literal-only arithmetic (identifiers mean the
    // value flows from something already typed) with at least one magic
    // literal and no units:: factor.
    bool magic = false;
    bool pure = true;
    std::size_t j = eq + 1;
    for (; j < toks.size() && toks[j].text != ";"; ++j) {
      if (toks[j].kind == Token::Kind::kIdent) {
        pure = false;
      } else if (toks[j].kind == Token::Kind::kNumber &&
                 magic_literal(toks[j].text)) {
        magic = true;
      }
    }
    if (pure && magic) {
      out.push_back(
          {path, toks[eq].line, "raw-unit-literal",
           "unit-typed '" + name + "' (" + unit +
               ") set from a bare conversion-factor literal: spell the "
               "unit with a units:: factor (e.g. 12.5 * units::GBps)"});
    }
  }
}

}  // namespace

std::size_t library_offset(const std::string& path) {
  static const std::set<std::string, std::less<>> kTrees = {
      "src", "bench", "tools", "examples", "tests", "perfbench"};
  // Walk the directory components from the file's parent up to the root.
  std::size_t end = path.rfind('/');
  while (end != std::string::npos && end > 0) {
    const std::size_t slash = path.rfind('/', end - 1);
    const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
    const std::string_view dir(path.data() + begin, end - begin);
    if (kTrees.contains(dir)) {
      return dir == "src" ? end + 1 : std::string::npos;
    }
    end = slash;
  }
  return std::string::npos;
}

FileContext classify_path(const std::string& path) {
  FileContext ctx;
  ctx.library = library_offset(path) != std::string::npos;
  ctx.rng_module = path.find("common/rng") != std::string::npos;
  return ctx;
}

std::vector<Finding> raw_file_findings(const std::string& path,
                                       const MaskedSource& src,
                                       const std::vector<Token>& toks,
                                       const FileContext& ctx) {
  const std::map<std::string, std::string> symbols = unit_symbols(toks);

  std::vector<Finding> raw;
  scan_unordered_iter(src, toks, path, raw);
  scan_wall_clock(src, path, raw);
  if (!ctx.rng_module) scan_ambient_rng(src, path, raw);
  if (ctx.library) scan_iostream(src, path, raw);
  scan_uninit_member(src, toks, path, raw);
  scan_raw_unit_literal(toks, symbols, path, raw);

  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return raw;
}

void report_finding(Finding f, const FileContext& ctx, Suppressions& sup,
                    LintReport& out) {
  const bool determinism = f.rule == "wall-clock" ||
                           f.rule == "ambient-rng" ||
                           f.rule == "unordered-iter";
  const bool suppressible = !(ctx.library && determinism);
  (suppressible && sup.consume(f.rule, f.line) ? out.suppressed
                                               : out.findings)
      .push_back(std::move(f));
}

LintReport lint_source_report(const std::string& path,
                              const std::string& content,
                              const FileContext& ctx) {
  const MaskedSource src = mask(content);
  Suppressions sup = Suppressions::collect(src);
  const std::vector<Token> toks = tokenize(src);

  LintReport report;
  for (Finding& f : raw_file_findings(path, src, toks, ctx)) {
    report_finding(std::move(f), ctx, sup, report);
  }
  return report;
}

const std::vector<std::string>& rule_ids() { return kRuleIds; }

std::string rule_summary(const std::string& rule) {
  for (const RuleDoc& d : kRuleDocs) {
    if (rule == d.id) return d.summary;
  }
  return {};
}

std::string to_json(const std::vector<Finding>& findings) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out;
  };
  std::string json = "{\n  \"count\": " + std::to_string(findings.size()) +
                     ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"file\": \"" + escape(f.file) +
            "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
            escape(f.rule) + "\", \"message\": \"" + escape(f.message) +
            "\"}";
  }
  json += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return json;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out;
  };
  std::string s;
  s += "{\n";
  s += "  \"$schema\": "
       "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  s += "  \"version\": \"2.1.0\",\n";
  s += "  \"runs\": [{\n";
  s += "    \"tool\": {\"driver\": {\n";
  s += "      \"name\": \"hero-lint\",\n";
  s += "      \"rules\": [";
  for (std::size_t i = 0; i < kRuleIds.size(); ++i) {
    s += i == 0 ? "\n" : ",\n";
    s += "        {\"id\": \"" + escape(kRuleIds[i]) +
         "\", \"shortDescription\": {\"text\": \"" +
         escape(rule_summary(kRuleIds[i])) + "\"}}";
  }
  s += "\n      ]\n";
  s += "    }},\n";
  s += "    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    s += i == 0 ? "\n" : ",\n";
    s += "      {\"ruleId\": \"" + escape(f.rule) +
         "\", \"level\": \"warning\", \"message\": {\"text\": \"" +
         escape(f.message) + "\"}, \"locations\": [{\"physicalLocation\": "
         "{\"artifactLocation\": {\"uri\": \"" + escape(f.file) +
         "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
         "}}}]}";
  }
  s += findings.empty() ? "]\n" : "\n    ]\n";
  s += "  }]\n";
  s += "}\n";
  return s;
}

}  // namespace herolint
