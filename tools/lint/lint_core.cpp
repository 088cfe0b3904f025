#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
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
    {"float-equal",
     "exact ==/!= against a floating-point literal; use an epsilon or "
     "integer state"},
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

void scan_unordered_iter(const MaskedSource& src,
                         const std::string& path,
                         std::vector<Finding>& out) {
  const std::set<std::string> names = unordered_names(src);
  if (names.empty()) return;
  static const std::regex range_for(
      R"(for\s*\([^():]*:\s*\(?\s*\*?\s*([A-Za-z_]\w*)\s*\))");
  static const std::regex begin_end(
      R"(([A-Za-z_]\w*)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\()");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), range_for);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      if (names.contains(name)) {
        out.push_back({path, static_cast<int>(i) + 1, "unordered-iter",
                       "range-for over unordered container '" + name +
                           "': iteration order depends on the stdlib hash; "
                           "use an ordered container or sorted keys"});
      }
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), begin_end);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      // `x == c.end()` / `x != c.end()` after find() is a membership
      // test, not a traversal — skip sentinel comparisons.
      std::size_t before = static_cast<std::size_t>(it->position(0));
      while (before > 0 && line[before - 1] == ' ') --before;
      if (before >= 2 && line[before - 1] == '=' &&
          (line[before - 2] == '=' || line[before - 2] == '!')) {
        continue;
      }
      if (names.contains(name)) {
        out.push_back({path, static_cast<int>(i) + 1, "unordered-iter",
                       "iterator over unordered container '" + name +
                           "': traversal order depends on the stdlib hash; "
                           "use an ordered container or sorted keys"});
      }
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

void scan_float_equal(const MaskedSource& src, const std::string& path,
                      std::vector<Finding>& out) {
  static const std::regex lit_rhs(
      R"([=!]=\s*[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?)");
  static const std::regex lit_lhs(
      R"((?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?\s*[=!]=)");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    if (std::regex_search(line, lit_rhs) ||
        std::regex_search(line, lit_lhs)) {
      out.push_back({path, static_cast<int>(i) + 1, "float-equal",
                     "exact ==/!= against a floating-point literal: "
                     "compare with an epsilon or track integer state"});
    }
  }
}

void scan_iostream(const MaskedSource& src, const std::string& path,
                   std::vector<Finding>& out) {
  static const std::regex inc(R"(^\s*#\s*include\s*<iostream>)");
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    if (std::regex_search(src.code[i], inc)) {
      out.push_back({path, static_cast<int>(i) + 1, "iostream",
                     "<iostream> in library code: log via common/log, "
                     "print from examples/bench drivers only"});
    }
  }
}

void scan_uninit_member(const MaskedSource& src, const std::string& path,
                        std::vector<Finding>& out) {
  // Scalar-ish member types: builtins, fixed-width ints, the repo's
  // numeric/id aliases, and raw pointers.
  static const std::regex member(
      R"(^\s*(?:mutable\s+)?()"
      R"((?:std::)?(?:u?int(?:8|16|32|64)?_t|size_t|ptrdiff_t)|)"
      R"(bool|char|short|int|long(?:\s+long)?|unsigned(?:\s+int|\s+long)?|)"
      R"(float|double|Time|Bytes|Bandwidth|[A-Za-z_][\w:]*Id|)"
      R"([A-Za-z_][\w:]*(?:<[\w:,\s*&]*>)?\s*\*+)"
      R"()\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*;\s*$)");
  // Only `struct` scopes are checked: classes establish invariants in
  // constructors, while structs are used as aggregates whose members leak
  // indeterminate values when left bare. `enum class` is not a class.
  static const std::regex struct_head(R"((?:^|[;{}\s])struct\s+[A-Za-z_]\w*)");
  static const std::regex skip_kw(
      R"(^\s*(?:using|typedef|friend|static|constexpr|inline|extern|return))");

  struct Scope {
    int depth = 0;      // brace depth of the struct body
    bool is_struct = false;
  };
  std::vector<Scope> scopes;
  int depth = 0;
  bool pending_struct = false;  // saw a struct head, waiting for its '{'

  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& line = src.code[i];
    const bool head_here = std::regex_search(line, struct_head) &&
                           line.find(';') == std::string::npos &&
                           line.find("enum") == std::string::npos;

    // Member check happens at the struct body's own depth, before brace
    // bookkeeping for this line (members and braces rarely share a line).
    if (!scopes.empty() && scopes.back().is_struct &&
        depth == scopes.back().depth &&
        line.find('(') == std::string::npos &&
        line.find('=') == std::string::npos &&
        line.find('{') == std::string::npos &&
        !std::regex_search(line, skip_kw)) {
      std::smatch m;
      if (std::regex_match(line, m, member)) {
        out.push_back({path, static_cast<int>(i) + 1, "uninit-member",
                       "member '" + m[2].str() +
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
  scan_unordered_iter(src, path, raw);
  scan_wall_clock(src, path, raw);
  if (!ctx.rng_module) scan_ambient_rng(src, path, raw);
  scan_float_equal(src, path, raw);
  if (ctx.library) scan_iostream(src, path, raw);
  scan_uninit_member(src, path, raw);
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
