// hero-lint source-text layer: the representation every rule pass —
// per-file (lint_core) and project (index/analyze) — shares.
//
// A file is modeled three ways, all length-preserving so any match index
// is a valid (line, column) in the original file:
//
//   MaskedSource.code      comments and string/char-literal bodies blanked
//   MaskedSource.comments  everything but comment text blanked
//   Token stream           identifiers / numbers / punctuation with their
//                          1-based source line
//
// Suppressions (`// hero-lint: allow(rule)` / `allow-file(rule)`) live here
// too because both rule tiers consult the same inventory: per-file rules
// consume them first, project rules (layer-violation, include-cycle)
// consume them second, and whatever is left unconsumed is what the
// stale-suppression rule reports.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace herolint {

/// Per-line code text and comment text, lengths identical to the input.
struct MaskedSource {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

/// Blank out comments/strings (into `code`) and non-comments (into
/// `comments`), preserving line structure and column positions.
[[nodiscard]] MaskedSource mask(const std::string& content);

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;  // 1-based
};

/// Tokenize masked code. Numbers keep suffixes/exponents glued
/// (1e-9, 0x1p+3, 100ULL); two-char punctuators (::, ->, +=, ...) are
/// single tokens.
[[nodiscard]] std::vector<Token> tokenize(const MaskedSource& src);

/// One `allow(rule)` / `allow-file(rule)` occurrence, addressable for
/// staleness reporting.
struct AllowSite {
  int line = 0;  ///< 1-based line of the comment
  std::string rule;
  bool file_wide = false;
};

/// The suppression inventory of one file, with usage tracking: `consume()`
/// both answers "is this finding suppressed?" and marks the matching
/// site(s) used, so unused sites can be reported as stale afterwards.
class Suppressions {
 public:
  /// Harvest directives from comment text. A directive must start its
  /// comment (`// hero-lint: allow(x)`); prose that merely quotes the
  /// syntax mid-sentence is not a site.
  [[nodiscard]] static Suppressions collect(const MaskedSource& src);

  /// True when an allow-file(rule), or an allow(rule) on `line`/`line-1`,
  /// covers the finding; every matching site is marked used.
  bool consume(const std::string& rule, int line);

  /// Suppression comments in file order (line, then rule).
  [[nodiscard]] const std::vector<AllowSite>& sites() const { return sites_; }

  /// True when sites_[i] has consumed at least one finding.
  [[nodiscard]] bool used(std::size_t i) const { return used_.contains(i); }

 private:
  std::vector<AllowSite> sites_;
  // Lookup indexes into sites_: rule -> site ids (file-wide), and
  // (line, rule) -> site ids (per-line).
  std::map<std::string, std::vector<std::size_t>> file_wide_;
  std::map<std::pair<int, std::string>, std::vector<std::size_t>> per_line_;
  std::set<std::size_t> used_;
};

/// True for [A-Za-z0-9_].
[[nodiscard]] bool ident_char(char c);

/// True when `text[pos]` starts a freestanding token: not a member access
/// (`.x`, `->x`), not the tail of a longer identifier. `::` prefixes are
/// allowed (std::time must be flagged).
[[nodiscard]] bool freestanding_token(const std::string& text,
                                      std::size_t pos);

/// The first index at or after `pos` that is not a space or tab.
[[nodiscard]] std::size_t skip_space(const std::string& text,
                                     std::size_t pos);

/// Where the operand of an `#include` directive starts in `line` (at its
/// `"` or `<`), or npos when `line` is not an include directive.
[[nodiscard]] std::size_t include_operand(const std::string& line);

/// Occurrences of `token` followed (after spaces) by '(' that are real
/// freestanding calls.
[[nodiscard]] std::vector<std::size_t> find_calls(const std::string& line,
                                                  const std::string& token);

/// Names declared as std::unordered_map/std::unordered_set in this file.
[[nodiscard]] std::set<std::string> unordered_names(const MaskedSource& src);

}  // namespace herolint
