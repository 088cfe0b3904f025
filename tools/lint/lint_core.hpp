// hero-lint core: determinism/correctness static analysis for the
// HeroServe sources.
//
// The whole stack is a deterministic discrete-event simulation; the
// planner (Alg. 1-2) and online scheduler (Eq. 16-18) are reproducible
// only while nothing in the hot path depends on hash order, wall clocks,
// or ambient randomness — and physically meaningful only while every
// seconds/bytes/bandwidth value carries the dimension its variable
// claims. hero-lint is a plain-text/token scanner (no libclang, no
// std::regex): rules work line-by-line on comment-masked source or over
// its token stream (unordered-iter, uninit-member's declarations, and
// raw-unit-literal with a per-file symbol table of unit-typed locals);
// the project rules (analyze.hpp) reason over the quoted-include
// graph of a ProjectIndex (index.hpp) and the declared layer DAG
// (tools/lint/layers.txt). Each rule's one-line doc lives in the rule
// catalogue in lint_core.cpp (`hero_lint --list-rules`, the SARIF rules
// table); DESIGN.md -> "hero-lint" explains each rule and names the gates
// that replaced the rules deleted because another check already fails on
// their violations.
//
// Suppressions: `// hero-lint: allow(rule-a, rule-b)` on the finding's
// line or the line directly above; `// hero-lint: allow-file(rule)`
// anywhere in the file suppresses the rule file-wide. Under src/ no
// suppression covers wall-clock, ambient-rng or unordered-iter:
// simulator dispatch reaches only src/ code, so a determinism sink there
// is always a finding (and its allow() is reported as stale). Suppressed
// findings are retained in LintReport::suppressed so the CLI's --stats
// can account for every allow().
#pragma once

#include <string>
#include <vector>

#include "source_text.hpp"

namespace herolint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Per-file rule scoping derived from the path.
struct FileContext {
  bool library = false;     ///< under src/: library-only rules apply
  bool rng_module = false;  ///< src/common/rng*: ambient-rng exempt
};

/// Where `path`'s library-relative part starts: the offset just past
/// "src/" when the directory nearest the file that names a top-level tree
/// (src, bench, tools, examples, tests, perfbench) is `src`, npos
/// otherwise. So "/x/src/demo/bench/a.cpp" is bench code, not library.
[[nodiscard]] std::size_t library_offset(const std::string& path);

/// Classify a path by repo conventions (library_offset() => library code).
[[nodiscard]] FileContext classify_path(const std::string& path);

/// Everything one file produced: the findings that survive suppression
/// and the ones an allow()/allow-file() swallowed (for --stats).
struct LintReport {
  std::vector<Finding> findings;
  std::vector<Finding> suppressed;
};

/// Lint one source file. `path` is used for reporting only; scoping comes
/// from `ctx`.
[[nodiscard]] LintReport lint_source_report(const std::string& path,
                                            const std::string& content,
                                            const FileContext& ctx);

/// The per-file rule pipeline with no suppression filtering: every raw
/// finding, sorted by (line, rule). The project analyzer (analyze.hpp)
/// builds on this and partitions findings against each file's
/// suppression inventory itself.
[[nodiscard]] std::vector<Finding> raw_file_findings(
    const std::string& path, const MaskedSource& src,
    const std::vector<Token>& toks, const FileContext& ctx);

/// Append `f` to out.suppressed when an allow() in `sup` covers it (and
/// mark that allow used), else to out.findings. Under src/
/// (`ctx.library`) wall-clock, ambient-rng and unordered-iter are never
/// suppressed.
void report_finding(Finding f, const FileContext& ctx, Suppressions& sup,
                    LintReport& out);

/// Stable (sorted) list of every rule id.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// One-line summary for a rule id (empty for unknown ids) — the SARIF
/// rules table and --list-rules share it.
[[nodiscard]] std::string rule_summary(const std::string& rule);

/// Machine-readable report.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 report (one run, one result per finding) for code-scanning
/// uploads.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace herolint
