// hero-lint project rules: everything that needs more than one file.
// analyze_project runs the per-file rules over every indexed file, then
//
//   layer-violation
//       an include from src/ that leaves src/, or an include edge between
//       src/ subsystems the declared layer DAG (tools/lint/layers.txt)
//       does not allow.
//   include-cycle
//       a cycle in the quoted-include graph among indexed files.
//   stale-suppression
//       a `hero-lint: allow(...)` comment that suppressed nothing after
//       every per-file and project rule has run.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint_core.hpp"

namespace herolint {

/// The declared layer DAG: each src/ subsystem and the subsystems it may
/// include from. Parsed from tools/lint/layers.txt (`name: dep dep ...`,
/// '#' comments). Self-dependencies are implicit.
struct LayerSpec {
  std::map<std::string, std::set<std::string>> allowed;
  std::vector<std::string> errors;  ///< malformed lines, undeclared deps
  std::string cycle;  ///< "a -> b -> a" when the declared graph is cyclic

  [[nodiscard]] static LayerSpec parse(const std::string& text);
  [[nodiscard]] bool declared(const std::string& subsystem) const {
    return allowed.contains(subsystem);
  }
};

struct AnalyzeOptions {
  /// Layer DAG source text; empty disables the DAG half of
  /// layer-violation (includes that leave src/ are still reported).
  std::string layers_text;
  /// Reporting label for layer findings (the file the text came from).
  std::string layers_path = "tools/lint/layers.txt";
};

/// Run every rule — per-file and project — over the index.
/// Consumes suppressions (mutating each FileRecord's inventory) and then
/// reports the unconsumed ones as stale-suppression. Findings are sorted
/// by (file, line, rule).
[[nodiscard]] LintReport analyze_project(ProjectIndex& index,
                                         const AnalyzeOptions& opts);

}  // namespace herolint
