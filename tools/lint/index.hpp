// hero-lint project index: one pass over every file in the analyzed
// trees, keeping what the project rules (analyze.hpp) reason over:
//
//   * each file's masked source, tokens and suppression inventory
//   * `#include "..."` edges between project files
//   * the src/ subsystem each file belongs to (for the layer DAG)
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lint_core.hpp"
#include "source_text.hpp"

namespace herolint {

/// One `#include "target"` in a file (angle includes are not project
/// edges and are ignored).
struct IncludeDecl {
  std::string target;
  int line = 0;  // 1-based
};

/// Everything the analyzer knows about one file. Suppressions are owned
/// here (mutable usage state) because per-file and project rules consume
/// from the same inventory.
struct FileRecord {
  std::string path;
  FileContext ctx;
  MaskedSource src;
  std::vector<Token> tokens;
  Suppressions sup;
  std::vector<IncludeDecl> includes;
  std::string subsystem;  ///< second path component under src/, or ""
};

/// Whole-program fact base: add every file, then hand the index to
/// analyze_project.
class ProjectIndex {
 public:
  /// Parse and index one file. `path` is the reporting/classification
  /// label; duplicate paths are ignored.
  void add_file(const std::string& path, const std::string& content);

  [[nodiscard]] const std::vector<FileRecord>& files() const {
    return files_;
  }
  [[nodiscard]] std::vector<FileRecord>& files() { return files_; }

  /// Resolve an include target against the indexed files: exact path,
  /// path relative to the including file's directory (`..` collapsed),
  /// or unique path-suffix match. Returns the file id or -1.
  [[nodiscard]] int resolve_include(int from_file,
                                    const std::string& target) const;

 private:
  std::vector<FileRecord> files_;
  std::map<std::string, int> path_to_file_;
};

/// "src/netsim/flownet.cpp" -> "netsim"; "" when not library code (see
/// library_offset) or with no subsystem directory.
[[nodiscard]] std::string subsystem_of(const std::string& path);

/// `target` read relative to the directory of `from`, with `.` and `..`
/// collapsed: ("src/serving/x.cpp", "../../bench/u.hpp") -> "bench/u.hpp".
[[nodiscard]] std::string relative_to(const std::string& from,
                                      const std::string& target);

}  // namespace herolint
