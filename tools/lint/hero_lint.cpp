// hero_lint CLI: walk the given files/directories, index every C++
// source into a ProjectIndex, run the per-file AND project rules (layer
// DAG, include cycles, stale suppressions), print findings as
// `file:line: [rule] message`, and exit non-zero when anything
// unsuppressed fires. See lint_core.hpp for the rule catalogue and the
// src/ suppression rule, and analyze.hpp for the project rules.
//
// Usage: hero_lint [--json out.json] [--sarif out.sarif] [--stats]
//                  [--list-rules] [--layers FILE] [paths...]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "index.hpp"
#include "lint_core.hpp"

namespace {

namespace fs = std::filesystem;

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// Collect lintable files under `root` (file or directory), sorted so
/// the report itself is deterministic.
std::vector<std::string> collect(const std::string& root) {
  std::vector<std::string> files;
  std::error_code ec;
  const fs::file_status st = fs::status(root, ec);
  if (ec) {
    std::fprintf(stderr, "hero_lint: cannot stat '%s': %s\n", root.c_str(),
                 ec.message().c_str());
    return files;
  }
  if (fs::is_regular_file(st)) {
    files.push_back(root);
    return files;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file() && is_cpp_source(it->path())) {
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_report(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "hero_lint: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string json_path;
  std::string sarif_path;
  std::string layers_path = "tools/lint/layers.txt";
  bool layers_explicit = false;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& r : herolint::rule_ids()) {
        std::printf("%-25s %s\n", r.c_str(),
                    herolint::rule_summary(r).c_str());
      }
      return 0;
    }
    if (arg == "--json" || arg == "--sarif" || arg == "--layers") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hero_lint: %s needs a path\n", arg.c_str());
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--json") {
        json_path = value;
      } else if (arg == "--sarif") {
        sarif_path = value;
      } else {
        layers_path = value;
        layers_explicit = true;
      }
      continue;
    }
    if (arg == "--stats") {
      stats = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: hero_lint [--json out.json] [--sarif out.sarif] "
          "[--stats] [--list-rules] [--layers FILE] [paths...]\n"
          "  --layers FILE  layer DAG spec (default tools/lint/layers.txt;\n"
          "                 a missing default skips the DAG check; includes "
          "that\n"
          "                 leave src/ are still reported)\n"
          "Under src/, allow() cannot suppress wall-clock, ambient-rng or "
          "unordered-iter.\n");
      return 0;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) roots = {"src", "tools", "bench", "examples"};

  herolint::AnalyzeOptions opts;
  opts.layers_path = layers_path;
  if (!read_file(layers_path, opts.layers_text)) {
    if (layers_explicit) {
      std::fprintf(stderr, "hero_lint: cannot read layers file '%s'\n",
                   layers_path.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "hero_lint: note: no '%s'; layer DAG check skipped\n",
                 layers_path.c_str());
  }

  herolint::ProjectIndex index;
  std::size_t files_seen = 0;
  for (const std::string& root : roots) {
    for (const std::string& file : collect(root)) {
      std::string content;
      if (!read_file(file, content)) {
        std::fprintf(stderr, "hero_lint: cannot read '%s'\n", file.c_str());
        continue;
      }
      ++files_seen;
      index.add_file(file, content);
    }
  }

  herolint::LintReport report = herolint::analyze_project(index, opts);

  std::map<std::string, std::size_t> fired, allowed;
  for (const herolint::Finding& f : report.suppressed) ++allowed[f.rule];
  for (const herolint::Finding& f : report.findings) {
    ++fired[f.rule];
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  if (!json_path.empty() &&
      !write_report(json_path, herolint::to_json(report.findings))) {
    return 2;
  }
  if (!sarif_path.empty() &&
      !write_report(sarif_path, herolint::to_sarif(report.findings))) {
    return 2;
  }
  if (stats) {
    std::printf("%-25s %7s %8s\n", "rule", "fired", "allowed");
    for (const std::string& r : herolint::rule_ids()) {
      std::printf("%-25s %7zu %8zu\n", r.c_str(),
                  fired.count(r) != 0U ? fired.at(r) : 0,
                  allowed.count(r) != 0U ? allowed.at(r) : 0);
    }
  }
  std::printf("hero_lint: %zu finding%s (%zu allowed) in %zu file%s\n",
              report.findings.size(),
              report.findings.size() == 1 ? "" : "s",
              report.suppressed.size(), files_seen,
              files_seen == 1 ? "" : "s");
  return report.findings.empty() ? 0 : 1;
}
