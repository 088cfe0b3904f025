#include "analyze.hpp"

#include <algorithm>
#include <sstream>

namespace herolint {
namespace {

/// Include adjacency: for each file, the (target file, include line)
/// edges that resolve inside the index.
std::vector<std::vector<std::pair<int, int>>> include_edges(
    const ProjectIndex& index) {
  std::vector<std::vector<std::pair<int, int>>> adj(index.files().size());
  for (std::size_t i = 0; i < index.files().size(); ++i) {
    for (const IncludeDecl& inc : index.files()[i].includes) {
      const int target =
          index.resolve_include(static_cast<int>(i), inc.target);
      if (target >= 0 && target != static_cast<int>(i)) {
        adj[i].push_back({target, inc.line});
      }
    }
  }
  return adj;
}

/// Why include `inc` of file `from` (a src/ file) breaks the layering,
/// or "" when it does not. `dag` is null when no layer DAG was given.
std::string layer_problem(const ProjectIndex& index, int from,
                          const IncludeDecl& inc, const LayerSpec* dag,
                          const std::string& layers_path) {
  const FileRecord& file = index.files()[from];
  // Where the include lands: the resolved file, else the target read
  // relative to the includer (so `../../bench/x.hpp` is caught even in a
  // partial scan).
  const int resolved = index.resolve_include(from, inc.target);
  const std::string landing = resolved >= 0
                                  ? index.files()[resolved].path
                                  : relative_to(file.path, inc.target);
  if (!classify_path(landing).library) {
    return "include of '" + inc.target + "' leaves src/ (" + landing +
           "): library code may include only src/ files";
  }
  if (dag == nullptr || file.subsystem.empty()) return {};
  // Target subsystem: from the resolved file when the include resolves,
  // else from the path prefix when it names a declared subsystem (so a
  // violation is caught even in a partial scan).
  std::string target;
  if (resolved >= 0) {
    target = index.files()[resolved].subsystem;
  } else {
    const std::size_t slash = inc.target.find('/');
    if (slash != std::string::npos) {
      const std::string prefix = inc.target.substr(0, slash);
      if (dag->declared(prefix)) target = prefix;
    }
  }
  if (target.empty() || target == file.subsystem) return {};
  if (!dag->declared(file.subsystem)) {
    return "subsystem '" + file.subsystem + "' is not declared in " +
           layers_path + "; add it with its allowed dependencies";
  }
  if (!dag->allowed.at(file.subsystem).contains(target)) {
    return "include of '" + inc.target + "': layer DAG (" + layers_path +
           ") does not allow " + file.subsystem + " -> " + target;
  }
  return {};
}

void check_layers(ProjectIndex& index, const AnalyzeOptions& opts,
                  LintReport& out) {
  const LayerSpec spec = LayerSpec::parse(opts.layers_text);
  const LayerSpec* dag = opts.layers_text.empty() ? nullptr : &spec;
  if (dag != nullptr) {
    for (const std::string& err : spec.errors) {
      out.findings.push_back({opts.layers_path, 1, "layer-violation", err});
    }
    if (!spec.cycle.empty()) {
      out.findings.push_back(
          {opts.layers_path, 1, "layer-violation",
           "declared layer graph is not a DAG: " + spec.cycle});
    }
  }
  for (std::size_t i = 0; i < index.files().size(); ++i) {
    FileRecord& file = index.files()[i];
    if (!file.ctx.library) continue;  // drivers/tools are unlayered
    for (const IncludeDecl& inc : file.includes) {
      std::string message = layer_problem(index, static_cast<int>(i), inc,
                                          dag, opts.layers_path);
      if (message.empty()) continue;
      report_finding(
          {file.path, inc.line, "layer-violation", std::move(message)},
          file.ctx, file.sup, out);
    }
  }
}

void check_include_cycles(ProjectIndex& index, LintReport& out) {
  const auto adj = include_edges(index);
  const std::size_t n = index.files().size();
  // Iterate in path order so the reported representative of each cycle
  // is stable regardless of scan order.
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return index.files()[a].path < index.files()[b].path;
  });

  enum : char { kWhite, kGray, kBlack };
  std::vector<char> color(n, kWhite);
  std::vector<int> stack;  // current DFS path (file ids)
  std::set<std::set<int>> seen_cycles;

  // Recursive DFS via explicit frames (file, next edge index).
  for (int root : order) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<int, std::size_t>> frames{{root, 0}};
    color[root] = kGray;
    stack.push_back(root);
    while (!frames.empty()) {
      auto& [cur, edge] = frames.back();
      if (edge >= adj[cur].size()) {
        color[cur] = kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const auto [next, line] = adj[cur][edge++];
      if (color[next] == kGray) {
        // Back edge: the cycle is stack[pos(next)..] plus this edge.
        auto it = std::find(stack.begin(), stack.end(), next);
        std::set<int> key(it, stack.end());
        if (seen_cycles.insert(key).second) {
          std::string chain;
          for (auto p = it; p != stack.end(); ++p) {
            chain += index.files()[*p].path + " -> ";
          }
          chain += index.files()[next].path;
          FileRecord& file = index.files()[cur];
          report_finding({file.path, line, "include-cycle",
                          "header include cycle: " + chain +
                              "; break it with a forward declaration or "
                              "a split header"},
                         file.ctx, file.sup, out);
        }
      } else if (color[next] == kWhite) {
        color[next] = kGray;
        stack.push_back(next);
        frames.push_back({next, 0});
      }
    }
  }
}

void check_stale_suppressions(ProjectIndex& index, LintReport& out) {
  for (FileRecord& file : index.files()) {
    const std::vector<AllowSite> sites = file.sup.sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const AllowSite& site = sites[i];
      // An allow(stale-suppression) exists only to quiet this very rule;
      // exempting it avoids self-reference.
      if (site.rule == "stale-suppression") continue;
      if (file.sup.used(i)) continue;
      const bool known =
          std::find(rule_ids().begin(), rule_ids().end(), site.rule) !=
          rule_ids().end();
      std::string message =
          std::string("suppression '") +
          (site.file_wide ? "allow-file(" : "allow(") + site.rule +
          ")' no longer suppresses any finding; delete it";
      if (!known) {
        message += " (unknown rule '" + site.rule + "')";
      }
      report_finding({file.path, site.line, "stale-suppression",
                      std::move(message)},
                     file.ctx, file.sup, out);
    }
  }
}

}  // namespace

LayerSpec LayerSpec::parse(const std::string& text) {
  LayerSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::size_t colon = line.find(':');
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (colon == std::string::npos) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": expected 'subsystem: dep dep ...'");
      continue;
    }
    std::string name = line.substr(0, colon);
    const auto nb = name.find_first_not_of(" \t");
    const auto ne = name.find_last_not_of(" \t");
    name = nb == std::string::npos ? "" : name.substr(nb, ne - nb + 1);
    if (name.empty()) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": empty subsystem name");
      continue;
    }
    if (spec.allowed.contains(name)) {
      spec.errors.push_back("layers.txt line " + std::to_string(line_no) +
                            ": duplicate subsystem '" + name + "'");
      continue;
    }
    std::set<std::string>& deps = spec.allowed[name];
    std::istringstream rest(line.substr(colon + 1));
    std::string dep;
    while (rest >> dep) deps.insert(dep);
    deps.insert(name);  // self always allowed
  }
  // Every named dependency must itself be declared, and the declared
  // graph must be a DAG (DFS cycle check, deterministic map order).
  for (const auto& [name, deps] : spec.allowed) {
    for (const std::string& dep : deps) {
      if (!spec.allowed.contains(dep)) {
        spec.errors.push_back("layers.txt: '" + name +
                              "' depends on undeclared subsystem '" + dep +
                              "'");
      }
    }
  }
  std::map<std::string, char> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  // NOLINTNEXTLINE(misc-no-recursion): bounded by subsystem count
  auto dfs = [&](auto&& self, const std::string& node) -> bool {
    color[node] = 1;
    path.push_back(node);
    auto it = spec.allowed.find(node);
    if (it != spec.allowed.end()) {
      for (const std::string& dep : it->second) {
        if (dep == node || !spec.allowed.contains(dep)) continue;
        if (color[dep] == 1) {
          auto start = std::find(path.begin(), path.end(), dep);
          std::string chain;
          for (auto p = start; p != path.end(); ++p) chain += *p + " -> ";
          spec.cycle = chain + dep;
          return false;
        }
        if (color[dep] == 0 && !self(self, dep)) return false;
      }
    }
    color[node] = 2;
    path.pop_back();
    return true;
  };
  for (const auto& [name, deps] : spec.allowed) {
    if (color[name] == 0 && !dfs(dfs, name)) break;
  }
  return spec;
}

LintReport analyze_project(ProjectIndex& index, const AnalyzeOptions& opts) {
  LintReport out;

  // Per-file rules, suppressions consumed per file.
  for (FileRecord& file : index.files()) {
    for (Finding& f :
         raw_file_findings(file.path, file.src, file.tokens, file.ctx)) {
      report_finding(std::move(f), file.ctx, file.sup, out);
    }
  }

  // Architecture rules over the include graph.
  check_layers(index, opts, out);
  check_include_cycles(index, out);

  // Last: anything still unconsumed in the suppression inventory rotted.
  check_stale_suppressions(index, out);

  const auto by_pos = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  };
  std::sort(out.findings.begin(), out.findings.end(), by_pos);
  std::sort(out.suppressed.begin(), out.suppressed.end(), by_pos);
  return out;
}

}  // namespace herolint
