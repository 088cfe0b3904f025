#include "index.hpp"

#include <filesystem>

namespace herolint {
namespace {

/// `#include "..."` targets with their lines, from the raw content (the
/// masked view blanks string bodies, so this scans the original text).
std::vector<IncludeDecl> extract_includes(const std::string& content) {
  std::vector<IncludeDecl> out;
  int line = 1;
  std::size_t begin = 0;
  while (begin <= content.size()) {
    std::size_t end = content.find('\n', begin);
    if (end == std::string::npos) end = content.size();
    const std::string text = content.substr(begin, end - begin);
    const std::size_t open = include_operand(text);
    if (open < text.size() && text[open] == '"') {
      const std::size_t close = text.find('"', open + 1);
      if (close != std::string::npos && close > open + 1) {
        out.push_back({text.substr(open + 1, close - open - 1), line});
      }
    }
    begin = end + 1;
    ++line;
  }
  return out;
}

}  // namespace

std::string subsystem_of(const std::string& path) {
  const std::size_t pos = library_offset(path);
  if (pos == std::string::npos) return {};
  const std::size_t slash = path.find('/', pos);
  if (slash == std::string::npos) return {};  // src/file.hpp: no subsystem
  return path.substr(pos, slash - pos);
}

std::string relative_to(const std::string& from, const std::string& target) {
  return (std::filesystem::path(from).parent_path() / target)
      .lexically_normal()
      .generic_string();
}

void ProjectIndex::add_file(const std::string& path,
                            const std::string& content) {
  if (path_to_file_.contains(path)) return;
  path_to_file_[path] = static_cast<int>(files_.size());

  FileRecord rec;
  rec.path = path;
  rec.ctx = classify_path(path);
  rec.src = mask(content);
  rec.tokens = tokenize(rec.src);
  rec.sup = Suppressions::collect(rec.src);
  rec.includes = extract_includes(content);
  rec.subsystem = subsystem_of(path);
  files_.push_back(std::move(rec));
}

int ProjectIndex::resolve_include(int from_file,
                                  const std::string& target) const {
  auto exact = path_to_file_.find(target);
  if (exact != path_to_file_.end()) return exact->second;
  auto rel = path_to_file_.find(relative_to(files_[from_file].path, target));
  if (rel != path_to_file_.end()) return rel->second;
  // Unique-suffix match covers include dirs (-Isrc): "common/units.hpp"
  // resolves against "src/common/units.hpp" wherever the scan rooted.
  const std::string suffix = "/" + target;
  for (const auto& [path, id] : path_to_file_) {
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return id;
    }
  }
  return -1;
}

}  // namespace herolint
