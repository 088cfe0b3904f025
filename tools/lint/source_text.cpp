#include "source_text.hpp"

#include <cctype>
#include <sstream>

namespace herolint {

MaskedSource mask(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  MaskedSource out;
  std::string code_line, comment_line;
  State state = State::kCode;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      out.code.push_back(std::move(code_line));
      out.comments.push_back(std::move(comment_line));
      code_line.clear();
      comment_line.clear();
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          comment_line += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          comment_line += "/*";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          code_line += '"';
          comment_line += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
          comment_line += ' ';
        } else {
          code_line += c;
          comment_line += ' ';
        }
        break;
      case State::kLineComment:
        code_line += ' ';
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          comment_line += "*/";
          ++i;
        } else {
          code_line += ' ';
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          comment_line += "  ";
          if (next != '\0' && next != '\n') ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
          comment_line += ' ';
        } else {
          code_line += ' ';
          comment_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          comment_line += "  ";
          if (next != '\0' && next != '\n') ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
          comment_line += ' ';
        } else {
          code_line += ' ';
          comment_line += ' ';
        }
        break;
    }
  }
  out.code.push_back(std::move(code_line));
  out.comments.push_back(std::move(comment_line));
  return out;
}

namespace {

bool starts_number(const std::string& s, std::size_t i) {
  const char c = s[i];
  if (std::isdigit(static_cast<unsigned char>(c)) != 0) return true;
  return c == '.' && i + 1 < s.size() &&
         std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0;
}

/// Parse a comma-separated rule list out of "...allow(rule-a, rule-b)...".
std::vector<std::string> parse_allow_list(const std::string& text,
                                          std::size_t open_paren) {
  std::vector<std::string> rules;
  const std::size_t close = text.find(')', open_paren);
  if (close == std::string::npos) return rules;
  std::string inside = text.substr(open_paren + 1, close - open_paren - 1);
  std::stringstream ss(inside);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const auto b = rule.find_first_not_of(" \t");
    const auto e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) rules.push_back(rule.substr(b, e - b + 1));
  }
  return rules;
}

}  // namespace

std::vector<Token> tokenize(const MaskedSource& src) {
  static const char* kTwoCharPunct[] = {"::", "->", "==", "!=", "<=", ">=",
                                        "+=", "-=", "*=", "/=", "&&", "||",
                                        "<<", ">>"};
  std::vector<Token> toks;
  for (std::size_t li = 0; li < src.code.size(); ++li) {
    const std::string& s = src.code[li];
    const int line = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (ident_char(c) && !starts_number(s, i)) {
        std::size_t j = i;
        while (j < s.size() && ident_char(s[j])) ++j;
        toks.push_back({Token::Kind::kIdent, s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (starts_number(s, i)) {
        std::size_t j = i;
        while (j < s.size() &&
               (ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) {
          // Exponent sign belongs to the literal: 1e-9, 0x1p+3.
          if ((s[j] == 'e' || s[j] == 'E' || s[j] == 'p' || s[j] == 'P') &&
              j + 1 < s.size() && (s[j + 1] == '+' || s[j + 1] == '-')) {
            j += 2;
          } else {
            ++j;
          }
        }
        toks.push_back({Token::Kind::kNumber, s.substr(i, j - i), line});
        i = j;
        continue;
      }
      bool matched = false;
      for (const char* two : kTwoCharPunct) {
        if (s.compare(i, 2, two) == 0) {
          toks.push_back({Token::Kind::kPunct, two, line});
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
        ++i;
      }
    }
  }
  return toks;
}

Suppressions Suppressions::collect(const MaskedSource& src) {
  Suppressions sup;
  for (std::size_t i = 0; i < src.comments.size(); ++i) {
    const std::string& text = src.comments[i];
    const int line = static_cast<int>(i) + 1;
    std::size_t pos = text.find("hero-lint:");
    // A directive must start its comment: only comment punctuation and
    // whitespace before "hero-lint:". Prose that merely quotes the
    // syntax (docs, this file) is not a suppression site.
    if (pos != std::string::npos) {
      for (std::size_t k = 0; k < pos; ++k) {
        const char c = text[k];
        if (c != '/' && c != '*' && c != ' ' && c != '\t') {
          pos = std::string::npos;
          break;
        }
      }
    }
    if (pos != std::string::npos) {
      const std::size_t file_marker = text.find("allow-file(", pos);
      const std::size_t line_marker = text.find("allow(", pos);
      if (file_marker != std::string::npos) {
        for (const auto& r : parse_allow_list(text, file_marker + 10)) {
          sup.file_wide_[r].push_back(sup.sites_.size());
          sup.sites_.push_back({line, r, /*file_wide=*/true});
        }
      } else if (line_marker != std::string::npos) {
        for (const auto& r : parse_allow_list(text, line_marker + 5)) {
          sup.per_line_[{line, r}].push_back(sup.sites_.size());
          sup.sites_.push_back({line, r, /*file_wide=*/false});
        }
      }
    }
  }
  return sup;
}

bool Suppressions::consume(const std::string& rule, int line) {
  bool covered = false;
  auto fw = file_wide_.find(rule);
  if (fw != file_wide_.end()) {
    covered = true;
    for (std::size_t id : fw->second) used_.insert(id);
  }
  for (int l : {line, line - 1}) {
    auto it = per_line_.find({l, rule});
    if (it != per_line_.end()) {
      covered = true;
      for (std::size_t id : it->second) used_.insert(id);
    }
  }
  return covered;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool freestanding_token(const std::string& text, std::size_t pos) {
  if (pos == 0) return true;
  const char prev = text[pos - 1];
  if (ident_char(prev) || prev == '.') return false;
  if (prev == '>' && pos >= 2 && text[pos - 2] == '-') return false;
  return true;
}

std::size_t skip_space(const std::string& text, std::size_t pos) {
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
    ++pos;
  }
  return pos;
}

std::size_t include_operand(const std::string& line) {
  std::size_t pos = skip_space(line, 0);
  if (pos >= line.size() || line[pos] != '#') return std::string::npos;
  pos = skip_space(line, pos + 1);
  if (line.compare(pos, 7, "include") != 0) return std::string::npos;
  return skip_space(line, pos + 7);
}

std::vector<std::size_t> find_calls(const std::string& line,
                                    const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = line.find(token);
  while (pos != std::string::npos) {
    std::size_t after = pos + token.size();
    while (after < line.size() && line[after] == ' ') ++after;
    if (after < line.size() && line[after] == '(' &&
        freestanding_token(line, pos)) {
      hits.push_back(pos);
    }
    pos = line.find(token, pos + 1);
  }
  return hits;
}

std::set<std::string> unordered_names(const MaskedSource& src) {
  std::string joined;
  for (const std::string& line : src.code) {
    joined += line;
    joined += '\n';
  }
  std::set<std::string> names;
  for (const char* kind : {"unordered_map", "unordered_set"}) {
    std::size_t pos = joined.find(kind);
    for (; pos != std::string::npos; pos = joined.find(kind, pos + 1)) {
      if (pos > 0 && ident_char(joined[pos - 1])) continue;
      std::size_t i = pos + std::string(kind).size();
      while (i < joined.size() &&
             std::isspace(static_cast<unsigned char>(joined[i]))) {
        ++i;
      }
      if (i >= joined.size() || joined[i] != '<') continue;
      int depth = 0;
      for (; i < joined.size(); ++i) {
        if (joined[i] == '<') ++depth;
        if (joined[i] == '>') {
          // Treat >> as two closers (nested template arguments).
          if (--depth == 0) break;
        }
      }
      if (depth != 0) break;
      ++i;  // past the closing '>'
      // Optional cv/ref decoration, then the declared name.
      while (i < joined.size() &&
             (std::isspace(static_cast<unsigned char>(joined[i])) ||
              joined[i] == '&' || joined[i] == '*')) {
        ++i;
      }
      std::size_t name_begin = i;
      while (i < joined.size() && ident_char(joined[i])) ++i;
      if (i == name_begin) continue;
      const std::string name = joined.substr(name_begin, i - name_begin);
      while (i < joined.size() &&
             std::isspace(static_cast<unsigned char>(joined[i]))) {
        ++i;
      }
      if (i < joined.size() && (joined[i] == ';' || joined[i] == '=' ||
                                joined[i] == '{' || joined[i] == ',' ||
                                joined[i] == ')')) {
        names.insert(name);
      }
    }
  }
  return names;
}

}  // namespace herolint
