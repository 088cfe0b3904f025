#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace hero::cli {
namespace {

[[noreturn]] void usage_error(const char* usage, const char* flag) {
  std::fprintf(stderr, "missing value for %s\nusage: %s\n", flag, usage);
  std::exit(1);
}

[[noreturn]] void bad_flag(const char* usage, const char* flag,
                           const char* token, const char* why) {
  std::fprintf(stderr, "bad value '%s' for %s: %s\nusage: %s\n", token, flag,
               why, usage);
  std::exit(1);
}

/// True when the whole of `token` parses as a T (no sign on unsigned
/// types, no trailing characters).
template <typename T>
bool parse_whole(std::string_view token, T& value) {
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  return ec == std::errc() && end == token.data() + token.size();
}

}  // namespace

Options parse_args(int& argc, char** argv, const char* usage) {
  Options opts;
  opts.usage = usage;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error(usage, flag);
      return argv[++i];
    };
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::printf("usage: %s\n", usage);
      std::exit(0);
    } else if (std::strcmp(a, "--seed") == 0) {
      const char* token = value("--seed");
      if (!parse_whole(token, opts.seed)) {
        bad_flag(usage, "--seed", token, "expected a non-negative integer");
      }
      opts.seed_given = true;
    } else if (std::strcmp(a, "--faults") == 0) {
      opts.faults_path = value("--faults");
    } else if (std::strcmp(a, "--trace") == 0) {
      opts.trace_path = value("--trace");
    } else if (std::strcmp(a, "--instances") == 0) {
      const char* token = value("--instances");
      if (!parse_whole(token, opts.instances) || opts.instances == 0) {
        bad_flag(usage, "--instances", token, "expected a positive integer");
      }
    } else if (std::strcmp(a, "--router") == 0) {
      opts.router = value("--router");
    } else if (std::strcmp(a, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(a, "--full-solve") == 0) {
      opts.full_solve = true;
    } else {
      if (a[0] != '-') opts.positional.emplace_back(a);
      argv[out++] = argv[i];  // pass through (benchmark flags, positionals)
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return opts;
}

void bad_positional(const Options& opts, std::size_t i, const char* why) {
  std::fprintf(stderr, "bad argument '%s': %s\nusage: %s\n",
               opts.positional.at(i).c_str(), why, opts.usage);
  std::exit(1);
}

double positional_double(const Options& opts, std::size_t i,
                         double fallback) {
  if (i >= opts.positional.size()) return fallback;
  double value = 0.0;
  if (!parse_whole(opts.positional[i], value) || !std::isfinite(value)) {
    bad_positional(opts, i, "expected a finite number");
  }
  return value;
}

std::size_t positional_size(const Options& opts, std::size_t i,
                            std::size_t fallback) {
  if (i >= opts.positional.size()) return fallback;
  std::size_t value = 0;
  if (!parse_whole(opts.positional[i], value)) {
    bad_positional(opts, i, "expected a non-negative integer");
  }
  return value;
}

std::string positional_str(const Options& opts, std::size_t i,
                           std::string fallback) {
  if (i >= opts.positional.size()) return fallback;
  return opts.positional[i];
}

}  // namespace hero::cli
