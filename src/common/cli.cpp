#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hero::cli {
namespace {

[[noreturn]] void usage_error(const char* usage, const char* flag) {
  std::fprintf(stderr, "missing value for %s\nusage: %s\n", flag, usage);
  std::exit(1);
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
      opts.seed = static_cast<std::uint64_t>(std::atoll(value("--seed")));
      opts.seed_given = true;
    } else if (std::strcmp(a, "--faults") == 0) {
      opts.faults_path = value("--faults");
    } else if (std::strcmp(a, "--trace") == 0) {
      opts.trace_path = value("--trace");
    } else if (std::strcmp(a, "--instances") == 0) {
      opts.instances = static_cast<std::size_t>(
          std::atoll(value("--instances")));
      if (opts.instances == 0) opts.instances = 1;
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
  const std::string& token = opts.positional[i];
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size() ||
      !std::isfinite(value)) {
    bad_positional(opts, i, "expected a finite number");
  }
  return value;
}

std::size_t positional_size(const Options& opts, std::size_t i,
                            std::size_t fallback) {
  if (i >= opts.positional.size()) return fallback;
  const std::string& token = opts.positional[i];
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size()) {
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
