// Shared command-line parsing for the example and benchmark binaries.
//
// Every per-binary main used to hand-roll the same argv loop; this parser
// owns the flags they all share —
//   --seed N           deterministic run seed
//   --faults plan.json fault-injection plan (see faults/fault_plan.hpp)
//   --trace out.json   Chrome trace output path
//   --instances N      fleet size (multi-instance serving)
//   --router NAME      fleet dispatch policy (rr | random | jsq | hero)
//   --quick            reduced-size run (smoke-test mode)
//   --full-solve       whole-fabric max-min each round (equivalence gate)
//   --help             print the binary's usage string and exit 0
// — plus strict positional argument parsing. Recognized flags are *removed*
// from argv (argc is updated) so harnesses can hand the remainder to
// google-benchmark's Initialize() untouched; unrecognized flags (e.g.
// --benchmark_filter) pass through.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

namespace hero::cli {

struct Options {
  std::uint64_t seed = 1;
  bool seed_given = false;     ///< --seed appeared (callers keep their own
                               ///< default otherwise)
  std::string faults_path;     ///< empty = no fault plan requested
  std::string trace_path;      ///< empty = no trace requested
  std::size_t instances = 1;   ///< --instances (fleet size; 1 = single)
  std::string router;          ///< --router policy name; empty = default
  bool quick = false;          ///< --quick smoke-test mode
  bool full_solve = false;     ///< --full-solve (incremental-engine check)
  std::vector<std::string> positional;
  const char* usage = "";      ///< echoed when a positional is rejected
};

/// Parse and strip the shared flags from argv. On --help prints `usage`
/// and exits 0; on a flag missing its value prints `usage` to stderr and
/// exits 1.
[[nodiscard]] Options parse_args(int& argc, char** argv, const char* usage);

/// Positional accessors with defaults (index past the end -> fallback).
/// The whole token must parse: a finite number for positional_double, a
/// non-negative integer for positional_size. Anything else is rejected
/// through bad_positional().
[[nodiscard]] double positional_double(const Options& opts, std::size_t i,
                                       double fallback);
[[nodiscard]] std::size_t positional_size(const Options& opts, std::size_t i,
                                          std::size_t fallback);
/// Print the offending token, `why` and the usage string to stderr, then
/// exit 1 — also for range checks the caller makes (a rate <= 0, say).
[[noreturn]] void bad_positional(const Options& opts, std::size_t i,
                                 const char* why);
[[nodiscard]] std::string positional_str(const Options& opts, std::size_t i,
                                         std::string fallback = {});

/// Run a file loader; when it throws, print its message on one line to
/// stderr and exit 1 instead of aborting on the uncaught exception.
template <typename Load>
auto load_or_exit(Load&& load) -> decltype(load()) {
  try {
    return load();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

}  // namespace hero::cli
