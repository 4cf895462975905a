// Minimal command-line / environment option parsing for the bench and
// example binaries.
//
// Every option --name <value> can also be supplied through the environment
// as IDG_BENCH_NAME (dashes become underscores, upper-cased); the command
// line takes precedence. `--paper` switches to the full 2017 benchmark
// configuration (see DESIGN.md §7).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace idg {

class Options {
 public:
  /// Parses argv. Options take a value except those in `flag_names`.
  /// Duplicate options are always an error; every parse problem is
  /// collected and reported in ONE idg::Error (so a user fixing a command
  /// line sees all mistakes at once, not one per run).
  Options(int argc, const char* const* argv,
          const std::vector<std::string>& flag_names = {
              "paper", "help", "verbose", "sorted", "unsorted"});

  /// Like the above, but additionally rejects any option not listed in
  /// `known_options` or `flag_names` (all unknown options are reported
  /// together). The bench binaries pass their shared catalogue here
  /// (bench::parse_bench_options), so a typo'd --subgird fails fast
  /// instead of being silently ignored.
  Options(int argc, const char* const* argv,
          const std::vector<std::string>& flag_names,
          const std::vector<std::string>& known_options);

  bool has(const std::string& name) const;
  bool flag(const std::string& name) const { return has(name); }

  std::string get(const std::string& name, const std::string& fallback) const;
  long get(const std::string& name, long fallback) const;
  double get(const std::string& name, double fallback) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  void parse(int argc, const char* const* argv,
             const std::vector<std::string>& flag_names,
             const std::vector<std::string>* known_options);
  std::optional<std::string> lookup(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The one shared catalogue of value-taking options every bench and example
/// binary understands (--stations, --grid, --epsilon, ...). Declared once
/// here so the bench harness (bench/bench_common.hpp) and the examples
/// stay in sync: a flag added for one is immediately known — and
/// typo-checked — for all.
const std::vector<std::string>& standard_option_catalogue();

/// The shared boolean flags (--paper, --help, --verbose, --sorted,
/// --unsorted, --sweep and --hw, which samples hardware perf_event
/// counters per stage when the host permits, see obs/perfcounters.hpp).
const std::vector<std::string>& standard_flag_names();

/// Parses argv against the shared catalogue: unknown and duplicate options
/// are rejected, all problems reported in one idg::Error.
Options parse_standard_options(int argc, const char* const* argv);

}  // namespace idg
