// Command-line parsing: the one argument grammar of the `drbw` CLI, the
// bench harnesses, the examples, `drbw_analyze` and `pipebench`.
//
// Options (`--name value`, `--name=value`, `--flag`) and declared
// positionals may appear in any order.  Numeric reads take bounds, so a
// value out of range — or a non-finite double — is a UsageError (exit 64)
// with one message format, never a silent clamp, wrap or crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw {

/// Thrown for malformed *user input* on the command line (unknown option,
/// missing value, non-numeric or out-of-range argument) as opposed to
/// programmer errors.  Drivers catch it separately to exit with a distinct
/// usage status.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what)
      : Error(what, ErrorCode::kUsage) {}
};

/// Declarative option registry + parser.  Unknown options are an error, and
/// so is any bare argument beyond the declared positionals; `--help` prints
/// usage and signals the caller to exit.
class ArgParser {
 public:
  /// `max_count` for a positional that takes any number of values.
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  ArgParser(std::string program, std::string description);

  ArgParser& add_flag(const std::string& name, const std::string& help);
  ArgParser& add_option(const std::string& name, const std::string& help,
                        const std::string& default_value);
  /// Declares `min_count`..`max_count` bare arguments named `name`.  Bare
  /// arguments fill the declared positionals in declaration order; only the
  /// last one may be kUnbounded.
  ArgParser& add_positional(const std::string& name, const std::string& help,
                            std::size_t min_count, std::size_t max_count);

  /// Parses argv.  Returns false when `--help` was requested (usage has been
  /// printed); throws UsageError on malformed input.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  /// Whether the command line set option `name` (its default otherwise).
  bool given(const std::string& name) const { return given_.count(name) > 0; }
  /// Every bare argument, in command-line order.
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Bounded reads: throw UsageError("--name must be between lo and hi, got
  /// 'raw'") when the value is out of [lo, hi] or (double) not finite.  The
  /// defaults accept any int64 / any finite double.
  std::int64_t option_int(
      const std::string& name,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  double option_double(
      const std::string& name,
      double lo = std::numeric_limits<double>::lowest(),
      double hi = std::numeric_limits<double>::max()) const;

  std::string usage() const;

  /// Every declared option with its resolved (parsed-or-default) value and
  /// every flag as "true"/"false", sorted by name — the run manifest records
  /// this as the run's effective configuration.
  std::vector<std::pair<std::string, std::string>> resolved_options() const;

 private:
  struct Spec {
    std::string help;
    bool is_flag = false;
    std::string default_value;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::size_t min_count = 0;
    std::size_t max_count = 0;
  };

  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Spec>> specs_;
  std::vector<Positional> positional_specs_;
  std::map<std::string, std::string> values_;
  std::set<std::string> given_;
  std::map<std::string, bool> flags_;
  std::vector<std::string> positionals_;

  const Spec* find_spec(const std::string& name) const;
};

}  // namespace drbw
