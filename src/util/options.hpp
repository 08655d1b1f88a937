// Minimal command-line option parsing for examples and tools.
// Supports --name=value and --name value forms plus --help generation.
//
// Error handling is strict so CLI mistakes fail loudly instead of
// silently running with a default: a flag given twice throws at parse
// time, a malformed or missing numeric value throws from the typed
// getter, and tools can reject unknown flags with reject_unknown().
// All errors are OptionsError with a message naming the offending flag.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace km {

/// Thrown on CLI misuse: duplicate flag, malformed value, missing value,
/// or (via reject_unknown) an unrecognized flag.
class OptionsError : public std::runtime_error {
 public:
  explicit OptionsError(const std::string& what) : std::runtime_error(what) {}
};

class Options {
 public:
  /// Throws OptionsError if the same --flag appears more than once.
  Options(int argc, char** argv);

  /// True if --name was present at all (with or without a value).
  bool has(const std::string& name) const;

  /// Typed getters return `fallback` when --name is absent, and throw
  /// OptionsError when it is present with a missing or malformed value
  /// (get_uint additionally rejects negative values).
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;
  /// get_uint that also accepts the literal `keyword` (e.g. "auto"),
  /// returned as `keyword_value`.
  std::uint64_t get_uint_or(const std::string& name, const std::string& keyword,
                            std::uint64_t keyword_value,
                            std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws OptionsError if any parsed flag is not in `known`; the
  /// message lists the offending flag and the accepted set.
  void reject_unknown(const std::vector<std::string>& known) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  const std::string* find_required_value(const std::string& name,
                                         const char* type_name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace km
