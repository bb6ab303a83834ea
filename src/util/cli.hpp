// Minimal command-line flag parsing for benches and examples.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms; unknown
// flags are an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sealdl::util {

class CliFlags {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  CliFlags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Numeric getters parse the whole value: anything else (e.g. "12abc")
  /// throws std::invalid_argument("invalid value for --name: '12abc'").
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Names of all flags that were supplied but never queried — call at the end
  /// of main() to reject typos. Returns empty vector if everything was used.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace sealdl::util
