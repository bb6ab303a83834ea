// Recorded simulated outputs: a flat "key value" text file, one entry per
// line, '#' starting a comment. Values are compared as text after printing
// the observed value the same way, so the check is exact.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

Expected Expected::load(const std::string& path, bool record) {
  Expected expected;
  expected.path_ = path;
  expected.record_ = record;
  std::ifstream in(path);
  if (!in && !record) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    if (!(fields >> key >> value)) {
      throw std::runtime_error(path + ": malformed line: " + line);
    }
    expected.values_[key] = value;
  }
  return expected;
}

bool Expected::check(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return check_text(key, text);
}

bool Expected::check(const std::string& key, std::uint64_t value) {
  return check_text(key, std::to_string(value));
}

bool Expected::check_text(const std::string& key, const std::string& text) {
  if (record_) {
    values_[key] = text;
    return true;
  }
  const auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "expected: no recorded value for %s (observed %s)\n",
                 key.c_str(), text.c_str());
    return false;
  }
  if (it->second != text) {
    std::fprintf(stderr, "expected: %s is %s, recorded %s\n", key.c_str(),
                 text.c_str(), it->second.c_str());
    return false;
  }
  return true;
}

void Expected::save() const {
  std::ofstream out(path_);
  out << "# Simulated outputs the benchmark checks exactly (key value).\n"
         "# Regenerate with: python3 perfbench/run.py --workload <name> --record\n";
  for (const auto& [key, value] : values_) out << key << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path_);
}

}  // namespace perfbench
