#include "util/cli.hpp"

#include <stdexcept>

namespace sealdl::util {

namespace {

/// Parses the whole token with `parse` (std::stoll / std::stod style); a
/// trailing suffix ("12abc") or an unparsable token throws an error naming
/// the flag rather than silently truncating or dying with "stod".
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& token,
                 Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(token, &used);
    if (used == token.size()) return value;
  } catch (const std::logic_error&) {
    // invalid_argument / out_of_range: reported below with the flag name.
  }
  throw std::invalid_argument("invalid value for --" + name + ": '" + token +
                              "'");
}

}  // namespace

CliFlags::CliFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second,
                     [](const std::string& t, std::size_t* used) {
                       return static_cast<std::int64_t>(std::stoll(t, used));
                     });
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second,
                     [](const std::string& t, std::size_t* used) {
                       return std::stod(t, used);
                     });
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace sealdl::util
