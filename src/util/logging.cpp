#include "util/logging.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <string>

#include "util/mutex.hpp"

namespace sealdl::util {

namespace {
std::atomic<LogLevel> g_level{
    parse_log_level(std::getenv("SEALDL_LOG_LEVEL"), LogLevel::kWarn)};
// Serializes whole lines onto stderr.
Mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel parse_log_level(const char* name, LogLevel fallback) {
  if (!name) return fallback;
  std::string lowered(name);
  for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lowered == "debug") return LogLevel::kDebug;
  if (lowered == "info") return LogLevel::kInfo;
  if (lowered == "warn" || lowered == "warning") return LogLevel::kWarn;
  if (lowered == "error") return LogLevel::kError;
  return fallback;
}

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void log_line(LogLevel level, const std::string& message) {
  MutexLock lock(g_sink_mutex);
  std::cerr << "[" << level_name(level) << "] " << message << "\n";
}

}  // namespace sealdl::util
