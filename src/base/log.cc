#include "src/base/log.h"

namespace multics {
namespace {

LogLevel g_min_level = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

void SetMinLogLevel(LogLevel level) { g_min_level = level; }

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= g_min_level || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace multics
