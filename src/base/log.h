// Minimal logging and invariant-checking support.
//
// CHECK(cond) aborts with a message when an invariant is violated; it is used
// for programmer errors only, never for conditions reachable from simulated
// user programs (those return Status codes). LOG(level) writes to stderr and
// can be silenced globally, which the benches do.

#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace multics {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Global minimum level; messages below it are discarded.
void SetMinLogLevel(LogLevel level);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when a log statement is compiled out.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace multics

#define MX_LOG_STREAM(level) \
  ::multics::LogMessage(::multics::LogLevel::level, __FILE__, __LINE__).stream()

#define LOG(level) MX_LOG_STREAM(k##level)

#define CHECK(cond)                                       \
  (cond) ? (void)0                                        \
         : ::multics::LogMessageVoidify() &               \
               MX_LOG_STREAM(kFatal) << "CHECK failed: " #cond " "

#define CHECK_EQ(a, b) CHECK((a) == (b))
#define CHECK_NE(a, b) CHECK((a) != (b))
#define CHECK_LT(a, b) CHECK((a) < (b))
#define CHECK_LE(a, b) CHECK((a) <= (b))
#define CHECK_GT(a, b) CHECK((a) > (b))
#define CHECK_GE(a, b) CHECK((a) >= (b))

#endif  // SRC_BASE_LOG_H_
