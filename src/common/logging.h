// Minimal leveled logger. Logging is off by default so that test-corpus runs
// (which execute tens of thousands of mini-cluster operations) stay quiet;
// examples and debugging sessions can raise the level.

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace zebra {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

// Sets the process-wide minimum level that is emitted. Thread-safe.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// True if a line at `level` would be emitted.
bool LogEnabled(LogLevel level);

// Emits one line to stderr if `level` >= the configured minimum.
void LogLine(LogLevel level, const std::string& message);

namespace log_internal {

class LineBuilder {
 public:
  explicit LineBuilder(LogLevel level) : level_(level) {}
  ~LineBuilder() { LogLine(level_, stream_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Turns `Voidify() & LineBuilder(...) << a << b` into a void expression, so
// the ZLOG_* ternary has two void arms. `&` binds looser than `<<`, so the
// whole stream chain is built first.
struct Voidify {
  void operator&(const LineBuilder&) {}
};

}  // namespace log_internal

}  // namespace zebra

// `ZLOG_X << a << b;` checks the level first: a disabled level constructs no
// LineBuilder and evaluates none of the streamed operands. Operands therefore
// must not have side effects the program relies on.
#define ZLOG_AT(level)                                  \
  !::zebra::LogEnabled(level)                           \
      ? (void)0                                         \
      : ::zebra::log_internal::Voidify() &              \
            ::zebra::log_internal::LineBuilder(level)

#define ZLOG_DEBUG ZLOG_AT(::zebra::LogLevel::kDebug)
#define ZLOG_INFO ZLOG_AT(::zebra::LogLevel::kInfo)
#define ZLOG_WARN ZLOG_AT(::zebra::LogLevel::kWarning)
#define ZLOG_ERROR ZLOG_AT(::zebra::LogLevel::kError)

#endif  // SRC_COMMON_LOGGING_H_
