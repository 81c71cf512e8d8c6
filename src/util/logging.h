#ifndef CPGAN_UTIL_LOGGING_H_
#define CPGAN_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace cpgan::util {

/// Severity levels for the lightweight logger.
enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// Sets the global minimum severity that will be emitted. Messages below the
/// threshold are dropped. Thread-compatible: call once at startup.
void SetLogLevel(LogLevel level);

/// Returns the current global minimum severity.
LogLevel GetLogLevel();

/// Parses a level name ("debug", "info", "warning", "error"); defaults to
/// kInfo for unknown names.
LogLevel ParseLogLevel(const std::string& name);

namespace internal {

/// Stream-style log message that emits on destruction, mirroring the
/// LOG(INFO) << ... idiom without a glog dependency. Each line carries an
/// ISO-8601 UTC timestamp, severity, a small sequential thread id, and the
/// source location:
///
///   2026-08-06T12:34:56Z INFO  [t0 cpgan.cc:210] epoch 3 ...
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace cpgan::util

#define CPGAN_LOG(level)                                                       \
  ::cpgan::util::internal::LogMessage(::cpgan::util::LogLevel::k##level,       \
                                      __FILE__, __LINE__)                      \
      .stream()

#endif  // CPGAN_UTIL_LOGGING_H_
