// The ZLOG_* level gate: a disabled level builds no line and evaluates none
// of the streamed operands; an enabled one evaluates each exactly once.

#include "src/common/logging.h"

#include <gtest/gtest.h>

#include <string>

namespace zebra {
namespace {

class LevelGuard {
 public:
  explicit LevelGuard(LogLevel level) : previous_(GetLogLevel()) { SetLogLevel(level); }
  ~LevelGuard() { SetLogLevel(previous_); }

 private:
  LogLevel previous_;
};

TEST(LoggingTest, DisabledLevelDoesNotEvaluateOperands) {
  int evaluations = 0;
  auto operand = [&evaluations]() {
    ++evaluations;
    return std::string("expensive");
  };
  LevelGuard guard(LogLevel::kOff);
  ZLOG_DEBUG << operand() << " and " << operand();
  ZLOG_INFO << operand();
  ZLOG_WARN << operand();
  ZLOG_ERROR << operand();
  EXPECT_EQ(evaluations, 0);
}

TEST(LoggingTest, LevelsBelowTheMinimumAreSkipped) {
  int evaluations = 0;
  auto operand = [&evaluations]() { return ++evaluations; };
  LevelGuard guard(LogLevel::kError);
  ZLOG_WARN << operand();
  EXPECT_EQ(evaluations, 0);
  testing::internal::CaptureStderr();
  ZLOG_ERROR << "value " << operand() << " then " << operand();
  const std::string emitted = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 2);
  EXPECT_EQ(emitted, "[E] value 1 then 2\n");
}

TEST(LoggingTest, StatementFormComposesWithIfElse) {
  LevelGuard guard(LogLevel::kOff);
  volatile bool condition = true;
  bool else_taken = false;
  if (condition)
    ZLOG_INFO << "taken";
  else
    else_taken = true;
  EXPECT_FALSE(else_taken);
}

}  // namespace
}  // namespace zebra
