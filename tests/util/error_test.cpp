#include "anb/util/error.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

namespace anb {
namespace {

std::string message_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected anb::Error";
  return {};
}

TEST(ErrorTest, IsARuntimeError) {
  // Callers that only know std catch it; callers that know anb catch Error.
  EXPECT_THROW(throw Error("x"), std::runtime_error);
  EXPECT_THROW(throw Error("x"), Error);
}

TEST(AnbCheckTest, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(ANB_CHECK(1 + 1 == 2, "math works"));
}

TEST(AnbCheckTest, FailureThrowsError) {
  EXPECT_THROW(ANB_CHECK(false, "nope"), Error);
}

TEST(AnbCheckTest, MessageKeepsUserTextAndAppendsFileLine) {
  const std::string msg =
      message_of([] { ANB_CHECK(false, "bad argument: k > n"); });
  EXPECT_NE(msg.find("bad argument: k > n"), std::string::npos);
  // file:line suffix in the documented "(file:line)" format.
  EXPECT_NE(msg.find("error_test.cpp:"), std::string::npos);
  EXPECT_EQ(msg.back(), ')');
}

TEST(AnbCheckTest, LocationIsRepoRelative) {
  const int line = __LINE__ + 1;
  const std::string msg = message_of([] { ANB_CHECK(false, "where"); });
  const std::string want =
      "(tests/util/error_test.cpp:" + std::to_string(line) + ")";
  ASSERT_GE(msg.size(), want.size());
  EXPECT_EQ(msg.substr(msg.size() - want.size()), want) << msg;
}

TEST(AnbCheckTest, ConditionOnlyEvaluatedOnce) {
  int evaluations = 0;
  ANB_CHECK([&] { return ++evaluations; }() > 0, "side effect");
  EXPECT_EQ(evaluations, 1);
}

TEST(AnbAssertTest, PassingInvariantDoesNotThrow) {
  EXPECT_NO_THROW(ANB_ASSERT(true, "fine"));
}

TEST(AnbAssertTest, FailureThrowsError) {
  EXPECT_THROW(ANB_ASSERT(false, "corrupt state"), Error);
}

TEST(AnbAssertTest, MessageCarriesInvariantPrefix) {
  const std::string msg =
      message_of([] { ANB_ASSERT(false, "heap order violated"); });
  // ANB_ASSERT marks library bugs, distinguishable from ANB_CHECK misuse.
  EXPECT_EQ(msg.rfind("internal invariant violated: ", 0), 0u) << msg;
  EXPECT_NE(msg.find("heap order violated"), std::string::npos);
  EXPECT_NE(msg.find("error_test.cpp:"), std::string::npos);
}

TEST(AnbCheckTest, UsableInSingleStatementContexts) {
  // The do/while(0) wrapper must make the macro a single statement.
  if (true)
    ANB_CHECK(true, "then-branch");
  else
    ANB_CHECK(true, "else-branch");
}

}  // namespace
}  // namespace anb
