#include "common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/result.h"

namespace provdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, NamedConstructorsCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    std::string_view name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NotFound"},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists,
       "AlreadyExists"},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::Corruption("m"), StatusCode::kCorruption, "Corruption"},
      {Status::IoError("m"), StatusCode::kIoError, "IoError"},
      {Status::VerificationFailed("m"), StatusCode::kVerificationFailed,
       "VerificationFailed"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
      {Status::Unimplemented("m"), StatusCode::kUnimplemented,
       "Unimplemented"},
      {Status::Unavailable("m"), StatusCode::kUnavailable, "Unavailable"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Corruption("inner"); };
  auto outer = [&]() -> Status {
    PROVDB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  Status s = outer();
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "inner");
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  int reached = 0;
  auto outer = [&]() -> Status {
    PROVDB_RETURN_IF_ERROR(Status::OK());
    reached = 1;
    return Status::OK();
  };
  EXPECT_TRUE(outer().ok());
  EXPECT_EQ(reached, 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesAnInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultDeathTest, ValueOfAnErrorAbortsInAllBuildTypes) {
  // An error result holds no value: reading one prints the status and
  // aborts in Release builds too, instead of handing back garbage.
  Result<int> number = Status::NotFound("gone");
  EXPECT_DEATH((void)number.value(), "NotFound: gone");
  EXPECT_DEATH((void)*number, "NotFound: gone");
  Result<std::string> text = Status::Corruption("torn frame");
  EXPECT_DEATH((void)text->size(), "Corruption: torn frame");
  EXPECT_DEATH((void)std::move(text).value(), "Corruption: torn frame");
  const Result<std::string> unset = Status::OK();
  EXPECT_DEATH((void)unset.value(),
               "Internal: Result constructed from an OK status");
}

TEST(ResultTest, MoveOnlyValueSupported) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  auto make = [](bool ok) -> Result<int> {
    if (ok) return 10;
    return Status::OutOfRange("nope");
  };
  auto sum = [&](bool ok) -> Result<int> {
    PROVDB_ASSIGN_OR_RETURN(int a, make(ok));
    PROVDB_ASSIGN_OR_RETURN(int b, make(true));
    return a + b;
  };
  Result<int> good = sum(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 20);
  Result<int> bad = sum(false);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace provdb
