#include "core/status.h"

#include <gtest/gtest.h>

namespace mcond {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, OverloadCodesRenderTheirNames) {
  EXPECT_EQ(Status::ResourceExhausted("request queue full").ToString(),
            "ResourceExhausted: request queue full");
  EXPECT_EQ(Status::Unavailable("server is shut down").ToString(),
            "Unavailable: server is shut down");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, ValueOnErrorDies) {
  StatusOr<int> v = Status::Internal("boom");
  EXPECT_DEATH(v.value(), "boom");
}

TEST(StatusOrTest, OkStatusConstructionDies) {
  EXPECT_DEATH((StatusOr<int>(Status::Ok())), "OK status");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

namespace {
Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}
Status Outer(int x) {
  MCOND_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::Ok();
}
}  // namespace

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Outer(1).ok());
  EXPECT_EQ(Outer(-1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mcond
