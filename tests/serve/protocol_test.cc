// Wire-protocol coverage: request parsing (verbs, keys, value validation,
// failure modes) and response format round-trips.

#include "serve/protocol.h"

#include <gtest/gtest.h>

namespace cpgan::serve {
namespace {

TEST(Protocol, ParsesFullGenerateRequest) {
  Request request;
  std::string error;
  ASSERT_TRUE(ParseRequest(
      "GENERATE model=web nodes=256 edges=1024 seed=9 deadline_ms=50.5 "
      "out=/tmp/g.txt hier=1",
      &request, &error))
      << error;
  EXPECT_EQ(request.verb, Verb::kGenerate);
  EXPECT_EQ(request.model, "web");
  EXPECT_EQ(request.nodes, 256);
  EXPECT_EQ(request.edges, 1024);
  EXPECT_EQ(request.seed, 9u);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 50.5);
  EXPECT_EQ(request.out, "/tmp/g.txt");
  EXPECT_TRUE(request.hierarchical);
}

TEST(Protocol, HierFlagParsesAndValidates) {
  Request request;
  std::string error;
  ASSERT_TRUE(ParseRequest("GENERATE hier=0", &request, &error)) << error;
  EXPECT_FALSE(request.hierarchical);
  ASSERT_TRUE(ParseRequest("GENERATE hier=1", &request, &error)) << error;
  EXPECT_TRUE(request.hierarchical);
  EXPECT_FALSE(ParseRequest("GENERATE hier=2", &request, &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(ParseRequest("GENERATE hier=yes", &request, &error));
}

TEST(Protocol, DefaultsApplyWhenKeysOmitted) {
  Request request;
  std::string error;
  ASSERT_TRUE(ParseRequest("GENERATE", &request, &error)) << error;
  EXPECT_EQ(request.model, "default");
  EXPECT_EQ(request.nodes, 0);
  EXPECT_EQ(request.edges, 0);
  EXPECT_EQ(request.seed, 0u);
  EXPECT_LT(request.deadline_ms, 0.0);  // unset -> server default
  EXPECT_FALSE(request.hierarchical);
}

TEST(Protocol, KeysParseInAnyOrder) {
  Request request;
  std::string error;
  ASSERT_TRUE(ParseRequest("GENERATE seed=3   model=m  nodes=10", &request,
                           &error))
      << error;
  EXPECT_EQ(request.seed, 3u);
  EXPECT_EQ(request.model, "m");
  EXPECT_EQ(request.nodes, 10);
}

TEST(Protocol, RejectsMalformedInput) {
  Request request;
  std::string error;
  EXPECT_FALSE(ParseRequest("FROBNICATE", &request, &error));
  EXPECT_NE(error.find("unknown verb"), std::string::npos);
  EXPECT_FALSE(ParseRequest("GENERATE node=5", &request, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(ParseRequest("GENERATE nodes=-3", &request, &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(ParseRequest("GENERATE nodes=abc", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE deadline_ms=-1", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE seed", &request, &error));
  EXPECT_NE(error.find("malformed pair"), std::string::npos);
  EXPECT_FALSE(ParseRequest("RELOAD model=x", &request, &error));
  EXPECT_NE(error.find("checkpoint"), std::string::npos);
  // Out-of-range numbers are rejected, not wrapped or saturated.
  EXPECT_FALSE(ParseRequest("GENERATE nodes=4294967297", &request, &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
  EXPECT_FALSE(ParseRequest("GENERATE nodes=3000000000", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE nodes=2147483648", &request, &error));
  EXPECT_TRUE(ParseRequest("GENERATE nodes=2147483647", &request, &error));
  EXPECT_EQ(request.nodes, 2147483647);
  EXPECT_FALSE(ParseRequest("GENERATE seed=99999999999999999999999",
                            &request, &error));
  EXPECT_FALSE(
      ParseRequest("GENERATE edges=99999999999999999999", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE deadline_ms=inf", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE deadline_ms=nan", &request, &error));
  EXPECT_FALSE(ParseRequest("GENERATE deadline_ms=1e999", &request, &error));
}

TEST(Protocol, BlankAndCommentLinesReportEmpty) {
  Request request;
  std::string error;
  EXPECT_FALSE(ParseRequest("", &request, &error));
  EXPECT_EQ(error, "empty");
  EXPECT_FALSE(ParseRequest("   \t  ", &request, &error));
  EXPECT_EQ(error, "empty");
  EXPECT_FALSE(ParseRequest("# a comment", &request, &error));
  EXPECT_EQ(error, "empty");
}

TEST(Protocol, FailedParseLeavesRequestUntouched) {
  Request request;
  request.model = "sentinel";
  std::string error;
  EXPECT_FALSE(ParseRequest("GENERATE nodes=bogus model=x", &request, &error));
  EXPECT_EQ(request.model, "sentinel");
}

TEST(Protocol, ResponseRoundTripsThroughWireForm) {
  Response response;
  response.id = 42;
  response.status = ResponseStatus::kDegraded;
  response.model = "default";
  response.nodes = 100;
  response.edges = 320;
  response.latency_ms = 12.5;
  response.retries = 2;
  response.detail = "memory_or_queue_pressure";
  Response parsed;
  ASSERT_TRUE(ParseResponse(FormatResponse(response), &parsed));
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.status, ResponseStatus::kDegraded);
  EXPECT_EQ(parsed.model, "default");
  EXPECT_EQ(parsed.nodes, 100);
  EXPECT_EQ(parsed.edges, 320);
  EXPECT_NEAR(parsed.latency_ms, 12.5, 1e-3);
  EXPECT_EQ(parsed.retries, 2);
  EXPECT_EQ(parsed.detail, "memory_or_queue_pressure");
  EXPECT_TRUE(parsed.completed());
}

TEST(Protocol, NonCompletedResponsesOmitGraphSize) {
  Response response;
  response.id = 7;
  response.status = ResponseStatus::kShed;
  response.detail = "queue_full";
  std::string line = FormatResponse(response);
  EXPECT_EQ(line.find("nodes="), std::string::npos);
  EXPECT_EQ(line.find("edges="), std::string::npos);
  Response parsed;
  ASSERT_TRUE(ParseResponse(line, &parsed));
  EXPECT_EQ(parsed.status, ResponseStatus::kShed);
  EXPECT_FALSE(parsed.completed());
}

TEST(Protocol, DetailWithSpacesIsSanitized) {
  Response response;
  response.id = 1;
  response.status = ResponseStatus::kError;
  response.detail = "two words=here";
  std::string line = FormatResponse(response);
  Response parsed;
  ASSERT_TRUE(ParseResponse(line, &parsed)) << line;
  EXPECT_EQ(parsed.detail, "two_words_here");
}

TEST(Protocol, EveryStatusHasAStableWireName) {
  for (ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kDegraded, ResponseStatus::kShed,
        ResponseStatus::kDeadlineExceeded, ResponseStatus::kError}) {
    Response response;
    response.id = 1;
    response.status = status;
    Response parsed;
    ASSERT_TRUE(ParseResponse(FormatResponse(response), &parsed))
        << StatusName(status);
    EXPECT_EQ(parsed.status, status);
  }
}

}  // namespace
}  // namespace cpgan::serve
