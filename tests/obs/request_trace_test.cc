// Request-scoped trace propagation: ScopedRequestContext install/restore
// and nesting, capture-at-post propagation through ThreadPool parallel
// regions, request-id stamping on Chrome trace events, and the per-request
// pid grouping of WriteChromeTrace.

#include "obs/request_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/thread_pool.h"

namespace cpgan::obs {
namespace {

TEST(RequestContextTest, ScopedInstallAndNestedRestore) {
  EXPECT_EQ(CurrentRequestId(), 0u);
  EXPECT_FALSE(CurrentRequestContext().active());
  {
    RequestContext outer;
    outer.id = 7;
    ScopedRequestContext outer_scope(outer);
    EXPECT_EQ(CurrentRequestId(), 7u);
    {
      RequestContext inner;
      inner.id = 9;
      ScopedRequestContext inner_scope(inner);
      EXPECT_EQ(CurrentRequestId(), 9u);
    }
    EXPECT_EQ(CurrentRequestId(), 7u);
  }
  EXPECT_EQ(CurrentRequestId(), 0u);
}

TEST(RequestContextTest, PropagatesThroughParallelFor) {
  util::ThreadPool pool(4);
  RequestContext context;
  context.id = 42;
  std::atomic<int> chunks_with_context{0};
  std::atomic<int> chunks_total{0};
  {
    ScopedRequestContext scope(context);
    pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
      chunks_total.fetch_add(1);
      if (CurrentRequestId() == 42) chunks_with_context.fetch_add(1);
    });
  }
  EXPECT_EQ(chunks_total.load(), 64);
  // Every chunk — whichever worker claimed it — saw the posting thread's
  // context.
  EXPECT_EQ(chunks_with_context.load(), 64);

  // After the region, neither the caller nor the workers keep the context.
  EXPECT_EQ(CurrentRequestId(), 0u);
  std::atomic<int> leaked{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (CurrentRequestId() != 0) leaked.fetch_add(1);
  });
  EXPECT_EQ(leaked.load(), 0);
}

TEST(RequestContextTest, ChromeTraceGroupsSpansByRequest) {
  const std::string path =
      ::testing::TempDir() + "/request_trace_chrome.json";
  util::ThreadPool pool(4);

  ResetTraces();
  SetTracingEnabled(true);
  SetTraceEventsEnabled(true);
  for (uint64_t request_id : {11ull, 12ull}) {
    RequestContext context;
    context.id = request_id;
    ScopedRequestContext scope(context);
    CPGAN_TRACE_SPAN("test/request_root");
    pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
      CPGAN_TRACE_SPAN("test/request_chunk");
    });
  }
  { CPGAN_TRACE_SPAN("test/no_request"); }  // pid 1 lane
  SetTraceEventsEnabled(false);
  SetTracingEnabled(false);

  ASSERT_TRUE(WriteChromeTrace(path));
  std::string text;
  ASSERT_TRUE(util::ReadFileToString(path, &text));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(text, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<double> request_pids;
  std::set<std::string> lane_names;
  bool saw_process_lane = false;
  int chunk_events = 0;
  for (const JsonValue& event : events->items()) {
    const std::string ph = event.Find("ph")->string_value();
    if (ph == "M") {
      // process_name metadata names the per-request lanes.
      EXPECT_EQ(event.Find("name")->string_value(), "process_name");
      lane_names.insert(
          event.Find("args")->Find("name")->string_value());
      continue;
    }
    ASSERT_EQ(ph, "X");
    const double pid = event.NumberOr("pid", -1.0);
    const std::string name = event.Find("name")->string_value();
    if (name == "test/no_request") {
      EXPECT_EQ(pid, 1.0);  // non-request spans stay on the process lane
      saw_process_lane = true;
      continue;
    }
    if (name == "test/request_chunk") ++chunk_events;
    if (pid > 1.0) {
      request_pids.insert(pid);
      // pid encodes request id + 1; args carry the raw id.
      EXPECT_DOUBLE_EQ(
          event.Find("args")->NumberOr("request_id", -1.0) + 1.0, pid);
    }
  }
  EXPECT_TRUE(saw_process_lane);
  EXPECT_EQ(request_pids.size(), 2u);      // one lane per request
  EXPECT_EQ(request_pids.count(12.0), 1u); // request 11 -> pid 12
  EXPECT_EQ(request_pids.count(13.0), 1u);
  EXPECT_EQ(chunk_events, 16);             // 8 chunks per request, stamped
  EXPECT_EQ(lane_names.count("request 11"), 1u);
  EXPECT_EQ(lane_names.count("request 12"), 1u);

  ResetTraces();
}

}  // namespace
}  // namespace cpgan::obs
