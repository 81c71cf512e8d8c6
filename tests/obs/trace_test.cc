// Unit tests for scoped trace spans: nesting, call counts, the
// inclusive/exclusive-time invariants, merging across thread-pool workers,
// the rendered profile, and Chrome trace-event export.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json.h"
#include "util/fileio.h"
#include "util/thread_pool.h"

namespace cpgan::obs {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Enables span collection for one test body and restores the previous
/// state afterwards (tests share one process).
class TracingOn {
 public:
  TracingOn() : prior_(TracingEnabled()), prior_events_(TraceEventsEnabled()) {
    ResetTraces();
    SetTracingEnabled(true);
  }
  ~TracingOn() {
    SetTracingEnabled(prior_);
    SetTraceEventsEnabled(prior_events_);
  }

 private:
  bool prior_;
  bool prior_events_;
};

const SpanStats* FindPath(const std::vector<SpanStats>& stats,
                          const std::string& path) {
  for (const SpanStats& span : stats) {
    if (span.path == path) return &span;
  }
  return nullptr;
}

void Workload() {
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i) * 0.5;
}

TEST(TraceTest, NestedSpansBuildCallTree) {
  TracingOn tracing;
  for (int i = 0; i < 3; ++i) {
    CPGAN_TRACE_SPAN("test/outer");
    Workload();
    for (int j = 0; j < 2; ++j) {
      CPGAN_TRACE_SPAN("test/inner");
      Workload();
    }
  }
  std::vector<SpanStats> stats = CollectSpanStats();
  const SpanStats* outer = FindPath(stats, "test/outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(outer->name, "test/outer");
  const SpanStats* inner = FindPath(stats, "test/outer;test/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 6u);
  EXPECT_EQ(inner->depth, 1);
  // A nested child's inclusive time is bounded by its parent's.
  EXPECT_LE(inner->inclusive_ns, outer->inclusive_ns);
  // exclusive = inclusive - direct children.
  EXPECT_EQ(outer->exclusive_ns, outer->inclusive_ns - inner->inclusive_ns);
}

TEST(TraceTest, ExclusiveTimesSumToTopLevelInclusive) {
  TracingOn tracing;
  {
    CPGAN_TRACE_SPAN("test/root");
    Workload();
    {
      CPGAN_TRACE_SPAN("test/a");
      Workload();
      CPGAN_TRACE_SPAN("test/a_leaf");
      Workload();
    }
    CPGAN_TRACE_SPAN("test/b");
    Workload();
  }
  std::vector<SpanStats> stats = CollectSpanStats();
  uint64_t exclusive_total = 0;
  uint64_t top_level_inclusive = 0;
  for (const SpanStats& span : stats) {
    exclusive_total += span.exclusive_ns;
    if (span.depth == 0) top_level_inclusive += span.inclusive_ns;
  }
  // The tree partitions the root's wall time: summed exclusive time equals
  // summed top-level inclusive time exactly (same clock, no clamping).
  EXPECT_EQ(exclusive_total, top_level_inclusive);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  ResetTraces();
  ASSERT_FALSE(TracingEnabled()) << "tracing should default to disabled";
  {
    CPGAN_TRACE_SPAN("test/should_not_appear");
    Workload();
  }
  EXPECT_TRUE(CollectSpanStats().empty());
}

TEST(TraceTest, SpansInsideThreadPoolWorkersMergeByPath) {
  TracingOn tracing;
  util::ThreadPool pool(4);
  const int64_t n = 64;
  {
    CPGAN_TRACE_SPAN("test/region");
    pool.ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        CPGAN_TRACE_SPAN("test/chunk");
        Workload();
      }
    });
  }
  std::vector<SpanStats> stats = CollectSpanStats();
  // Worker threads record "test/chunk" as a top-level span in their own
  // trees; the caller's chunks nest under "test/region". Total calls across
  // both paths must cover every chunk exactly once.
  uint64_t chunk_calls = 0;
  for (const SpanStats& span : stats) {
    if (span.name == "test/chunk") chunk_calls += span.calls;
  }
  EXPECT_EQ(chunk_calls, static_cast<uint64_t>(n));
}

TEST(TraceTest, ResetTracesClearsStats) {
  TracingOn tracing;
  {
    CPGAN_TRACE_SPAN("test/reset_me");
    Workload();
  }
  EXPECT_FALSE(CollectSpanStats().empty());
  ResetTraces();
  EXPECT_TRUE(CollectSpanStats().empty());
}

TEST(TraceTest, RenderProfileListsSpans) {
  TracingOn tracing;
  {
    CPGAN_TRACE_SPAN("test/profiled");
    Workload();
    CPGAN_TRACE_SPAN("test/profiled_child");
    Workload();
  }
  std::string profile = RenderProfile();
  EXPECT_NE(profile.find("test/profiled"), std::string::npos);
  EXPECT_NE(profile.find("test/profiled_child"), std::string::npos);
  EXPECT_NE(profile.find("calls"), std::string::npos);
}

TEST(TraceTest, WriteChromeTraceEmitsParseableEvents) {
  TracingOn tracing;
  SetTraceEventsEnabled(true);
  {
    CPGAN_TRACE_SPAN("test/chrome_outer");
    Workload();
    CPGAN_TRACE_SPAN("test/chrome_inner");
    Workload();
  }
  std::string path = TempPath("trace_test.json");
  ASSERT_TRUE(WriteChromeTrace(path));

  std::string text;
  ASSERT_TRUE(util::ReadFileToString(path, &text));
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(text, &parsed, &error)) << error;
  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->items().size(), 2u);
  bool saw_inner = false;
  for (const JsonValue& event : events->items()) {
    const JsonValue* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    const JsonValue* phase = event.Find("ph");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->string_value(), "X");
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    if (name->string_value() == "test/chrome_inner") saw_inner = true;
  }
  EXPECT_TRUE(saw_inner);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cpgan::obs
