// Tracer / TraceSpan unit tests: ring recording and overflow accounting,
// lane naming, name interning, the Chrome trace_event export, and the
// concurrent record+snapshot contract (run under TSan in CI at
// HACC_NUM_THREADS=8).
//
// Most tests use a local Tracer so they are independent of each other;
// TraceSpan is hard-wired to Tracer::global(), so the RAII tests enable
// the singleton and clear it before and after.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace hacc::obs {
namespace {

std::uint64_t total_events(const std::vector<ThreadTraceSnapshot>& lanes) {
  std::uint64_t n = 0;
  for (const auto& lane : lanes) n += lane.events.size();
  return n;
}

std::uint64_t total_dropped(const std::vector<ThreadTraceSnapshot>& lanes) {
  std::uint64_t n = 0;
  for (const auto& lane : lanes) n += lane.dropped;
  return n;
}

TEST(Tracer, RecordsAndSnapshotsOnOneLane) {
  Tracer t;
  t.enable();
  t.record("test.alpha", 1.0, 2.0);
  t.record("test.beta", 2.0, 2.5);
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].events.size(), 2u);
  EXPECT_STREQ(lanes[0].events[0].name, "test.alpha");
  EXPECT_DOUBLE_EQ(lanes[0].events[0].t0, 1.0);
  EXPECT_DOUBLE_EQ(lanes[0].events[0].t1, 2.0);
  EXPECT_STREQ(lanes[0].events[1].name, "test.beta");
  EXPECT_EQ(lanes[0].dropped, 0u);
}

TEST(Tracer, DisabledRecordIsANoOp) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record("test.ignored", 0.0, 1.0);
  EXPECT_TRUE(t.snapshot().empty());  // not even a ring registered
}

TEST(Tracer, DisableStopsRecordingButKeepsEvents) {
  Tracer t;
  t.enable();
  t.record("test.kept", 0.0, 1.0);
  t.disable();
  t.record("test.after", 1.0, 2.0);
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].events.size(), 1u);
  EXPECT_STREQ(lanes[0].events[0].name, "test.kept");
}

TEST(Tracer, RingOverflowDropsNewestAndCountsTheLoss) {
  Tracer t;
  t.enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    t.record("test.flood", i, i + 0.5);
  }
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].events.size(), 4u);
  EXPECT_EQ(lanes[0].dropped, 6u);
  // The oldest events survive (drop-newest policy).
  EXPECT_DOUBLE_EQ(lanes[0].events[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(lanes[0].events[3].t0, 3.0);
}

TEST(Tracer, ClearDropsEventsAndKeepsTheRing) {
  Tracer t;
  t.enable(4);
  for (int i = 0; i < 10; ++i) t.record("test.x", i, i + 1.0);
  t.clear();
  auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);  // ring still registered
  EXPECT_TRUE(lanes[0].events.empty());
  EXPECT_EQ(lanes[0].dropped, 0u);
  t.record("test.x", 0.0, 1.0);  // and still usable
  lanes = t.snapshot();
  EXPECT_EQ(lanes[0].events.size(), 1u);
}

TEST(Tracer, InternReturnsAStablePointerPerName) {
  Tracer t;
  const char* a = t.intern("xsycl.kernel_a");
  const char* b = t.intern("xsycl.kernel_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("xsycl.kernel_a"), a);
  EXPECT_STREQ(a, "xsycl.kernel_a");
}

TEST(Tracer, SetThreadNameShowsUpInSnapshots) {
  Tracer t;
  t.set_thread_name("driver");
  t.enable();
  t.record("test.named", 0.0, 1.0);
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].thread_name, "driver");
}

TEST(Tracer, UnnamedLanesGetRegistrationOrderFallbackNames) {
  Tracer t;
  t.enable();
  t.record("test.a", 0.0, 1.0);
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].thread_name, "thread-0");
}

TEST(Tracer, EachThreadGetsItsOwnLane) {
  Tracer t;
  t.enable();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 3;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, w] {
      t.set_thread_name("lane-" + std::to_string(w));
      for (int i = 0; i < kEventsPerThread; ++i) {
        t.record("test.mt", i, i + 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto lanes = t.snapshot();
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(total_events(lanes), static_cast<std::uint64_t>(kThreads * kEventsPerThread));
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.events.size(), static_cast<std::size_t>(kEventsPerThread));
    EXPECT_EQ(lane.thread_name.rfind("lane-", 0), 0u) << lane.thread_name;
  }
}

TEST(Tracer, ConcurrentRecordAndSnapshotSeeOnlyCompleteEvents) {
  // The TSan target: pool workers record while another thread snapshots.
  // Acquire/release on each ring's count means a snapshot must never see a
  // half-written event.
  Tracer t;
  t.enable();
  std::atomic<bool> done{false};
  std::thread reader([&t, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto& lane : t.snapshot()) {
        for (const auto& e : lane.events) {
          ASSERT_STREQ(e.name, "test.race");
          ASSERT_DOUBLE_EQ(e.t1 - e.t0, 1.0);
        }
      }
    }
  });
  util::ThreadPool pool(8);
  constexpr std::int64_t n = 4000;
  pool.parallel_for(n, [&t](std::int64_t i) {
    t.record("test.race", static_cast<double>(i), static_cast<double>(i) + 1.0);
  });
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const auto lanes = t.snapshot();
  EXPECT_EQ(total_events(lanes) + total_dropped(lanes),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(total_dropped(lanes), 0u) << "default capacity should hold " << n;
}

TEST(Tracer, WriteChromeTraceEmitsLoadableJson) {
  Tracer t;
  t.set_thread_name("export-test");
  t.enable();
  t.record("test.span_one", 0.001, 0.002);
  t.record(t.intern("test.span_two"), 0.002, 0.004);
  const std::string path = ::testing::TempDir() + "/hacc_test_trace.json";
  const TraceExportStats stats = t.write_chrome_trace(path);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, 1);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"export-test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span_one\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span_two\""), std::string::npos);
  // Duration events carry microsecond timestamps: 0.001 s -> ts 1000 us.
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1000.000,\"dur\":1000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"dropped_events\":0}"),
            std::string::npos);
}

TEST(Tracer, WriteChromeTraceRecordsTheDroppedCount) {
  // A truncated trace must say so in the file itself, not only on stdout.
  Tracer t;
  t.enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) t.record("test.flood", i, i + 0.5);
  const std::string path = ::testing::TempDir() + "/hacc_test_trace_drops.json";
  EXPECT_EQ(t.write_chrome_trace(path).dropped, 6u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_NE(ss.str().find("\"otherData\":{\"dropped_events\":6}"),
            std::string::npos);
}

TEST(Tracer, WriteChromeTraceThrowsWhenUnwritable) {
  Tracer t;
  t.enable();
  t.record("test.x", 0.0, 1.0);
  EXPECT_THROW(t.write_chrome_trace("/nonexistent-dir-hacc/trace.json"),
               std::runtime_error);
}

class GlobalTraceSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  static std::vector<TraceEvent> my_events() {
    std::vector<TraceEvent> out;
    for (const auto& lane : Tracer::global().snapshot()) {
      out.insert(out.end(), lane.events.begin(), lane.events.end());
    }
    return out;
  }
};

TEST_F(GlobalTraceSpanTest, SpanRecordsItsBracketOnDestruction) {
  Tracer::global().enable();
  {
    const TraceSpan span("test.scoped");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto events = my_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.scoped");
  EXPECT_GE(events[0].t1 - events[0].t0, 0.001);
}

TEST_F(GlobalTraceSpanTest, SpanWhileDisabledRecordsNothing) {
  { const TraceSpan span("test.dark"); }
  EXPECT_TRUE(my_events().empty());
}

TEST_F(GlobalTraceSpanTest, NullNameSpanIsAnExplicitNoOp) {
  Tracer::global().enable();
  { const TraceSpan span(nullptr); }
  EXPECT_TRUE(my_events().empty());
}

}  // namespace
}  // namespace hacc::obs
