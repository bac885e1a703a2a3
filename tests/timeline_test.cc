#include <gtest/gtest.h>

#include "profiler/sink.h"
#include "scope/timeline.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::scope {
namespace {

using profiler::EventState;
using profiler::TraceEvent;

TraceEvent Done(int pc, int thread, int64_t end_us, int64_t usec,
                const char* stmt = "X_1 := algebra.select(X_0);") {
  TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = EventState::kDone;
  e.time_us = end_us;
  e.usec = usec;
  e.stmt = stmt;
  return e;
}

TEST(TimelineTest, ExtractIntervalsFromDoneEvents) {
  std::vector<TraceEvent> events = {
      Done(0, 0, 100, 100),
      Done(1, 1, 180, 60),
      Done(2, 0, 300, 50),
  };
  auto intervals = ExtractIntervals(events);
  ASSERT_EQ(intervals.size(), 3u);
  // Sorted by (thread, start); timestamps relative to trace start.
  EXPECT_EQ(intervals[0].thread, 0);
  EXPECT_EQ(intervals[0].start_us, 0);
  EXPECT_EQ(intervals[0].end_us, 0);  // t0 = 100 → end 0? see below
}

TEST(TimelineTest, IntervalsRelativeToEarliestEvent) {
  std::vector<TraceEvent> events;
  TraceEvent start;
  start.pc = 0;
  start.state = EventState::kStart;
  start.time_us = 1000;
  events.push_back(start);
  events.push_back(Done(0, 0, 1100, 100));
  auto intervals = ExtractIntervals(events);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].start_us, 0);
  EXPECT_EQ(intervals[0].end_us, 100);
  EXPECT_EQ(intervals[0].op, "algebra.select");
}

TEST(TimelineTest, ClampsNegativeStarts) {
  std::vector<TraceEvent> events = {Done(0, 0, 10, 500)};
  auto intervals = ExtractIntervals(events);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].start_us, 0);
}

TEST(TimelineTest, SvgHasLanePerThreadAndRectPerInstruction) {
  std::vector<TraceEvent> events = {
      Done(0, 0, 100, 50),
      Done(1, 1, 150, 70),
      Done(2, 2, 220, 40),
      Done(3, 1, 400, 90),
  };
  std::string svg = RenderUtilizationTimeline(events);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  for (const char* label : {"thread 0", "thread 1", "thread 2"}) {
    EXPECT_NE(svg.find(label), std::string::npos) << label;
  }
  size_t rects = 0;
  for (size_t pos = 0; (pos = svg.find("class=\"interval\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_EQ(rects, 4u);
  EXPECT_NE(svg.find("<title>pc=3"), std::string::npos);
}

TEST(TimelineTest, EmptyTraceYieldsValidSvg) {
  std::string svg = RenderUtilizationTimeline({});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("0 instructions"), std::string::npos);
}

TEST(TimelineTest, MemoryCurve) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {
    TraceEvent e = Done(i, 0, 100 * (i + 1), 10);
    e.rss_bytes = (i == 2) ? 5000 : 1000;  // peak in the middle
    events.push_back(e);
  }
  std::string svg = RenderMemoryCurve(events);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("peak 5000 bytes"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
}

TEST(TimelineTest, MemoryCurveEmpty) {
  std::string svg = RenderMemoryCurve({});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_EQ(svg.find("<polyline"), std::string::npos);
}

TEST(TimelineTest, RealQueryTimeline) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions options;
  options.dop = 2;
  options.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), options);
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 14);
  server.profiler()->AddSink(ring);
  auto outcome = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
  ASSERT_TRUE(outcome.ok());
  auto events = ring->Snapshot();
  auto intervals = ExtractIntervals(events);
  EXPECT_EQ(intervals.size(), outcome.value().plan->size());
  std::string svg = RenderUtilizationTimeline(events);
  EXPECT_NE(svg.find("algebra.select"), std::string::npos);
}

}  // namespace
}  // namespace stetho::scope
