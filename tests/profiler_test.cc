#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "profiler/event.h"
#include "profiler/filter.h"
#include "profiler/profiler.h"
#include "profiler/sink.h"

namespace stetho::profiler {
namespace {

TraceEvent MakeEvent(int pc, EventState state, int64_t usec = 0,
                     std::string stmt = "X_1 := sql.mvc();") {
  TraceEvent e;
  e.event = 1;
  e.time_us = 1000;
  e.pc = pc;
  e.thread = 2;
  e.state = state;
  e.usec = usec;
  e.rss_bytes = 4096;
  e.stmt = std::move(stmt);
  return e;
}

// --- trace line format ---

TEST(TraceLineTest, FormatShape) {
  std::string line = FormatTraceLine(MakeEvent(3, EventState::kStart));
  EXPECT_EQ(line.front(), '[');
  EXPECT_EQ(line.back(), ']');
  EXPECT_NE(line.find("\"start\""), std::string::npos);
  EXPECT_NE(line.find("sql.mvc"), std::string::npos);
}

TEST(TraceLineTest, RoundTrip) {
  TraceEvent e = MakeEvent(7, EventState::kDone, 1234,
                           "X_5:bat[:dbl] := algebra.projection(X_3,X_4);");
  auto parsed = ParseTraceLine(FormatTraceLine(e));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), e);
}

TEST(TraceLineTest, RoundTripWithQuotesInStmt) {
  TraceEvent e = MakeEvent(1, EventState::kStart, 0,
                           "X_2 := sql.bind(X_1,\"sys\",\"lineitem\",\"l_tax\",0);");
  auto parsed = ParseTraceLine(FormatTraceLine(e));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().stmt, e.stmt);
}

TEST(TraceLineTest, RejectsMalformed) {
  EXPECT_FALSE(ParseTraceLine("not a trace line").ok());
  EXPECT_FALSE(ParseTraceLine("[ 1, 2, 3 ]").ok());
  EXPECT_FALSE(ParseTraceLine("[ 1,2,3,4,\"weird\",6,7,\"s\" ]").ok());
  EXPECT_FALSE(ParseTraceLine("").ok());
}

TEST(TraceLineTest, ToleratesWhitespace) {
  std::string line = "  " + FormatTraceLine(MakeEvent(1, EventState::kDone)) + "  ";
  EXPECT_TRUE(ParseTraceLine(line).ok());
}

// --- filters ---

TEST(FilterTest, DefaultPassesEverything) {
  EventFilter f;
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kStart)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone)));
}

TEST(FilterTest, OnlyState) {
  EventFilter f;
  f.OnlyState(EventState::kDone);
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kStart)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone)));
}

TEST(FilterTest, MinUsecOnlyGatesDoneEvents) {
  EventFilter f;
  f.MinUsec(100);
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kStart, 0)));
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kDone, 50)));
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone, 150)));
}

TEST(FilterTest, PcRange) {
  EventFilter f;
  f.PcRange(2, 4);
  EXPECT_FALSE(f.Matches(MakeEvent(1, EventState::kDone)));
  EXPECT_TRUE(f.Matches(MakeEvent(2, EventState::kDone)));
  EXPECT_TRUE(f.Matches(MakeEvent(4, EventState::kDone)));
  EXPECT_FALSE(f.Matches(MakeEvent(5, EventState::kDone)));
}

TEST(FilterTest, ModuleFilterParsesStatement) {
  EventFilter f;
  f.AddModule("algebra");
  EXPECT_TRUE(f.Matches(MakeEvent(
      0, EventState::kDone, 0, "X_5:bat[:oid] := algebra.select(X_1,X_2,1,1);")));
  EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kDone, 0, "io.print(X_5);")));
  // Statements without assignment still resolve their module.
  f = EventFilter();
  f.AddModule("io");
  EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone, 0, "io.print(X_5);")));
}

TEST(FilterTest, SerializeDeserializeRoundTrip) {
  EventFilter f;
  f.OnlyState(EventState::kDone).AddModule("algebra").AddModule("aggr");
  f.MinUsec(42).PcRange(1, 9);
  auto back = EventFilter::Deserialize(f.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().Serialize(), f.Serialize());
}

TEST(FilterTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(EventFilter::Deserialize("nonsense").ok());
  EXPECT_FALSE(EventFilter::Deserialize("bogus_key=1;").ok());
}

// --- sinks ---

TEST(RingBufferSinkTest, KeepsMostRecent) {
  RingBufferSink sink(3);
  for (int i = 0; i < 5; ++i) sink.Consume(MakeEvent(i, EventState::kStart));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_consumed(), 5);
  auto snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].pc, 2);
  EXPECT_EQ(snap[2].pc, 4);
}

TEST(RingBufferSinkTest, ConsumeBatchMatchesPerEvent) {
  RingBufferSink batched(4);
  RingBufferSink one_by_one(4);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 7; ++i) events.push_back(MakeEvent(i, EventState::kDone, i));
  batched.ConsumeBatch(events.data(), events.size());
  for (const TraceEvent& e : events) one_by_one.Consume(e);
  EXPECT_EQ(batched.size(), one_by_one.size());
  EXPECT_EQ(batched.total_consumed(), one_by_one.total_consumed());
  EXPECT_EQ(batched.dropped(), one_by_one.dropped());
  auto a = batched.Snapshot();
  auto b = one_by_one.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].pc, b[i].pc);
}

TEST(RingBufferSinkTest, ConsumeBatchLargerThanCapacity) {
  // A batch bigger than the whole ring keeps only the tail; everything
  // else counts as dropped exactly as per-event eviction would.
  RingBufferSink sink(3);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(MakeEvent(i, EventState::kStart));
  }
  sink.ConsumeBatch(events.data(), events.size());
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_consumed(), 10);
  EXPECT_EQ(sink.dropped(), 7);
  auto snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].pc, 7);
  EXPECT_EQ(snap[2].pc, 9);
}

TEST(RingBufferSinkTest, EmptyBatchIsNoOp) {
  RingBufferSink sink(3);
  sink.ConsumeBatch(nullptr, 0);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_consumed(), 0);
}

TEST(RingBufferSinkTest, Clear) {
  RingBufferSink sink(10);
  sink.Consume(MakeEvent(0, EventState::kStart));
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(FileSinkTest, WritesParseableLines) {
  std::string path = testing::TempDir() + "/stetho_trace_test.trace";
  {
    auto sink = FileSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    sink.value()->Consume(MakeEvent(0, EventState::kStart));
    sink.value()->Consume(MakeEvent(0, EventState::kDone, 99));
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(ParseTraceLine(line).ok()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(FileSinkTest, ConsumeBatchWritesIdenticalBytes) {
  std::string batch_path = testing::TempDir() + "/stetho_trace_batch.trace";
  std::string single_path = testing::TempDir() + "/stetho_trace_single.trace";
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent(i, EventState::kDone, 10 * i));
  }
  {
    auto sink = FileSink::Open(batch_path);
    ASSERT_TRUE(sink.ok());
    sink.value()->ConsumeBatch(events.data(), events.size());
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  {
    auto sink = FileSink::Open(single_path);
    ASSERT_TRUE(sink.ok());
    for (const TraceEvent& e : events) sink.value()->Consume(e);
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  std::ifstream a(batch_path), b(single_path);
  std::string sa((std::istreambuf_iterator<char>(a)),
                 std::istreambuf_iterator<char>());
  std::string sb((std::istreambuf_iterator<char>(b)),
                 std::istreambuf_iterator<char>());
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, sb);
  std::remove(batch_path.c_str());
  std::remove(single_path.c_str());
}

TEST(FileSinkTest, OpenFailsOnBadPath) {
  EXPECT_FALSE(FileSink::Open("/nonexistent_dir_zzz/x.trace").ok());
}

// --- Profiler ---

TEST(ProfilerTest, AssignsSequenceAndTimestamp) {
  VirtualClock clock(5000);
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  prof.EmitStart(1, 0, 0, "a");
  clock.Advance(10);
  prof.EmitDone(1, 0, 10, 0, "a");
  auto snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].event, 0);
  EXPECT_EQ(snap[1].event, 1);
  EXPECT_EQ(snap[0].time_us, 5000);
  EXPECT_EQ(snap[1].time_us, 5010);
}

TEST(ProfilerTest, FilterDropsAndCounts) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  EventFilter f;
  f.OnlyState(EventState::kDone);
  prof.SetFilter(f);
  prof.EmitStart(1, 0, 0, "a");
  prof.EmitDone(1, 0, 5, 0, "a");
  EXPECT_EQ(ring->size(), 1u);
  EXPECT_EQ(prof.events_emitted(), 1);
  EXPECT_EQ(prof.events_filtered(), 1);
}

TEST(ProfilerTest, DisabledEmitsNothing) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(16);
  prof.AddSink(ring);
  prof.SetEnabled(false);
  prof.EmitStart(1, 0, 0, "a");
  EXPECT_EQ(ring->size(), 0u);
  prof.SetEnabled(true);
  prof.EmitStart(1, 0, 0, "a");
  EXPECT_EQ(ring->size(), 1u);
}

TEST(ProfilerTest, MultipleSinksFanOut) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto a = std::make_shared<RingBufferSink>(4);
  auto b = std::make_shared<RingBufferSink>(4);
  prof.AddSink(a);
  prof.AddSink(b);
  prof.EmitDone(0, 0, 1, 0, "x");
  EXPECT_EQ(a->size(), 1u);
  EXPECT_EQ(b->size(), 1u);
}

TEST(ProfilerTest, ConcurrentEmitUniqueEventIds) {
  VirtualClock clock;
  Profiler prof(&clock);
  auto ring = std::make_shared<RingBufferSink>(100000);
  prof.AddSink(ring);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&prof, t] {
      for (int i = 0; i < 500; ++i) prof.EmitStart(i, t, 0, "s");
    });
  }
  for (auto& t : threads) t.join();
  auto snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 2000u);
  std::vector<int64_t> ids;
  for (const auto& e : snap) ids.push_back(e.event);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i));
  }
}

TEST(ProfilerTest, ConcurrentEmitDeliversInSequenceOrder) {
  Profiler prof(SteadyClock::Default());
  auto ring = std::make_shared<RingBufferSink>(100000);
  prof.AddSink(ring);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&prof, t] {
      for (int i = 0; i < 2000; ++i) prof.EmitStart(i, t, 0, "s");
    });
  }
  for (auto& t : threads) t.join();
  auto snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 8000u);
  for (size_t i = 0; i < snap.size(); ++i) {
    ASSERT_EQ(snap[i].event, static_cast<int64_t>(i));
    if (i > 0) {
      ASSERT_LE(snap[i - 1].time_us, snap[i].time_us);
    }
  }
}

}  // namespace
}  // namespace stetho::profiler
