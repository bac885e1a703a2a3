#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
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

// The wire format, pinned byte for byte: every line below was produced by
// the printf-based formatter and the copying parser this format started
// with, and any rewrite must reproduce it exactly.
TEST(TraceLineTest, PinnedEdgeEventLines) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int kIMin = std::numeric_limits<int>::min();
  constexpr int kIMax = std::numeric_limits<int>::max();
  const struct {
    TraceEvent event;
    const char* line;
  } kCases[] = {
      {{0, 0, 0, 0, EventState::kStart, 0, 0, ""},
       "[ 0,\t0,\t0,\t0,\t\"start\",\t0,\t0,\t\"\" ]"},
      {{kMax, kMax, kIMax, kIMax, EventState::kDone, kMax, kMax, "X_1 := sql.mvc();"},
       "[ 9223372036854775807,\t9223372036854775807,\t2147483647,\t2147483647,\t\"done\",\t9223372036854775807,\t9223372036854775807,\t\"X_1 := sql.mvc();\" ]"},
      {{kMin, kMin, kIMin, kIMin, EventState::kStart, kMin, kMin, "X_1 := sql.mvc();"},
       "[ -9223372036854775808,\t-9223372036854775808,\t-2147483648,\t-2147483648,\t\"start\",\t-9223372036854775808,\t-9223372036854775808,\t\"X_1 := sql.mvc();\" ]"},
      {{-1, -12, -3, -4, EventState::kDone, -5, -6, "neg"},
       "[ -1,\t-12,\t-3,\t-4,\t\"done\",\t-5,\t-6,\t\"neg\" ]"},
      {{7, 1000, 3, 2, EventState::kStart, 0, 4096,
        "X_4:bat[:str] := sql.bind(X_0,\"sys\",\"lineitem\",\"l_comment\",0);"},
       "[ 7,\t1000,\t3,\t2,\t\"start\",\t0,\t4096,\t\"X_4:bat[:str] := sql.bind(X_0,\\\"sys\\\",\\\"lineitem\\\",\\\"l_comment\\\",0);\" ]"},
      {{8, 1001, 3, 2, EventState::kDone, 99, 4096, "back\\slash \\\" and \\\\ end\\"},
       "[ 8,\t1001,\t3,\t2,\t\"done\",\t99,\t4096,\t\"back\\\\slash \\\\\\\" and \\\\\\\\ end\\\\\" ]"},
      {{9, 1002, 4, 1, EventState::kStart, 0, 0, "tab\there\tand\t\ttwo"},
       "[ 9,\t1002,\t4,\t1,\t\"start\",\t0,\t0,\t\"tab\there\tand\t\ttwo\" ]"},
      {{10, 1003, 5, 0, EventState::kDone, 1, 1, "\"\""},
       "[ 10,\t1003,\t5,\t0,\t\"done\",\t1,\t1,\t\"\\\"\\\"\" ]"},
      {{11, 1004, 6, 0, EventState::kStart, 0, 0, "commas, [brackets] ,\"q,uoted\", ]"},
       "[ 11,\t1004,\t6,\t0,\t\"start\",\t0,\t0,\t\"commas, [brackets] ,\\\"q,uoted\\\", ]\" ]"},
      {{12, 1005, 7, 0, EventState::kDone, 3, 0, "utf8 \xc3\xa9\xe2\x82\xac and \x01 ctl"},
       "[ 12,\t1005,\t7,\t0,\t\"done\",\t3,\t0,\t\"utf8 \303\251\342\202\254 and \001 ctl\" ]"},
      {{13, 1006, 8, 0, EventState::kStart, 0, 0, std::string("nul\0tail", 8)},
       "[ 13,\t1006,\t8,\t0,\t\"start\",\t0,\t0,\t\"nul\" ]"},
      {{14, 1007, 9, 0, static_cast<EventState>(2), 0, 0, "bad state"},
       "[ 14,\t1007,\t9,\t0,\t\"?\",\t0,\t0,\t\"bad state\" ]"},
      {{15, 1008, 10, 0, EventState::kDone, 0, 0, "  lead and trail  "},
       "[ 15,\t1008,\t10,\t0,\t\"done\",\t0,\t0,\t\"  lead and trail  \" ]"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(FormatTraceLine(c.event), c.line);
  }
}

// Verdicts of the parser on odd and malformed lines: the status code and
// message of each rejection, or the re-formatted event of each acceptance.
TEST(TraceLineTest, PinnedParseVerdicts) {
  const struct {
    std::string line;
    StatusCode code;
    std::string text;
  } kCases[] = {
      {"",
       StatusCode::kParseError,
       "trace line must be bracketed: "},
      {"   ",
       StatusCode::kParseError,
       "trace line must be bracketed:    "},
      {"not a trace line",
       StatusCode::kParseError,
       "trace line must be bracketed: not a trace line"},
      {"[",
       StatusCode::kParseError,
       "trace line must be bracketed: ["},
      {"]",
       StatusCode::kParseError,
       "trace line must be bracketed: ]"},
      {"[]",
       StatusCode::kParseError,
       "trace line has 1 fields, expected 8"},
      {"[ ]",
       StatusCode::kParseError,
       "trace line has 1 fields, expected 8"},
      {"[ 1, 2, 3 ]",
       StatusCode::kParseError,
       "trace line has 3 fields, expected 8"},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, \"s\", 9 ]",
       StatusCode::kParseError,
       "trace line has 9 fields, expected 8"},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, \"a,b\", \"c\" ]",
       StatusCode::kParseError,
       "trace line has 9 fields, expected 8"},
      {"[ 1,2,3,4,\"weird\",6,7,\"s\" ]",
       StatusCode::kParseError,
       "unknown event state 'weird'"},
      {"[ 1,2,3,4,\"Start\",6,7,\"s\" ]",
       StatusCode::kParseError,
       "unknown event state 'Start'"},
      {"[ 1,2,3,4,\"st\\\"art\",6,7,\"s\" ]",
       StatusCode::kParseError,
       "unknown event state 'st\"art'"},
      {"[ 1,2,3,4,start,6,7,\"s\" ]",
       StatusCode::kParseError,
       "expected quoted field: start"},
      {"[ 1,2,3,4,\t \"done,6,7,\"s\" ]",
       StatusCode::kParseError,
       "unterminated quote in trace line"},
      {"[ 1,2,3,4,\"done\",6,7,s ]",
       StatusCode::kParseError,
       "expected quoted field: s "},
      {"[ 1,2,3,4,\"done\",6,7, \"s ]",
       StatusCode::kParseError,
       "unterminated quote in trace line"},
      {"[ 1,2,3,4,\"done\",6,7,\"abc\\ ]",
       StatusCode::kParseError,
       "unterminated quote in trace line"},
      {"[ 1,2,3,4,\"done\",6,7,\"abc\\\\\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"done\",\t6,\t7,\t\"abc\\\\\" ]"},
      {"[ 1,2,3,4,\"done\",6,7,\"a\"b\"c\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"done\",\t6,\t7,\t\"a\\\"b\\\"c\" ]"},
      {"[ 1,2,3,4,\"done\",6,7,\"s\" ]]",
       StatusCode::kParseError,
       "expected quoted field: \"s\" ]"},
      {"[ 1,2,3,4,\"done\",6,7,\"s\" ] x",
       StatusCode::kParseError,
       "trace line must be bracketed: [ 1,2,3,4,\"done\",6,7,\"s\" ] x"},
      {"[ 1,2,3,4,\"done\",6,7,\"s\"  ",
       StatusCode::kParseError,
       "trace line must be bracketed: [ 1,2,3,4,\"done\",6,7,\"s\"  "},
      {"  [ 1,2,3,4,\"done\",6,7,\"s\" ]\r\n",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"done\",\t6,\t7,\t\"s\" ]"},
      {"\013[1,2,3,4,\"done\",6,7,\"\"]\014",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"done\",\t6,\t7,\t\"\" ]"},
      {"[ 9223372036854775808, 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kOutOfRange,
       "integer out of range: 9223372036854775808"},
      {"[ 1, -9223372036854775809, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kOutOfRange,
       "integer out of range: -9223372036854775809"},
      {"[ 1, 2, 99999999999999999999x, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kOutOfRange,
       "integer out of range: 99999999999999999999x"},
      {"[ 9223372036854775807, -9223372036854775808, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kOk,
       "[ 9223372036854775807,\t-9223372036854775808,\t3,\t4,\t\"start\",\t5,\t6,\t\"s\" ]"},
      {"[ +1, +2, 3, 4, \"start\", +5, 6, \"s\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"s\" ]"},
      {"[ +-1, 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: +-1"},
      {"[ -+1, 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: -+1"},
      {"[ 1, -, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: -"},
      {"[ 1, 2, +, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: +"},
      {"[ 1, 2, 3, - 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: - 4"},
      {"[ 1, 2, 3, 4, \"start\", 0x10, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: 0x10"},
      {"[ 1, 2, 3, 4, \"start\", 5, 12abc, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: 12abc"},
      {"[ , 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "empty integer literal"},
      {"[ 1,\t\t, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "empty integer literal"},
      {"[ 1\"2,3\", 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: 1\"2,3\""},
      {"[ 1 2, 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: 1 2"},
      {"[ 1.5, 2, 3, 4, \"start\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: 1.5"},
      {"[ x, 2, 3, 4, \"bogus\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "invalid integer literal: x"},
      {"[ 1, 2, 4294967297, -4294967298, \"done\", 5, 6, \"s\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t1,\t-2,\t\"done\",\t5,\t6,\t\"s\" ]"},
      {"[ 007, 2, 3, 4, \"start\", -0, 6, \"s\" ]",
       StatusCode::kOk,
       "[ 7,\t2,\t3,\t4,\t\"start\",\t0,\t6,\t\"s\" ]"},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, ]",
       StatusCode::kParseError,
       "expected quoted field:  "},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, \"\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"\" ]"},
      {"[ 1, 2, 3, 4, \"\", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "unknown event state ''"},
      {"[ 1, 2, 3, 4, \", 5, 6, \"s\" ]",
       StatusCode::kParseError,
       "unterminated quote in trace line"},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, \"s\" \"t\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"s\\\" \\\"t\" ]"},
      {"[ 1, 2, 3, 4, \"start\", 5, 6, \"x\"\"y\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"x\\\"\\\"y\" ]"},
      {"this line is clearly longer than sixty characters and has no bracket at all",
       StatusCode::kParseError,
       "trace line must be bracketed: this line is clearly longer than sixty characters and has no"},
      {"  [ this line is also longer than sixty characters but lacks the closing one",
       StatusCode::kParseError,
       "trace line must be bracketed:   [ this line is also longer than sixty characters but lacks"},
      {std::string("[ 1, 2, 3, 4, \"start\", 5, 6, \"a\000b\" ]", 36),
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"a\" ]"},
      {std::string("[ 1\000, 2, 3, 4, \"start\", 5, 6, \"s\" ]", 35),
       StatusCode::kParseError,
       std::string("invalid integer literal: 1\000", 27)},
      {"[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"s\" ]",
       StatusCode::kOk,
       "[ 1,\t2,\t3,\t4,\t\"start\",\t5,\t6,\t\"s\" ]"},

  };
  for (const auto& c : kCases) {
    auto parsed = ParseTraceLine(c.line);
    if (c.code == StatusCode::kOk) {
      ASSERT_TRUE(parsed.ok()) << c.line << ": " << parsed.status().ToString();
      EXPECT_EQ(FormatTraceLine(parsed.value()), c.text) << c.line;
    } else {
      ASSERT_FALSE(parsed.ok()) << c.line;
      EXPECT_EQ(parsed.status().code(), c.code) << c.line;
      EXPECT_EQ(parsed.status().message(), c.text) << c.line;
    }
  }
}

// Property: any event with a NUL-free statement survives format + parse,
// across the full range of every integer field and arbitrary statement
// bytes (quotes, backslashes, commas, brackets, tabs, newlines, high bytes).
TEST(TraceLineTest, RandomEventsRoundTrip) {
  SplitMix64 rng(20260817);
  const char kSpecials[] = "\"\\,[] \t\n\r";
  for (int i = 0; i < 5000; ++i) {
    TraceEvent e;
    e.event = static_cast<int64_t>(rng.Next());
    e.time_us = static_cast<int64_t>(rng.Next());
    e.pc = static_cast<int>(static_cast<uint32_t>(rng.Next()));
    e.thread = static_cast<int>(static_cast<uint32_t>(rng.Next()));
    e.state = rng.NextBool(0.5) ? EventState::kStart : EventState::kDone;
    e.usec = static_cast<int64_t>(rng.Next());
    e.rss_bytes = static_cast<int64_t>(rng.Next());
    const size_t len = rng.NextBounded(40);
    for (size_t k = 0; k < len; ++k) {
      char c = rng.NextBool(0.3)
                   ? kSpecials[rng.NextBounded(sizeof(kSpecials) - 1)]
                   : static_cast<char>(1 + rng.NextBounded(255));
      e.stmt.push_back(c);
    }
    const std::string line = FormatTraceLine(e);
    auto parsed = ParseTraceLine(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed.value(), e) << line;
  }
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

// The operator of a statement, which AnalyzeOperators, ExtractIntervals and
// the module filter all read, on the shapes the renderer emits and on text
// it does not.
TEST(FilterTest, OperatorOfPinnedStatements) {
  struct Case {
    const char* stmt;
    const char* op;
    const char* module;
  };
  constexpr Case kCases[] = {
      {"X_5:bat[:oid] := algebra.select(X_1,X_2,1,1);", "algebra.select",
       "algebra"},
      {"io.print(X_5);", "io.print", "io"},
      {"(X_1:bat[:oid],X_2:bat[:oid]) := group.group(X_0);", "group.group",
       "group"},
      {"X_1:int := sql.mvc", "sql.mvc", "sql"},
      {"   io.print(X_5);", "io.print", "io"},
      {"X_2:bat[:str] := algebra.projection(X_1,\"f(x).y\");",
       "algebra.projection", "algebra"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.stmt);
    EXPECT_EQ(OperatorOf(c.stmt), c.op);
    EventFilter f;
    f.AddModule(c.module);
    EXPECT_TRUE(f.Matches(MakeEvent(0, EventState::kDone, 0, c.stmt)));
    f = EventFilter();
    f.AddModule(c.op);
    EXPECT_FALSE(f.Matches(MakeEvent(0, EventState::kDone, 0, c.stmt)));
  }
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
