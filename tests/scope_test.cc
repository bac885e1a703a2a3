#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/perfdiff.h"
#include "common/clock.h"
#include "common/rng.h"
#include "obs/profile_store.h"
#include "dot/parser.h"
#include "dot/writer.h"
#include "net/channel.h"
#include "net/trace_stream.h"
#include "net/udp.h"
#include "profiler/sink.h"
#include "scope/analysis.h"
#include "scope/coloring.h"
#include "scope/online.h"
#include "scope/replayer.h"
#include "scope/textual.h"
#include "scope/trace.h"
#include "server/mserver.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::scope {
namespace {

using profiler::EventState;
using profiler::TraceEvent;

TraceEvent Ev(EventState state, int pc, int thread = 0, int64_t usec = 10,
              int64_t time_us = 0, const char* stmt = "X_0 := sql.mvc();") {
  TraceEvent e;
  e.state = state;
  e.pc = pc;
  e.thread = thread;
  e.usec = state == EventState::kDone ? usec : 0;
  e.time_us = time_us;
  e.rss_bytes = 1024;
  e.stmt = stmt;
  return e;
}

// --- coloring: the paper's worked example ---

TEST(ColoringTest, PaperExampleExactlyOneRed) {
  // {start,1},{done,1},{start,2},{done,2},{start,3},{start,4}:
  // pcs 1 and 2 are adjacent pairs -> uncolored; pc 3 is an unpaired start
  // with instructions after it -> RED; pc 4 is the last event -> unjudged.
  std::vector<TraceEvent> buffer = {
      Ev(EventState::kStart, 1), Ev(EventState::kDone, 1),
      Ev(EventState::kStart, 2), Ev(EventState::kDone, 2),
      Ev(EventState::kStart, 3), Ev(EventState::kStart, 4),
  };
  auto decisions = PairSequenceColoring(buffer);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].pc, 3);
  EXPECT_EQ(decisions[0].color, viz::Color::Red());
}

TEST(ColoringTest, UnpairedDoneTurnsGreen) {
  // start,5 ... other work ... done,5: 5 was long-running; its done event
  // (not adjacent to its start) colors it GREEN.
  std::vector<TraceEvent> buffer = {
      Ev(EventState::kStart, 5), Ev(EventState::kStart, 6),
      Ev(EventState::kDone, 5),  Ev(EventState::kDone, 6),
  };
  auto decisions = PairSequenceColoring(buffer);
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(decisions[0].pc, 5);
  EXPECT_EQ(decisions[0].color, viz::Color::Red());
  EXPECT_EQ(decisions[1].pc, 6);
  EXPECT_EQ(decisions[1].color, viz::Color::Red());
  EXPECT_EQ(decisions[2].pc, 5);
  EXPECT_EQ(decisions[2].color, viz::Color::Green());
  EXPECT_EQ(decisions[3].pc, 6);
  EXPECT_EQ(decisions[3].color, viz::Color::Green());
}

TEST(ColoringTest, AllAdjacentPairsColorNothing) {
  std::vector<TraceEvent> buffer;
  for (int pc = 0; pc < 20; ++pc) {
    buffer.push_back(Ev(EventState::kStart, pc));
    buffer.push_back(Ev(EventState::kDone, pc));
  }
  EXPECT_TRUE(PairSequenceColoring(buffer).empty());
}

TEST(ColoringTest, EmptyBuffer) {
  EXPECT_TRUE(PairSequenceColoring({}).empty());
}

TEST(ColoringTest, ThresholdSeparatesCostly) {
  std::vector<TraceEvent> buffer = {
      Ev(EventState::kStart, 1), Ev(EventState::kDone, 1, 0, 50),
      Ev(EventState::kStart, 2), Ev(EventState::kDone, 2, 0, 5000),
      Ev(EventState::kStart, 3),  // still running
  };
  auto decisions = ThresholdColoring(buffer, 1000);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].pc, 2);
  EXPECT_EQ(decisions[0].color, viz::Color::Red());
  EXPECT_EQ(decisions[1].pc, 3);
  EXPECT_EQ(decisions[1].color, viz::Color::Orange());
}

TEST(ColoringTest, GradientScalesWithDuration) {
  std::vector<TraceEvent> buffer = {
      Ev(EventState::kDone, 1, 0, 100),
      Ev(EventState::kDone, 2, 0, 1000),
  };
  auto decisions = GradientColoring(buffer);
  ASSERT_EQ(decisions.size(), 2u);
  // pc 2 is the max -> full red; pc 1 is lighter (closer to white).
  EXPECT_EQ(decisions[1].color, viz::Color::Red());
  EXPECT_GT(decisions[0].color.g, decisions[1].color.g);
}

// --- incremental pair-sequence tracker ---

TEST(ColoringTest, TrackerMatchesPaperExample) {
  std::vector<TraceEvent> buffer = {
      Ev(EventState::kStart, 1), Ev(EventState::kDone, 1),
      Ev(EventState::kStart, 2), Ev(EventState::kDone, 2),
      Ev(EventState::kStart, 3), Ev(EventState::kStart, 4),
  };
  PairSequenceTracker tracker;
  for (const TraceEvent& e : buffer) tracker.Observe(e);
  ASSERT_EQ(tracker.decisions().size(), 1u);
  EXPECT_EQ(tracker.decisions()[0].pc, 3);
  EXPECT_EQ(tracker.decisions()[0].color, viz::Color::Red());
}

TEST(ColoringTest, TrackerEquivalentToRescanOnRandomStreams) {
  // Property: after every prefix of a random event stream, the tracker's
  // accumulated decisions are exactly what a full rescan would produce.
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TraceEvent> stream;
    PairSequenceTracker tracker;
    std::vector<ColorDecision> via_take_new;
    const int kEvents = 60;
    for (int i = 0; i < kEvents; ++i) {
      int pc = static_cast<int>(rng.NextBounded(6));
      EventState state =
          rng.NextBool(0.5) ? EventState::kStart : EventState::kDone;
      stream.push_back(Ev(state, pc));
      tracker.Observe(stream.back());
      auto rescan = PairSequenceColoring(stream);
      ASSERT_EQ(tracker.decisions().size(), rescan.size())
          << "trial " << trial << " prefix " << i;
      for (size_t k = 0; k < rescan.size(); ++k) {
        EXPECT_EQ(tracker.decisions()[k].pc, rescan[k].pc);
        EXPECT_EQ(tracker.decisions()[k].color, rescan[k].color);
      }
      // Random batch boundaries for the delta interface.
      if (rng.NextBool(0.3)) {
        auto fresh = tracker.TakeNew();
        via_take_new.insert(via_take_new.end(), fresh.begin(), fresh.end());
      }
    }
    auto fresh = tracker.TakeNew();
    via_take_new.insert(via_take_new.end(), fresh.begin(), fresh.end());
    // Concatenated deltas reproduce the full decision list.
    auto rescan = PairSequenceColoring(stream);
    ASSERT_EQ(via_take_new.size(), rescan.size());
    for (size_t k = 0; k < rescan.size(); ++k) {
      EXPECT_EQ(via_take_new[k].pc, rescan[k].pc);
      EXPECT_EQ(via_take_new[k].color, rescan[k].color);
    }
  }
}

TEST(ColoringTest, TrackerResetForgetsState) {
  PairSequenceTracker tracker;
  tracker.Observe(Ev(EventState::kStart, 1));
  tracker.Observe(Ev(EventState::kStart, 2));
  EXPECT_EQ(tracker.decisions().size(), 1u);
  tracker.Reset();
  EXPECT_TRUE(tracker.decisions().empty());
  // The pre-reset pending start must not leak a verdict.
  tracker.Observe(Ev(EventState::kDone, 3));
  ASSERT_EQ(tracker.decisions().size(), 1u);
  EXPECT_EQ(tracker.decisions()[0].pc, 3);
  EXPECT_EQ(tracker.decisions()[0].color, viz::Color::Green());
}

// --- analysis ---

TEST(AnalysisTest, ThreadUtilization) {
  std::vector<TraceEvent> events = {
      Ev(EventState::kStart, 0, 0, 0, 0),
      Ev(EventState::kStart, 1, 1, 0, 0),
      Ev(EventState::kDone, 0, 0, 100, 100),
      Ev(EventState::kDone, 1, 1, 150, 150),
  };
  UtilizationReport report = AnalyzeThreadUtilization(events);
  EXPECT_EQ(report.wall_us, 150);
  EXPECT_EQ(report.max_concurrency, 2u);
  ASSERT_EQ(report.threads.size(), 2u);
  EXPECT_EQ(report.threads[0].busy_us, 100);
  EXPECT_EQ(report.threads[1].busy_us, 150);
  EXPECT_NE(report.ToString().find("thread 0"), std::string::npos);
}

TEST(AnalysisTest, SequentialTraceHasConcurrencyOne) {
  std::vector<TraceEvent> events;
  int64_t t = 0;
  for (int pc = 0; pc < 5; ++pc) {
    events.push_back(Ev(EventState::kStart, pc, 0, 0, t));
    t += 10;
    events.push_back(Ev(EventState::kDone, pc, 0, 10, t));
  }
  UtilizationReport report = AnalyzeThreadUtilization(events);
  EXPECT_EQ(report.max_concurrency, 1u);
}

TEST(AnalysisTest, OperatorAggregation) {
  std::vector<TraceEvent> events = {
      Ev(EventState::kDone, 1, 0, 100, 0, "X_1:bat[:oid] := algebra.select(X_0,1,2);"),
      Ev(EventState::kDone, 2, 0, 300, 0, "X_2:bat[:oid] := algebra.select(X_0,3,4);"),
      Ev(EventState::kDone, 3, 0, 50, 0, "io.print(X_2);"),
  };
  auto ops = AnalyzeOperators(events);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op, "algebra.select");
  EXPECT_EQ(ops[0].calls, 2);
  EXPECT_EQ(ops[0].total_usec, 400);
  EXPECT_EQ(ops[0].max_usec, 300);
  EXPECT_EQ(ops[1].op, "io.print");
}

TEST(AnalysisTest, CostlyClusters) {
  std::vector<TraceEvent> events;
  // Two clusters of costly events separated by a long cheap stretch.
  for (int i = 0; i < 3; ++i) events.push_back(Ev(EventState::kDone, i, 0, 5000));
  for (int i = 0; i < 20; ++i) events.push_back(Ev(EventState::kDone, 100 + i, 0, 1));
  for (int i = 0; i < 2; ++i) events.push_back(Ev(EventState::kDone, 50 + i, 0, 9000));
  auto clusters = FindCostlyClusters(events, 1000, 8);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].pcs.size(), 3u);
  EXPECT_EQ(clusters[0].total_usec, 15000);
  EXPECT_EQ(clusters[1].pcs.size(), 2u);
}

TEST(AnalysisTest, ParallelismAnomalyDetected) {
  std::vector<TraceEvent> sequential;
  int64_t t = 0;
  for (int pc = 0; pc < 6; ++pc) {
    sequential.push_back(Ev(EventState::kStart, pc, 0, 0, t));
    t += 10;
    sequential.push_back(Ev(EventState::kDone, pc, 0, 10, t));
  }
  auto diag = DiagnoseParallelism(sequential, 8);
  EXPECT_TRUE(diag.sequential_anomaly);
  EXPECT_NE(diag.summary.find("ANOMALY"), std::string::npos);

  std::vector<TraceEvent> parallel = {
      Ev(EventState::kStart, 0, 0, 0, 0), Ev(EventState::kStart, 1, 1, 0, 1),
      Ev(EventState::kDone, 0, 0, 50, 50), Ev(EventState::kDone, 1, 1, 50, 51),
  };
  EXPECT_FALSE(DiagnoseParallelism(parallel, 2).sequential_anomaly);
}

TEST(AnalysisTest, OperatorPercentiles) {
  std::vector<TraceEvent> events;
  for (int i = 1; i <= 100; ++i) {
    events.push_back(Ev(EventState::kDone, i, 0, i * 10, 0,
                        "X := algebra.select(X_0);"));
  }
  auto ops = AnalyzeOperators(events);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].calls, 100);
  EXPECT_EQ(ops[0].max_usec, 1000);
  EXPECT_EQ(ops[0].p50_usec, 500);   // median of 10..1000
  EXPECT_EQ(ops[0].p95_usec, 960);   // nearest-rank 95th
}

// --- trace file IO ---

TEST(TraceFileTest, WriteThenRead) {
  std::string path = testing::TempDir() + "/scope_trace_rw.trace";
  {
    auto sink = profiler::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    TraceEvent e = Ev(EventState::kStart, 7);
    e.event = 1;
    sink.value()->Consume(e);
    e.state = EventState::kDone;
    e.event = 2;
    e.usec = 55;
    sink.value()->Consume(e);
    ASSERT_TRUE(sink.value()->Flush().ok());
  }
  auto events = ReadTraceFile(path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events.value().size(), 2u);
  EXPECT_EQ(events.value()[0].pc, 7);
  EXPECT_EQ(events.value()[1].usec, 55);
  std::remove(path.c_str());
}

TEST(TraceFileTest, MissingFileErrors) {
  EXPECT_FALSE(ReadTraceFile("/nonexistent/file.trace").ok());
}

// --- textual stethoscope ---

TEST(TextualTest, DemultiplexesDotAndTrace) {
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualOptions options;
  TextualStethoscope textual(options);
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());

  std::string dot = "digraph \"user.s0\" {\n  n0 [label=\"sql.mvc\"];\n}\n";
  ASSERT_TRUE(net::SendDotFile(sender.get(), "s0", dot).ok());
  ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(Ev(EventState::kStart, 0))).ok());
  ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(Ev(EventState::kDone, 0))).ok());
  ASSERT_TRUE(net::SendEof(sender.get(), "s0").ok());

  // Wait for delivery. Keys are namespaced by server name.
  for (int i = 0; i < 200 && !textual.QueryFinished("srv/s0"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(textual.QueryFinished("srv/s0"));
  EXPECT_EQ(textual.events_received(), 2);
  auto received_dot = textual.DotFor("srv/s0");
  ASSERT_TRUE(received_dot.ok());
  auto graph = dot::ParseDot(received_dot.value());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().num_nodes(), 1u);
  EXPECT_EQ(textual.BufferSnapshot().size(), 2u);
  textual.Stop();
}

/// Forwards every datagram to `inner` and records its size.
class RecordingSender : public net::DatagramSender {
 public:
  explicit RecordingSender(net::DatagramSender* inner) : inner_(inner) {}
  Status Send(const std::string& payload) override {
    sizes.push_back(payload.size());
    return inner_->Send(payload);
  }
  std::vector<size_t> sizes;

 private:
  net::DatagramSender* inner_;
};

/// The dot file of q1 at mitosis 128 (about 4,000 lines, 128 KB).
std::string WideQ1Dot() {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  EXPECT_TRUE(cat.ok());
  server::MserverOptions options;
  options.mitosis_pieces = 128;
  server::Mserver server(std::move(cat.value()), options);
  auto plan = server.Explain(tpch::GetQuery("q1").value().sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  dot::DotWriterOptions dot_options;
  dot_options.graph_name = plan.value().function_name();
  return dot::ProgramToDot(plan.value(), dot_options);
}

/// Sends `dot` through `sender` into a textual stethoscope listening on
/// `receiver`; returns what DotFor reports and records the datagram sizes.
std::string DotThroughWire(const std::string& dot, net::DatagramSender* sender,
                           std::unique_ptr<net::DatagramReceiver> receiver,
                           std::vector<size_t>* sizes) {
  TextualStethoscope textual(TextualOptions{});
  EXPECT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
  RecordingSender wire(sender);
  uint64_t seen = textual.changes();
  EXPECT_TRUE(net::SendDotFile(&wire, "q1", dot).ok());
  *sizes = wire.sizes;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!textual.DotFor("srv/q1").ok() &&
         std::chrono::steady_clock::now() < give_up) {
    seen = textual.WaitForChange(seen, 1'000'000);
  }
  auto received = textual.DotFor("srv/q1");
  textual.Stop();
  return received.ok() ? received.value() : received.status().ToString();
}

TEST(TextualTest, WideDotArrivesIntactOverChannelAndUdp) {
  const std::string dot = WideQ1Dot();
  ASSERT_GT(dot.size(), 100'000u);
  const size_t lines = static_cast<size_t>(std::count(dot.begin(), dot.end(), '\n'));

  std::vector<size_t> sizes;
  {
    auto [sender, receiver] = net::Channel::CreatePair();
    EXPECT_EQ(DotThroughWire(dot, sender.get(), std::move(receiver), &sizes), dot);
  }
  // Packed: the datagram count is a small fraction of the line count.
  EXPECT_LT(sizes.size(), lines / 100);
  for (size_t size : sizes) EXPECT_LE(size, net::kMaxDatagramBytes);

  auto receiver = net::UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok()) << receiver.status().ToString();
  auto sender = net::UdpSender::Connect(receiver.value()->port());
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  EXPECT_EQ(DotThroughWire(dot, sender.value().get(),
                           std::move(receiver).value(), &sizes),
            dot);
  EXPECT_LT(sizes.size(), lines / 100);
  for (size_t size : sizes) EXPECT_LE(size, net::kMaxDatagramBytes);
}

TEST(TextualTest, WaitForChangeWakesOnEof) {
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualStethoscope textual(TextualOptions{});
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
  const uint64_t seen = textual.changes();
  std::thread eof([&sender = sender] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(net::SendEof(sender.get(), "s0").ok());
  });
  const auto start = std::chrono::steady_clock::now();
  const uint64_t now = textual.WaitForChange(seen, 60'000'000);
  const auto waited = std::chrono::steady_clock::now() - start;
  eof.join();
  EXPECT_NE(now, seen);
  EXPECT_TRUE(textual.QueryFinished("srv/s0"));
  EXPECT_LT(waited, std::chrono::seconds(30));
  textual.Stop();
}

TEST(TextualTest, ClientSideFilter) {
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualOptions options;
  options.filter.OnlyState(EventState::kDone);
  TextualStethoscope textual(options);
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
  ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(Ev(EventState::kStart, 0))).ok());
  ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(Ev(EventState::kDone, 0))).ok());
  for (int i = 0; i < 200 && textual.events_received() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(textual.events_received(), 2);
  EXPECT_EQ(textual.events_filtered(), 1);
  EXPECT_EQ(textual.BufferSnapshot().size(), 1u);
  textual.Stop();
}

TEST(TextualTest, MultipleServersSimultaneously) {
  // Paper §3.2: "The textual Stethoscope can connect to multiple MonetDB
  // servers at the same time to receive execution traces from all sources."
  TextualOptions options;
  TextualStethoscope textual(options);
  std::vector<std::unique_ptr<net::DatagramSender>> senders;
  const int kServers = 4;
  for (int s = 0; s < kServers; ++s) {
    auto [sender, receiver] = net::Channel::CreatePair();
    ASSERT_TRUE(
        textual.AddServer("srv" + std::to_string(s), std::move(receiver)).ok());
    senders.push_back(std::move(sender));
  }
  std::atomic<int> callbacks{0};
  textual.SetEventCallback([&](const std::string&, const TraceEvent&) {
    callbacks.fetch_add(1);
  });
  const int kPerServer = 25;
  for (int s = 0; s < kServers; ++s) {
    for (int i = 0; i < kPerServer; ++i) {
      ASSERT_TRUE(senders[static_cast<size_t>(s)]
                      ->Send(profiler::FormatTraceLine(Ev(EventState::kDone, i)))
                      .ok());
    }
  }
  for (int i = 0; i < 500 && textual.events_received() < kServers * kPerServer;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(textual.events_received(), kServers * kPerServer);
  EXPECT_EQ(callbacks.load(), kServers * kPerServer);
  textual.Stop();
}

TEST(TextualTest, WritesTraceFile) {
  std::string path = testing::TempDir() + "/textual_out.trace";
  std::remove(path.c_str());
  {
    auto [sender, receiver] = net::Channel::CreatePair();
    TextualOptions options;
    options.trace_path = path;
    TextualStethoscope textual(options);
    ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
    ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(Ev(EventState::kDone, 9))).ok());
    for (int i = 0; i < 200 && textual.events_received() < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    textual.Stop();
    ASSERT_TRUE(textual.Flush().ok());
  }
  auto events = ReadTraceFile(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 1u);
  EXPECT_EQ(events.value()[0].pc, 9);
  std::remove(path.c_str());
}

TEST(TextualTest, OverRealUdp) {
  auto receiver = net::UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok());
  uint16_t port = receiver.value()->port();
  TextualOptions options;
  TextualStethoscope textual(options);
  ASSERT_TRUE(textual.AddServer("udp_srv", std::move(receiver).value()).ok());

  auto sender = net::UdpSender::Connect(port);
  ASSERT_TRUE(sender.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        sender.value()->Send(profiler::FormatTraceLine(Ev(EventState::kDone, i))).ok());
  }
  for (int i = 0; i < 500 && textual.events_received() < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(textual.events_received(), 9);  // UDP may drop, loopback rarely does
  textual.Stop();
}

TEST(TextualTest, BatchedBurstPreservesOrderAndDemux) {
  // A burst far larger than the listener's 256-datagram batch arrives
  // interleaved with framing lines; batching must not reorder events or
  // mix them into dot content. Every tenth statement holds a raw newline
  // (a string literal): only framing datagrams are packed, so an event
  // must not be cut at it.
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualStethoscope textual(TextualOptions{});
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());

  const int kEvents = 1000;
  const char* kNewlineStmt = "X_1 := algebra.select(X_0, \"AIR\nMAIL\");";
  auto event = [&](int i) {
    return i % 10 == 0 ? Ev(EventState::kDone, i, 0, 10, 0, kNewlineStmt)
                       : Ev(EventState::kDone, i);
  };
  ASSERT_TRUE(
      net::SendDotFile(sender.get(), "s0", "digraph \"q\" {\n}\n").ok());
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(event(i))).ok());
  }
  ASSERT_TRUE(sender->Send("this is not a trace line").ok());
  ASSERT_TRUE(net::SendEof(sender.get(), "s0").ok());

  for (int i = 0; i < 500 && !textual.QueryFinished("srv/s0"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(textual.QueryFinished("srv/s0"));
  EXPECT_EQ(textual.events_received(), kEvents);
  EXPECT_EQ(textual.malformed_lines(), 1);
  EXPECT_TRUE(textual.DotFor("srv/s0").ok());
  auto snapshot = textual.BufferSnapshot();
  ASSERT_EQ(snapshot.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(snapshot[static_cast<size_t>(i)], event(i));
  }
  textual.Stop();
}

TEST(TextualTest, ConcurrentIngestAndSnapshotStress) {
  // Readers hammer every query surface while the listener ingests a
  // stream — the TSan preset turns any ingest/snapshot race into a
  // failure.
  auto [sender, receiver] = net::Channel::CreatePair();
  TextualOptions options;
  options.buffer_capacity = 64;  // force ring evictions mid-stream
  TextualStethoscope textual(options);
  std::atomic<int64_t> callbacks{0};
  textual.SetEventCallback([&](const std::string&, const TraceEvent&) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());

  const int kEvents = 1500;
  std::thread producer([&, sender = std::move(sender)] {
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(
          sender->Send(profiler::FormatTraceLine(Ev(EventState::kDone, i)))
              .ok());
      if (i % 500 == 0) {
        ASSERT_TRUE(net::SendDotFile(sender.get(),
                                     "q" + std::to_string(i),
                                     "digraph \"q\" {\n}\n")
                        .ok());
      }
    }
    ASSERT_TRUE(net::SendEof(sender.get(), "final").ok());
  });

  size_t max_seen = 0;
  for (int i = 0; i < 2000 && !textual.QueryFinished("srv/final"); ++i) {
    max_seen = std::max(max_seen, textual.BufferSnapshot().size());
    (void)textual.CompletedDots();
    (void)textual.events_received();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  ASSERT_TRUE(textual.QueryFinished("srv/final"));
  EXPECT_EQ(textual.events_received(), kEvents);
  EXPECT_EQ(callbacks.load(), kEvents);
  EXPECT_LE(max_seen, 64u);
  EXPECT_EQ(textual.CompletedDots().size(), 3u);
  textual.Stop();
}

// --- offline replayer ---

class ReplayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    auto cat = tpch::GenerateTpch(config);
    ASSERT_TRUE(cat.ok());
    server::MserverOptions options;
    options.clock = &clock_;
    options.force_sequential = true;  // deterministic trace order
    server_ = std::make_unique<server::Mserver>(std::move(cat.value()), options);
    ring_ = std::make_shared<profiler::RingBufferSink>(1 << 16);
    server_->profiler()->AddSink(ring_);
    auto outcome = server_->ExecuteSql(
        "select l_tax from lineitem where l_partkey = 1");
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    outcome_ = std::move(outcome).value();
    auto graph = dot::ParseDot(outcome_.dot);
    ASSERT_TRUE(graph.ok());
    graph_ = std::move(graph).value();
    events_ = ring_->Snapshot();
    ASSERT_EQ(events_.size(), 2 * outcome_.plan->size());
    // Make timings deterministic regardless of the host: event i happens at
    // i*10us and instruction pc takes (pc+1)*100us.
    for (size_t i = 0; i < events_.size(); ++i) {
      events_[i].time_us = static_cast<int64_t>(i) * 10;
      if (events_[i].state == EventState::kDone) {
        events_[i].usec = (events_[i].pc + 1) * 100;
      }
    }
  }

  std::unique_ptr<OfflineReplayer> MakeReplayer(
      ColoringMode mode = ColoringMode::kState) {
    ReplayOptions options;
    options.clock = &replay_clock_;
    options.mode = mode;
    options.threshold_us = 1;
    auto r = OfflineReplayer::Create(graph_, events_, options);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }

  VirtualClock clock_;
  VirtualClock replay_clock_;
  std::unique_ptr<server::Mserver> server_;
  std::shared_ptr<profiler::RingBufferSink> ring_;
  server::QueryOutcome outcome_;
  dot::Graph graph_;
  std::vector<TraceEvent> events_;
};

TEST_F(ReplayFixture, StepColorsNodes) {
  auto replayer = MakeReplayer();
  EXPECT_EQ(replayer->cursor(), 0u);
  // First event is the start of pc 0 -> RED.
  ASSERT_TRUE(replayer->Step().ok());
  EXPECT_EQ(replayer->NodeColor(dot::NodeName(events_[0].pc)).value(),
            viz::Color::Red());
  // Second event: done of the same pc -> GREEN (sequential trace).
  ASSERT_TRUE(replayer->Step().ok());
  EXPECT_EQ(replayer->NodeColor(dot::NodeName(events_[1].pc)).value(),
            viz::Color::Green());
}

TEST_F(ReplayFixture, PlayToEndAllGreen) {
  auto replayer = MakeReplayer();
  auto applied = replayer->Play(/*speed=*/16.0, events_.size());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), events_.size());
  EXPECT_TRUE(replayer->AtEnd());
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    EXPECT_EQ(replayer->NodeColor(dot::NodeName(static_cast<int>(pc))).value(),
              viz::Color::Green())
        << pc;
  }
}

TEST_F(ReplayFixture, RewindResetsColors) {
  auto replayer = MakeReplayer();
  ASSERT_TRUE(replayer->Play(8.0, events_.size()).ok());
  replayer->Rewind();
  EXPECT_EQ(replayer->cursor(), 0u);
  EXPECT_EQ(replayer->NodeColor("n0").value(), viz::Color::Gray());
}

TEST_F(ReplayFixture, SeekForwardAndBack) {
  auto replayer = MakeReplayer();
  ASSERT_TRUE(replayer->SeekTo(4).ok());
  EXPECT_EQ(replayer->cursor(), 4u);
  // Events 0..3 are start/done of pcs 0 and 1 -> both GREEN, pc 2 untouched.
  EXPECT_EQ(replayer->NodeColor(dot::NodeName(events_[0].pc)).value(),
            viz::Color::Green());
  EXPECT_EQ(replayer->NodeColor(dot::NodeName(events_[4].pc)).value(),
            viz::Color::Gray());
  ASSERT_TRUE(replayer->StepBack().ok());
  EXPECT_EQ(replayer->cursor(), 3u);
  // After stepping back past pc 1's done, pc 1 is RED (start applied only).
  EXPECT_EQ(replayer->NodeColor(dot::NodeName(events_[2].pc)).value(),
            viz::Color::Red());
  EXPECT_FALSE(replayer->SeekTo(events_.size() + 1).ok());
}

TEST_F(ReplayFixture, StepBackAtStartFails) {
  auto replayer = MakeReplayer();
  EXPECT_FALSE(replayer->StepBack().ok());
}

TEST_F(ReplayFixture, RenderPacingAppliesToColoring) {
  auto replayer = MakeReplayer();
  ASSERT_TRUE(replayer->Play(1e9, events_.size()).ok());
  auto stats = replayer->dispatcher()->Stats();
  ASSERT_GT(stats.render_gaps_us.size(), 0u);
  for (int64_t gap : stats.render_gaps_us) {
    EXPECT_GE(gap, 150000);  // the paper's 150ms EDT delay
  }
}

TEST_F(ReplayFixture, TooltipAndDebugWindow) {
  auto replayer = MakeReplayer();
  ASSERT_TRUE(replayer->Play(8.0, events_.size()).ok());
  std::string tip = replayer->TooltipFor("n1");
  EXPECT_NE(tip.find("n1:"), std::string::npos);
  EXPECT_NE(tip.find("executions="), std::string::npos);
  std::string dbg = replayer->DebugWindowText();
  EXPECT_NE(dbg.find("state=done"), std::string::npos);
  EXPECT_NE(dbg.find("progress:"), std::string::npos);
  EXPECT_EQ(replayer->TooltipFor("zz"), "unknown node zz");
}

TEST_F(ReplayFixture, BirdsEyeViewShowsWholeGraph) {
  auto replayer = MakeReplayer();
  viz::Frame frame = replayer->BirdsEyeView();
  // All shape+text+edge glyphs visible, nothing culled.
  EXPECT_EQ(frame.culled, 0u);
  EXPECT_GE(frame.commands.size(), 2 * graph_.num_nodes());
}

TEST_F(ReplayFixture, FocusNodeMovesCamera) {
  auto replayer = MakeReplayer();
  // n0 and n3 sit in different layout layers, so focusing them lands the
  // camera at different vertical positions.
  ASSERT_TRUE(replayer->FocusNode("n0").ok());
  double y0 = replayer->camera()->y();
  ASSERT_TRUE(replayer->FocusNode("n3").ok());
  EXPECT_NE(replayer->camera()->y(), y0);
  EXPECT_FALSE(replayer->FocusNode("n999").ok());
}

TEST_F(ReplayFixture, ThresholdModeOnlyColorsCostly) {
  ReplayOptions options;
  options.clock = &replay_clock_;
  options.mode = ColoringMode::kThreshold;
  options.threshold_us = 1LL << 60;  // nothing is that costly
  auto replayer = OfflineReplayer::Create(graph_, events_, options);
  ASSERT_TRUE(replayer.ok());
  ASSERT_TRUE(replayer.value()->Play(8.0, events_.size()).ok());
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    const std::string node = dot::NodeName(static_cast<int>(pc));
    EXPECT_EQ(replayer.value()->NodeColor(node).value(), viz::Color::Gray());
  }
}

TEST_F(ReplayFixture, ColorFadeAnimatesToTarget) {
  ReplayOptions options;
  options.clock = &replay_clock_;
  options.render_interval_us = 0;
  options.color_fade_us = 80000;  // 80ms fades
  auto replayer = OfflineReplayer::Create(graph_, events_, options);
  ASSERT_TRUE(replayer.ok());
  // Step completes the fade: target color exactly reached.
  ASSERT_TRUE(replayer.value()->Step().ok());
  EXPECT_EQ(replayer.value()->NodeColor(dot::NodeName(events_[0].pc)).value(),
            viz::Color::Red());
  // A full play ends all green despite fading through intermediate colors.
  ASSERT_TRUE(replayer.value()->Play(1e9, events_.size()).ok());
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    EXPECT_EQ(replayer.value()
                  ->NodeColor(dot::NodeName(static_cast<int>(pc)))
                  .value(),
              viz::Color::Green());
  }
  EXPECT_EQ(replayer.value()->animator()->active(), 0u);
}

TEST_F(ReplayFixture, GradientModeColorsByDuration) {
  auto replayer = MakeReplayer(ColoringMode::kGradient);
  ASSERT_TRUE(replayer->Play(8.0, events_.size()).ok());
  // At least one node is fully red (the max-duration one).
  bool saw_red = false;
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    if (replayer->NodeColor(dot::NodeName(static_cast<int>(pc))).value() ==
        viz::Color::Red()) {
      saw_red = true;
    }
  }
  EXPECT_TRUE(saw_red);
}

TEST_F(ReplayFixture, SeekMatchesSteppedOracleAllModes) {
  // SeekTo only touches pcs whose color can change; a step-by-step replay
  // is the oracle it must agree with. Gradient mode is the exception by
  // design (unchanged from the pre-incremental seek): live stepping tints
  // a node against the running maximum at its done event, while a seek
  // re-derives every colored node against the maximum at the seek target —
  // there the oracle is that recomputation, done here by hand.
  for (ColoringMode mode : {ColoringMode::kState, ColoringMode::kThreshold,
                            ColoringMode::kGradient}) {
    const size_t targets[] = {0, 1, events_.size() / 2, events_.size() - 1,
                              events_.size()};
    for (size_t target : targets) {
      auto seeker = MakeReplayer(mode);
      ASSERT_TRUE(seeker->SeekTo(target).ok());
      if (mode == ColoringMode::kGradient) {
        std::vector<int64_t> cum(outcome_.plan->size(), 0);
        for (size_t i = 0; i < target; ++i) {
          if (events_[i].state == EventState::kDone) {
            cum[static_cast<size_t>(events_[i].pc)] += events_[i].usec;
          }
        }
        int64_t max_usec = 1;
        for (int64_t u : cum) max_usec = std::max(max_usec, u);
        for (size_t pc = 0; pc < cum.size(); ++pc) {
          viz::Color expected =
              cum[pc] > 0
                  ? viz::Color::Lerp(viz::Color::White(), viz::Color::Red(),
                                     static_cast<double>(cum[pc]) /
                                         static_cast<double>(max_usec))
                  : viz::Color::Gray();
          const std::string node = dot::NodeName(static_cast<int>(pc));
          EXPECT_EQ(seeker->NodeColor(node).value(), expected)
              << "gradient target " << target << " pc " << pc;
        }
        continue;
      }
      auto stepper = MakeReplayer(mode);
      for (size_t i = 0; i < target; ++i) ASSERT_TRUE(stepper->Step().ok());
      for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
        std::string node = dot::NodeName(static_cast<int>(pc));
        EXPECT_EQ(seeker->NodeColor(node).value(),
                  stepper->NodeColor(node).value())
            << "mode " << static_cast<int>(mode) << " target " << target
            << " pc " << pc;
      }
    }
  }
}

TEST_F(ReplayFixture, SeekSequenceMatchesFreshReplay) {
  // Chained forward/backward seeks must land on the same state as a fresh
  // replay stepped to the final position (incremental diffs can't drift).
  auto replayer = MakeReplayer();
  const size_t n = events_.size();
  const size_t hops[] = {n, 3, n / 2, 0, n - 1};
  for (size_t hop : hops) {
    ASSERT_TRUE(replayer->SeekTo(hop).ok());
  }
  auto oracle = MakeReplayer();
  for (size_t i = 0; i + 1 < n; ++i) ASSERT_TRUE(oracle->Step().ok());
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    std::string node = dot::NodeName(static_cast<int>(pc));
    EXPECT_EQ(replayer->NodeColor(node).value(),
              oracle->NodeColor(node).value())
        << pc;
  }
}

TEST_F(ReplayFixture, FilterChangeKeepsSeekOracleAgreement) {
  profiler::EventFilter filter;
  filter.OnlyState(EventState::kDone);
  auto seeker = MakeReplayer();
  seeker->SetFilter(filter);
  auto stepper = MakeReplayer();
  stepper->SetFilter(filter);
  const size_t target = seeker->size() / 2;
  ASSERT_TRUE(seeker->SeekTo(target).ok());
  for (size_t i = 0; i < target; ++i) ASSERT_TRUE(stepper->Step().ok());
  for (size_t pc = 0; pc < outcome_.plan->size(); ++pc) {
    std::string node = dot::NodeName(static_cast<int>(pc));
    EXPECT_EQ(seeker->NodeColor(node).value(),
              stepper->NodeColor(node).value())
        << pc;
  }
}

// --- recorded example artifacts (examples/c4_q1.*) ---

TEST(ExamplesTest, C4Q1TrackerByteIdenticalToRescan) {
  // Acceptance gate: on the recorded demo artifacts the incremental
  // tracker's decision stream is exactly the rescan's.
  auto events =
      ReadTraceFile(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.trace");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_FALSE(events.value().empty());
  auto rescan = PairSequenceColoring(events.value());
  PairSequenceTracker tracker;
  for (const TraceEvent& e : events.value()) tracker.Observe(e);
  ASSERT_EQ(tracker.decisions().size(), rescan.size());
  for (size_t i = 0; i < rescan.size(); ++i) {
    EXPECT_EQ(tracker.decisions()[i].pc, rescan[i].pc) << i;
    EXPECT_EQ(tracker.decisions()[i].color, rescan[i].color) << i;
  }
}

TEST(ExamplesTest, C4Q1SeekMatchesSteppedReplay) {
  auto events =
      ReadTraceFile(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.trace");
  ASSERT_TRUE(events.ok());
  std::ifstream dot_in(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.dot");
  std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                       std::istreambuf_iterator<char>());
  auto graph = dot::ParseDot(dot_text);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  VirtualClock clock;
  ReplayOptions options;
  options.clock = &clock;
  options.render_interval_us = 0;
  auto seeker = OfflineReplayer::Create(graph.value(), events.value(), options);
  auto stepper =
      OfflineReplayer::Create(graph.value(), events.value(), options);
  ASSERT_TRUE(seeker.ok());
  ASSERT_TRUE(stepper.ok());
  const size_t target = events.value().size() / 2;
  ASSERT_TRUE(seeker.value()->SeekTo(target).ok());
  for (size_t i = 0; i < target; ++i) {
    ASSERT_TRUE(stepper.value()->Step().ok());
  }
  for (size_t i = 0; i < graph.value().num_nodes(); ++i) {
    std::string node = dot::NodeName(static_cast<int>(i));
    EXPECT_EQ(seeker.value()->NodeColor(node).value(),
              stepper.value()->NodeColor(node).value())
        << node;
  }
}

// --- colours pinned on the recorded example, every mode, pacing on ---

/// The recorded c4_q1 plan and trace; every trace pc names a plan node, so
/// a count of events is a count of posted colour changes.
class C4Q1ColorsTest : public ::testing::Test {
 protected:
  static constexpr int64_t kThresholdUs = 100;

  void SetUp() override {
    auto events =
        ReadTraceFile(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.trace");
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    events_ = std::move(events).value();
    std::ifstream dot_in(std::string(STETHO_EXAMPLES_DIR) + "/c4_q1.dot");
    std::string dot_text((std::istreambuf_iterator<char>(dot_in)),
                         std::istreambuf_iterator<char>());
    auto graph = dot::ParseDot(dot_text);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(graph).value();
    for (const TraceEvent& e : events_) {
      ASSERT_GE(graph_.FindNode(dot::NodeName(e.pc)), 0) << e.pc;
    }
  }

  /// A replay paced at the paper's 150 ms under a virtual clock.
  std::unique_ptr<OfflineReplayer> MakeReplayer(ColoringMode mode) {
    ReplayOptions options;
    options.clock = &clock_;
    options.mode = mode;
    options.threshold_us = kThresholdUs;
    auto r = OfflineReplayer::Create(graph_, events_, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// Every node's fill after stepping a gradient replay through events
  /// [0, k): each done tints its pc by the pc's cumulative time over the
  /// largest cumulative time of any pc at that event.
  std::map<int, viz::Color> GradientStepFills(size_t k) const {
    std::map<int, int64_t> cum;
    std::map<int, viz::Color> fills;
    for (size_t i = 0; i < k; ++i) {
      const TraceEvent& e = events_[i];
      if (e.state != EventState::kDone) continue;
      cum[e.pc] += e.usec;
      int64_t max_usec = 1;
      for (const auto& [pc, usec] : cum) max_usec = std::max(max_usec, usec);
      fills[e.pc] = viz::Color::Lerp(
          viz::Color::White(), viz::Color::Red(),
          static_cast<double>(cum[e.pc]) / static_cast<double>(max_usec));
    }
    return fills;
  }

  VirtualClock clock_;
  dot::Graph graph_;
  std::vector<TraceEvent> events_;
};

TEST_F(C4Q1ColorsTest, SteppedRendersAndFinalFillsAllModes) {
  for (ColoringMode mode : {ColoringMode::kState, ColoringMode::kThreshold,
                            ColoringMode::kGradient}) {
    // By hand: which events post a colour, and each node's last colour.
    int64_t expected_renders = 0;
    std::map<int, viz::Color> expected;
    for (const TraceEvent& e : events_) {
      const bool done = e.state == EventState::kDone;
      if (mode == ColoringMode::kState) {
        ++expected_renders;
        expected[e.pc] = done ? viz::Color::Green() : viz::Color::Red();
      } else if (mode == ColoringMode::kThreshold) {
        if (done && e.usec >= kThresholdUs) {
          ++expected_renders;
          expected[e.pc] = viz::Color::Red();
        }
      } else if (done) {
        ++expected_renders;
      }
    }
    if (mode == ColoringMode::kGradient) {
      expected = GradientStepFills(events_.size());
    }

    auto replayer = MakeReplayer(mode);
    while (!replayer->AtEnd()) ASSERT_TRUE(replayer->Step().ok());
    EXPECT_EQ(replayer->dispatcher()->Stats().renders, expected_renders)
        << "mode " << static_cast<int>(mode);
    for (size_t i = 0; i < graph_.num_nodes(); ++i) {
      const int pc = static_cast<int>(i);
      auto it = expected.find(pc);
      EXPECT_EQ(replayer->NodeColor(dot::NodeName(pc)).value(),
                it != expected.end() ? it->second : viz::Color::Gray())
          << "mode " << static_cast<int>(mode) << " pc " << pc;
    }
  }
}

TEST_F(C4Q1ColorsTest, GradientStepColorsFollowRunningMaximum) {
  const size_t n = events_.size();
  auto replayer = MakeReplayer(ColoringMode::kGradient);
  for (size_t k : {size_t{1}, size_t{2}, n / 4, n / 2 + 1, 3 * n / 4, n}) {
    while (replayer->cursor() < k) ASSERT_TRUE(replayer->Step().ok());
    const std::map<int, viz::Color> expected = GradientStepFills(k);
    for (size_t i = 0; i < graph_.num_nodes(); ++i) {
      const int pc = static_cast<int>(i);
      auto it = expected.find(pc);
      EXPECT_EQ(replayer->NodeColor(dot::NodeName(pc)).value(),
                it != expected.end() ? it->second : viz::Color::Gray())
          << "k " << k << " pc " << pc;
    }
  }
}

// --- online monitor ---

TEST(OnlineMonitorTest, EndToEndColorsAndReports) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  soptions.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), soptions);

  OnlineOptions options;
  options.render_interval_us = 0;  // no pacing: keep the test fast
  options.analysis_period_us = 2000;
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= 19940101 and l_shipdate < 19950101");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const OnlineReport& r = report.value();
  EXPECT_GT(r.graph_nodes, 0u);
  EXPECT_EQ(r.graph_nodes, r.outcome.plan->size());
  EXPECT_EQ(r.events_received,
            2 * static_cast<int64_t>(r.outcome.plan->size()));
  EXPECT_GT(r.analysis_rounds, 0u);
  EXPECT_FALSE(AnalyzeOperators(r.events).empty());
  EXPECT_DOUBLE_EQ(r.final_progress, 1.0);
  // Progress series is monotone and ends complete.
  ASSERT_FALSE(r.progress_series.empty());
  for (size_t i = 1; i < r.progress_series.size(); ++i) {
    EXPECT_GE(r.progress_series[i], r.progress_series[i - 1]);
  }
  EXPECT_DOUBLE_EQ(r.progress_series.back(), 1.0);
  ASSERT_EQ(r.outcome.result.columns.size(), 1u);
  ASSERT_NE(monitor.scene(), nullptr);
}

TEST(OnlineMonitorTest, CallerSinksSurviveAMonitoredQuery) {
  // A monitored query detaches only the stream it attached: a sink the
  // caller added through profiler() keeps receiving events, and a second
  // monitored query gets its own stream, events and %EOF.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::Mserver server(std::move(cat.value()), server::MserverOptions{});
  auto ring = std::make_shared<profiler::RingBufferSink>(1 << 12);
  server.profiler()->AddSink(ring);

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 2000;
  OnlineMonitor monitor(&server, options);
  const std::string sql = "select count(*) from lineitem";
  for (int round = 0; round < 2; ++round) {
    const int64_t before = ring->total_consumed();
    auto report = monitor.MonitorQuery(sql);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const int64_t events =
        2 * static_cast<int64_t>(report.value().outcome.plan->size());
    EXPECT_EQ(report.value().events_received, events) << round;
    EXPECT_EQ(ring->total_consumed() - before, events) << round;
  }
  const int64_t before = ring->total_consumed();
  auto outcome = server.ExecuteSql(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(ring->total_consumed() - before,
            2 * static_cast<int64_t>(outcome.value().plan->size()));
}

/// Tentpole acceptance: 5% injected datagram loss on the demo query. The
/// monitor must not hang (the %EOF is spared, and even a lost one only
/// costs the bounded stream wait), the receiver's gap accounting must
/// match the injector's exact counts, and progress still ends pinned at
/// 1.0 because the query itself completed.
TEST(OnlineMonitorTest, LossyWireIsAccountedAndStillCompletes) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  soptions.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), soptions);

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 2000;
  options.fault.drop_p = 0.05;
  options.fault.seed = 11;
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= 19940101 and l_shipdate < 19950101");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const OnlineReport& r = report.value();
  ASSERT_GT(r.injected_dropped, 0);
  EXPECT_EQ(r.injected_duplicated, 0);
  EXPECT_EQ(r.injected_reordered, 0);

  // The health summary is finalized (no gap still "pending") and its loss
  // ratio sits within one percentage point of the injected truth. Losses
  // at the sequence-span edges are invisible to a gap accountant, hence a
  // band rather than equality on the ratio; the count itself can only
  // undershoot.
  EXPECT_EQ(r.pipe_health.pending, 0);
  EXPECT_GT(r.pipe_health.lost, 0);
  EXPECT_LE(r.pipe_health.lost, r.injected_dropped);
  const double injected_ratio =
      static_cast<double>(r.injected_dropped) /
      static_cast<double>(r.injected_dropped + r.events_received);
  EXPECT_NEAR(r.pipe_health.loss_ratio(), injected_ratio, 0.01);

  // Progress: monotone throughout, pinned at exactly 1.0 once the query
  // finished — lost done-events must not leave the bar stuck short.
  ASSERT_FALSE(r.progress_series.empty());
  for (size_t i = 1; i < r.progress_series.size(); ++i) {
    EXPECT_GE(r.progress_series[i], r.progress_series[i - 1]);
  }
  EXPECT_DOUBLE_EQ(r.progress_series.back(), 1.0);
  EXPECT_DOUBLE_EQ(r.final_progress, 1.0);
  EXPECT_EQ(r.outcome.result.columns.size(), 1u);
}

/// Seeds a near-zero baseline for the query's plan shape, so the live
/// comparator must flag the real run's slower instructions (any pc over
/// the 10us jitter floor regresses against a 0us median).
TEST(OnlineMonitorTest, FlagsStragglersAgainstStoredBaseline) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  soptions.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), soptions);

  const std::string sql =
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= 19940101 and l_shipdate < 19950101";
  auto plan = server.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  obs::ProfileStore store;
  obs::QueryObservation seed;
  seed.shape_hash = analysis::PlanShapeHash(plan.value());
  seed.plan_size = plan.value().size();
  seed.total_usec = 1;
  for (size_t pc = 0; pc < seed.plan_size; ++pc) {
    obs::PcSample sample;
    sample.pc = static_cast<int>(pc);
    sample.usec = 0;
    seed.pcs.push_back(sample);
  }
  ASSERT_TRUE(store.Fold(seed).ok());

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 2000;
  options.profile = &store;
  std::string last_status;
  options.status_line = [&last_status](const std::string& line) {
    last_status = line;
  };
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(sql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const OnlineReport& r = report.value();
  EXPECT_DOUBLE_EQ(r.final_progress, 1.0);
  EXPECT_EQ(r.events_received,
            2 * static_cast<int64_t>(r.outcome.plan->size()));

  ASSERT_FALSE(r.stragglers.empty());
  EXPECT_GT(r.straggler_updates, 0u);
  std::set<int> flagged_pcs;
  for (const StragglerFlag& flag : r.stragglers) {
    EXPECT_GE(flag.pc, 0);
    EXPECT_LT(flag.pc, static_cast<int>(r.outcome.plan->size()));
    // Every flag cleared both gates against the near-zero baseline (a 0us
    // sample sits in the v<=1 log bucket, so its median reads as 1).
    EXPECT_GE(flag.usec, obs::kRegressionMinUsec);
    EXPECT_LE(flag.baseline_median, 1.0);
    // One flag per pc, never re-reported.
    EXPECT_TRUE(flagged_pcs.insert(flag.pc).second) << flag.pc;
  }
  EXPECT_NE(last_status.find("stragglers:"), std::string::npos)
      << last_status;
}

/// The zero-false-positive side: against a generous baseline (everything
/// profiled at 10s) nothing in a millisecond-scale run may flag.
TEST(OnlineMonitorTest, NoStragglersAgainstGenerousBaseline) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  server::Mserver server(std::move(cat.value()), soptions);

  const std::string sql =
      "select l_tax from lineitem where l_partkey = 1";
  auto plan = server.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  obs::ProfileStore store;
  obs::QueryObservation seed;
  seed.shape_hash = analysis::PlanShapeHash(plan.value());
  seed.plan_size = plan.value().size();
  seed.total_usec = 10'000'000;
  for (size_t pc = 0; pc < seed.plan_size; ++pc) {
    obs::PcSample sample;
    sample.pc = static_cast<int>(pc);
    sample.usec = 10'000'000;
    seed.pcs.push_back(sample);
  }
  ASSERT_TRUE(store.Fold(seed).ok());

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 2000;
  options.profile = &store;
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(sql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().stragglers.empty());
  EXPECT_EQ(report.value().straggler_updates, 0u);
  EXPECT_EQ(report.value().events_received,
            2 * static_cast<int64_t>(report.value().outcome.plan->size()));
}

TEST(OnlineMonitorTest, DetectsSequentialAnomaly) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  soptions.mitosis_pieces = 4;
  soptions.force_sequential = true;  // the misbehaving server
  server::Mserver server(std::move(cat.value()), soptions);

  OnlineOptions options;
  options.render_interval_us = 0;
  OnlineMonitor monitor(&server, options);
  auto report =
      monitor.MonitorQuery("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().parallelism.sequential_anomaly);
  EXPECT_NE(report.value().parallelism.summary.find("ANOMALY"),
            std::string::npos);
  EXPECT_EQ(report.value().events_received,
            2 * static_cast<int64_t>(report.value().outcome.plan->size()));
}

TEST(OnlineMonitorTest, RunsUnderVirtualClock) {
  // The monitor's waits go through the injected clock, so a VirtualClock
  // session completes without depending on real 30s/20ms constants.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::Mserver server(std::move(cat.value()), server::MserverOptions{});
  VirtualClock clock;
  OnlineOptions options;
  options.clock = &clock;
  options.render_interval_us = 0;
  options.dot_timeout_us = 1LL << 60;  // virtual sleeps burn virtual time fast
  OnlineMonitor monitor(&server, options);
  auto report =
      monitor.MonitorQuery("select l_tax from lineitem where l_partkey = 1");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report.value().final_progress, 1.0);
  EXPECT_EQ(report.value().events_received,
            2 * static_cast<int64_t>(report.value().outcome.plan->size()));
}

/// Holds the first event it sees until `Open()` (or 20 s pass), so a query
/// cannot finish before whatever opens the gate has run.
class GateSink : public profiler::EventSink {
 public:
  void Consume(const TraceEvent& /*event*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (consumed_++ > 0) return;
    held_ = cv_.wait_for(lock, std::chrono::seconds(20), [this] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// True when the first event waited for Open().
  bool held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t consumed_ = 0;
  bool open_ = false;
  bool held_ = false;
};

TEST(OnlineMonitorTest, EofEndsTheAnalysisWait) {
  // The first analysis round runs while the query is held at its first
  // event; after it, only the %EOF wake-up can end the monitor's wait
  // before the 60 s analysis period is up.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 2;
  server::Mserver server(std::move(cat.value()), soptions);
  auto gate = std::make_shared<GateSink>();
  server.profiler()->AddSink(gate);

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 60'000'000;
  options.status_line = [&gate](const std::string&) { gate->Open(); };
  OnlineMonitor monitor(&server, options);
  const auto start = std::chrono::steady_clock::now();
  auto report =
      monitor.MonitorQuery("select l_tax from lineitem where l_partkey = 1");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(gate->held());
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  EXPECT_EQ(report.value().events_received,
            2 * static_cast<int64_t>(report.value().outcome.plan->size()));
}

TEST(OnlineMonitorTest, NewlineInStringLiteralKeepsEveryEvent) {
  // The string literal's raw newline reaches the instruction statements,
  // so every event carrying one must still arrive as one line.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 2;
  soptions.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), soptions);

  OnlineOptions options;
  options.render_interval_us = 0;
  options.analysis_period_us = 2000;
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(
      "select l_tax from lineitem where l_shipmode = 'AIR\nMAIL'");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const OnlineReport& r = report.value();
  EXPECT_EQ(r.events_received,
            2 * static_cast<int64_t>(r.outcome.plan->size()));
  EXPECT_EQ(r.pipe_health.lost, 0);
  EXPECT_TRUE(std::any_of(r.events.begin(), r.events.end(),
                          [](const TraceEvent& e) {
                            return e.stmt.find('\n') != std::string::npos;
                          }));
}

TEST(OnlineMonitorTest, DotTimeoutDrivenByInjectedClock) {
  // An already-expired deadline times out on the first poll — previously
  // this branch needed 30 real seconds to reach.
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions soptions;
  soptions.dop = 4;
  soptions.mitosis_pieces = 4;
  server::Mserver server(std::move(cat.value()), soptions);
  VirtualClock clock;
  clock.Advance(1000);
  OnlineOptions options;
  options.clock = &clock;
  options.render_interval_us = 0;
  options.dot_timeout_us = -1000000;
  // The wire drops every datagram, framing included, so no dot can reach
  // the monitor before its first deadline check however the threads run.
  options.fault.drop_p = 1.0;
  options.fault.spare_control_lines = false;
  OnlineMonitor monitor(&server, options);
  auto report = monitor.MonitorQuery(
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= 19940101 and l_shipdate < 19950101");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("no dot file"), std::string::npos);
}

TEST(OnlineMonitorTest, QueryErrorPropagates) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::Mserver server(std::move(cat.value()), server::MserverOptions{});
  OnlineOptions options;
  OnlineMonitor monitor(&server, options);
  EXPECT_FALSE(monitor.MonitorQuery("select bogus from nothing").ok());
}

}  // namespace
}  // namespace stetho::scope
