#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "common/string_util.h"
#include "net/channel.h"
#include "net/fault_injection.h"
#include "net/pipe_health.h"
#include "net/trace_stream.h"
#include "net/udp.h"
#include "profiler/profiler.h"

namespace stetho::net {
namespace {

// --- in-process channel ---

TEST(ChannelTest, SendReceive) {
  auto [sender, receiver] = Channel::CreatePair();
  ASSERT_TRUE(sender->Send("hello").ok());
  std::string payload;
  auto got = receiver->Receive(&payload, 100);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(payload, "hello");
}

TEST(ChannelTest, TimeoutReturnsFalse) {
  auto [sender, receiver] = Channel::CreatePair();
  std::string payload;
  auto got = receiver->Receive(&payload, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(ChannelTest, PreservesMessageBoundariesAndOrder) {
  auto [sender, receiver] = Channel::CreatePair();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sender->Send("msg" + std::to_string(i)).ok());
  }
  std::string payload;
  for (int i = 0; i < 10; ++i) {
    auto got = receiver->Receive(&payload, 100);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value());
    EXPECT_EQ(payload, "msg" + std::to_string(i));
  }
}

TEST(ChannelTest, CloseUnblocksReceiver) {
  auto [sender, receiver] = Channel::CreatePair();
  std::thread closer([r = receiver.get()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r->Close();
  });
  std::string payload;
  auto got = receiver->Receive(&payload, 5000);
  closer.join();
  EXPECT_FALSE(got.ok());  // Aborted
  EXPECT_FALSE(sender->Send("x").ok());
}

TEST(ChannelTest, DrainsQueueAfterClose) {
  auto [sender, receiver] = Channel::CreatePair();
  ASSERT_TRUE(sender->Send("queued").ok());
  receiver->Close();
  std::string payload;
  auto got = receiver->Receive(&payload, 10);
  // Queued messages are still deliverable after close.
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value());
  EXPECT_EQ(payload, "queued");
}

TEST(ChannelTest, OverflowDropsLikeUdp) {
  auto [sender, receiver] = Channel::CreatePair(/*max_queue=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sender->Send(std::to_string(i)).ok());
  }
  std::string payload;
  int delivered = 0;
  while (true) {
    auto got = receiver->Receive(&payload, 5);
    if (!got.ok() || !got.value()) break;
    ++delivered;
  }
  EXPECT_EQ(delivered, 2);
}

// --- loopback UDP ---

TEST(UdpTest, LoopbackSendReceive) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok()) << receiver.status().ToString();
  ASSERT_GT(receiver.value()->port(), 0);
  auto sender = UdpSender::Connect(receiver.value()->port());
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  ASSERT_TRUE(sender.value()->Send("datagram-1").ok());
  std::string payload;
  auto got = receiver.value()->Receive(&payload, 2000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(payload, "datagram-1");
}

TEST(UdpTest, TimeoutOnSilence) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok());
  std::string payload;
  auto got = receiver.value()->Receive(&payload, 20);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(UdpTest, ManyDatagramsArrive) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok());
  auto sender = UdpSender::Connect(receiver.value()->port());
  ASSERT_TRUE(sender.ok());
  const int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(sender.value()->Send("m" + std::to_string(i)).ok());
  }
  int received = 0;
  std::string payload;
  while (received < kCount) {
    auto got = receiver.value()->Receive(&payload, 200);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;  // loopback UDP may drop under pressure
    ++received;
  }
  // Loopback should deliver virtually everything.
  EXPECT_GT(received, kCount * 9 / 10);
}

// --- trace stream framing ---

/// Drains every queued datagram (10 ms of silence ends the drain).
std::vector<std::string> DrainDatagrams(DatagramReceiver* receiver) {
  std::vector<std::string> datagrams;
  std::string payload;
  while (true) {
    auto got = receiver->Receive(&payload, 10);
    if (!got.ok() || !got.value()) break;
    datagrams.push_back(payload);
  }
  return datagrams;
}

/// The framing lines the datagrams carry, in order.
std::vector<std::string> SplitLines(const std::vector<std::string>& datagrams) {
  std::vector<std::string> lines;
  for (const std::string& datagram : datagrams) {
    for (std::string& line : Split(datagram, '\n')) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

TEST(TraceStreamTest, DotFramingRoundTrip) {
  auto [sender, receiver] = Channel::CreatePair();
  std::string dot = "digraph g {\n  n0 [label=\"x\"];\n  n0 -> n1;\n}\n";
  ASSERT_TRUE(SendDotFile(sender.get(), "s0", dot).ok());
  ASSERT_TRUE(SendEof(sender.get(), "s0").ok());

  std::vector<std::string> lines = SplitLines(DrainDatagrams(receiver.get()));
  ASSERT_EQ(lines.size(), 7u);  // BEGIN + 4 dot lines + END + EOF
  EXPECT_EQ(lines.front(), "%DOT-BEGIN s0");
  EXPECT_EQ(lines[1], "%DOT digraph g {");
  EXPECT_EQ(lines[5], "%DOT-END s0");
  EXPECT_EQ(lines.back(), "%EOF s0");
}

TEST(TraceStreamTest, DotLinesPackIntoBudgetedDatagrams) {
  // 3,000 short lines plus one line longer than the whole budget.
  std::string dot;
  for (int i = 0; i < 3000; ++i) dot += "  n" + std::to_string(i) + ";\n";
  const std::string long_line(kMaxDatagramBytes + 100, 'x');
  dot += long_line + "\n}\n";
  auto [sender, receiver] = Channel::CreatePair();
  ASSERT_TRUE(SendDotFile(sender.get(), "q", dot).ok());

  std::vector<std::string> datagrams = DrainDatagrams(receiver.get());
  EXPECT_LT(datagrams.size(), 20u);
  size_t oversized = 0;
  for (const std::string& datagram : datagrams) {
    EXPECT_EQ(datagram.front(), '%');
    EXPECT_NE(datagram.back(), '\n');
    if (datagram.size() > kMaxDatagramBytes) {
      // Only the over-budget line, alone.
      EXPECT_EQ(datagram, "%DOT " + long_line);
      ++oversized;
    }
  }
  EXPECT_EQ(oversized, 1u);
  std::vector<std::string> lines = SplitLines(datagrams);
  ASSERT_EQ(lines.size(), 3004u);
  EXPECT_EQ(lines.front(), "%DOT-BEGIN q");
  EXPECT_EQ(lines[1], "%DOT   n0;");
  EXPECT_EQ(lines[3001], "%DOT " + long_line);
  EXPECT_EQ(lines.back(), "%DOT-END q");
}

TEST(TraceStreamTest, DatagramSinkForwardsEvents) {
  auto [sender, receiver] = Channel::CreatePair();
  DatagramTraceSink sink(std::shared_ptr<DatagramSender>(std::move(sender)));
  VirtualClock clock;
  profiler::Profiler prof(&clock);
  // Hook the sink into a profiler via shared_ptr aliasing.
  prof.AddSink(std::shared_ptr<profiler::EventSink>(&sink, [](auto*) {}));
  prof.EmitStart(3, 1, 0, "X_1 := sql.mvc();");

  std::string payload;
  auto got = receiver->Receive(&payload, 100);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  auto event = profiler::ParseTraceLine(payload);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event.value().pc, 3);
}


// --- stream health (sequence-gap accounting) ---

profiler::TraceEvent SeqEvent(int64_t seq) {
  profiler::TraceEvent e;
  e.event = seq;
  e.time_us = 1000 + seq;
  e.pc = static_cast<int>(seq / 2);
  e.state = profiler::EventState::kDone;
  return e;
}

TEST(StreamHealthTest, CleanStreamHasNoFindings) {
  StreamHealth health;
  for (int64_t i = 0; i < 100; ++i) health.Observe(SeqEvent(i));
  health.Finalize();
  PipeHealthSummary s = health.Snapshot();
  EXPECT_EQ(s.observed, 100);
  EXPECT_EQ(s.lost, 0);
  EXPECT_EQ(s.reordered, 0);
  EXPECT_EQ(s.duplicated, 0);
  EXPECT_EQ(s.expected(), 100);
  EXPECT_DOUBLE_EQ(s.loss_ratio(), 0.0);
}

TEST(StreamHealthTest, OpenGapSettlesIntoLostOnFinalize) {
  StreamHealth health;
  for (int64_t seq : {0, 1, 3, 4}) health.Observe(SeqEvent(seq));
  EXPECT_EQ(health.Snapshot().pending, 1);  // seq 2 may still be in flight
  EXPECT_EQ(health.Snapshot().lost, 0);
  health.Finalize();
  PipeHealthSummary s = health.Snapshot();
  EXPECT_EQ(s.lost, 1);
  EXPECT_EQ(s.pending, 0);
  EXPECT_DOUBLE_EQ(s.loss_ratio(), 0.2);
}

TEST(StreamHealthTest, LateArrivalFillingGapIsReorder) {
  StreamHealth health;
  for (int64_t seq : {0, 2, 1, 3}) health.Observe(SeqEvent(seq));
  health.Finalize();
  PipeHealthSummary s = health.Snapshot();
  EXPECT_EQ(s.observed, 4);
  EXPECT_EQ(s.reordered, 1);
  EXPECT_EQ(s.lost, 0);
  EXPECT_EQ(s.duplicated, 0);
}

TEST(StreamHealthTest, RepeatDeliveryIsDuplicate) {
  StreamHealth health;
  for (int64_t seq : {0, 1, 1, 2}) health.Observe(SeqEvent(seq));
  PipeHealthSummary s = health.Snapshot();
  EXPECT_EQ(s.observed, 3);
  EXPECT_EQ(s.duplicated, 1);
  EXPECT_EQ(s.reordered, 0);
}

TEST(StreamHealthTest, StragglerBelowFirstArrivalCountsReordered) {
  StreamHealth health;
  health.Observe(SeqEvent(5));
  health.Observe(SeqEvent(3));  // arrived after 5: reordered, opens gap 4
  PipeHealthSummary s = health.Snapshot();
  EXPECT_EQ(s.min_seq, 3);
  EXPECT_EQ(s.max_seq, 5);
  EXPECT_EQ(s.reordered, 1);
  EXPECT_EQ(s.pending, 1);
}

TEST(StreamHealthTest, GapAgesIntoLossPastReorderWindow) {
  StreamHealth::Options options;
  options.reorder_window = 4;
  StreamHealth health(options);
  health.Observe(SeqEvent(0));
  health.Observe(SeqEvent(10));  // opens gaps 1..9
  PipeHealthSummary s = health.Snapshot();
  // Gaps trailing the high-water mark (10) by more than 4 are lost:
  // 1..5; 6..9 may still be late stragglers.
  EXPECT_EQ(s.lost, 5);
  EXPECT_EQ(s.pending, 4);
  // A straggler for an aged-out gap counts duplicated-side (monotone loss),
  // one inside the window still redeems as a reorder.
  health.Observe(SeqEvent(7));
  s = health.Snapshot();
  EXPECT_EQ(s.reordered, 1);
  EXPECT_EQ(s.lost, 5);
}

TEST(StreamHealthTest, ClockOffsetAndLatencyEstimates) {
  StreamHealth health;
  // Emit times 1000+seq; receiver clock runs 500us ahead plus queueing.
  health.Observe(SeqEvent(0), /*ingest_us=*/1000 + 500 + 40);
  health.Observe(SeqEvent(1), /*ingest_us=*/1001 + 500);  // zero-delay arrival
  health.Observe(SeqEvent(2), /*ingest_us=*/1002 + 500 + 120);
  PipeHealthSummary s = health.Snapshot();
  // The minimum delta (event 1, delta 500) is the offset estimate...
  EXPECT_EQ(s.clock_offset_us, 500);
  // ...so event 2's offset-corrected latency is its 120us queueing delay.
  EXPECT_EQ(s.last_latency_us, 120);
  EXPECT_GE(s.max_latency_us, 120);
}

TEST(StreamHealthTest, SummaryToStringMentionsLoss) {
  StreamHealth health;
  for (int64_t seq : {0, 3}) health.Observe(SeqEvent(seq));
  health.Finalize();
  std::string text = health.Snapshot().ToString();
  EXPECT_NE(text.find("2 lost"), std::string::npos) << text;
}

// --- fault injection ---

TEST(FaultInjectionTest, CleanPassthroughWithZeroProbabilities) {
  auto [sender, receiver] = Channel::CreatePair();
  FaultOptions fault;  // all-zero
  FaultInjectingSender faulty(std::shared_ptr<DatagramSender>(std::move(sender)),
                              fault);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(faulty.Send("msg" + std::to_string(i)).ok());
  }
  std::string payload;
  for (int i = 0; i < 50; ++i) {
    auto got = receiver->Receive(&payload, 100);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value());
    EXPECT_EQ(payload, "msg" + std::to_string(i));
  }
  EXPECT_EQ(faulty.injected_dropped(), 0);
  EXPECT_EQ(faulty.injected_duplicated(), 0);
  EXPECT_EQ(faulty.injected_reordered(), 0);
}

TEST(FaultInjectionTest, ControlLinesAreSpared) {
  auto [sender, receiver] = Channel::CreatePair();
  FaultOptions fault;
  fault.drop_p = 1.0;  // drop everything faultable
  FaultInjectingSender faulty(std::shared_ptr<DatagramSender>(std::move(sender)),
                              fault);
  ASSERT_TRUE(faulty.Send("%DOT-BEGIN q").ok());
  ASSERT_TRUE(faulty.Send("[ 0, 1, 0, 0, \"start\", 0, 0, \"x\" ]").ok());
  ASSERT_TRUE(faulty.Send("%EOF q").ok());
  std::string payload;
  ASSERT_TRUE(receiver->Receive(&payload, 100).value());
  EXPECT_EQ(payload, "%DOT-BEGIN q");
  ASSERT_TRUE(receiver->Receive(&payload, 100).value());
  EXPECT_EQ(payload, "%EOF q");
  EXPECT_FALSE(receiver->Receive(&payload, 10).value());
  EXPECT_EQ(faulty.injected_dropped(), 1);
}

TEST(FaultInjectionTest, SameSeedSameFaultPlan) {
  for (int run = 0; run < 2; ++run) {
    auto [sender, receiver] = Channel::CreatePair();
    FaultOptions fault;
    fault.drop_p = 0.1;
    fault.dup_p = 0.05;
    fault.reorder_p = 0.05;
    fault.seed = 7;
    FaultInjectingSender faulty(
        std::shared_ptr<DatagramSender>(std::move(sender)), fault);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(faulty.Send(std::to_string(i)).ok());
    }
    ASSERT_TRUE(faulty.Flush().ok());
    static int64_t first_dropped = -1;
    static int64_t first_dup = -1;
    static int64_t first_reord = -1;
    if (run == 0) {
      first_dropped = faulty.injected_dropped();
      first_dup = faulty.injected_duplicated();
      first_reord = faulty.injected_reordered();
      EXPECT_GT(first_dropped, 0);
    } else {
      EXPECT_EQ(faulty.injected_dropped(), first_dropped);
      EXPECT_EQ(faulty.injected_duplicated(), first_dup);
      EXPECT_EQ(faulty.injected_reordered(), first_reord);
    }
  }
}

/// The satellite contract: the receiving gap accountant reports EXACTLY the
/// injected loss/reorder/duplicate counts. The seed is chosen so the first
/// and last sequence numbers are delivered (asserted below) — losses at the
/// span edges are invisible to any sequence-based accountant.
TEST(FaultInjectionTest, GapAccountantMatchesInjectedCountsExactly) {
  auto [sender, receiver] = Channel::CreatePair();
  FaultOptions fault;
  fault.drop_p = 0.05;
  fault.dup_p = 0.03;
  fault.reorder_p = 0.04;
  fault.seed = 42;
  auto faulty = std::make_shared<FaultInjectingSender>(
      std::shared_ptr<DatagramSender>(std::move(sender)), fault);

  const int64_t kEvents = 500;
  for (int64_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(faulty->Send(profiler::FormatTraceLine(SeqEvent(i))).ok());
  }
  ASSERT_TRUE(faulty->Send("%EOF q").ok());  // flushes any held datagram

  StreamHealth health;
  std::string payload;
  bool saw_first = false;
  bool saw_last = false;
  while (true) {
    auto got = receiver->Receive(&payload, 10);
    ASSERT_TRUE(got.ok());
    if (!got.value()) break;
    if (!payload.empty() && payload[0] == '%') continue;
    auto event = profiler::ParseTraceLine(payload);
    ASSERT_TRUE(event.ok()) << payload;
    saw_first = saw_first || event.value().event == 0;
    saw_last = saw_last || event.value().event == kEvents - 1;
    health.Observe(event.value());
  }
  health.Finalize();

  ASSERT_TRUE(saw_first) << "seed delivers seq 0; pick another seed";
  ASSERT_TRUE(saw_last) << "seed delivers the last seq; pick another seed";
  PipeHealthSummary s = health.Snapshot();
  EXPECT_GT(faulty->injected_dropped(), 0);
  EXPECT_GT(faulty->injected_duplicated(), 0);
  EXPECT_GT(faulty->injected_reordered(), 0);
  EXPECT_EQ(s.lost, faulty->injected_dropped());
  EXPECT_EQ(s.duplicated, faulty->injected_duplicated());
  EXPECT_EQ(s.reordered, faulty->injected_reordered());
  EXPECT_EQ(s.observed, kEvents - faulty->injected_dropped());
  EXPECT_NEAR(s.loss_ratio(),
              static_cast<double>(faulty->injected_dropped()) / kEvents,
              0.001);
}

}  // namespace
}  // namespace stetho::net
