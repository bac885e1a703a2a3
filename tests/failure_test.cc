// Failure-injection tests: every layer must degrade gracefully — errors
// surface as Status, never as hangs, crashes, or silent corruption.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "engine/interpreter.h"
#include "net/channel.h"
#include "net/udp.h"
#include "profiler/sink.h"
#include "scope/replayer.h"
#include "scope/textual.h"
#include "server/mserver.h"
#include "storage/table.h"
#include "tpch/dbgen.h"

namespace stetho {
namespace {

using engine::ExecOptions;
using engine::Interpreter;
using engine::KernelArgs;
using engine::ModuleRegistry;
using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::DataType;
using storage::Value;

// ---------------------------------------------------------------------------
// Engine: kernel failures under the dataflow scheduler.
// ---------------------------------------------------------------------------

/// Registry whose "test.fail" kernel errors and whose "test.slow" spins.
class FailingRegistry {
 public:
  FailingRegistry() {
    engine::RegisterCoreKernels(&registry_);
    engine::RegisterAlgebraKernels(&registry_);
    engine::RegisterGroupAggrKernels(&registry_);
    STETHO_CHECK_REGISTER(registry_.Register("test", "fail", [](KernelArgs&) {
      return Status::Internal("injected kernel failure");
    }));
    STETHO_CHECK_REGISTER(
        registry_.Register("test", "failafter", [this](KernelArgs& a) {
          int64_t calls = calls_.fetch_add(1);
          STETHO_ASSIGN_OR_RETURN(int64_t n, engine::ArgInt(a, 0));
          if (calls >= n) return Status::Internal("delayed injected failure");
          *a.results[0] = engine::RegisterValue::Scalar(Value::Int(calls));
          return Status::OK();
        }));
  }
  const ModuleRegistry* get() const { return &registry_; }

 private:
  ModuleRegistry registry_;
  std::atomic<int64_t> calls_{0};
};

TEST(EngineFailureTest, ErrorInParallelPlanTerminatesCleanly) {
  storage::Catalog cat;
  FailingRegistry registry;
  Interpreter interp(&cat, registry.get());

  // 16 parallel spins plus one failing instruction: the scheduler must
  // abort, join all workers, and report the injected error.
  Program p;
  for (int i = 0; i < 16; ++i) {
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("debug", "spin", {v}, {Argument::Const(Value::Int(100000))});
  }
  p.Add("test", "fail", {}, {});
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = interp.Execute(p, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("injected kernel failure"),
            std::string::npos);
}

TEST(EngineFailureTest, RepeatedFailuresNeverHang) {
  storage::Catalog cat;
  FailingRegistry registry;
  Interpreter interp(&cat, registry.get());
  // A chain where the k-th call fails: run for several k to hit failures
  // at different dataflow depths.
  for (int64_t fail_at : {0, 1, 3}) {
    Program p;
    int prev = -1;
    for (int i = 0; i < 6; ++i) {
      int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
      std::vector<Argument> args = {Argument::Const(Value::Int(fail_at))};
      if (prev >= 0) args.push_back(Argument::Var(prev));
      p.Add("test", "failafter", {v}, std::move(args));
      prev = v;
    }
    ExecOptions opts;
    opts.num_threads = 4;
    auto r = interp.Execute(p, opts);
    EXPECT_FALSE(r.ok()) << fail_at;
  }
}

TEST(EngineFailureTest, ArityAndTypeErrorsCarryContext) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  Interpreter interp(&cat.value());

  // Wrong arity.
  {
    Program p;
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("sql", "mvc", {v}, {Argument::Const(Value::Int(1))});
    auto r = interp.Execute(p, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("pc=0"), std::string::npos);
  }
  // Scalar where BAT expected.
  {
    Program p;
    int v = p.AddVariable(MalType::Scalar(DataType::kInt64));
    p.Add("sql", "mvc", {v}, {});
    int out = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("bat", "mirror", {out}, {Argument::Var(v)});
    auto r = interp.Execute(p, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  }
  // Candidate oid out of range.
  {
    Program p;
    int big = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("bat", "densebat", {big}, {Argument::Const(Value::Int(10))});
    int small = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("bat", "densebat", {small}, {Argument::Const(Value::Int(2))});
    int out = p.AddVariable(MalType::Bat(DataType::kOid));
    p.Add("algebra", "projection", {out},
          {Argument::Var(big), Argument::Var(small)});
    auto r = interp.Execute(p, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(EngineFailureTest, ProfilerSeesStartOfFailedInstruction) {
  storage::Catalog cat;
  FailingRegistry registry;
  Interpreter interp(&cat, registry.get());
  VirtualClock clock;
  profiler::Profiler prof(&clock);
  auto ring = std::make_shared<profiler::RingBufferSink>(64);
  prof.AddSink(ring);
  Program p;
  p.Add("test", "fail", {}, {});
  ExecOptions opts;
  opts.profiler = &prof;
  opts.clock = &clock;
  opts.use_dataflow = false;
  ASSERT_FALSE(interp.Execute(p, opts).ok());
  auto events = ring->Snapshot();
  ASSERT_EQ(events.size(), 1u);  // start emitted, no done (it never finished)
  EXPECT_EQ(events[0].state, profiler::EventState::kStart);
}

// ---------------------------------------------------------------------------
// Streams: malformed input, dead endpoints, overload.
// ---------------------------------------------------------------------------

TEST(StreamFailureTest, MalformedLinesCountedNotFatal) {
  auto [sender, receiver] = net::Channel::CreatePair();
  scope::TextualOptions options;
  scope::TextualStethoscope textual(options);
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
  ASSERT_TRUE(sender->Send("complete garbage").ok());
  ASSERT_TRUE(sender->Send("[ 1, 2 ]").ok());
  profiler::TraceEvent ok_event;
  ok_event.stmt = "io.print(X_1);";
  ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(ok_event)).ok());
  for (int i = 0; i < 300 && textual.events_received() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(textual.events_received(), 1);
  EXPECT_EQ(textual.malformed_lines(), 2);
  textual.Stop();
}

TEST(StreamFailureTest, SendToDeadUdpPortDoesNotBreakQuery) {
  // Bind a port, then close it: the server streams into the void; the
  // query must still succeed (UDP is fire-and-forget).
  uint16_t dead_port;
  {
    auto receiver = net::UdpReceiver::Bind(0);
    ASSERT_TRUE(receiver.ok());
    dead_port = receiver.value()->port();
  }
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::Mserver server(std::move(cat.value()), server::MserverOptions{});
  auto sender = net::UdpSender::Connect(dead_port);
  ASSERT_TRUE(sender.ok());
  server.AttachStream(
      std::shared_ptr<net::DatagramSender>(std::move(sender).value()));
  auto outcome =
      server.ExecuteSql("select l_tax from lineitem where l_partkey = 1");
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
}

TEST(StreamFailureTest, ChannelOverflowDropsButDelivers) {
  // An undersized channel drops excess events (like UDP under pressure);
  // the stethoscope keeps whatever arrives.
  auto [sender, receiver] = net::Channel::CreatePair(/*max_queue=*/8);
  scope::TextualOptions options;
  scope::TextualStethoscope textual(options);
  ASSERT_TRUE(textual.AddServer("srv", std::move(receiver)).ok());
  profiler::TraceEvent e;
  e.stmt = "x";
  // Burst much larger than the queue; listener may drain in parallel so
  // anywhere between 8 and 200 arrive — never zero, never > 200.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(sender->Send(profiler::FormatTraceLine(e)).ok());
  }
  for (int i = 0; i < 300 && textual.events_received() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(textual.events_received(), 8);
  EXPECT_LE(textual.events_received(), 200);
  textual.Stop();
}

TEST(StreamFailureTest, StopIsIdempotentAndStopsListeners) {
  auto [sender, receiver] = net::Channel::CreatePair();
  scope::TextualOptions options;
  auto* textual = new scope::TextualStethoscope(options);
  ASSERT_TRUE(textual->AddServer("srv", std::move(receiver)).ok());
  textual->Stop();
  textual->Stop();
  EXPECT_FALSE(
      textual->AddServer("late", net::Channel::CreatePair().second).ok());
  delete textual;
  // Sender into a stopped stethoscope: channel is closed by the receiver.
  EXPECT_FALSE(sender->Send("x").ok());
}

// ---------------------------------------------------------------------------
// Replayer robustness.
// ---------------------------------------------------------------------------

TEST(ReplayFailureTest, TraceEventsWithoutPlanNodesAreIgnored) {
  dot::Graph graph;
  graph.AddNode("n0").given_label = "only node";
  std::vector<profiler::TraceEvent> events(2);
  events[0].pc = 0;
  events[0].state = profiler::EventState::kStart;
  events[1].pc = 999;  // no such node in the graph
  events[1].state = profiler::EventState::kStart;
  scope::ReplayOptions options;
  options.render_interval_us = 0;
  auto replayer = scope::OfflineReplayer::Create(graph, events, options);
  ASSERT_TRUE(replayer.ok());
  EXPECT_TRUE(replayer.value()->Step().ok());
  EXPECT_TRUE(replayer.value()->Step().ok());  // unknown pc: no crash
  EXPECT_FALSE(replayer.value()->Step().ok());  // end of trace
}

TEST(ReplayFailureTest, EmptyTrace) {
  dot::Graph graph;
  graph.AddNode("n0");
  scope::ReplayOptions options;
  options.render_interval_us = 0;
  auto replayer = scope::OfflineReplayer::Create(graph, {}, options);
  ASSERT_TRUE(replayer.ok());
  EXPECT_TRUE(replayer.value()->AtEnd());
  EXPECT_FALSE(replayer.value()->Step().ok());
  EXPECT_EQ(replayer.value()->DebugWindowText(), "trace not started");
  auto played = replayer.value()->Play(2.0, 10);
  ASSERT_TRUE(played.ok());
  EXPECT_EQ(played.value(), 0u);
}

TEST(ReplayFailureTest, InvalidSpeedRejected) {
  dot::Graph graph;
  graph.AddNode("n0");
  scope::ReplayOptions options;
  options.render_interval_us = 0;
  auto replayer = scope::OfflineReplayer::Create(graph, {}, options);
  ASSERT_TRUE(replayer.ok());
  EXPECT_FALSE(replayer.value()->Play(0, 1).ok());
  EXPECT_FALSE(replayer.value()->Play(-3, 1).ok());
}

// ---------------------------------------------------------------------------
// Storage / SQL misuse.
// ---------------------------------------------------------------------------

TEST(SqlFailureTest, DeepErrorsPropagateWithContext) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::Mserver server(std::move(cat.value()), server::MserverOptions{});
  struct Case {
    const char* sql;
    StatusCode code;
  };
  const Case cases[] = {
      {"select nope from lineitem", StatusCode::kNotFound},
      {"select l_tax from ghost_table", StatusCode::kNotFound},
      {"select l_tax, o_orderkey from lineitem", StatusCode::kNotFound},
      {"select sum(l_tax), l_partkey from lineitem", StatusCode::kInvalidArgument},
      {"select l_tax from lineitem where l_tax", StatusCode::kTypeError},
      {"select 1 + from lineitem", StatusCode::kParseError},
  };
  for (const Case& c : cases) {
    auto r = server.ExecuteSql(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_EQ(r.status().code(), c.code) << c.sql << " -> "
                                         << r.status().ToString();
  }
}

}  // namespace
}  // namespace stetho
