#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/checks.h"
#include "analysis/facts.h"
#include "common/clock.h"
#include "engine/interpreter.h"
#include "mal/program.h"
#include "net/channel.h"
#include "net/pipe_health.h"
#include "net/trace_stream.h"
#include "net/udp.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile_store.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "optimizer/pass.h"
#include "profiler/event.h"
#include "profiler/sink.h"
#include "server/mserver.h"
#include "storage/table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace stetho::obs {
namespace {

using mal::Argument;
using mal::MalType;
using mal::Program;
using storage::Catalog;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::TablePtr;
using storage::Value;

/// Tiny lineitem fixture for fixed-plan execution tests.
Catalog MakeCatalog() {
  Catalog cat;
  TablePtr t = Table::Make("lineitem",
                           Schema({{"l_partkey", DataType::kInt64},
                                   {"l_tax", DataType::kDouble}}));
  EXPECT_TRUE(t->AppendRow({Value::Int(1), Value::Double(0.02)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int(2), Value::Double(0.04)}).ok());
  EXPECT_TRUE(cat.AddTable(t).ok());
  return cat;
}

/// Three-instruction plan: sql.mvc; sql.bind l_partkey; io.print.
Program FixedPlan(const char* table = "lineitem") {
  Program p{"user.main"};
  int mvc = p.AddVariable(MalType::Scalar(DataType::kInt64));
  p.Add("sql", "mvc", {mvc}, {});
  int col = p.AddVariable(MalType::Bat(DataType::kInt64));
  p.Add("sql", "bind", {col},
        {Argument::Var(mvc), Argument::Const(Value::String("sys")),
         Argument::Const(Value::String(table)),
         Argument::Const(Value::String("l_partkey")),
         Argument::Const(Value::Int(0))});
  p.Add("io", "print", {}, {Argument::Var(col)});
  return p;
}

/// Counter value, or 0 when the metric has not been registered yet (the
/// process-wide registry's contents depend on which tests ran before us).
int64_t CounterOr0(Registry* registry, const std::string& name) {
  auto value = registry->CounterValue(name);
  return value.ok() ? value.value() : 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Registry -------------------------------------------------------------

TEST(RegistryTest, CounterGaugeBasics) {
  Registry registry;
  auto counter = registry.RegisterCounter("requests_total", "Requests.");
  ASSERT_TRUE(counter.ok());
  counter.value()->Increment();
  counter.value()->Increment(4);
  EXPECT_EQ(counter.value()->value(), 5);
  EXPECT_EQ(registry.CounterValue("requests_total").value(), 5);

  auto gauge = registry.RegisterGauge("depth", "Queue depth.");
  ASSERT_TRUE(gauge.ok());
  gauge.value()->Set(7);
  gauge.value()->Add(-2);
  EXPECT_EQ(registry.GaugeValue("depth").value(), 5);

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.CounterValue("missing").status().code() == StatusCode::kNotFound);
}

TEST(RegistryTest, StrictRegistrationValidatesNames) {
  Registry registry;
  EXPECT_TRUE(registry.RegisterCounter("9bad", "h").status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      registry.RegisterCounter("has space", "h").status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.RegisterCounter("", "h").status().code() == StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.RegisterCounter("ok_name:x", "h").ok());
  EXPECT_TRUE(
      registry.RegisterCounter("ok_name:x", "h").status().code() == StatusCode::kAlreadyExists);
  // Cross-kind collisions are rejected too: one namespace for all metrics.
  EXPECT_TRUE(
      registry.RegisterGauge("ok_name:x", "h").status().code() == StatusCode::kAlreadyExists);
}

TEST(RegistryTest, GetOrCreateIsIdempotent) {
  Registry registry;
  Counter* a = registry.GetOrCreateCounter("c", "h");
  Counter* b = registry.GetOrCreateCounter("c", "other help ignored");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->value(), 1);
  Histogram* h1 = registry.GetOrCreateHistogram("h", "h", {1, 2});
  Histogram* h2 = registry.GetOrCreateHistogram("h", "h", {99});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds().size(), 2u);  // first registration wins
}

TEST(RegistryTest, HistogramBucketEdges) {
  Registry registry;
  auto made = registry.RegisterHistogram("lat", "h", {10, 100});
  ASSERT_TRUE(made.ok());
  Histogram* h = made.value();
  h->Observe(0);     // <= 10
  h->Observe(10);    // boundary value lands in its own bucket (le semantics)
  h->Observe(11);    // <= 100
  h->Observe(100);   // <= 100
  h->Observe(101);   // +Inf
  EXPECT_EQ(h->bucket_count(0), 2);
  EXPECT_EQ(h->bucket_count(1), 2);
  EXPECT_EQ(h->bucket_count(2), 1);  // +Inf
  EXPECT_EQ(h->count(), 5);
  EXPECT_EQ(h->sum(), 0 + 10 + 11 + 100 + 101);
}

TEST(RegistryTest, DefaultLatencyBoundsAreAscending) {
  const std::vector<int64_t>& bounds = Histogram::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 4u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_GE(bounds.back(), 1000000);  // spans out to at least a second
}

TEST(RegistryTest, ExpositionTextGolden) {
  Registry registry;
  registry.GetOrCreateCounter("b_total", "A counter.")->Increment(3);
  registry.GetOrCreateGauge("c_depth", "A gauge.")->Set(-4);
  registry.GetOrCreateHistogram("a_usec", "A histogram.", {5, 50})->Observe(7);
  EXPECT_EQ(registry.ExpositionText(),
            "# HELP a_usec A histogram.\n"
            "# TYPE a_usec histogram\n"
            "a_usec_bucket{le=\"5\"} 0\n"
            "a_usec_bucket{le=\"50\"} 1\n"
            "a_usec_bucket{le=\"+Inf\"} 1\n"
            "a_usec_sum 7\n"
            "a_usec_count 1\n"
            "# HELP b_total A counter.\n"
            "# TYPE b_total counter\n"
            "b_total 3\n"
            "# HELP c_depth A gauge.\n"
            "# TYPE c_depth gauge\n"
            "c_depth -4\n");
}

TEST(RegistryTest, SnapshotIsSortedAndKinded) {
  Registry registry;
  registry.GetOrCreateGauge("z", "h")->Set(9);
  registry.GetOrCreateCounter("a", "h")->Increment(2);
  registry.GetOrCreateHistogram("m", "h", {1})->Observe(3);
  std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[0].kind, "counter");
  EXPECT_EQ(snap[0].value, 2);
  EXPECT_EQ(snap[1].name, "m");
  EXPECT_EQ(snap[1].kind, "histogram");
  EXPECT_EQ(snap[1].value, 1);  // observation count
  EXPECT_EQ(snap[1].sum, 3);
  EXPECT_EQ(snap[2].name, "z");
  EXPECT_EQ(snap[2].kind, "gauge");
  EXPECT_EQ(snap[2].value, 9);
}

// --- Tracer / Span --------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.RecordComplete("x", "phase", 0, -1, 0, 5);
  { Span span(&tracer, "y", "phase"); }
  { Span span(nullptr, "z", "phase"); }  // null tracer is explicitly fine
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0);
}

TEST(TracerTest, VirtualClockSpanNesting) {
  VirtualClock clock(100);
  Tracer tracer(&clock);
  tracer.SetEnabled(true);
  {
    Span outer(&tracer, "outer", "phase");
    clock.Advance(5);
    {
      Span inner(&tracer, "inner", "phase", /*tid=*/2, /*pc=*/7);
      clock.Advance(7);
    }
    clock.Advance(2);
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first; seq preserves record order.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].start_us, 105);
  EXPECT_EQ(spans[0].dur_us, 7);
  EXPECT_EQ(spans[0].tid, 2);
  EXPECT_EQ(spans[0].pc, 7);
  EXPECT_EQ(spans[0].seq, 0);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].start_us, 100);
  EXPECT_EQ(spans[1].dur_us, 14);  // contains the inner span
  EXPECT_EQ(spans[1].seq, 1);
  // The outer span fully covers the inner one on the timeline.
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
  EXPECT_GE(spans[1].start_us + spans[1].dur_us,
            spans[0].start_us + spans[0].dur_us);
}

TEST(TracerTest, RingEvictsOldestAndCounts) {
  VirtualClock clock;
  Tracer tracer(&clock, /*capacity=*/3);
  tracer.SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    tracer.RecordComplete("s" + std::to_string(i), "phase", 0, -1, i, 1);
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.total_recorded(), 5);
  EXPECT_EQ(tracer.dropped(), 2);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.front().name, "s2");
  EXPECT_EQ(spans.back().name, "s4");
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

// --- Chrome trace export --------------------------------------------------

TEST(TraceExportTest, GoldenChromeTraceJson) {
  std::vector<SpanRecord> spans(2);
  spans[0] = {"parse", "phase", 0, -1, 10, 4, 0};
  spans[1] = {"algebra.select \"q\"", "kernel", 3, 9, 14, 2, 1};
  EXPECT_EQ(
      WriteChromeTrace(spans),
      "{\"traceEvents\":["
      "{\"name\":\"parse\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":4,\"pid\":1,\"tid\":0,\"args\":{\"seq\":0}},"
      "{\"name\":\"algebra.select \\\"q\\\"\",\"cat\":\"kernel\","
      "\"ph\":\"X\",\"ts\":14,\"dur\":2,\"pid\":1,\"tid\":3,"
      "\"args\":{\"seq\":1,\"pc\":9}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceExportTest, ParseRoundTrip) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {"parse", "phase", 0, -1, 0, 12, 0};
  spans[1] = {"pass:dead-code", "pass", 0, -1, 12, 3, 1};
  spans[2] = {"line\nbreak\t\"x\"", "kernel", 1, 4, 15, 9, 2};
  auto parsed = ParseChromeTrace(WriteChromeTrace(spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), spans);
}

TEST(TraceExportTest, ParseAcceptsBareArrayAndSkipsNonComplete) {
  auto parsed = ParseChromeTrace(
      R"([{"name":"a","cat":"phase","ph":"X","ts":1,"dur":2,"tid":0,)"
      R"("args":{"seq":0}},)"
      R"({"name":"meta","ph":"M","pid":1},)"
      R"({"name":"b","cat":"kernel","ph":"X","ts":3.0,"dur":1,"tid":2,)"
      R"("args":{"seq":1,"pc":5}}])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].name, "a");
  EXPECT_EQ(parsed.value()[1].pc, 5);
  EXPECT_EQ(parsed.value()[1].start_us, 3);
}

TEST(TraceExportTest, ParseRejectsMalformedJson) {
  EXPECT_TRUE(ParseChromeTrace("{\"traceEvents\":").status().code() == StatusCode::kParseError);
  EXPECT_TRUE(ParseChromeTrace("42").status().code() == StatusCode::kParseError);
  EXPECT_TRUE(ParseChromeTrace("{}").status().code() == StatusCode::kParseError);
  EXPECT_TRUE(ParseChromeTrace("[1,2]").status().code() == StatusCode::kParseError);
}

/// The acceptance-test shape in miniature: a fixed plan run sequentially on
/// a VirtualClock with synthetic padding produces a byte-for-byte
/// deterministic Chrome trace.
TEST(TraceExportTest, GoldenTraceForFixedPlan) {
  Catalog cat = MakeCatalog();
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.SetEnabled(true);

  engine::ExecOptions opts;
  opts.use_dataflow = false;
  opts.clock = &clock;
  opts.pad_instruction_usec = 10;
  opts.tracer = &tracer;
  engine::Interpreter interp(&cat);
  auto result = interp.Execute(FixedPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(
      WriteChromeTrace(tracer.Snapshot()),
      "{\"traceEvents\":["
      "{\"name\":\"sql.mvc\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":10,\"pid\":1,\"tid\":0,\"args\":{\"seq\":0,\"pc\":0}},"
      "{\"name\":\"sql.bind\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":10,\"pid\":1,\"tid\":0,\"args\":{\"seq\":1,\"pc\":1}},"
      "{\"name\":\"io.print\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":20,"
      "\"dur\":10,\"pid\":1,\"tid\":0,\"args\":{\"seq\":2,\"pc\":2}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

/// Under the dataflow scheduler span tids are query-local admission slots:
/// every tid stays inside [0, dop) — the trace thread contract the exported
/// trace must preserve.
TEST(TraceExportTest, DataflowSpansCarrySlotTids) {
  Catalog cat = MakeCatalog();
  VirtualClock clock;
  Tracer tracer(&clock);
  tracer.SetEnabled(true);
  engine::ExecOptions opts;
  opts.num_threads = 2;
  opts.tracer = &tracer;
  engine::Interpreter interp(&cat);
  auto result = interp.Execute(FixedPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.cat, "kernel");
    EXPECT_GE(span.tid, 0);
    EXPECT_LT(span.tid, 2);
    EXPECT_GE(span.pc, 0);
  }
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, RenderContainsNotesSpansAndMetrics) {
  Registry registry;
  registry.GetOrCreateCounter("fr_demo_total", "h")->Increment(6);
  VirtualClock clock(50);
  Tracer tracer(&clock);
  tracer.SetEnabled(true);
  tracer.RecordComplete("algebra.select", "kernel", 1, 3, 50, 4);
  FlightRecorder recorder(&registry, &tracer);
  recorder.SetEnabled(true);
  recorder.Note("query s0 admitted");
  std::string report = recorder.Render("test reason");
  EXPECT_NE(report.find("test reason"), std::string::npos) << report;
  EXPECT_NE(report.find("query s0 admitted"), std::string::npos) << report;
  EXPECT_NE(report.find("algebra.select"), std::string::npos) << report;
  EXPECT_NE(report.find("fr_demo_total"), std::string::npos) << report;
}

TEST(FlightRecorderTest, NotesAreBoundedAndDisabledNotesDropped) {
  Registry registry;
  Tracer tracer;
  FlightRecorder recorder(&registry, &tracer, /*max_notes=*/2);
  recorder.Note("ignored while disabled");
  recorder.SetEnabled(true);
  recorder.Note("one");
  recorder.Note("two");
  recorder.Note("three");
  std::string report = recorder.Render("r");
  EXPECT_EQ(report.find("ignored while disabled"), std::string::npos);
  EXPECT_EQ(report.find("one"), std::string::npos);  // evicted
  EXPECT_NE(report.find("two"), std::string::npos);
  EXPECT_NE(report.find("three"), std::string::npos);
}

TEST(FlightRecorderTest, DumpsOnQueryAbort) {
  Catalog cat = MakeCatalog();
  Registry registry;
  Tracer tracer;
  FlightRecorder recorder(&registry, &tracer);
  recorder.SetEnabled(true);
  const std::string path = testing::TempDir() + "obs_abort_dump.txt";
  ASSERT_TRUE(recorder.SetOutputFile(path).ok());

  engine::ExecOptions opts;
  opts.use_dataflow = false;
  opts.recorder = &recorder;
  engine::Interpreter interp(&cat);
  auto result = interp.Execute(FixedPlan("no_such_table"), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(recorder.dump_count(), 1);
  ASSERT_TRUE(recorder.SetOutputFile("").ok());  // flush + close

  std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("query aborted"), std::string::npos) << dump;
  EXPECT_NE(dump.find("no_such_table"), std::string::npos) << dump;
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DisabledRecorderStaysSilentOnAbort) {
  Catalog cat = MakeCatalog();
  Registry registry;
  Tracer tracer;
  FlightRecorder recorder(&registry, &tracer);  // never enabled
  engine::ExecOptions opts;
  opts.use_dataflow = false;
  opts.recorder = &recorder;
  engine::Interpreter interp(&cat);
  ASSERT_FALSE(interp.Execute(FixedPlan("no_such_table"), opts).ok());
  EXPECT_EQ(recorder.dump_count(), 0);
}

/// A deliberately broken pass (reverses the plan): the pipeline's post-pass
/// lint fails, and the process-wide flight recorder captures the black box.
class ClobberPass : public optimizer::Pass {
 public:
  const char* name() const override { return "clobber"; }
  Result<optimizer::Effect> Apply(Program* program,
                                  const analysis::Facts&) override {
    std::vector<mal::Instruction> reversed(program->instructions().rbegin(),
                                           program->instructions().rend());
    program->ReplaceInstructions(std::move(reversed));
    return optimizer::Effect::Rewrite();
  }
};

TEST(FlightRecorderTest, DumpsOnPipelineFailure) {
  FlightRecorder* recorder = FlightRecorder::Default();
  const std::string path = testing::TempDir() + "obs_pipeline_dump.txt";
  ASSERT_TRUE(recorder->SetOutputFile(path).ok());
  recorder->SetEnabled(true);
  int64_t dumps_before = recorder->dump_count();

  Program p = FixedPlan();
  optimizer::Pipeline pipeline;
  pipeline.Add(std::make_unique<ClobberPass>());
  auto fired = pipeline.Run(&p);
  ASSERT_FALSE(fired.ok());

  recorder->SetEnabled(false);
  ASSERT_TRUE(recorder->SetOutputFile("").ok());
  EXPECT_EQ(recorder->dump_count(), dumps_before + 1);
  std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("clobber"), std::string::npos) << dump;
  std::remove(path.c_str());
}

// --- Built-in instrumentation --------------------------------------------

TEST(InstrumentationTest, PoolAndKernelMetricsAdvance) {
  Registry* registry = Registry::Default();
  Catalog cat = MakeCatalog();
  SetEnabled(true);  // opt into latency observation for this test
  int64_t executed_before =
      CounterOr0(registry, "stetho_pool_executed_total");

  engine::ExecOptions opts;
  opts.num_threads = 2;
  engine::Interpreter interp(&cat);
  auto result = interp.Execute(FixedPlan(), opts);
  SetEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every instruction ran as one pool task.
  EXPECT_GE(registry->CounterValue("stetho_pool_executed_total").value(),
            executed_before + 3);
  // The pool registered its gauge/histogram companions.
  EXPECT_TRUE(registry->GaugeValue("stetho_pool_queue_depth").ok());
  EXPECT_TRUE(registry->FindHistogram("stetho_pool_task_usec").ok());
  EXPECT_TRUE(registry->CounterValue("stetho_pool_steals_total").ok());
  EXPECT_TRUE(registry->CounterValue("stetho_pool_wakeups_total").ok());
  // Kernel families from the fixed plan: sql.* and io.*.
  EXPECT_GE(registry->CounterValue("stetho_kernel_sql_calls_total").value(), 2);
  EXPECT_GE(registry->CounterValue("stetho_kernel_io_calls_total").value(), 1);
  EXPECT_TRUE(registry->FindHistogram("stetho_kernel_sql_usec").ok());
}

TEST(InstrumentationTest, RingSinkCountsOverwrites) {
  Registry* registry = Registry::Default();
  int64_t before =
      CounterOr0(registry, "stetho_profiler_ring_dropped_total");
  profiler::RingBufferSink sink(2);
  for (int i = 0; i < 5; ++i) {
    profiler::TraceEvent e;
    e.pc = i;
    sink.Consume(e);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.total_consumed(), 5);
  EXPECT_EQ(sink.dropped(), 3);
  EXPECT_EQ(
      registry->CounterValue("stetho_profiler_ring_dropped_total").value(),
      before + 3);
}

TEST(InstrumentationTest, DatagramSinkCountsFailedSends) {
  Registry* registry = Registry::Default();
  int64_t before =
      CounterOr0(registry, "stetho_net_trace_dropped_total");
  auto [sender, receiver] = net::Channel::CreatePair();
  net::DatagramTraceSink sink(
      std::shared_ptr<net::DatagramSender>(std::move(sender)));
  profiler::TraceEvent e;
  sink.Consume(e);
  EXPECT_EQ(sink.dropped(), 0);
  receiver.reset();  // closed peer: every further send is a dropped event
  sink.Consume(e);
  sink.Consume(e);
  EXPECT_EQ(sink.dropped(), 2);
  EXPECT_EQ(registry->CounterValue("stetho_net_trace_dropped_total").value(),
            before + 2);
}

// The optimizer explains its own time: a verify:<pass> span beside each
// pass:<pass> span, the stetho_opt_verify_usec histogram, and while the
// flight recorder is on one note per pass (plan size before and after, the
// effect, pass and verify microseconds).
TEST(InstrumentationTest, PipelineTimesEachPassAndItsVerification) {
  Tracer* tracer = Tracer::Default();
  FlightRecorder* recorder = FlightRecorder::Default();
  tracer->SetEnabled(true);
  tracer->Clear();
  SetEnabled(true);
  recorder->SetEnabled(true);

  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions options;
  options.mitosis_pieces = 16;
  server::Mserver server(std::move(cat).value(), options);
  auto plan = server.Explain(tpch::GetQuery("q6").value().sql);
  const std::string black_box = recorder->Render("pipeline test");
  recorder->SetEnabled(false);
  SetEnabled(false);
  tracer->SetEnabled(false);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::vector<std::string> passes;
  std::vector<std::string> verified;
  for (const SpanRecord& span : tracer->Snapshot()) {
    if (span.cat == "pass") passes.push_back(span.name.substr(5));
    if (span.cat == "verify") {
      ASSERT_EQ(span.name.rfind("verify:", 0), 0u) << span.name;
      verified.push_back(span.name.substr(7));
    }
  }
  tracer->Clear();
  EXPECT_EQ(passes.size(), optimizer::Pipeline::Default(16).size());
  EXPECT_EQ(verified, passes);
  for (const std::string& pass : passes) {
    EXPECT_NE(black_box.find("optimizer pass " + pass + ": "),
              std::string::npos)
        << pass << " has no note in\n" << black_box;
  }
  EXPECT_NE(black_box.find("optimizer pass mitosis: "), std::string::npos);
  EXPECT_TRUE(
      Registry::Default()->FindHistogram("stetho_opt_verify_usec").ok());
  for (const std::string& violation : Registry::Default()->AuditMetricNames()) {
    EXPECT_EQ(violation.find("stetho_opt_"), std::string::npos) << violation;
  }
}

TEST(InstrumentationTest, UdpCountersTrackDatagrams) {
  Registry* registry = Registry::Default();
  int64_t sent_before =
      CounterOr0(registry, "stetho_net_datagrams_sent_total");
  int64_t recv_before =
      CounterOr0(registry, "stetho_net_datagrams_recv_total");
  auto receiver = net::UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.ok());
  auto sender = net::UdpSender::Connect(receiver.value()->port());
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender.value()->Send("ping").ok());
  std::string payload;
  auto got = receiver.value()->Receive(&payload, 2000);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(payload, "ping");
  EXPECT_GE(registry->CounterValue("stetho_net_datagrams_sent_total").value(),
            sent_before + 1);
  EXPECT_GE(registry->CounterValue("stetho_net_datagrams_recv_total").value(),
            recv_before + 1);
}

TEST(InstrumentationTest, ServerEmitsPhaseSpansAndOptimizerMetrics) {
  Registry* registry = Registry::Default();
  Tracer* tracer = Tracer::Default();
  tracer->SetEnabled(true);
  tracer->Clear();
  SetEnabled(true);  // pass/task latency histograms observe only when active
  int64_t fired_before =
      CounterOr0(registry, "stetho_opt_passes_fired_total");

  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions options;
  options.dop = 2;  // force the shared pool even on a single-CPU machine
  server::Mserver server(std::move(cat).value(), options);
  auto outcome = server.ExecuteSql(tpch::GetQuery("q6").value().sql);
  SetEnabled(false);
  tracer->SetEnabled(false);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  std::vector<std::string> phases;
  for (const SpanRecord& span : tracer->Snapshot()) {
    if (span.cat == "phase") phases.push_back(span.name);
    if (span.cat == "pass") {
      EXPECT_EQ(span.name.rfind("pass:", 0), 0u) << span.name;
    }
  }
  tracer->Clear();
  // Each phase scope closes before the next opens, so record order is the
  // pipeline order.
  EXPECT_EQ(phases, (std::vector<std::string>{"parse", "optimize", "admit",
                                              "execute"}));
  EXPECT_GT(registry->CounterValue("stetho_opt_passes_fired_total").value(),
            fired_before);
  EXPECT_TRUE(registry->FindHistogram("stetho_opt_pass_usec").ok());
  // The server's dump command is one string away from Prometheus scrape.
  std::string text = server.MetricsText();
  EXPECT_NE(text.find("stetho_pool_executed_total"), std::string::npos);

  // Profiler emission counters advanced alongside (per-event accounting).
  EXPECT_GE(
      registry->CounterValue("stetho_profiler_events_emitted_total").value(),
      2);
}

// --- trace-span-conformance lint check ------------------------------------

profiler::TraceEvent DoneEvent(int pc, int thread) {
  profiler::TraceEvent e;
  e.pc = pc;
  e.thread = thread;
  e.state = profiler::EventState::kDone;
  return e;
}

std::vector<analysis::Diagnostic> RunConformance(
    const std::vector<profiler::TraceEvent>& trace,
    const std::vector<SpanRecord>& spans) {
  const analysis::Facts facts(nullptr, &trace);
  analysis::CheckContext ctx;
  ctx.trace = &trace;
  ctx.facts = &facts;
  ctx.spans = &spans;
  std::vector<analysis::Diagnostic> out;
  analysis::MakeTraceSpanConformanceCheck()->Run(ctx, &out);
  return out;
}

TEST(TraceSpanConformanceTest, CleanWhenSpansMatchTrace) {
  std::vector<profiler::TraceEvent> trace = {DoneEvent(0, 0), DoneEvent(1, 1)};
  std::vector<SpanRecord> spans(3);
  spans[0] = {"sql.bind", "kernel", 0, 0, 0, 5, 0};
  spans[1] = {"algebra.select", "kernel", 1, 1, 5, 5, 1};
  spans[2] = {"execute", "phase", 0, -1, 0, 10, 2};  // phases are exempt
  EXPECT_TRUE(RunConformance(trace, spans).empty());
}

TEST(TraceSpanConformanceTest, FlagsMissingSpanAndTidDivergence) {
  std::vector<profiler::TraceEvent> trace = {DoneEvent(0, 0), DoneEvent(1, 1)};
  std::vector<SpanRecord> spans(1);
  spans[0] = {"sql.bind", "kernel", 3, 0, 0, 5, 0};  // pc 1 missing, tid wrong
  std::vector<analysis::Diagnostic> out = RunConformance(trace, spans);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].message.find("thread id diverges"), std::string::npos)
      << out[0].message;
  EXPECT_NE(out[1].message.find("0 kernel span(s)"), std::string::npos)
      << out[1].message;
}

TEST(TraceSpanConformanceTest, WarnsOnSpanWithoutProfilerPair) {
  std::vector<profiler::TraceEvent> trace;  // filter dropped everything
  std::vector<SpanRecord> spans(1);
  spans[0] = {"sql.bind", "kernel", 0, 2, 0, 5, 0};
  std::vector<analysis::Diagnostic> out = RunConformance(trace, spans);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].severity, analysis::Severity::kWarning);
}

TEST(TraceSpanConformanceTest, ErrorsOnKernelSpanWithoutPc) {
  std::vector<profiler::TraceEvent> trace = {DoneEvent(0, 0)};
  std::vector<SpanRecord> spans(2);
  spans[0] = {"sql.bind", "kernel", 0, 0, 0, 5, 0};
  spans[1] = {"mystery", "kernel", 0, -1, 5, 5, 1};
  std::vector<analysis::Diagnostic> out = RunConformance(trace, spans);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("carries no pc"), std::string::npos);
}

// --- Concurrency stress (run under TSan via the sanitizer presets) --------

TEST(ObsStressTest, ConcurrentRegistryTracerAndSnapshots) {
  Registry registry;
  VirtualClock clock;
  Tracer tracer(&clock, /*capacity=*/256);
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kIters; ++i) {
        // All threads race GetOrCreate on a shared name plus one of their
        // own, interleaved with hot-path updates and reader snapshots.
        registry.GetOrCreateCounter("stress_shared_total", "h")->Increment();
        registry
            .GetOrCreateHistogram("stress_usec_" + std::to_string(t % 3), "h",
                                  Histogram::DefaultLatencyBounds())
            ->Observe(i);
        tracer.RecordComplete("op", "kernel", t, i, i, 1);
        if (i % 64 == 0) {
          (void)registry.ExpositionText();
          (void)registry.Snapshot();
          (void)tracer.Snapshot();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("stress_shared_total").value(),
            kThreads * kIters);
  EXPECT_EQ(tracer.total_recorded(), kThreads * kIters);
  EXPECT_EQ(tracer.size() + static_cast<size_t>(tracer.dropped()),
            static_cast<size_t>(kThreads * kIters));
}

TEST(ObsStressTest, ConcurrentQueriesShareDefaultRegistry) {
  Catalog cat = MakeCatalog();
  Registry* registry = Registry::Default();
  SetEnabled(true);
  int64_t before =
      CounterOr0(registry, "stetho_kernel_sql_calls_total");
  constexpr int kQueries = 6;
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&cat] {
      engine::ExecOptions opts;
      opts.num_threads = 2;
      engine::Interpreter interp(&cat);
      auto result = interp.Execute(FixedPlan(), opts);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    });
  }
  for (std::thread& t : threads) t.join();
  SetEnabled(false);
  EXPECT_EQ(registry->CounterValue("stetho_kernel_sql_calls_total").value(),
            before + 2 * kQueries);
}


// --- metric-naming audit (satellite of the pipeline-health issue) ---

TEST(HistogramTest, QuantileEstimateInterpolatesInsideBuckets) {
  Registry reg;
  Histogram* h = reg.GetOrCreateHistogram("stetho_qtest_usec", "h",
                                          {10, 100, 1000});
  EXPECT_EQ(h->QuantileEstimate(0.5), 0.0);  // empty
  // 100 observations uniformly inside the (10, 100] bucket.
  for (int i = 0; i < 100; ++i) h->Observe(55);
  double p50 = h->QuantileEstimate(0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  // Everything in one bucket: p95 lands in the same bucket as p50.
  EXPECT_LE(h->QuantileEstimate(0.95), 100.0);
  // An observation past the last bound clamps to it rather than inventing
  // an upper edge for +Inf.
  for (int i = 0; i < 1000; ++i) h->Observe(5000);
  EXPECT_EQ(h->QuantileEstimate(0.99), 1000.0);
}

TEST(HistogramTest, QuantileEstimateOrdersQuantiles) {
  Registry reg;
  Histogram* h = reg.GetOrCreateHistogram(
      "stetho_qorder_usec", "h", Histogram::DefaultLatencyBounds());
  for (int64_t v = 1; v <= 2000; ++v) h->Observe(v);
  const double p50 = h->QuantileEstimate(0.5);
  const double p95 = h->QuantileEstimate(0.95);
  const double p99 = h->QuantileEstimate(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // The estimate is bucket-bounded: the true p50 (1000) sits inside the
  // bucket the estimate falls in.
  EXPECT_NEAR(p50, 1000.0, 1000.0);
}

TEST(RegistryTest, HistogramSummaryTextListsNonEmptyHistograms) {
  Registry reg;
  Histogram* seen = reg.GetOrCreateHistogram("stetho_summary_seen_usec", "h",
                                             {10, 100});
  reg.GetOrCreateHistogram("stetho_summary_empty_usec", "h", {10, 100});
  for (int i = 0; i < 10; ++i) seen->Observe(42);
  const std::string summary = reg.HistogramSummaryText();
  EXPECT_NE(summary.find("stetho_summary_seen_usec"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("p50="), std::string::npos) << summary;
  EXPECT_NE(summary.find("p95="), std::string::npos) << summary;
  EXPECT_NE(summary.find("p99="), std::string::npos) << summary;
  EXPECT_NE(summary.find("count=10"), std::string::npos) << summary;
  // Histograms with no observations stay out of the summary.
  EXPECT_EQ(summary.find("stetho_summary_empty_usec"), std::string::npos)
      << summary;
}

TEST(FlightRecorderTest, BundleDirWritesOrdinalFiles) {
  const std::string dir = testing::TempDir() + "obs_flight_bundles";
  mkdir(dir.c_str(), 0755);
  Registry registry;
  Tracer tracer;
  FlightRecorder recorder(&registry, &tracer);
  recorder.SetEnabled(true);
  recorder.Note("bundle note");
  ASSERT_TRUE(recorder.SetOutputDir(dir).ok());
  EXPECT_EQ(recorder.NextBundlePath(), dir + "/flight_0001.txt");

  recorder.Dump("first failure");
  recorder.Dump("second failure");
  EXPECT_EQ(recorder.dump_count(), 2);
  EXPECT_EQ(recorder.NextBundlePath(), dir + "/flight_0003.txt");

  const std::string first = ReadFile(dir + "/flight_0001.txt");
  EXPECT_NE(first.find("first failure"), std::string::npos) << first;
  EXPECT_NE(first.find("bundle note"), std::string::npos) << first;
  const std::string second = ReadFile(dir + "/flight_0002.txt");
  EXPECT_NE(second.find("second failure"), std::string::npos) << second;

  // "" restores single-stream output and empties the bundle path.
  ASSERT_TRUE(recorder.SetOutputDir("").ok());
  EXPECT_EQ(recorder.NextBundlePath(), "");
  std::remove((dir + "/flight_0001.txt").c_str());
  std::remove((dir + "/flight_0002.txt").c_str());
}

TEST(MetricsAuditTest, FlagsEveryNamingRuleViolation) {
  Registry reg;
  reg.GetOrCreateCounter("stetho_events", "counter missing _total");
  reg.GetOrCreateGauge("stetho_depth_total", "gauge posing as a counter");
  reg.GetOrCreateHistogram("stetho_delay", "histogram without a unit suffix",
                           Histogram::DefaultLatencyBounds());
  reg.GetOrCreateCounter("stetho_Bad_case_total", "uppercase letters");
  std::vector<std::string> violations = reg.AuditMetricNames();
  ASSERT_EQ(violations.size(), 4u);
  std::string all;
  for (const std::string& v : violations) all += v + "\n";
  EXPECT_NE(all.find("stetho_events"), std::string::npos) << all;
  EXPECT_NE(all.find("stetho_depth_total"), std::string::npos) << all;
  EXPECT_NE(all.find("stetho_delay"), std::string::npos) << all;
  EXPECT_NE(all.find("stetho_Bad_case_total"), std::string::npos) << all;
}

TEST(MetricsAuditTest, AcceptsConformingNames) {
  Registry reg;
  reg.GetOrCreateCounter("stetho_pipe_lost_total", "ok");
  reg.GetOrCreateGauge("stetho_query_progress_ratio", "ok");
  reg.GetOrCreateHistogram("stetho_pipe_latency_usec", "ok",
                           Histogram::DefaultLatencyBounds());
  reg.GetOrCreateHistogram("stetho_batch_bytes", "ok",
                           Histogram::DefaultLatencyBounds());
  EXPECT_TRUE(reg.AuditMetricNames().empty());
}

/// The audit that matters: every metric the platform actually registers
/// conforms. ctest runs each case in its own process, so the test first
/// drives a query through the instrumented stack (server, pool, kernels,
/// optimizer, profiler, pipe health, progress) to populate the default
/// registry with the real stetho_* catalog.
TEST(MetricsAuditTest, DefaultRegistryCatalogIsClean) {
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  auto cat = tpch::GenerateTpch(config);
  ASSERT_TRUE(cat.ok());
  server::MserverOptions options;
  options.dop = 2;
  server::Mserver server(std::move(cat).value(), options);
  ASSERT_TRUE(server.ExecuteSql("select count(*) from nation").ok());
  // Register the rest of the profile-store family (loads / evictions /
  // corrupt-lines fire on load paths the query above does not take).
  {
    const std::string path = testing::TempDir() + "obs_audit.profile";
    std::ofstream out(path);
    out << "not a profile record\n";
    out.close();
    ProfileStoreOptions store_options;
    store_options.capacity = 1;
    ProfileStore store(store_options);
    ASSERT_TRUE(store.LoadFile(path).ok());
    QueryObservation observation;
    observation.shape_hash = 0x1;
    observation.plan_size = 1;
    observation.pcs.push_back({0, 5, 0, 1});
    ASSERT_TRUE(store.Fold(observation).ok());
    observation.shape_hash = 0x2;
    ASSERT_TRUE(store.Fold(observation).ok());  // evicts shape 0x1
    std::remove(path.c_str());
  }
  net::StreamHealth health;
  profiler::TraceEvent e;
  e.event = 0;
  e.state = profiler::EventState::kDone;
  health.Observe(e, /*ingest_us=*/1);
  health.ObserveStaleness(2);
  health.Finalize();
  (void)server.MetricsText();

  std::vector<std::string> violations =
      Registry::Default()->AuditMetricNames();
  std::string all;
  for (const std::string& v : violations) all += v + "\n";
  EXPECT_TRUE(violations.empty()) << all;
}

}  // namespace
}  // namespace stetho::obs
